/**
 * @file
 * Reproduces Fig. 17 and §8.2: per-cycle OPM output vs ground-truth
 * delta-I. Paper anchor: Pearson 0.946 between the OPM estimate and the
 * sign-off delta-I; deep droop/overshoot corners correlate well while
 * disagreement quadrants hold only small-magnitude samples. Also runs
 * the proactive Ldi/dt mitigation loop on the RLC PDN model (the
 * paper's stated future-work application, §9).
 */

#include <cstdio>
#include <iostream>

#include "common.hh"

using namespace apollo;
using namespace apollo::bench;

int
main()
{
    Context ctx = loadContext(Design::N1ish);
    printHeader("Fig. 17 / §8.2",
                "per-cycle delta-I estimation and proactive droop "
                "mitigation",
                ctx);

    const ApolloTrainResult res = trainApolloAtQ(ctx, 159);
    const QuantizedModel qm = quantizeModel(res.model, 10);
    const BitColumnMatrix proxies =
        ctx.test.X.selectColumns(res.model.proxyIds);
    const std::vector<float> est = Inference(qm, 1).predict(proxies);

    const double vdd = 0.75;
    const DidtAnalysis didt = analyzeDidt(ctx.test.y, est, vdd);

    std::printf("Pearson(delta-I truth, delta-I OPM) = %.3f "
                "(paper: 0.946)\n",
                didt.pearsonDeltaI);
    std::printf("deep-event Pearson (|dI| above p95)  = %.3f "
                "(droop/overshoot corners correlate well)\n",
                didt.deepEventPearson);
    std::printf("droop-precursor recall (top-decile positive dI "
                "caught by the OPM's own top decile) = %.1f%%\n\n",
                100.0 * didt.deepDroopRecall);

    const uint64_t total = didt.quadPosPos + didt.quadPosNeg +
                           didt.quadNegPos + didt.quadNegNeg;
    TablePrinter quads({"quadrant (truth sign / est sign)", "samples",
                        "share"});
    auto row = [&](const char *name, uint64_t count) {
        quads.addRow({name,
                      TablePrinter::integer(
                          static_cast<long long>(count)),
                      TablePrinter::percent(
                          static_cast<double>(count) / total)});
    };
    row("+/+ (rising current, predicted rising)", didt.quadPosPos);
    row("-/- (falling current, predicted falling)", didt.quadNegNeg);
    row("+/- (missed rise)", didt.quadPosNeg);
    row("-/+ (false rise)", didt.quadNegPos);
    quads.render(std::cout);

    // --- Proactive mitigation on the PDN model ---
    // Normalize the PDN gains to this design's current scale (the PDN
    // parameters are per-ampere; our power units are arbitrary).
    double mean_current = 0.0;
    for (float pwr : ctx.test.y)
        mean_current += pwr;
    mean_current /= static_cast<double>(ctx.test.y.size()) * vdd;
    PdnParams pdn;
    pdn.vdd = vdd;
    pdn.rStatic = 0.01 / mean_current;
    pdn.dynamicGain = 0.05 / mean_current;
    const double threshold = vdd * 0.955;
    const DroopSimResult base =
        simulateDroop(ctx.test.y, pdn, threshold);

    // Trigger on the OPM's delta estimate at its 97th percentile.
    std::vector<double> di = deltaI(currentFromPower(est, vdd));
    std::vector<double> mags;
    for (double d : di)
        mags.push_back(std::abs(d));
    std::sort(mags.begin(), mags.end());
    const double trigger =
        mags[static_cast<size_t>(0.97 * (mags.size() - 1))];
    const DroopSimResult mitigated = simulateWithMitigation(
        ctx.test.y, est, pdn, threshold, trigger, 0.5, 6);

    std::printf("\nproactive Ldi/dt mitigation (adaptive clocking "
                "driven by the OPM):\n");
    TablePrinter mit2({"configuration", "min voltage", "max overshoot",
                       "droop cycles", "throttled cycles"});
    mit2.addRow({"no mitigation", TablePrinter::num(base.minVoltage, 4),
                 TablePrinter::num(base.maxOvershoot, 4),
                 TablePrinter::integer(
                     static_cast<long long>(base.droopCycles)),
                 "0"});
    mit2.addRow({"OPM-guided adaptive clocking",
                 TablePrinter::num(mitigated.minVoltage, 4),
                 TablePrinter::num(mitigated.maxOvershoot, 4),
                 TablePrinter::integer(
                     static_cast<long long>(mitigated.droopCycles)),
                 TablePrinter::integer(static_cast<long long>(
                     mitigated.throttledCycles))});
    mit2.render(std::cout);
    std::printf("(throttling engaged on %.2f%% of cycles; min-voltage "
                "margin recovered: %.1f mV)\n",
                100.0 * mitigated.throttledCycles / ctx.test.cycles(),
                1000.0 * (mitigated.minVoltage - base.minVoltage));
    return 0;
}
