/**
 * @file
 * Runtime droop guard (§8.2): integrate a quantized APOLLO OPM with the
 * RLC power-delivery model and use the OPM's per-cycle delta-I
 * estimate to trigger adaptive clocking *before* the voltage droop
 * develops. Compares worst-case voltage with and without the guard and
 * sweeps the trigger threshold (margin-vs-performance trade-off).
 *
 * Run: ./examples/droop_guard
 */

#include <algorithm>
#include <cstdio>

#include "apollo.hh"

using namespace apollo;

int
main()
{
    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());

    // Train a model (GA-less for brevity).
    DatasetBuilder builder(netlist);
    Xoshiro256StarStar rng(2024);
    for (int i = 0; i < 18; ++i) {
        builder.addProgram(
            Program::makeLoop("t" + std::to_string(i),
                              GaGenerator::randomBody(rng, 6, 24), 4000,
                              rng()),
            300);
    }
    const Trainer trainer(TrainOptions().targetQ(40));
    const ApolloModel model =
        trainer.train(builder.build(), netlist.name()).model;

    // A bursty workload: compute bursts after idle stretches are what
    // produce the worst Ldi/dt transients.
    DesignTimeFlows flows(netlist);
    const Program workload = makeLongWorkload("bursty", 16000, 0xd00);
    const FlowReport truth = flows.runCommercialFlow(workload, 12000);
    const FlowReport est = flows.runEmulatorFlow(workload, 12000, model);

    // The OPM watches its own estimate.
    const DidtAnalysis didt = analyzeDidt(truth.power, est.power, 0.75);
    std::printf("OPM delta-I tracking: Pearson=%.3f, droop-precursor "
                "recall=%.0f%%\n\n",
                didt.pearsonDeltaI, 100.0 * didt.deepDroopRecall);

    // Normalize the PDN gains to this design's current scale so a
    // full-swing current step produces a realistic ~4% droop.
    double mean_current = 0.0;
    for (float pwr : truth.power)
        mean_current += pwr;
    mean_current /= static_cast<double>(truth.power.size()) * 0.75;
    PdnParams pdn;
    pdn.rStatic = 0.01 / mean_current;
    pdn.dynamicGain = 0.05 / mean_current;
    const double droop_threshold = pdn.vdd * 0.965;
    const DroopSimResult base =
        simulateDroop(truth.power, pdn, droop_threshold);
    std::printf("without mitigation: min voltage %.4f V (%.1f mV "
                "droop), %llu cycles under the %.4f V threshold\n",
                base.minVoltage,
                1000.0 * (pdn.vdd - base.minVoltage),
                static_cast<unsigned long long>(base.droopCycles),
                droop_threshold);

    // Sweep the trigger percentile: tighter triggers buy margin at the
    // cost of throttled cycles.
    std::vector<double> di = deltaI(currentFromPower(est.power,
                                                     pdn.vdd));
    std::vector<double> mags;
    for (double d : di)
        mags.push_back(std::abs(d));
    std::sort(mags.begin(), mags.end());

    std::printf("\nOPM-guided adaptive clocking (stretch 0.5x for 6 "
                "cycles after a trigger):\n");
    std::printf("%-12s %-14s %-14s %-12s\n", "trigger pctl",
                "min voltage", "margin gain", "throttled");
    for (double pctl : {0.995, 0.99, 0.97, 0.92}) {
        const double trigger =
            mags[static_cast<size_t>(pctl * (mags.size() - 1))];
        const DroopSimResult guarded = simulateWithMitigation(
            truth.power, est.power, pdn, droop_threshold, trigger, 0.5,
            6);
        std::printf("%-12.3f %-14.4f %+8.1f mV   %5.2f%% of cycles\n",
                    pctl, guarded.minVoltage,
                    1000.0 * (guarded.minVoltage - base.minVoltage),
                    100.0 * guarded.throttledCycles /
                        truth.power.size());
    }
    std::printf("\nthe per-cycle OPM is what makes this possible: "
                "coarse monitors (1000+ cycle resolution) cannot see "
                "Ldi/dt transients that develop in <10 cycles.\n");
    return 0;
}
