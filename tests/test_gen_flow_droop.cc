/**
 * @file
 * Tests for the GA micro-benchmark generator (§4.1), the design-time
 * flows (Fig. 7), the long-workload generator, and the droop
 * application (§8.2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "apollo.hh"

namespace apollo {
namespace {

/** One small GA run shared across the GA tests. */
struct GaFixtureData
{
    Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    DatasetBuilder builder{netlist};
    GaGenerator ga;

    GaFixtureData()
        : ga(builder,
             [] {
                 GaConfig cfg;
                 cfg.populationSize = 16;
                 cfg.generations = 6;
                 cfg.fitnessCycles = 300;
                 return cfg;
             }())
    {
        ga.run();
    }
};

const GaFixtureData &
gaFixture()
{
    static GaFixtureData data;
    return data;
}

TEST(GaGenerator, EvaluatesWholePopulationEachGeneration)
{
    const auto &fx = gaFixture();
    EXPECT_EQ(fx.ga.all().size(), 16u * 6u);
    for (const GaIndividual &ind : fx.ga.all()) {
        EXPECT_GE(ind.body.size(), 6u);
        EXPECT_LE(ind.body.size(), 26u);
        EXPECT_GT(ind.avgPower, 0.0);
    }
}

TEST(GaGenerator, PowerImprovesAcrossGenerations)
{
    // The generation-max envelope should rise (Fig. 3(b)).
    const auto &fx = gaFixture();
    double first_max = 0.0;
    double last_max = 0.0;
    for (const GaIndividual &ind : fx.ga.all()) {
        if (ind.generation == 0)
            first_max = std::max(first_max, ind.avgPower);
        if (ind.generation == 5)
            last_max = std::max(last_max, ind.avgPower);
    }
    EXPECT_GT(last_max, first_max);
    EXPECT_EQ(fx.ga.best().avgPower,
              [&] {
                  double best = 0.0;
                  for (const auto &ind : fx.ga.all())
                      best = std::max(best, ind.avgPower);
                  return best;
              }());
}

TEST(GaGenerator, WidePowerRange)
{
    // Fig. 3(b): >5x ratio between max and min individuals (we accept
    // >3x on the tiny test design; the bench measures the real config).
    const auto &fx = gaFixture();
    EXPECT_GT(fx.ga.powerRangeRatio(), 3.0);
}

TEST(GaGenerator, TrainingSetCoversThePowerRange)
{
    const auto &fx = gaFixture();
    const auto selected = fx.ga.selectTrainingSet(24);
    ASSERT_EQ(selected.size(), 24u);

    double lo_all = 1e30;
    double hi_all = 0.0;
    for (const auto &ind : fx.ga.all()) {
        lo_all = std::min(lo_all, ind.avgPower);
        hi_all = std::max(hi_all, ind.avgPower);
    }
    double lo_sel = 1e30;
    double hi_sel = 0.0;
    for (const auto &ind : selected) {
        lo_sel = std::min(lo_sel, ind.avgPower);
        hi_sel = std::max(hi_sel, ind.avgPower);
    }
    // The uniform selection must span most of the observed range.
    EXPECT_LT(lo_sel, lo_all + 0.2 * (hi_all - lo_all));
    EXPECT_GT(hi_sel, hi_all - 0.2 * (hi_all - lo_all));
}

TEST(GaGenerator, BodiesProduceValidLoopPrograms)
{
    const auto &fx = gaFixture();
    const Program prog =
        GaGenerator::toProgram(fx.ga.best(), "virus", 100);
    EXPECT_EQ(prog.at(0).op, Opcode::MovI);
    EXPECT_EQ(prog.at(prog.size() - 1).op, Opcode::Bnez);
    // Runs to completion on the functional executor.
    FunctionalExecutor exec(prog);
    MicroOp op;
    size_t ops = 0;
    while (exec.next(op)) {
        ops++;
        ASSERT_LT(ops, 1000000u);
    }
    EXPECT_GT(ops, 100u);
}

/** Flow fixture: a tiny trained model. */
struct FlowFixtureData
{
    Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    ApolloModel model;

    FlowFixtureData()
    {
        DatasetBuilder tb(netlist);
        Xoshiro256StarStar rng(0xf10);
        for (int i = 0; i < 16; ++i) {
            auto body = GaGenerator::randomBody(rng, 6, 24);
            tb.addProgram(Program::makeLoop("t" + std::to_string(i),
                                            body, 3000, rng()),
                          300);
        }
        ApolloTrainConfig cfg;
        cfg.selection.targetQ = 40;
        model = trainApollo(tb.build(), cfg, "tiny").model;
    }
};

const FlowFixtureData &
flowFixture()
{
    static FlowFixtureData data;
    return data;
}

TEST(Flows, EmulatorMatchesApolloFlowExactly)
{
    // Proxy-only tracing must reproduce the full-trace model inference
    // bit-for-bit (same toggles, same linear model).
    const auto &fx = flowFixture();
    DesignTimeFlows flows(fx.netlist);
    const Program prog = makeLongWorkload("wl", 4000, 99);

    FlowReport apollo_flow =
        flows.runApolloFlow(prog, 3000, fx.model);
    FlowReport emulator_flow =
        flows.runEmulatorFlow(prog, 3000, fx.model);
    ASSERT_EQ(apollo_flow.power.size(), emulator_flow.power.size());
    for (size_t i = 0; i < apollo_flow.power.size(); ++i)
        ASSERT_FLOAT_EQ(apollo_flow.power[i], emulator_flow.power[i]);

    // Storage: proxy trace is ~M/Q smaller.
    EXPECT_LT(emulator_flow.traceBytes * 10, apollo_flow.traceBytes);
}

TEST(Flows, EmulatorTracksCommercialFlow)
{
    const auto &fx = flowFixture();
    DesignTimeFlows flows(fx.netlist);
    const Program prog = makeLongWorkload("wl2", 4000, 5);

    FlowReport commercial = flows.runCommercialFlow(prog, 3000);
    FlowReport emulator = flows.runEmulatorFlow(prog, 3000, fx.model);
    ASSERT_EQ(commercial.power.size(), emulator.power.size());
    EXPECT_GT(r2Score(commercial.power, emulator.power), 0.85);
}

TEST(Flows, StreamedCsvRowsMatchMaterializedPower)
{
    // `apollo trace --out` streams the flow into a CsvPowerSink. After
    // its "index,power" header, the rows must be byte-identical to
    // printing the materialized per-cycle power as "i,power[i]".
    const auto &fx = flowFixture();
    DesignTimeFlows flows(fx.netlist);
    const Program prog = makeLongWorkload("csv", 3000, 11);

    std::ostringstream streamed;
    CsvPowerSink sink(streamed);
    const FlowReport rep = flows.runEmulatorFlowStreaming(
        prog, 2000, fx.model, sink, StreamConfig().withChunkCycles(300));
    EXPECT_FALSE(rep.cancelled);

    const std::vector<float> power =
        flows.runEmulatorFlow(prog, 2000, fx.model).power;
    ASSERT_EQ(power.size(), rep.cycles);
    std::ostringstream expect;
    expect << "index,power\n";
    for (size_t i = 0; i < power.size(); ++i)
        expect << i << ',' << power[i] << '\n';
    EXPECT_EQ(streamed.str(), expect.str());
}

TEST(Flows, LongWorkloadHasPhases)
{
    const auto &fx = flowFixture();
    DesignTimeFlows flows(fx.netlist);
    const Program prog = makeLongWorkload("phases", 12000, 7);
    FlowReport rep = flows.runCommercialFlow(prog, 10000);
    ASSERT_GT(rep.power.size(), 4000u);

    // Phase-rich: the windowed power range must be wide.
    const size_t window = 500;
    double lo = 1e30;
    double hi = 0.0;
    for (size_t w = 0; w + window <= rep.power.size(); w += window) {
        double acc = 0.0;
        for (size_t i = 0; i < window; ++i)
            acc += rep.power[w + i];
        acc /= window;
        lo = std::min(lo, acc);
        hi = std::max(hi, acc);
    }
    EXPECT_GT(hi, 1.5 * lo);
}

TEST(Droop, CurrentAndDeltaI)
{
    std::vector<float> power = {1.f, 2.f, 4.f, 3.f};
    const auto current = currentFromPower(power, 0.5);
    EXPECT_DOUBLE_EQ(current[2], 8.0);
    const auto di = deltaI(current);
    EXPECT_DOUBLE_EQ(di[0], 0.0);
    EXPECT_DOUBLE_EQ(di[2], 4.0);
    EXPECT_DOUBLE_EQ(di[3], -2.0);
}

TEST(Droop, PerfectEstimateGivesPerfectCorrelation)
{
    const auto &fx = flowFixture();
    DesignTimeFlows flows(fx.netlist);
    const Program prog = makeLongWorkload("d", 6000, 21);
    FlowReport rep = flows.runCommercialFlow(prog, 5000);

    const DidtAnalysis self =
        analyzeDidt(rep.power, rep.power, 0.75);
    EXPECT_NEAR(self.pearsonDeltaI, 1.0, 1e-9);
    EXPECT_EQ(self.quadPosNeg, 0u);
    EXPECT_EQ(self.quadNegPos, 0u);
    EXPECT_NEAR(self.deepDroopRecall, 1.0, 1e-9);
}

TEST(Droop, RejectsOutOfRangePercentile)
{
    // Regression: deep_percentile was used unvalidated to index the
    // sorted |dI/dt| array, so 1.5 computed cut = 1.5 * (n-1) — a
    // heap-buffer-overflow read visible under ASan before the fix.
    std::vector<float> power = {1.f, 2.f, 4.f, 3.f, 2.f, 5.f,
                                1.f, 3.f, 2.f, 4.f, 3.f, 2.f};
    EXPECT_THROW(analyzeDidt(power, power, 0.75, 1.5), FatalError);
    EXPECT_THROW(analyzeDidt(power, power, 0.75, -0.25), FatalError);
    // Inclusive endpoints are valid and must clamp safely.
    EXPECT_NO_THROW(analyzeDidt(power, power, 0.75, 0.0));
    EXPECT_NO_THROW(analyzeDidt(power, power, 0.75, 1.0));
}

TEST(Droop, RejectsDegenerateShortTraces)
{
    // Regression: n == 3 produced two-sample delta series whose
    // Pearson correlation is always degenerate (division by a zero
    // variance); the analysis now requires at least 4 samples.
    std::vector<float> three = {1.f, 2.f, 3.f};
    EXPECT_THROW(analyzeDidt(three, three, 0.75), FatalError);
    std::vector<float> four = {1.f, 2.f, 3.f, 1.f};
    EXPECT_NO_THROW(analyzeDidt(four, four, 0.75));
    // Arity mismatch is still rejected.
    EXPECT_THROW(analyzeDidt(four, three, 0.75), FatalError);
    // vdd must stay positive (pre-existing contract).
    EXPECT_THROW(analyzeDidt(four, four, 0.0), FatalError);
}

TEST(Droop, OpmEstimateCorrelatesWithTruth)
{
    const auto &fx = flowFixture();
    DesignTimeFlows flows(fx.netlist);
    const Program prog = makeLongWorkload("d2", 6000, 22);
    FlowReport truth = flows.runCommercialFlow(prog, 5000);
    FlowReport est = flows.runEmulatorFlow(prog, 5000, fx.model);

    const DidtAnalysis res = analyzeDidt(truth.power, est.power, 0.75);
    EXPECT_GT(res.pearsonDeltaI, 0.7);
    EXPECT_GT(res.deepEventPearson, 0.7);
    EXPECT_GT(res.deepDroopRecall, 0.5);
    // Agreeing quadrants dominate.
    EXPECT_GT(res.quadPosPos + res.quadNegNeg,
              2 * (res.quadPosNeg + res.quadNegPos));
}

TEST(Droop, MitigationReducesDroop)
{
    const auto &fx = flowFixture();
    DesignTimeFlows flows(fx.netlist);
    const Program prog = makeLongWorkload("d3", 6000, 23);
    FlowReport truth = flows.runCommercialFlow(prog, 5000);
    FlowReport est = flows.runEmulatorFlow(prog, 5000, fx.model);

    PdnParams pdn;
    const double threshold = pdn.vdd * 0.97;
    const DroopSimResult base =
        simulateDroop(truth.power, pdn, threshold);

    // Trigger on estimated delta-I above its 97th percentile.
    std::vector<double> di =
        deltaI(currentFromPower(est.power, pdn.vdd));
    std::vector<double> mags;
    for (double d : di)
        mags.push_back(std::abs(d));
    std::sort(mags.begin(), mags.end());
    const double trigger = mags[static_cast<size_t>(0.97 *
                                                    (mags.size() - 1))];

    const DroopSimResult mitigated = simulateWithMitigation(
        truth.power, est.power, pdn, threshold, trigger, 0.5, 4);
    EXPECT_GT(mitigated.throttledCycles, 0u);
    EXPECT_GE(mitigated.minVoltage, base.minVoltage)
        << "proactive throttling must not deepen the worst droop";
}

} // namespace
} // namespace apollo
