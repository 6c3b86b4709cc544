/**
 * @file
 * End-to-end integration tests: the full APOLLO pipeline (GA training
 * data -> dataset -> MCP selection -> relaxation -> OPM quantization ->
 * bit-true OPM) on the tiny design, plus cross-module consistency
 * checks the paper's flows rely on.
 */

#include <gtest/gtest.h>

#include "apollo.hh"
#include "core/apollo_trainer.hh"
#include "core/baselines.hh"
#include "core/multi_cycle.hh"
#include "gen/ga_generator.hh"
#include "gen/test_suite.hh"
#include "ml/metrics.hh"
#include "opm/opm_hardware.hh"
#include "rtl/design_builder.hh"
#include "trace/toggle_trace.hh"

namespace apollo {
namespace {

/** The full tiny-design pipeline, built once for the suite. */
struct PipelineData
{
    Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    Dataset train;
    Dataset test;
    ApolloTrainResult apollo;

    PipelineData()
    {
        // GA training data (small budget).
        DatasetBuilder fitness(netlist);
        GaConfig ga_cfg;
        ga_cfg.populationSize = 14;
        ga_cfg.generations = 6;
        ga_cfg.fitnessCycles = 250;
        GaGenerator ga(fitness, ga_cfg);
        ga.run();

        DatasetBuilder tb(netlist);
        int idx = 0;
        for (const GaIndividual &ind : ga.selectTrainingSet(32)) {
            tb.addProgram(GaGenerator::toProgram(
                              ind, "ga" + std::to_string(idx++), 4000),
                          300);
        }
        train = tb.build();

        // Designer test suite at Table-4 budgets.
        DatasetBuilder eb(netlist);
        for (const TestBenchmark &bench : designerTestSuite())
            eb.addProgram(bench.program, bench.cycles, bench.throttle);
        test = eb.build();

        ApolloTrainConfig cfg;
        cfg.selection.targetQ = 40;
        apollo = trainApollo(train, cfg, netlist.name());
    }
};

const PipelineData &
pipeline()
{
    static PipelineData data;
    return data;
}

TEST(Integration, ApolloReachesPaperClassAccuracy)
{
    const auto &px = pipeline();
    const auto pred = px.apollo.model.predictFull(px.test.X);
    const double r2 = r2Score(px.test.y, pred);
    const double e = nrmse(px.test.y, pred);
    EXPECT_GT(r2, 0.93) << "paper: R2 > 0.94 on both designs";
    EXPECT_LT(e, 0.15);
    // Unbiased on average (§7.3: 0.6% mean gap on N1).
    EXPECT_NEAR(mean(pred), px.test.meanLabel(),
                0.03 * px.test.meanLabel());
}

TEST(Integration, ApolloBeatsLassoAtSameQ)
{
    const auto &px = pipeline();
    const BaselineResult lasso =
        trainLassoBaseline(px.train, px.test, 40);
    const auto apollo_pred = px.apollo.model.predictFull(px.test.X);
    EXPECT_LT(nrmse(px.test.y, apollo_pred),
              nrmse(px.test.y, lasso.testPred))
        << "Fig. 10: APOLLO < Lasso NRMSE at equal Q";
}

TEST(Integration, PerBenchmarkNmaeBounded)
{
    // Fig. 9(b): NMAE below ~10% for every designer benchmark.
    const auto &px = pipeline();
    const auto pred = px.apollo.model.predictFull(px.test.X);
    for (const SegmentInfo &seg : px.test.segments) {
        std::vector<float> y(px.test.y.begin() + seg.begin,
                             px.test.y.begin() + seg.end);
        std::vector<float> p(pred.begin() + seg.begin,
                             pred.begin() + seg.end);
        EXPECT_LT(nmae(y, p), 0.15) << seg.name;
    }
}

TEST(Integration, QuantizedOpmEndToEnd)
{
    const auto &px = pipeline();
    const QuantizedModel qm = quantizeModel(px.apollo.model, 10);
    const BitColumnMatrix proxies =
        px.test.X.selectColumns(px.apollo.model.proxyIds);
    const auto hw = Inference(qm, 1).predict(proxies);
    EXPECT_GT(r2Score(px.test.y, hw), 0.92);

    const OpmHardwareReport rep =
        analyzeOpmHardware(px.netlist, qm, 32, 0.15);
    EXPECT_GT(rep.areaOverhead, 0.0);
    // The tiny design's nominal core is small, so the bound is loose;
    // the N1-scale bench checks the paper's 0.2%/0.9% numbers.
    EXPECT_LT(rep.areaOverhead, 0.2);
}

TEST(Integration, MultiCycleWindowErrorsShrinkWithT)
{
    // Averaging windows smooths per-cycle error: NRMSE at T=32 must be
    // below the per-cycle NRMSE.
    const auto &px = pipeline();
    const auto pred = px.apollo.model.predictFull(px.test.X);
    const double e1 = nrmse(px.test.y, pred);

    ApolloTrainConfig cfg;
    cfg.selection.targetQ = 40;
    const MultiCycleModel mc =
        trainMultiCycle(px.train, 8, cfg, px.netlist.name());
    const auto labels =
        windowAverageLabels(px.test.y, 32, px.test.segments).value();
    const auto wpred =
        mc.predictWindowsFull(px.test.X, 32, px.test.segments).value();
    EXPECT_LT(nrmse(labels, wpred), e1);
}

TEST(Integration, ThrottledBenchmarksDrawLessPowerThanVirus)
{
    // Table 4 sanity: the three throttled runs of the maxpwr body must
    // average below the unthrottled maxpwr_cpu benchmark.
    const auto &px = pipeline();
    auto segment_mean = [&](const std::string &name) {
        for (const SegmentInfo &seg : px.test.segments) {
            if (seg.name == name) {
                double acc = 0.0;
                for (size_t i = seg.begin; i < seg.end; ++i)
                    acc += px.test.y[i];
                return acc / seg.cycles();
            }
        }
        ADD_FAILURE() << "segment not found: " << name;
        return 0.0;
    };
    const double virus = segment_mean("maxpwr_cpu");
    EXPECT_LT(segment_mean("throttling_1"), virus);
    EXPECT_LT(segment_mean("throttling_2"), virus);
    EXPECT_LT(segment_mean("throttling_3"), virus);
}

TEST(Integration, ProxyDistributionTouchesMultipleUnits)
{
    // Fig. 15(a): proxies spread over the power-relevant units and
    // include gated clocks.
    const auto &px = pipeline();
    size_t gclk = 0;
    std::set<UnitId> units;
    for (uint32_t id : px.apollo.model.proxyIds) {
        const Signal &sig = px.netlist.signal(id);
        units.insert(sig.unit);
        if (sig.kind == SignalKind::GatedClock)
            gclk++;
    }
    EXPECT_GE(units.size(), 5u);
    EXPECT_GE(gclk, 2u) << "gated clocks are major power contributors";
}

} // namespace
} // namespace apollo
