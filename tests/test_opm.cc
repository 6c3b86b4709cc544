/**
 * @file
 * Tests for the runtime OPM: quantization, the bit-true simulator
 * (against float inference, width guarantees, window averaging), the
 * structural hardware cost model, the HLS emitter, and the Table-3
 * baseline comparison.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "apollo.hh"
#include "core/apollo_trainer.hh"
#include "gen/ga_generator.hh"
#include "ml/metrics.hh"
#include "opm/baseline_opms.hh"
#include "opm/hls_emitter.hh"
#include "opm/opm_hardware.hh"
#include "opm/opm_simulator.hh"
#include "ref/reference_kernels.hh"
#include "rtl/design_builder.hh"
#include "trace/toggle_trace.hh"

namespace apollo {
namespace {

/** A trained tiny model + proxy-only test matrix, built once. */
struct OpmFixtureData
{
    Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    ApolloModel model;
    BitColumnMatrix testProxies;
    std::vector<float> testLabels;

    OpmFixtureData()
    {
        DatasetBuilder tb(netlist);
        Xoshiro256StarStar rng(0x0b1);
        for (int i = 0; i < 20; ++i) {
            auto body = GaGenerator::randomBody(rng, 6, 24);
            tb.addProgram(Program::makeLoop("t" + std::to_string(i),
                                            body, 3000, rng()),
                          300);
        }
        const Dataset train = tb.build();
        ApolloTrainConfig cfg;
        cfg.selection.targetQ = 40;
        model = trainApollo(train, cfg, "tiny").model;

        DatasetBuilder eb(netlist);
        for (int i = 0; i < 4; ++i) {
            auto body = GaGenerator::randomBody(rng, 6, 24);
            eb.addProgram(Program::makeLoop("e" + std::to_string(i),
                                            body, 3000, rng()),
                          400);
        }
        const Dataset test = eb.build();
        testProxies = test.X.selectColumns(model.proxyIds);
        testLabels = test.y;
    }
};

const OpmFixtureData &
fixture()
{
    static OpmFixtureData data;
    return data;
}

TEST(Quantize, RoundTripErrorBounded)
{
    const auto &fx = fixture();
    const QuantizedModel qm = quantizeModel(fx.model, 10);
    EXPECT_EQ(qm.bits, 10u);
    ASSERT_EQ(qm.qweights.size(), fx.model.weights.size());
    const double step = qm.scale;
    for (size_t q = 0; q < qm.qweights.size(); ++q) {
        EXPECT_LE(std::abs(qm.qweights[q]), (1 << 9) - 1);
        EXPECT_NEAR(qm.qweights[q] * qm.scale, fx.model.weights[q],
                    0.51 * step);
    }
}

TEST(Quantize, BitWidthBoundaries)
{
    const auto &fx = fixture();
    // The supported range is bits in [2, 24]; both edges must work and
    // both neighbours must be rejected as data errors.
    for (uint32_t bits : {2u, 10u, 24u}) {
        const StatusOr<QuantizedModel> qm =
            tryQuantizeModel(fx.model, bits);
        ASSERT_TRUE(qm.ok()) << qm.status().toString();
        EXPECT_EQ(qm->bits, bits);
        const int64_t limit = (1LL << (bits - 1)) - 1;
        for (int32_t qw : qm->qweights)
            EXPECT_LE(std::abs(static_cast<int64_t>(qw)), limit);
    }
    EXPECT_EQ(tryQuantizeModel(fx.model, 1).status().code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(tryQuantizeModel(fx.model, 25).status().code(),
              StatusCode::InvalidArgument);
    // The throwing wrapper keeps the old programming-error contract.
    EXPECT_THROW(quantizeModel(fx.model, 1), FatalError);
}

TEST(Quantize, OversizedInterceptOverflowsCycleSumBudget)
{
    // Regression: a model whose intercept dwarfs its weights used to
    // llround() an out-of-range double (UB) and then overflow the OPM
    // accumulator width check later, in the OpmSimulator constructor.
    // The width is now checked against kOpmMaxCycleSumBits during
    // quantization, before any narrowing.
    ApolloModel model;
    model.proxyIds = {0, 1};
    model.weights = {1e-6f, -1e-6f};
    model.intercept = 1e6;
    const StatusOr<QuantizedModel> qm = tryQuantizeModel(model, 10);
    ASSERT_FALSE(qm.ok());
    EXPECT_EQ(qm.status().code(), StatusCode::OutOfRange);
    EXPECT_NE(qm.status().message().find("cycle-sum budget"),
              std::string::npos);
    EXPECT_THROW(quantizeModel(model, 10), FatalError);

    // A proportionate intercept on the same weights is fine.
    model.intercept = 1e-5;
    EXPECT_TRUE(tryQuantizeModel(model, 10).ok());
}

TEST(Quantize, MoreBitsMeansLessError)
{
    const auto &fx = fixture();
    auto weight_rmse = [&](uint32_t bits) {
        const QuantizedModel qm = quantizeModel(fx.model, bits);
        double sse = 0.0;
        for (size_t q = 0; q < qm.qweights.size(); ++q) {
            const double e =
                qm.qweights[q] * qm.scale - fx.model.weights[q];
            sse += e * e;
        }
        return std::sqrt(sse);
    };
    EXPECT_LT(weight_rmse(12), weight_rmse(8));
    EXPECT_LT(weight_rmse(8), weight_rmse(4));
}

TEST(OpmSimulator, MatchesQuantizedFloatModelPerCycle)
{
    const auto &fx = fixture();
    const QuantizedModel qm = quantizeModel(fx.model, 12);
    // T = 1: per-cycle output
    const std::vector<float> hw = Inference(qm, 1).predict(fx.testProxies);
    const ApolloModel dequant = ref::dequantize(qm);
    const std::vector<float> sw =
        dequant.predictProxies(fx.testProxies);
    ASSERT_EQ(hw.size(), sw.size());
    for (size_t i = 0; i < hw.size(); ++i)
        ASSERT_NEAR(hw[i], sw[i], 1e-3 + 1e-4 * std::abs(sw[i]))
            << "cycle " << i;
}

TEST(OpmSimulator, WindowAverageEqualsMeanOfCycleSums)
{
    const auto &fx = fixture();
    const QuantizedModel qm = quantizeModel(fx.model, 10);
    const uint32_t T = 8;
    const std::vector<float> windows =
        Inference(qm, T).predict(fx.testProxies);
    const std::vector<float> cycles =
        Inference(qm, 1).predict(fx.testProxies);
    ASSERT_EQ(windows.size(), cycles.size() / T);
    for (size_t w = 0; w < windows.size(); ++w) {
        double acc = 0.0;
        for (uint32_t t = 0; t < T; ++t)
            acc += cycles[w * T + t];
        // The hardware divide drops low bits: allow one LSB * scale.
        EXPECT_NEAR(windows[w], acc / T, qm.scale * 1.01);
    }
}

TEST(OpmSimulator, RejectsNonPowerOfTwoWindow)
{
    const auto &fx = fixture();
    const QuantizedModel qm = quantizeModel(fx.model, 10);
    EXPECT_THROW(OpmSimulator(qm, 3), FatalError);
    EXPECT_THROW(OpmSimulator(qm, 12), FatalError);
    EXPECT_NO_THROW(OpmSimulator(qm, 16));
}

TEST(OpmSimulator, DeclaredWidthsNeverOverflow)
{
    // Worst case: every proxy toggles every cycle.
    const auto &fx = fixture();
    const QuantizedModel qm = quantizeModel(fx.model, 10);
    const uint32_t T = 64;
    OpmSimulator opm(qm, T);
    BitColumnMatrix all_ones(2 * T, qm.proxyCount());
    for (size_t i = 0; i < all_ones.rows(); ++i)
        for (size_t q = 0; q < qm.proxyCount(); ++q)
            all_ones.setBit(i, q);
    EXPECT_NO_THROW(Inference(qm, T).predict(all_ones));
    // Per cycle too: step() checks the cycle-sum width every cycle.
    const std::vector<uint64_t> row((qm.proxyCount() + 63) / 64, ~0ULL);
    for (size_t i = 0; i < all_ones.rows(); ++i)
        EXPECT_NO_THROW(opm.step(row.data()));
    EXPECT_GE(opm.accumulatorBits(),
              opm.cycleSumBits() + 6u); // +log2(64)
}

TEST(OpmSimulator, TenBitQuantizationAccuracyLossIsSmall)
{
    // §7.5: B ~ 10 keeps the NRMSE increase under ~0.1% absolute on
    // our substrate (vs the float model at the same proxies).
    const auto &fx = fixture();
    const std::vector<float> sw =
        fx.model.predictProxies(fx.testProxies);
    const double nrmse_float = nrmse(fx.testLabels, sw);

    const QuantizedModel qm = quantizeModel(fx.model, 10);
    const std::vector<float> hw = Inference(qm, 1).predict(fx.testProxies);
    const double nrmse_q = nrmse(fx.testLabels, hw);
    EXPECT_LT(nrmse_q - nrmse_float, 0.004);

    const QuantizedModel qm4 = quantizeModel(fx.model, 4);
    const double nrmse_q4 =
        nrmse(fx.testLabels, Inference(qm4, 1).predict(fx.testProxies));
    EXPECT_GT(nrmse_q4, nrmse_q) << "4-bit must be visibly worse";
}

TEST(OpmHardware, AreaGrowsWithQandB)
{
    const auto &fx = fixture();
    auto area = [&](uint32_t bits, size_t q_count) {
        ApolloModel sub = fx.model;
        sub.proxyIds.resize(q_count);
        sub.weights.resize(q_count);
        const QuantizedModel qm = quantizeModel(sub, bits);
        return analyzeOpmHardware(fx.netlist, qm, 1, 0.15).totalGE;
    };
    EXPECT_GT(area(10, 40), area(10, 20));
    EXPECT_GT(area(12, 40), area(8, 40));
}

TEST(OpmHardware, OverheadComponentsSane)
{
    const auto &fx = fixture();
    const QuantizedModel qm = quantizeModel(fx.model, 10);
    const OpmHardwareReport rep =
        analyzeOpmHardware(fx.netlist, qm, 32, 0.15);
    EXPECT_GT(rep.interfaceGE, 0.0);
    EXPECT_GT(rep.computeGE, rep.interfaceGE); // adder tree dominates
    EXPECT_GT(rep.accumGE, 0.0);
    EXPECT_NEAR(rep.totalGE,
                rep.interfaceGE + rep.computeGE + rep.accumGE +
                    rep.routingGE,
                1e-9);
    EXPECT_NEAR(rep.totalPowerOverhead,
                rep.logicPowerOverhead + rep.routingPowerOverhead,
                1e-12);
    EXPECT_EQ(rep.counters, 1u);
    EXPECT_EQ(rep.multipliers, 0u);
    EXPECT_EQ(rep.latencyCycles, 2u);
}

TEST(OpmHardware, GatedClockProxiesAreCheaper)
{
    // A gated-clock proxy needs only an enable latch, not an XOR
    // detector.
    const auto &fx = fixture();
    const UnitRange &vec = fx.netlist.unitRange(UnitId::VecExec);
    uint32_t gclk = vec.first;
    while (fx.netlist.signal(gclk).kind != SignalKind::GatedClock)
        gclk++;
    uint32_t ff = vec.first;
    while (fx.netlist.signal(ff).kind != SignalKind::FlipFlop)
        ff++;

    ApolloModel one;
    one.weights = {1.0f};
    one.proxyIds = {gclk};
    const double a_gclk = analyzeOpmHardware(
        fx.netlist, quantizeModel(one, 10), 1, 0.15).interfaceGE;
    one.proxyIds = {ff};
    const double a_ff = analyzeOpmHardware(
        fx.netlist, quantizeModel(one, 10), 1, 0.15).interfaceGE;
    EXPECT_LT(a_gclk, a_ff);
}

TEST(HlsEmitter, EmitsCompilableLookingSource)
{
    const auto &fx = fixture();
    const QuantizedModel qm = quantizeModel(fx.model, 10);
    const std::string src = emitOpmHlsSource(qm, 16, "test_opm");
    EXPECT_NE(src.find("struct test_opm"), std::string::npos);
    EXPECT_NE(src.find("kQ = 40"), std::string::npos);
    EXPECT_NE(src.find("kB = 10"), std::string::npos);
    EXPECT_NE(src.find("kT = 16"), std::string::npos);
    EXPECT_NE(src.find("kShift = 4"), std::string::npos);
    EXPECT_NE(src.find("kWeights[kQ]"), std::string::npos);
    EXPECT_NE(src.find("accumulator >> kShift"), std::string::npos);
    // One weight literal per proxy.
    EXPECT_NE(src.find(std::to_string(qm.qweights[0])),
              std::string::npos);
}

TEST(BaselineOpms, TableThreeShape)
{
    const auto rows = opmCostComparison(20000, 159, 10, 32);
    ASSERT_EQ(rows.size(), 6u);
    // APOLLO rows: 1 counter, 0 multipliers.
    EXPECT_EQ(rows[4].method.substr(0, 6), "APOLLO");
    EXPECT_EQ(rows[4].counterUnits, 1u);
    EXPECT_EQ(rows[4].multiplierUnits, 0u);
    EXPECT_EQ(rows[5].counterUnits, 1u);
    // Counter-per-proxy OPMs: Q of each.
    EXPECT_EQ(rows[2].counterUnits, 159u);
    EXPECT_EQ(rows[2].multiplierUnits, 159u);
    // Simmani: ~Q^2 multipliers; Yang: ~M.
    EXPECT_EQ(rows[1].multiplierUnits, 159ull * 159ull);
    EXPECT_EQ(rows[0].multiplierUnits, 20000u);
    // APOLLO's arithmetic area must be the smallest.
    for (size_t i = 0; i < 4; ++i)
        EXPECT_LT(rows[4].arithmeticGE, rows[i].arithmeticGE);
}

} // namespace
} // namespace apollo
