/**
 * @file
 * Parameterized property sweeps across modules: cache geometries,
 * quantization bit widths, OPM window sizes, and end-to-end
 * determinism invariants the flows rely on.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "apollo.hh"
#include "core/apollo_trainer.hh"
#include "gen/ga_generator.hh"
#include "ml/metrics.hh"
#include "opm/opm_simulator.hh"
#include "ref/reference_kernels.hh"
#include "rtl/design_builder.hh"
#include "trace/toggle_trace.hh"
#include "uarch/cache.hh"

namespace apollo {
namespace {

//
// Cache geometry properties.
//

class CacheGeometryProperty
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{};

TEST_P(CacheGeometryProperty, FillThenHitAndCapacity)
{
    const auto [size_kb, ways] = GetParam();
    CacheParams params{size_kb * 1024, ways, 64, 2, 4, 60};
    CacheModel cache(params);

    const uint32_t lines = size_kb * 1024 / 64;
    // Fill the whole capacity sequentially.
    uint64_t now = 0;
    for (uint32_t l = 0; l < lines; ++l) {
        const auto res = cache.access(static_cast<uint64_t>(l) * 64,
                                      false, now);
        now = res.readyCycle + 1;
    }
    // Everything fits: a second pass must be all hits.
    const uint64_t misses_after_fill = cache.misses();
    for (uint32_t l = 0; l < lines; ++l) {
        const auto res = cache.access(static_cast<uint64_t>(l) * 64,
                                      false, now);
        EXPECT_TRUE(res.hit) << "line " << l;
        now = res.readyCycle + 1;
    }
    EXPECT_EQ(cache.misses(), misses_after_fill);

    // Touch twice the capacity: sequential sweep + LRU leaves the
    // second pass with misses again (thrash property).
    for (uint32_t l = 0; l < 2 * lines; ++l) {
        const auto res = cache.access(static_cast<uint64_t>(l) * 64,
                                      false, now);
        now = res.readyCycle + 1;
    }
    const uint64_t before = cache.misses();
    for (uint32_t l = 0; l < lines; ++l) {
        const auto res = cache.access(static_cast<uint64_t>(l) * 64,
                                      false, now);
        now = res.readyCycle + 1;
    }
    EXPECT_GT(cache.misses(), before);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryProperty,
    ::testing::Combine(::testing::Values(4u, 16u, 64u),
                       ::testing::Values(1u, 2u, 8u)));

//
// Quantization properties over bit widths.
//

struct QuantFixtureData
{
    ApolloModel model;
    BitColumnMatrix proxies;
    std::vector<float> labels;

    QuantFixtureData()
    {
        const Netlist nl = DesignBuilder::build(DesignConfig::tiny());
        DatasetBuilder builder(nl);
        Xoshiro256StarStar rng(0x9a7);
        for (int i = 0; i < 14; ++i)
            builder.addProgram(
                Program::makeLoop("p" + std::to_string(i),
                                  GaGenerator::randomBody(rng, 6, 22),
                                  4000, rng()),
                250);
        const Dataset train = builder.build();
        ApolloTrainConfig cfg;
        cfg.selection.targetQ = 30;
        model = trainApollo(train, cfg, "tiny").model;
        proxies = train.X.selectColumns(model.proxyIds);
        labels = train.y;
    }
};

const QuantFixtureData &
quantFixture()
{
    static QuantFixtureData data;
    return data;
}

class QuantizationProperty : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(QuantizationProperty, WeightsBoundedAndHalfStepAccurate)
{
    const uint32_t bits = GetParam();
    const auto &fx = quantFixture();
    const QuantizedModel qm = quantizeModel(fx.model, bits);
    const auto limit = (1 << (bits - 1)) - 1;
    for (size_t q = 0; q < qm.qweights.size(); ++q) {
        EXPECT_LE(std::abs(qm.qweights[q]), limit);
        EXPECT_NEAR(qm.qweights[q] * qm.scale, fx.model.weights[q],
                    0.51 * qm.scale);
    }
}

TEST_P(QuantizationProperty, BitTrueOpmMatchesDequantizedModel)
{
    const uint32_t bits = GetParam();
    const auto &fx = quantFixture();
    const QuantizedModel qm = quantizeModel(fx.model, bits);
    const auto hw = Inference(qm, 1).predict(fx.proxies);
    const auto sw = ref::dequantize(qm).predictProxies(fx.proxies);
    ASSERT_EQ(hw.size(), sw.size());
    for (size_t i = 0; i < hw.size(); i += 7)
        ASSERT_NEAR(hw[i], sw[i], 1e-3 + 1e-4 * std::abs(sw[i]));
}

INSTANTIATE_TEST_SUITE_P(BitWidths, QuantizationProperty,
                         ::testing::Values(4u, 6u, 8u, 10u, 12u, 16u));

//
// OPM window-size properties.
//

class OpmWindowProperty : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(OpmWindowProperty, WindowMeanWithinOneLsbOfCycleMean)
{
    const uint32_t window = GetParam();
    const auto &fx = quantFixture();
    const QuantizedModel qm = quantizeModel(fx.model, 10);

    const auto cycles = Inference(qm, 1).predict(fx.proxies);
    const auto windows = Inference(qm, window).predict(fx.proxies);

    ASSERT_EQ(windows.size(), cycles.size() / window);
    for (size_t w = 0; w < windows.size(); ++w) {
        double acc = 0.0;
        for (uint32_t t = 0; t < window; ++t)
            acc += cycles[w * window + t];
        // Truncating division drops at most one LSB (scale units).
        EXPECT_LE(windows[w], acc / window + 1e-6);
        EXPECT_GE(windows[w], acc / window - qm.scale * 1.01);
    }
}

TEST_P(OpmWindowProperty, AccumulatorWidthCoversWorstCase)
{
    const uint32_t window = GetParam();
    const auto &fx = quantFixture();
    const QuantizedModel qm = quantizeModel(fx.model, 10);
    OpmSimulator opm(qm, window);
    BitColumnMatrix all_ones(window * 2, qm.proxyCount());
    for (size_t i = 0; i < all_ones.rows(); ++i)
        for (size_t q = 0; q < qm.proxyCount(); ++q)
            all_ones.setBit(i, q);
    EXPECT_NO_THROW(Inference(qm, window).predict(all_ones));
    // Per cycle too: step() checks the cycle-sum width every cycle.
    const std::vector<uint64_t> row((qm.proxyCount() + 63) / 64, ~0ULL);
    for (size_t i = 0; i < all_ones.rows(); ++i)
        EXPECT_NO_THROW(opm.step(row.data()));
}

INSTANTIATE_TEST_SUITE_P(Windows, OpmWindowProperty,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u,
                                           64u, 128u));

//
// End-to-end determinism: two independent pipeline runs produce
// bit-identical datasets and identical trained models.
//

TEST(Determinism, DatasetsAndModelsAreBitReproducible)
{
    auto build_once = [] {
        const Netlist nl = DesignBuilder::build(DesignConfig::tiny());
        DatasetBuilder builder(nl);
        Xoshiro256StarStar rng(0xdede);
        for (int i = 0; i < 8; ++i)
            builder.addProgram(
                Program::makeLoop("p" + std::to_string(i),
                                  GaGenerator::randomBody(rng, 6, 20),
                                  3000, rng()),
                200);
        const Dataset ds = builder.build();
        ApolloTrainConfig cfg;
        cfg.selection.targetQ = 15;
        const ApolloModel model = trainApollo(ds, cfg, "d").model;
        return std::make_pair(ds.y, model);
    };
    const auto [y1, m1] = build_once();
    const auto [y2, m2] = build_once();
    ASSERT_EQ(y1.size(), y2.size());
    for (size_t i = 0; i < y1.size(); ++i)
        ASSERT_EQ(y1[i], y2[i]) << "label divergence at " << i;
    ASSERT_EQ(m1.proxyIds, m2.proxyIds);
    for (size_t q = 0; q < m1.weights.size(); ++q)
        ASSERT_EQ(m1.weights[q], m2.weights[q]);
    ASSERT_EQ(m1.intercept, m2.intercept);
}

//
// Non-negativity constraint property across penalty families.
//

class NonnegProperty : public ::testing::TestWithParam<int>
{};

TEST_P(NonnegProperty, ConstrainedFitsHaveNoNegativeWeights)
{
    const auto kind = static_cast<PenaltyKind>(GetParam());
    const size_t n = 1200;
    const size_t m = 40;
    BitColumnMatrix X(n, m);
    std::vector<float> y(n, 0.5f);
    Xoshiro256StarStar rng(0x22);
    for (size_t c = 0; c < m; ++c)
        for (size_t r = 0; r < n; ++r)
            if (rng.nextDouble() < 0.2) {
                X.setBit(r, c);
                // Mix of positive and (spurious) negative influence.
                y[r] += (c % 5 == 0) ? -0.2f : 0.4f;
            }

    BitFeatureView view(X);
    CdSolver solver(view, y);
    CdConfig cfg;
    cfg.penalty.kind = kind;
    cfg.penalty.lambda = kind == PenaltyKind::Ridge
                             ? 0.0
                             : solver.lambdaMax() * 0.05;
    cfg.penalty.lambda2 = kind == PenaltyKind::Ridge ? 1e-3 : 0.0;
    cfg.penalty.nonneg = true;
    const CdResult fit = solver.fit(cfg);
    for (float w : fit.w)
        EXPECT_GE(w, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Penalties, NonnegProperty,
    ::testing::Values(static_cast<int>(PenaltyKind::Ridge),
                      static_cast<int>(PenaltyKind::Lasso),
                      static_cast<int>(PenaltyKind::Mcp)));

//
// GA operators respect configuration bounds across configs.
//

class GaBoundsProperty
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{};

TEST_P(GaBoundsProperty, EvolvedBodiesStayWithinLengthBounds)
{
    const auto [min_len, max_len] = GetParam();
    const Netlist nl = DesignBuilder::build(DesignConfig::tiny());
    DatasetBuilder builder(nl);
    GaConfig cfg;
    cfg.populationSize = 10;
    cfg.generations = 4;
    cfg.bodyMinLen = min_len;
    cfg.bodyMaxLen = max_len;
    cfg.fitnessCycles = 150;
    cfg.fitnessSignalStride = 8;
    GaGenerator ga(builder, cfg);
    ga.run();
    for (const GaIndividual &ind : ga.all()) {
        EXPECT_GE(ind.body.size(), min_len);
        EXPECT_LE(ind.body.size(), max_len);
        // Reserved registers are never clobbered by generated code
        // (x30 base, x31 counter).
        for (const Instruction &inst : ind.body) {
            if (inst.execClass() == ExecClass::Alu ||
                inst.execClass() == ExecClass::MulDiv) {
                EXPECT_NE(inst.rd, 30);
                EXPECT_NE(inst.rd, 31);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, GaBoundsProperty,
    ::testing::Values(std::tuple{4u, 10u}, std::tuple{6u, 26u},
                      std::tuple{12u, 16u}));

//
// OPM handles signed (unconstrained-relaxation) weights.
//

TEST(OpmSigned, NegativeWeightsRoundTripThroughTheSimulator)
{
    ApolloModel model;
    model.proxyIds = {0, 1, 2, 3};
    model.weights = {0.5f, -0.3f, 0.8f, -0.05f};
    model.intercept = 1.0;
    const QuantizedModel qm = quantizeModel(model, 10);
    EXPECT_LT(qm.qweights[1], 0);

    BitColumnMatrix bits(16, 4);
    Xoshiro256StarStar rng(0x5e);
    for (size_t i = 0; i < 16; ++i)
        for (size_t q = 0; q < 4; ++q)
            if (rng.nextDouble() < 0.5)
                bits.setBit(i, q);
    const auto hw = Inference(qm, 1).predict(bits);
    const auto sw = ref::dequantize(qm).predictProxies(bits);
    for (size_t i = 0; i < hw.size(); ++i)
        EXPECT_NEAR(hw[i], sw[i], 1e-4);
}

} // namespace
} // namespace apollo
