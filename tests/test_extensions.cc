/**
 * @file
 * Tests for the extension modules: dataset binary serialization and
 * the higher-abstraction power model (§9 future work).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "core/abstract_model.hh"
#include "core/counter_model.hh"
#include "core/apollo_trainer.hh"
#include "gen/ga_generator.hh"
#include "ml/metrics.hh"
#include "rtl/design_builder.hh"
#include "trace/dataset_io.hh"
#include "trace/toggle_trace.hh"

namespace apollo {
namespace {

Dataset
makeDataset(int programs, uint64_t seed, uint64_t cycles = 300)
{
    static const Netlist nl = DesignBuilder::build(DesignConfig::tiny());
    DatasetBuilder builder(nl);
    Xoshiro256StarStar rng(seed);
    for (int i = 0; i < programs; ++i)
        builder.addProgram(
            Program::makeLoop("p" + std::to_string(i),
                              GaGenerator::randomBody(rng, 6, 24), 4000,
                              rng()),
            cycles);
    return builder.build();
}

TEST(DatasetIo, StreamRoundTripIsExact)
{
    const Dataset ds = makeDataset(3, 11);
    std::stringstream ss;
    saveDataset(ss, ds);
    const Dataset loaded = loadDataset(ss);

    ASSERT_EQ(loaded.cycles(), ds.cycles());
    ASSERT_EQ(loaded.signals(), ds.signals());
    ASSERT_EQ(loaded.segments.size(), ds.segments.size());
    for (size_t s = 0; s < ds.segments.size(); ++s) {
        EXPECT_EQ(loaded.segments[s].name, ds.segments[s].name);
        EXPECT_EQ(loaded.segments[s].begin, ds.segments[s].begin);
        EXPECT_EQ(loaded.segments[s].end, ds.segments[s].end);
    }
    for (size_t i = 0; i < ds.cycles(); ++i)
        ASSERT_EQ(loaded.y[i], ds.y[i]);
    for (size_t c = 0; c < ds.signals(); c += 53)
        for (size_t i = 0; i < ds.cycles(); i += 17)
            ASSERT_EQ(loaded.X.get(i, c), ds.X.get(i, c));
}

TEST(DatasetIo, FileRoundTrip)
{
    const Dataset ds = makeDataset(2, 13);
    const std::string path = "test_dataset_io.apds";
    saveDatasetFile(path, ds);
    const Dataset loaded = loadDatasetFile(path);
    EXPECT_EQ(loaded.cycles(), ds.cycles());
    EXPECT_EQ(loaded.meanLabel(), ds.meanLabel());
    std::filesystem::remove(path);
}

TEST(DatasetIo, RejectsGarbage)
{
    std::stringstream ss;
    ss << "not a dataset";
    EXPECT_THROW(loadDataset(ss), FatalError);

    // Corrupt magic with valid length.
    std::stringstream ss2;
    const Dataset ds = makeDataset(1, 17);
    saveDataset(ss2, ds);
    std::string bytes = ss2.str();
    bytes[0] = 'X';
    std::stringstream ss3(bytes);
    EXPECT_THROW(loadDataset(ss3), FatalError);

    // Truncation.
    std::stringstream ss4(bytes.substr(0, bytes.size() / 2));
    bytes[0] = 'A';
    EXPECT_THROW(loadDataset(ss4), FatalError);
}

TEST(AbstractModel, FeatureLayoutAndNames)
{
    ActivityFrame frame;
    frame.set(UnitId::VecExec, 0.5f, true, 0.25f);
    float features[AbstractPowerModel::featureCount];
    AbstractPowerModel::featuresOf(frame, features);
    const size_t base = static_cast<size_t>(UnitId::VecExec) *
                        AbstractPowerModel::featuresPerUnit;
    EXPECT_FLOAT_EQ(features[base + 0], 0.5f);
    EXPECT_FLOAT_EQ(features[base + 1], 1.0f);
    EXPECT_FLOAT_EQ(features[base + 2], 0.25f);
    EXPECT_EQ(AbstractPowerModel::featureName(base), "VecExec.activity");
    EXPECT_EQ(AbstractPowerModel::featureName(base + 1),
              "VecExec.clk_en");
}

TEST(AbstractModel, TracksPowerWithoutRtlSimulation)
{
    // Train on frames + oracle labels; must explain most of the power
    // variance despite never seeing a toggle bit.
    const Netlist nl = DesignBuilder::build(DesignConfig::tiny());
    DatasetBuilder builder(nl);
    Xoshiro256StarStar rng(0xab5);
    for (int i = 0; i < 12; ++i)
        builder.addProgram(
            Program::makeLoop("t" + std::to_string(i),
                              GaGenerator::randomBody(rng, 6, 24), 4000,
                              rng()),
            300);
    const Dataset train = builder.build();
    const AbstractPowerModel model =
        trainAbstractModel(builder.frames(), train.y);

    // Held-out program.
    DatasetBuilder eval(nl);
    eval.addProgram(Program::makeLoop(
                        "unseen", GaGenerator::randomBody(rng, 8, 20),
                        4000, 999),
                    600);
    const Dataset test = eval.build();
    const auto pred = model.predict(eval.frames());
    EXPECT_GT(r2Score(test.y, pred), 0.85);

    // Inference must not require netlist-sized state: the model is a
    // fixed-size vector.
    EXPECT_EQ(model.weights.size(), AbstractPowerModel::featureCount);
}

TEST(CounterModel, TraceShapeAndEpochAveraging)
{
    const Netlist nl = DesignBuilder::build(DesignConfig::tiny());
    DatasetBuilder builder(nl);
    builder.addProgram(
        Program::makeLoop("p", {asm_helpers::vfma(0, 1, 2),
                                asm_helpers::add(3, 4, 5)},
                          4000, 5),
        640);
    const Dataset ds = builder.build();
    const CounterTrace trace =
        collectCounters(builder.frames(), ds.y, ds.segments, 64);
    EXPECT_EQ(trace.epochs, 10u);
    EXPECT_EQ(trace.counts.size(), 10u * numCounterEvents);
    // Epoch label equals the mean of the covered cycles.
    double label = 0.0;
    for (size_t i = 0; i < 64; ++i)
        label += ds.y[i];
    EXPECT_NEAR(trace.epochPower[0], label / 64, 1e-4);
}

TEST(CounterModel, CoarseEpochsFitFinEpochsDegrade)
{
    const Netlist nl = DesignBuilder::build(DesignConfig::tiny());
    DatasetBuilder builder(nl);
    Xoshiro256StarStar rng(0xce);
    for (int i = 0; i < 12; ++i)
        builder.addProgram(
            Program::makeLoop("t" + std::to_string(i),
                              GaGenerator::randomBody(rng, 6, 24), 4000,
                              rng()),
            512);
    const Dataset train = builder.build();

    auto nrmse_at = [&](uint32_t epoch) {
        const CounterTrace trace = collectCounters(
            builder.frames(), train.y, train.segments, epoch);
        const CounterPowerModel model = trainCounterModel(trace);
        const auto pred = model.predict(trace);
        return nrmse(trace.epochPower, pred);
    };
    const double coarse = nrmse_at(256);
    const double fine = nrmse_at(1);
    EXPECT_LT(coarse, 0.12) << "counters should work at OS epochs";
    EXPECT_GT(fine, 1.5 * coarse)
        << "per-cycle counter error must blow up (the paper's "
           "motivation for proxies)";
}

} // namespace
} // namespace apollo
