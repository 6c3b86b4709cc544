/**
 * @file
 * Tests for dataset containers (row subsets, interval aggregation),
 * the dataset builder's label consistency, and the VCD writer.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "rtl/design_builder.hh"
#include "trace/toggle_trace.hh"
#include "trace/vcd.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace apollo {
namespace {

using namespace asm_helpers;

/**
 * The toggles a VcdWriter dump records: signal k toggles at cycle c
 * when its value changes after "#c" (the $dumpvars block only sets
 * initial values). Columns follow the $var declaration order.
 */
BitColumnMatrix
dumpedToggles(const std::string &vcd, size_t cycles)
{
    std::istringstream is(vcd);
    std::map<std::string, size_t> column;
    std::string token;
    while (is >> token && token != "$enddefinitions") {
        if (token == "$var") {
            std::string type, width, id;
            is >> type >> width >> id;
            column.emplace(id, column.size());
        }
    }
    BitColumnMatrix toggles(cycles, column.size());
    bool in_dumpvars = false;
    uint64_t cycle = 0;
    while (is >> token) {
        if (token == "$dumpvars")
            in_dumpvars = true;
        else if (token == "$end")
            in_dumpvars = false;
        else if (token[0] == '#')
            cycle = std::stoull(token.substr(1));
        else if (!in_dumpvars)
            toggles.setBit(cycle, column.at(token.substr(1)));
    }
    return toggles;
}

Dataset
smallDataset(int programs = 5)
{
    static const Netlist nl = DesignBuilder::build(DesignConfig::tiny());
    DatasetBuilder builder(nl);
    for (int i = 0; i < programs; ++i) {
        const auto body = std::vector<Instruction>{
            vfma(0, 1, 2), add(3, 4, 5), ldr(6, 30, 8 * i)};
        builder.addProgram(
            Program::makeLoop("prog" + std::to_string(i), body, 2000,
                              100 + i),
            300);
    }
    return builder.build();
}

TEST(Dataset, SegmentsTileTheCycles)
{
    const Dataset ds = smallDataset();
    ASSERT_EQ(ds.segments.size(), 5u);
    size_t covered = 0;
    for (size_t s = 0; s < ds.segments.size(); ++s) {
        EXPECT_EQ(ds.segments[s].begin, covered);
        covered = ds.segments[s].end;
    }
    EXPECT_EQ(covered, ds.cycles());
    EXPECT_EQ(ds.y.size(), ds.cycles());
}

TEST(Dataset, LabelsArePositiveAndVary)
{
    const Dataset ds = smallDataset();
    float lo = ds.y[0];
    float hi = ds.y[0];
    for (float v : ds.y) {
        EXPECT_GT(v, 0.0f);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    EXPECT_GT(hi, 1.2f * lo) << "per-cycle power should vary";
}

TEST(Dataset, SelectRowsPreservesContent)
{
    const Dataset ds = smallDataset(2);
    std::vector<uint32_t> rows = {0, 5, 17, 100,
                                  static_cast<uint32_t>(ds.cycles() - 1)};
    const Dataset sub = ds.selectRows(rows);
    EXPECT_EQ(sub.cycles(), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
        EXPECT_EQ(sub.y[r], ds.y[rows[r]]);
        for (size_t c = 0; c < ds.signals(); c += 131)
            EXPECT_EQ(sub.X.get(r, c), ds.X.get(rows[r], c));
    }
}

TEST(Dataset, AggregateIntervalsCountsAndLabels)
{
    const Dataset ds = smallDataset(2);
    const uint32_t tau = 8;
    const CountDataset agg = aggregateIntervals(ds, tau);
    EXPECT_EQ(agg.tau, tau);

    // Counts must equal the per-cycle sums within each interval, and
    // labels the per-cycle label means.
    size_t checked = 0;
    for (const auto &seg : agg.segments) {
        const auto &src = ds.segments[&seg - agg.segments.data()];
        for (size_t k = seg.begin; k < seg.end; ++k) {
            const size_t local = k - seg.begin;
            for (size_t c = 0; c < ds.signals(); c += 191) {
                uint32_t count = 0;
                for (uint32_t t = 0; t < tau; ++t)
                    count += ds.X.get(src.begin + local * tau + t, c);
                ASSERT_EQ(agg.X.get(k, c), count);
                checked++;
            }
            double label = 0.0;
            for (uint32_t t = 0; t < tau; ++t)
                label += ds.y[src.begin + local * tau + t];
            EXPECT_NEAR(agg.y[k], label / tau, 1e-4);
        }
    }
    EXPECT_GT(checked, 100u);
}

TEST(Dataset, AggregateRejectsBadTau)
{
    const Dataset ds = smallDataset(1);
    EXPECT_THROW(aggregateIntervals(ds, 0), FatalError);
    EXPECT_THROW(aggregateIntervals(ds, 999), FatalError);
}

TEST(Vcd, RoundTripPreservesToggles)
{
    const Netlist nl = DesignBuilder::build(DesignConfig::tiny());
    // Dump a handful of signals over a synthetic toggle pattern.
    std::vector<uint32_t> ids = {0, 7, 42, 100};
    std::ostringstream os;
    VcdWriter writer(os, nl, ids);
    writer.writeHeader();

    BitColumnMatrix pattern(50, ids.size());
    Xoshiro256StarStar rng(5);
    for (size_t i = 0; i < 50; ++i)
        for (size_t k = 0; k < ids.size(); ++k)
            if (rng.nextDouble() < 0.3)
                pattern.setBit(i, k);

    for (size_t i = 0; i < 50; ++i) {
        BitVector row(ids.size());
        for (size_t k = 0; k < ids.size(); ++k)
            if (pattern.get(i, k))
                row.setBit(k);
        writer.writeCycle(row);
    }
    writer.finish();
    EXPECT_EQ(writer.cyclesWritten(), 50u);

    const BitColumnMatrix toggles = dumpedToggles(os.str(), 50);
    ASSERT_EQ(toggles.cols(), ids.size());
    for (size_t i = 0; i < 50; ++i)
        for (size_t k = 0; k < ids.size(); ++k)
            ASSERT_EQ(toggles.get(i, k), pattern.get(i, k))
                << "cycle " << i << " signal " << k;
}

TEST(Vcd, HeaderContainsHierarchyAndVars)
{
    const Netlist nl = DesignBuilder::build(DesignConfig::tiny());
    std::ostringstream os;
    VcdWriter writer(os, nl, {0, 1});
    writer.writeHeader();
    const std::string header = os.str();
    EXPECT_NE(header.find("$timescale"), std::string::npos);
    EXPECT_NE(header.find("$scope module"), std::string::npos);
    EXPECT_NE(header.find("$var wire 1"), std::string::npos);
    EXPECT_NE(header.find("$enddefinitions"), std::string::npos);
}

TEST(Vcd, DatasetColumnsSurviveVcdRoundTrip)
{
    // Integration: dump real dataset toggle columns as VCD and check
    // every toggle shows as a value change at its cycle — what a
    // waveform tool would display.
    const Dataset ds = smallDataset(1);
    const Netlist nl = DesignBuilder::build(DesignConfig::tiny());
    std::vector<uint32_t> ids = {2, 50, 300, 900};

    std::ostringstream os;
    VcdWriter writer(os, nl, ids);
    writer.writeHeader();
    for (size_t i = 0; i < ds.cycles(); ++i) {
        BitVector row(ids.size());
        for (size_t k = 0; k < ids.size(); ++k)
            if (ds.X.get(i, ids[k]))
                row.setBit(k);
        writer.writeCycle(row);
    }
    writer.finish();

    const BitColumnMatrix toggles = dumpedToggles(os.str(), ds.cycles());
    ASSERT_EQ(toggles.cols(), ids.size());
    for (size_t k = 0; k < ids.size(); ++k)
        for (size_t i = 0; i < ds.cycles(); ++i)
            ASSERT_EQ(toggles.get(i, k), ds.X.get(i, ids[k]))
                << "cycle " << i << " signal " << ids[k];
}

TEST(Vcd, WriterRequiresHeaderFirst)
{
    const Netlist nl = DesignBuilder::build(DesignConfig::tiny());
    std::ostringstream os;
    VcdWriter writer(os, nl, {0});
    BitVector row(1);
    EXPECT_THROW(writer.writeCycle(row), FatalError);
}

} // namespace
} // namespace apollo
