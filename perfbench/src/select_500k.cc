/**
 * @file
 * select_500k: out-of-core proxy selection at paper scale. Set-up
 * streams a counter-seeded N x M toggle matrix (M = 500k signals) into
 * APSH column shards and builds planted labels (the recipe of the
 * solver bench's huge phase). One operation opens the shard set
 * (MappedShardSet::open) and runs selectProxiesSharded at Q = 159.
 * The matrix is never resident: the shard store, the sharded view and
 * page residency do the work, and peak RSS is the claim. No GA,
 * simulation, streaming or serving runs.
 */

#include <algorithm>
#include <filesystem>
#include <set>

#include "gen/synthetic_toggles.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace apollo;

constexpr size_t kRows = 4096;
constexpr size_t kCols = 500000;
constexpr size_t kPlanted = 159;
constexpr uint32_t kShards = 32;
constexpr size_t kTargetQ = 159;
constexpr size_t kLabelSets = 3;
/** One shard matrix per phase. */
constexpr int kPhases = 3;

struct SelectResult
{
    double wall = 0.0;
    double cpu = 0.0;
    double open = 0.0;
    double select = 0.0;
    double rssDeltaMb = 0.0;
    uint64_t bytesMapped = 0;
    ShardSelectionStats stats;
    std::vector<uint32_t> proxyIds;
    uint64_t digest = 0;
};

SelectResult
selectOnce(const std::string &base, const std::vector<float> &y,
           Report &report)
{
    SelectResult r;
    const double rss0 = peakRssMb();
    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();

    StatusOr<MappedShardSet> set = Status::invalidArgument("not run");
    r.open = timed("trace", "MappedShardSet::open",
                   [&] { set = MappedShardSet::open(base); });
    if (!report.check(set.ok(), "shard open: " + set.status().toString()))
        return r;
    r.bytesMapped = set->bytesMapped();

    ProxySelectorConfig cfg;
    cfg.targetQ = kTargetQ;
    StatusOr<ProxySelection> sel = Status::invalidArgument("not run");
    r.select = timed("ml", "selectProxiesSharded", [&] {
        sel = selectProxiesSharded(*set, y, cfg, &r.stats);
    });
    r.wall = secondsSince(t0);
    r.cpu = cpuSeconds() - cpu0;
    r.rssDeltaMb = peakRssMb() - rss0;
    if (!report.check(sel.ok(), "selectProxiesSharded: " +
                                    sel.status().toString()))
        return r;
    r.proxyIds = sel->proxyIds;
    r.digest = fnv1a(sel->sparseModel.w.data(),
                     sel->sparseModel.w.size() * sizeof(float));
    r.digest = fnv1a(r.proxyIds.data(), r.proxyIds.size() * sizeof(uint32_t),
                     r.digest);
    return r;
}

} // namespace

Report
runSelect500k(const RunContext &ctx)
{
    namespace fs = std::filesystem;
    Report report;
    const fs::path dir = ctx.workDir / "select_500k";
    const std::string base = (dir / "m500k").string();
    // The solver's work depends on the matrix and labels drawn, so each
    // set-up phase writes its own matrix with kLabelSets planted label
    // sets, and operations cycle through the sets: a run's median spans
    // several inputs.
    std::vector<std::vector<float>> labels;
    Status written = Status::okStatus();
    int measured_phase = 0;
    std::vector<SelectResult> runs;
    std::vector<uint64_t> input_of; ///< per run: phase * kLabelSets + set
    size_t phase_ops = 0;
    const Measured m = measure(
        ctx, kPhases,
        [&](int phase) {
            // One matrix in the page cache at a time: with all three
            // kept, selections ran a third slower in some runs.
            std::error_code ec;
            fs::remove_all(dir, ec);
            fs::create_directories(dir, ec);
            const uint64_t matrix_seed =
                hashCombine(hashCombine(0xa9011cULL, ctx.seed), phase);
            written = writeSyntheticShards(base, kRows, kCols, kShards,
                                           matrix_seed);
            labels.clear();
            for (size_t k = 0; k < kLabelSets; ++k)
                labels.push_back(makeSyntheticLabels(
                    kRows, kCols, kPlanted, matrix_seed,
                    hashCombine(matrix_seed, 0x5eedULL + k)));
            measured_phase = phase;
            phase_ops = 0;
            return written.ok();
        },
        false, 1,
        [&](size_t, bool) {
            report.attempt();
            const size_t set = phase_ops++ % kLabelSets;
            runs.push_back(selectOnce(base, labels[set], report));
            input_of.push_back(measured_phase * kLabelSets + set);
            return runs.back().wall;
        });
    std::error_code ec;
    fs::remove_all(dir, ec);
    if (!m.setupOk) {
        report.attempt();
        report.fail("writing shards: " + written.toString());
        return report;
    }

    // Correctness: Q nonzeros, every selected signal is a planted one
    // (so all Q planted signals are recovered), and repeated selections
    // of one input are identical.
    std::set<uint32_t> planted;
    for (size_t p = 0; p < kPlanted; ++p)
        planted.insert(static_cast<uint32_t>(p * kCols / kPlanted));
    for (size_t i = 0; i < runs.size(); ++i) {
        const SelectResult &r = runs[i];
        report.check(r.proxyIds.size() == kTargetQ,
                     "selection does not have Q nonzeros");
        const size_t hits = std::count_if(
            r.proxyIds.begin(), r.proxyIds.end(),
            [&](uint32_t j) { return planted.count(j) != 0; });
        report.check(hits == r.proxyIds.size(),
                     "selection holds " +
                         std::to_string(r.proxyIds.size() - hits) +
                         " signals outside the planted support");
        const size_t first = static_cast<size_t>(
            std::find(input_of.begin(), input_of.end(), input_of[i]) -
            input_of.begin());
        report.check(r.digest == runs[first].digest,
                     "selections of one input differ");
    }

    auto med = [&](auto field) {
        std::vector<double> v;
        for (const SelectResult &r : runs)
            v.push_back(static_cast<double>(field(r)));
        return median(v);
    };
    if (!ctx.trace) {
        report.add("setup_s", m.setupSeconds, "s");
        std::vector<double> wall, cpu;
        for (const SelectResult &r : runs) {
            wall.push_back(r.wall);
            cpu.push_back(r.cpu);
        }
        report.add("wall_s", trimmedMean(wall), "s");
        report.add("cpu_s", trimmedMean(cpu), "s");
        report.add("peak_rss_mb", peakRssMb(), "MiB");
        return report;
    }

    // The first selection of the run sets the process high-water mark;
    // later ones only add to it if they need more.
    const double rss_delta_mb = runs.front().rssDeltaMb;
    runs.erase(runs.begin(), runs.end() - m.traced.tracedOps);
    const ShardSelectionStats &st = runs.back().stats;
    report.add("trace.shard_open_s", med([](auto &r) { return r.open; }),
               "s");
    report.add("ml.shard_select_s", med([](auto &r) { return r.select; }),
               "s");
    report.add("ml.shard_admit_frac",
               st.colsScanned ? static_cast<double>(st.screenAdmitted) /
                                    st.colsScanned
                              : 0.0,
               "frac");
    report.add("ml.shard_kkt_dots", static_cast<double>(st.kktDots),
               "count");
    report.add("ml.shard_peak_strong",
               static_cast<double>(st.peakStrongSize), "count");
    report.add("trace.shard_bytes_mapped",
               static_cast<double>(runs.back().bytesMapped), "B");
    report.add("ml.rss_delta_mb", rss_delta_mb, "MiB");
    report.add("bench.trace_overhead_frac", m.traced.overheadFrac, "frac");
    for (const auto &[layer, secs] :
         Tracer::instance().selfSecondsByLayer(m.traced.tracedOps))
        report.add(layer + ".self_s", secs, "s");
    writeTrace(ctx, "{\"apollo_counters\": " + m.traced.counterDeltas + "}");
    return report;
}

} // namespace perfbench
