/**
 * @file
 * trace_replay: the Fig. 16 emulator flow. Set-up simulates four
 * phase-rich makeLongWorkload programs on the N1 design and records
 * their proxy toggles (a seeded Q = 159 model over real N1 signals) to
 * one APTR trace file. One operation replays the file through
 * Inference::stream twice, float per-cycle and quantized (B = 10,
 * T = 32), with the default big chunks on one stream, then calls the
 * public batch Inference::predict (quantized) on a resident slice.
 * The trace reader, stream engine, bit-parallel OPM and popcount
 * kernels do the work; no training or serving runs.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "workloads.hh"

namespace perfbench {

namespace {

using namespace apollo;

constexpr size_t kQ = 159;
constexpr uint32_t kBits = 10;
constexpr uint32_t kWindow = 32;
constexpr int kPrograms = 4;
constexpr uint64_t kCyclesPerProgram = 1 << 18;
constexpr size_t kSliceCycles = 1 << 15;
/** The replay rate depends on where one set-up's trace file and
 *  buffers land, so a run re-records the trace this many times. */
constexpr int kPhases = 5;
/** Big chunks on one stream (the Fig. 16 emulator shape). */
const StreamConfig kStreamConfig = StreamConfig().withChunkCycles(1 << 16);

/**
 * Keeps the first @p keep samples and a checksum of all of them (sum
 * of the IEEE-754 bit patterns): enough to compare a pass against the
 * batch reference and against the other passes of the run.
 */
class CheckSink : public PowerSink
{
  public:
    explicit CheckSink(size_t keep) : keep_(keep) { prefix_.reserve(keep); }

    Status
    consume(uint64_t, std::span<const float> values) override
    {
        for (float v : values) {
            uint32_t bits;
            std::memcpy(&bits, &v, sizeof(bits));
            sum_ += bits;
        }
        const size_t take = std::min(values.size(), keep_ - prefix_.size());
        prefix_.insert(prefix_.end(), values.begin(), values.begin() + take);
        count_ += values.size();
        return Status::okStatus();
    }

    const std::vector<float> &prefix() const { return prefix_; }
    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }

  private:
    size_t keep_;
    std::vector<float> prefix_;
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
};

/** Inputs built in set-up. */
struct Inputs
{
    std::optional<Inference> floatEngine;
    std::optional<Inference> quantEngine;
    std::string tracePath;
    uint64_t traceCycles = 0;
    BitColumnMatrix slice;
    std::vector<float> floatRef; ///< predictProxies over the slice
};

/** Per-operation measurements. */
struct ReplayOp
{
    double wall = 0.0;
    double cpu = 0.0;
    double floatSecs = 0.0;
    double quantSecs = 0.0;
    double batchSecs = 0.0;
    double readSecs = 0.0;
    double emitSecs = 0.0;
    uint64_t chunks = 0;
    uint64_t quantBytes = 0;
    uint64_t floatSum = 0;
    uint64_t quantSum = 0;
};

/** One streaming pass over the trace file. */
StatusOr<StreamStats>
streamPass(const Inference &engine, const std::string &path,
           CheckSink &sink, bool traced, ReplayOp &op)
{
    ProxyTraceFileReader file(path);
    if (!traced)
        return engine.stream(file, sink, kStreamConfig);
    TimedReader reader(file);
    TimedSink timed_sink(sink);
    StatusOr<StreamStats> stats =
        engine.stream(reader, timed_sink, kStreamConfig);
    op.readSecs += reader.seconds();
    op.emitSecs += timed_sink.seconds();
    return stats;
}

ReplayOp
replayOnce(const Inputs &in, bool traced, Report &report)
{
    ReplayOp op;
    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();

    CheckSink fsink(in.slice.rows());
    StatusOr<StreamStats> fstats = Status::invalidArgument("not run");
    op.floatSecs = timed("flow", "Inference::stream(float)", [&] {
        fstats = streamPass(*in.floatEngine, in.tracePath, fsink, traced, op);
    });

    CheckSink qsink(in.slice.rows() / kWindow);
    StatusOr<StreamStats> qstats = Status::invalidArgument("not run");
    op.quantSecs = timed("flow", "Inference::stream(quantized)", [&] {
        qstats = streamPass(*in.quantEngine, in.tracePath, qsink, traced, op);
    });

    std::vector<float> batch;
    op.batchSecs = timed("opm", "Inference::predict(quantized)", [&] {
        batch = in.quantEngine->predict(in.slice);
    });
    op.wall = secondsSince(t0);
    op.cpu = cpuSeconds() - cpu0;

    if (!report.check(fstats.ok() && qstats.ok(),
                      "stream failed: " + fstats.status().toString() + " / " +
                          qstats.status().toString()))
        return op;
    op.chunks = fstats->chunks + qstats->chunks;
    op.quantBytes = qstats->traceBytes;
    op.floatSum = fsink.sum();
    op.quantSum = qsink.sum();
    report.check(fsink.count() == in.traceCycles &&
                     qsink.count() == in.traceCycles / kWindow,
                 "stream sample counts do not match the trace length");
    report.check(fsink.prefix() == in.floatRef,
                 "float stream differs from predictProxies on the slice");
    report.check(qsink.prefix() == batch,
                 "quantized stream differs from batch predict on the slice");
    return op;
}

/** Record the proxy trace of the seeded programs to @p path. */
Status
recordTrace(const Netlist &netlist, const ApolloModel &model, uint64_t seed,
            const std::string &path, uint64_t &cycles)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    ProxyTraceWriter writer(os, kQ);
    for (int p = 0; p < kPrograms; ++p) {
        const Program prog = makeLongWorkload(
            "replay" + std::to_string(p), kCyclesPerProgram * 2,
            hashCombine(seed, 0x17fULL + p));
        DatasetBuilder builder(netlist);
        builder.addProgram(prog, kCyclesPerProgram);
        FrameProxyChunkReader reader(builder.engine(), builder.frames(),
                                     model.proxyIds,
                                     builder.segmentBeginTable());
        ProxyChunk chunk;
        for (;;) {
            StatusOr<size_t> rows = reader.next(1 << 16, chunk);
            if (!rows.ok())
                return rows.status();
            if (*rows == 0)
                break;
            if (Status st = writer.append(chunk.bits); !st.ok())
                return st;
        }
    }
    if (Status st = writer.finish(); !st.ok())
        return st;
    cycles = writer.cyclesWritten();
    os.close();
    return os ? Status::okStatus() : Status::ioError("writing ", path);
}

} // namespace

ApolloModel
seededProxyModel(size_t signal_count, uint64_t seed)
{
    Xoshiro256StarStar rng(hashCombine(0x7e91ULL, seed));
    ApolloModel model;
    for (size_t q = 0; q < kQ; ++q) {
        // One signal from each of kQ equal strata of the id space: the
        // mix of signal kinds, and so the toggle densities inference
        // cost depends on, stays alike across seeds.
        const double u = (q + rng.nextDouble()) / kQ;
        model.proxyIds.push_back(static_cast<uint32_t>(u * signal_count));
        model.weights.push_back(
            static_cast<float>(0.02 + 0.5 * rng.nextDouble()));
    }
    model.intercept = 1.0;
    return model;
}

Report
runTraceReplay(const RunContext &ctx)
{
    namespace fs = std::filesystem;
    Report report;
    const fs::path dir = ctx.workDir / "trace_replay";

    // Each set-up records a new file and the run deletes them all at
    // its end, untimed: truncating a file the kernel is still writing
    // back can wait on the disk.
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    int setups = 0;
    Inputs in;
    Status recorded = Status::okStatus();
    auto setup = [&](int) {
        in = Inputs{};
        const Netlist netlist =
            DesignBuilder::build(DesignConfig::neoverseN1ish());
        const ApolloModel model =
            seededProxyModel(netlist.signalCount(), ctx.seed);
        StatusOr<QuantizedModel> qmodel = tryQuantizeModel(model, kBits);
        if (!qmodel.ok()) {
            recorded = qmodel.status();
            return false;
        }
        in.floatEngine.emplace(model);
        in.quantEngine.emplace(*qmodel, kWindow);
        in.tracePath =
            (dir / ("replay" + std::to_string(setups++) + ".aptr")).string();
        recorded = recordTrace(netlist, model, ctx.seed, in.tracePath,
                               in.traceCycles);
        if (!recorded.ok())
            return false;
        ProxyTraceFileReader file(in.tracePath);
        ProxyChunk chunk;
        StatusOr<size_t> rows = file.next(kSliceCycles, chunk);
        if (!rows.ok() || *rows != kSliceCycles) {
            recorded = Status::ioError("short slice read");
            return false;
        }
        in.slice = std::move(chunk.bits);
        in.floatRef = model.predictProxies(in.slice);
        return true;
    };

    std::vector<ReplayOp> ops;
    const Measured m =
        measure(ctx, kPhases, setup, false, 3, [&](size_t, bool traced) {
            report.attempt();
            ops.push_back(replayOnce(in, traced, report));
            return ops.back().wall;
        });
    fs::remove_all(dir, ec);
    if (!m.setupOk) {
        report.attempt();
        report.fail("set-up: " + recorded.toString());
        return report;
    }

    for (const ReplayOp &op : ops)
        report.check(op.floatSum == ops.front().floatSum &&
                         op.quantSum == ops.front().quantSum,
                     "replay output differs between passes of one run");

    auto med = [&](auto field) {
        std::vector<double> v;
        for (const ReplayOp &op : ops)
            v.push_back(static_cast<double>(field(op)));
        return median(v);
    };
    const double cycles = static_cast<double>(in.traceCycles);
    const double slice = static_cast<double>(in.slice.rows());
    if (!ctx.trace) {
        report.add("setup_s", m.setupSeconds, "s");
        std::vector<double> wall, cpu;
        for (const ReplayOp &op : ops) {
            wall.push_back(op.wall);
            cpu.push_back(op.cpu);
        }
        report.add("wall_s", trimmedMean(wall), "s");
        report.add("cpu_s", trimmedMean(cpu), "s");
        report.add("peak_rss_mb", peakRssMb(), "MiB");
        return report;
    }

    // Untraced half: the batch rate.
    std::vector<ReplayOp> traced_ops(ops.end() - m.traced.tracedOps,
                                     ops.end());
    ops.resize(ops.size() - m.traced.tracedOps);
    report.add("opm.batch_mcps",
               slice / med([](auto &o) { return o.batchSecs; }) / 1e6,
               "Mcyc/s");
    ops = std::move(traced_ops);
    const double quant_secs = med([](auto &o) { return o.quantSecs; });
    const double popcnt_gbps =
        med([](auto &o) { return static_cast<double>(o.quantBytes); }) /
        quant_secs / 1e9;
    report.add("trace.read_s", med([](auto &o) { return o.readSecs; }), "s");
    report.add("flow.float_mcps",
               cycles / med([](auto &o) { return o.floatSecs; }) / 1e6,
               "Mcyc/s");
    report.add("flow.quant_mcps", cycles / quant_secs / 1e6, "Mcyc/s");
    report.add("flow.emit_s", med([](auto &o) { return o.emitSecs; }), "s");
    report.add("flow.chunks", med([](auto &o) { return o.chunks; }),
               "count");
    report.add("opm.batch_s", med([](auto &o) { return o.batchSecs; }), "s");
    report.add("util.popcnt_gbps", popcnt_gbps, "GB/s");
    report.add("bench.trace_overhead_frac", m.traced.overheadFrac, "frac");
    for (const auto &[layer, secs] :
         Tracer::instance().selfSecondsByLayer(m.traced.tracedOps))
        report.add(layer + ".self_s", secs, "s");
    writeTrace(ctx, "{\"apollo_counters\": " + m.traced.counterDeltas + "}");
    return report;
}

} // namespace perfbench
