/**
 * @file
 * The perfbench program:
 *
 *   perfbench --workload <design_n1|select_500k|trace_replay|serve_fleet>
 *             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
 *
 * Builds the workload's inputs from the seed, measures for the given
 * seconds, checks the outputs, prints the host record, and prints the
 * result object as the last line of stdout. Exits 1 when any
 * operation or correctness check failed, 2 on bad usage.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hh"

#include "obs/metrics.hh"

namespace perfbench {

size_t
repeatFor(double seconds, size_t min_ops,
          const std::function<void(size_t)> &op)
{
    const Clock::time_point t0 = Clock::now();
    size_t n = 0;
    double last = 0.0;
    // Start another operation only if it should end within the budget.
    while (n < min_ops || secondsSince(t0) + last <= seconds) {
        const Clock::time_point op0 = Clock::now();
        op(n);
        last = secondsSince(op0);
        ++n;
    }
    return n;
}

namespace {

/** A repeated set-up runs until a phase has timed this much of it. */
constexpr double kSetupSecondsPerPhase = 0.3;
constexpr int kMaxSetupReps = 50;

/** Time @p setup (repeated if @p repeat) into @p secs; false on failure. */
bool
timedSetup(const std::function<bool(int)> &setup, bool repeat, int phase,
           std::vector<double> &secs)
{
    const Clock::time_point t0 = Clock::now();
    for (int rep = 0; rep < (repeat ? kMaxSetupReps : 1); ++rep) {
        const Clock::time_point r0 = Clock::now();
        if (!setup(phase))
            return false;
        secs.push_back(secondsSince(r0));
        if (secondsSince(t0) >= kSetupSecondsPerPhase)
            break;
    }
    return true;
}

} // namespace

Measured
measure(const RunContext &ctx, int phases,
        const std::function<bool(int)> &setup, bool repeat_setup,
        size_t min_ops,
        const Operation &op)
{
    Measured m;
    std::vector<double> setup_secs;
    Tracer &tracer = Tracer::instance();
    size_t index = 0;
    auto run_op = [&](bool traced) {
        tracer.setOp(index);
        return op(index++, traced);
    };

    if (!ctx.trace) {
        // Phase p measures until (p + 1) / phases of the seconds have
        // been measured, so time one phase leaves over carries forward.
        double measured = 0.0;
        for (int phase = 0; phase < phases; ++phase) {
            if (!(m.setupOk =
                      timedSetup(setup, repeat_setup, phase, setup_secs)))
                return m;
            const Clock::time_point t0 = Clock::now();
            repeatFor(ctx.seconds * (phase + 1) / phases - measured,
                      min_ops, [&](size_t) { run_op(false); });
            measured += secondsSince(t0);
        }
        m.setupSeconds = median(setup_secs);
        return m;
    }

    if (!(m.setupOk = timedSetup(setup, repeat_setup, 0, setup_secs)))
        return m;
    m.setupSeconds = median(setup_secs);
    std::vector<double> plain, traced;
    repeatFor(ctx.seconds / 2.0, min_ops,
              [&](size_t) { plain.push_back(run_op(false)); });
    const auto before =
        apollo::obs::MetricRegistry::instance().counterValues();
    tracer.setEnabled(true);
    m.traced.tracedOps =
        repeatFor(ctx.seconds / 2.0, min_ops,
                  [&](size_t) { traced.push_back(run_op(true)); });
    tracer.setEnabled(false);
    m.traced.counterDeltas = counterDeltaJson(before);
    m.traced.overheadFrac = trimmedMean(traced) / trimmedMean(plain) - 1.0;
    return m;
}

void
writeTrace(const RunContext &ctx, const std::string &other_data)
{
    const std::filesystem::path path =
        ctx.workDir / ("trace_" + ctx.workload + "_" +
                       std::to_string(ctx.seed) + ".json");
    if (writeFile(path, Tracer::instance().chromeJson(other_data)))
        std::fprintf(stderr, "[perfbench] trace written to %s\n",
                     path.c_str());
}

} // namespace perfbench

namespace {

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "--work-dir <dir>\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunContext ctx;
    ctx.workDir = ".";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload")
            ctx.workload = val;
        else if (key == "--seed")
            ctx.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            ctx.seconds = std::strtod(val.c_str(), nullptr);
        else if (key == "--trace")
            ctx.trace = val == "1";
        else if (key == "--work-dir")
            ctx.workDir = val;
        else
            return usage(("unknown option " + key).c_str());
    }
    if (!(ctx.seconds > 0.0))
        return usage("--seconds must be positive");

    Report (*run)(const RunContext &) = nullptr;
    if (ctx.workload == "design_n1")
        run = runDesignN1;
    else if (ctx.workload == "select_500k")
        run = runSelect500k;
    else if (ctx.workload == "trace_replay")
        run = runTraceReplay;
    else if (ctx.workload == "serve_fleet")
        run = runServeFleet;
    else
        return usage("unknown workload");

    std::error_code ec;
    std::filesystem::create_directories(ctx.workDir, ec);
    if (ec)
        return usage("cannot create --work-dir");

    Report report;
    try {
        report = run(ctx);
    } catch (const std::exception &e) {
        report.attempt();
        report.fail(std::string("exception: ") + e.what());
    }
    if (report.attempted() == 0) {
        report.attempt();
        report.fail("no operation ran");
    }

    // The bandwidth probe runs after the workload so it cannot disturb
    // set-up, the measured region or the peak RSS.
    const double membw = measureReadBandwidthGbps();
    if (ctx.trace) {
        report.add("host.membw_gbps", membw, "GB/s");
        if (const double *gbps = report.find("util.popcnt_gbps"))
            report.add("util.popcnt_roof_frac", *gbps / membw, "frac");
    }
    std::printf("host %s\n", hostJson(membw).c_str());
    std::printf("%s\n", report.json().c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
}
