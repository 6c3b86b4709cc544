/**
 * @file
 * The four perfbench workloads. Each builds its inputs from the run's
 * seed in set-up (outside every timer), repeats its operation for the
 * run's measured seconds, checks the program's outputs, and fills the
 * report with the end-to-end metrics (untraced run) or the per-layer
 * metrics (traced run). perfbench/METRICS.md lists what each reports.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <functional>

#include "harness.hh"

namespace perfbench {

Report runDesignN1(const RunContext &ctx);
Report runSelect500k(const RunContext &ctx);
Report runTraceReplay(const RunContext &ctx);
Report runServeFleet(const RunContext &ctx);

/**
 * A Q = 159 model over distinct signals of [0, signal_count), one per
 * equal stratum of the ids, with positive weights, drawn from @p seed.
 * The replay and serving workloads measure throughput and
 * bit-identity, not accuracy, so a seeded model stands in for a
 * trained one.
 */
apollo::ApolloModel seededProxyModel(size_t signal_count, uint64_t seed);

/** The traced half of a traced run. */
struct TracedRun
{
    /** trimmedMean(traced cost) / trimmedMean(untraced cost) - 1. */
    double overheadFrac = 0.0;
    /** Operations run with spans recorded. */
    size_t tracedOps = 0;
    /** apollo.* counter deltas over the traced operations (JSON). */
    std::string counterDeltas;
};

/** Outcome of measure(). */
struct Measured
{
    /** Every set-up succeeded. */
    bool setupOk = true;
    /** Median duration of the timed set-ups. */
    double setupSeconds = 0.0;
    TracedRun traced;
};

/**
 * One operation: receives its index (which also tags its spans) and
 * whether spans are recorded, returns its cost in seconds (the
 * quantity the trace overhead compares).
 */
using Operation = std::function<double(size_t, bool)>;

/**
 * Run a workload's measured region.
 *
 * Untraced: @p phases phases, each building fresh inputs with @p setup
 * and then calling @p op for its share of the seconds (at least
 * @p min_ops per phase), so placement effects of one set-up (file
 * pages, allocations) average out. @p setup receives the phase index
 * and may build different inputs in each phase. With
 * @p repeat_setup (a cheap set-up that writes no files) the set-up is
 * repeated within its phase until 0.3 s of it has been timed (at most
 * 50 times); the last repetition's inputs are the ones measured.
 * setup_s is the median of every timed set-up.
 *
 * Traced: one set-up; the first half of the seconds calls @p op
 * untraced, the second half with spans recorded.
 */
Measured measure(const RunContext &ctx, int phases,
                 const std::function<bool(int phase)> &setup,
                 bool repeat_setup, size_t min_ops, const Operation &op);

/**
 * Call @p op at least @p min_ops times, starting another call only
 * while the last call's duration still fits in @p seconds; returns the
 * number of calls.
 */
size_t repeatFor(double seconds, size_t min_ops,
                 const std::function<void(size_t)> &op);

/** Write the traced run's spans and counter deltas next to the build. */
void writeTrace(const RunContext &ctx, const std::string &other_data);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
