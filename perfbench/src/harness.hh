/**
 * @file
 * Measurement harness shared by the perfbench workloads: the run
 * context, the result record printed as the command's last line,
 * spans around every public layer call (written as Chrome
 * trace_event JSON in traced runs), timing decorators for the
 * streaming reader/sink interfaces, resource usage and the host
 * record.
 *
 * Spans always measure their own duration (two steady_clock reads),
 * so the untraced run uses the same timers as the traced one; only a
 * traced run stores the span records.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "apollo.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options of one benchmark run. */
struct RunContext
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the measured region. */
    double seconds = 10.0;
    /** Traced run: report per-layer metrics instead of end-to-end. */
    bool trace = false;
    /** Scratch directory for generated inputs and trace output. */
    std::filesystem::path workDir;
};

/** What one run prints as its last line. */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);

    /** The value of metric @p name, or nullptr. */
    const double *find(const std::string &name) const;

    /** Count one attempted operation. */
    void attempt(uint64_t n = 1) { attempted_ += n; }

    /** Record @p n failed operations or correctness checks. */
    void fail(const std::string &why, uint64_t n = 1);

    /** Check @p ok; a false value is a failed operation. */
    bool
    check(bool ok, const std::string &why)
    {
        if (!ok)
            fail(why);
        return ok;
    }

    bool correct() const { return failed_ == 0; }
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

    /** {"correct": .., "attempted": .., "failed": .., "metrics": ..} */
    std::string json() const;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/** One finished span. */
struct SpanRecord
{
    const char *layer = nullptr;
    const char *name = nullptr;
    double startUs = 0.0;
    double durUs = 0.0;
    uint32_t tid = 0;
    /** Index of the enclosing span in this thread's buffer, or -1. */
    int64_t parent = -1;
    /** The workload operation this span belongs to. */
    uint64_t op = 0;
};

/** Process-wide span store (thread-local buffers, merged on read). */
class Tracer
{
  public:
    static Tracer &instance();

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

    /** Tag subsequent spans with operation id @p op. */
    void setOp(uint64_t op) { op_.store(op, std::memory_order_relaxed); }
    uint64_t op() const { return op_.load(std::memory_order_relaxed); }

    /** Every recorded span, grouped by thread. */
    std::vector<std::vector<SpanRecord>> snapshot() const;

    /**
     * Self time per layer, in seconds per operation: each span's
     * duration minus the part its same-thread children cover, summed
     * by layer and divided by @p ops.
     */
    std::map<std::string, double> selfSecondsByLayer(double ops) const;

    /** Chrome trace_event JSON of every span plus @p other_data. */
    std::string chromeJson(const std::string &other_data) const;

  private:
    friend class Span;
    struct Buffer;
    Buffer &localBuffer();

    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> op_{0};
};

/**
 * Times one call into a layer. Always measures; records a span only
 * when the tracer is enabled. Spans nest per thread.
 */
class Span
{
  public:
    Span(const char *layer, const char *name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span (idempotent); returns its duration in seconds. */
    double stop();

  private:
    const char *layer_;
    const char *name_;
    Clock::time_point t0_;
    int64_t slot_ = -1; ///< reserved buffer slot when recording
    double seconds_ = -1.0;
};

/** Run @p fn inside a span and return its duration in seconds. */
template <typename Fn>
double
timed(const char *layer, const char *name, Fn &&fn)
{
    Span span(layer, name);
    fn();
    return span.stop();
}

// ---------------------------------------------------------------------
// Timing decorators for the streaming interfaces
// ---------------------------------------------------------------------

/** Wraps a reader; every next() is a "trace" span. */
class TimedReader : public apollo::ProxyChunkReader
{
  public:
    explicit TimedReader(apollo::ProxyChunkReader &inner) : inner_(inner) {}

    size_t proxyCount() const override { return inner_.proxyCount(); }
    uint64_t totalCycles() const override { return inner_.totalCycles(); }
    apollo::StatusOr<size_t> next(size_t max_rows,
                                  apollo::ProxyChunk &chunk) override;

    double seconds() const { return seconds_; }

  private:
    apollo::ProxyChunkReader &inner_;
    double seconds_ = 0.0;
};

/** Wraps a sink; every consume() is a "flow" span. */
class TimedSink : public apollo::PowerSink
{
  public:
    explicit TimedSink(apollo::PowerSink &inner) : inner_(inner) {}

    apollo::Status consume(uint64_t first_index,
                           std::span<const float> values) override;
    apollo::Status finish(uint64_t total) override;

    double seconds() const { return seconds_; }

  private:
    apollo::PowerSink &inner_;
    double seconds_ = 0.0;
};

// ---------------------------------------------------------------------
// Resources, statistics, host
// ---------------------------------------------------------------------

/** User + system CPU seconds of this process so far. */
double cpuSeconds();

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

/** Median of @p v (mean of the middle two for even sizes). */
double median(std::vector<double> v);

/**
 * Mean of @p v without its slowest and fastest tenth (rounded down, so
 * under ten values are all kept). Operation times
 * here are often bimodal on one input, and a median then jumps between
 * the modes from run to run while this follows their mix.
 */
double trimmedMean(std::vector<double> v);

/** Nearest-rank percentile, @p p in (0, 1]. */
double percentile(std::vector<double> v, double p);

/** FNV-1a over raw bytes, chainable through @p h. */
uint64_t fnv1a(const void *data, size_t bytes,
               uint64_t h = 0xcbf29ce484222325ULL);

/** Worker threads the library's global pool runs with. */
size_t hardwareThreads();

/**
 * Measured read bandwidth in GB/s: every hardware thread sums a
 * disjoint part of a buffer larger than the last-level cache; best of
 * a few passes.
 */
double measureReadBandwidthGbps();

/** One JSON object describing the host, build and dispatch. */
std::string hostJson(double membw_gbps);

/** Counter deltas of the apollo.* registry since @p before. */
std::string counterDeltaJson(const std::map<std::string, uint64_t> &before);

/** Write @p text to @p path; false on failure. */
bool writeFile(const std::filesystem::path &path, const std::string &text);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
