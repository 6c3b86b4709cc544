/**
 * @file
 * serve_fleet: runtime power introspection served to 16 concurrent
 * sessions, each sending 2048-cycle chunks of packed proxy toggles to
 * a quantized (B = 10, T = 32) model over the line-JSON wire.
 *
 * Load is an open loop: every submit_chunk request is synthesised and
 * wire-encoded in set-up, and one generator thread hands the
 * pre-encoded lines to serve::runServeLoop through an in-process pipe
 * at their due times, whatever the server's progress. Chunk latency
 * runs from the chunk's due time to the moment its power-event line
 * is written, so a stall also delays every later chunk. The
 * generator, the loop's reader thread and the server pool together
 * use at most nproc threads.
 *
 * One untraced operation is a burst: 1024 chunks all due at once, so
 * wall_s is the time the server takes to drain a fixed backlog (its
 * saturated throughput). The traced run measures latency at one fixed
 * reference rate (serve.p50_ms, serve.p99_ms) and climbs a fixed
 * geometric ladder of offered rates for the highest one whose p99
 * stays within 5 ms with no growing backlog and no failures
 * (serve.ladder_mcps_at_slo).
 *
 * Per-chunk costs dominate here: wire decode, strand scheduling,
 * queueing and emission, on the same stream engine trace_replay runs
 * with big chunks. The traced run splits them with a replica of the
 * loop built from the same public calls (parseRequestLine,
 * SessionManager::submitChunk, encodePowerEvent), timing each.
 */

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <limits>
#include <istream>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <thread>

#include "obs/metrics.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace apollo;

constexpr size_t kSessions = 16;
constexpr size_t kChunkCycles = 2048;
constexpr size_t kQ = 159;
constexpr uint32_t kBits = 10;
constexpr uint32_t kWindow = 32;
constexpr size_t kOutPerChunk = kChunkCycles / kWindow;
/** Distinct pre-encoded chunks per session, sent round-robin. */
constexpr size_t kPool = 16;
constexpr const char *kModel = "fleet_q10";

constexpr double kSloMs = 5.0;
/** Offered rate of the latency trials, Mcycles/s over all sessions. */
constexpr double kRefMcps = 2.0;
/** Chunks of one reference-rate trial (0.5 s at kRefMcps). */
constexpr size_t kRefTrialChunks = 496;
/** Offered rate of a burst: every chunk is due at the start. */
constexpr double kBurstMcps = std::numeric_limits<double>::infinity();
/** Chunks of one burst: 64 per session, four pool periods. */
constexpr size_t kBurstChunks = 1024;
/** Ladder: kLadderBase * 2^(k/16) Mcycles/s, k = 0 .. kRungs-1. */
constexpr double kLadderBase = 1.0;
constexpr int kRungs = 56;
/** A rung lasts long enough for kMinRungChunks samples (p99 has 10
 *  beyond it) and at least kMinRungSeconds. */
constexpr size_t kMinRungChunks = 1024;
constexpr double kMinRungSeconds = 0.2;
/** Set-ups of an untraced run; each encodes the requests again. */
constexpr int kPhases = 4;

double
ladderRate(int k)
{
    return kLadderBase * std::exp2(k / 16.0);
}

std::string
sessionName(size_t s)
{
    char buf[8];
    std::snprintf(buf, sizeof(buf), "s%02zu", s);
    return buf;
}

/**
 * Synthetic proxy toggles with N1-like per-column densities, drawn per
 * session and column. Decode cost depends on the density mix (dense
 * columns make unpredictable hex digits), so drawing it over all
 * 16 x 159 columns keeps the mix, and the cost, alike across seeds.
 */
BitColumnMatrix
syntheticChunk(uint64_t seed, size_t session, size_t index)
{
    BitColumnMatrix bits(kChunkCycles, kQ);
    const uint64_t session_seed = hashCombine(seed, session);
    const uint64_t chunk_seed = hashCombine(session_seed, index);
    for (size_t c = 0; c < kQ; ++c) {
        // 0 ands = 50% dense .. 5 ands = 1.6%, fixed per column.
        const int ands = static_cast<int>(hashCombine(session_seed, c) % 6);
        uint64_t *w = bits.colWordsMutable(c);
        for (size_t k = 0; k < bits.wordsPerCol(); ++k) {
            uint64_t word = hashCombine(chunk_seed, c * 4096 + k);
            for (int t = 0; t < ands; ++t)
                word &= hashMix(word + t + 1);
            w[k] = word;
        }
    }
    return bits;
}

// ---------------------------------------------------------------------
// The in-process wire: an input pipe fed by the generator and an output
// capture that timestamps every response line.
// ---------------------------------------------------------------------

/**
 * Input side of the wire. The generator pushes pointers to
 * pre-encoded lines; the reader's get area is pointed straight at the
 * next line, so handing a line over copies nothing.
 */
class LinePipe : public std::streambuf
{
  public:
    void
    push(const std::string *line)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            lines_.push_back(line);
        }
        cv_.notify_one();
    }

    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_ = true;
        }
        cv_.notify_one();
    }

  protected:
    int_type
    underflow() override
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return !lines_.empty() || closed_; });
        if (lines_.empty())
            return traits_type::eof();
        const std::string *line = lines_.front();
        lines_.pop_front();
        char *p = const_cast<char *>(line->data());
        setg(p, p, p + line->size());
        return traits_type::to_int_type(*p);
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<const std::string *> lines_;
    bool closed_ = false;
};

/** One response line and when its last byte was written. */
struct OutLine
{
    Clock::time_point at;
    std::string text;
};

/**
 * Output side of the wire. Writers are serialized by the serve loop's
 * output mutex (and by the replica's), so no lock is needed here.
 */
class OutCapture : public std::streambuf
{
  public:
    explicit OutCapture(size_t expected) { lines_.reserve(expected); }

    std::vector<OutLine> &lines() { return lines_; }

  protected:
    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n;) {
            const char *nl = static_cast<const char *>(
                std::memchr(s + i, '\n', static_cast<size_t>(n - i)));
            const std::streamsize end = nl ? (nl - s) + 1 : n;
            cur_.append(s + i, static_cast<size_t>(end - i));
            i = end;
            if (nl) {
                lines_.push_back({Clock::now(), std::move(cur_)});
                cur_.clear();
            }
        }
        return n;
    }

    int_type
    overflow(int_type ch) override
    {
        if (traits_type::eq_int_type(ch, traits_type::eof()))
            return traits_type::not_eof(ch);
        const char c = traits_type::to_char_type(ch);
        xsputn(&c, 1);
        return ch;
    }

  private:
    std::string cur_;
    std::vector<OutLine> lines_;
};

// ---------------------------------------------------------------------
// Inputs and trials
// ---------------------------------------------------------------------

struct Inputs
{
    std::shared_ptr<serve::ModelRegistry> registry;
    std::array<std::string, kSessions> createLines;
    std::array<std::string, kSessions> closeLines;
    /** submit_chunk lines, [session][pool index]. */
    std::vector<std::vector<std::string>> chunkLines;
    /** Standalone Inference::stream output of one pool period. */
    std::vector<std::vector<float>> reference;
    size_t poolThreads = 1;
};

/** Measured outcome of one open-loop trial at one offered rate. */
struct Trial
{
    double mcps = 0.0;
    size_t sent = 0;
    size_t ok = 0;
    size_t failed = 0;
    std::vector<double> latencyMs;  ///< due -> power-event line
    std::vector<double> lateMs;     ///< due -> handed to the server
    /** First due time -> last correct power-event line. */
    double wallSeconds = 0.0;
    bool backlogGrows = false;
    double cpuSeconds = 0.0;
    uint64_t backpressureStalls = 0;

    double p50() const { return percentile(latencyMs, 0.50); }
    double p99() const { return percentile(latencyMs, 0.99); }

    bool
    meetsSlo() const
    {
        return failed == 0 && ok == sent && !backlogGrows &&
               p99() <= kSloMs;
    }
};

/** Per-chunk timestamps of the traced replica (seconds). */
struct ReplicaTimes
{
    std::vector<double> decode;
    std::vector<double> submit;
    std::vector<double> submitEnd;
    std::vector<double> sinkStart;
    std::vector<double> emit;

    void
    resize(size_t n)
    {
        for (auto *v : {&decode, &submit, &submitEnd, &sinkStart, &emit})
            v->assign(n, -1.0);
    }
};

/** Chunk i of a trial goes to session i % 16 as its (i / 16)-th chunk. */
struct Schedule
{
    size_t chunks = 0;
    double interval = 0.0; ///< seconds between consecutive chunks
    Clock::time_point t0;

    Clock::time_point
    due(size_t i) const
    {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(interval * i));
    }
};

Schedule
makeSchedule(double mcps, double seconds, size_t min_chunks)
{
    Schedule s;
    s.interval = kChunkCycles / (mcps * 1e6);
    size_t n = s.interval > 0.0 ? static_cast<size_t>(seconds / s.interval)
                                : 0;
    n = std::max(n, min_chunks);
    s.chunks = (n + kSessions - 1) / kSessions * kSessions;
    return s;
}

/** The generator: every line at its due time, open loop. */
void
generate(const Inputs &in, Schedule &sched, LinePipe &pipe,
         std::vector<double> &late_ms)
{
    for (const std::string &line : in.createLines)
        pipe.push(&line);
    sched.t0 = Clock::now() + std::chrono::milliseconds(5);
    for (size_t i = 0; i < sched.chunks; ++i) {
        const Clock::time_point due = sched.due(i);
        std::this_thread::sleep_until(due);
        pipe.push(&in.chunkLines[i % kSessions][(i / kSessions) % kPool]);
        late_ms[i] =
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count();
    }
    for (const std::string &line : in.closeLines)
        pipe.push(&line);
    pipe.close();
}

/**
 * Run @p fn on a thread of its own, as a connection handler would, and
 * wait for it; an exception it throws is rethrown here.
 */
template <typename Fn>
void
runOnOwnThread(Fn &&fn)
{
    std::exception_ptr error;
    std::thread thread([&] {
        try {
            fn();
        } catch (...) {
            error = std::current_exception();
        }
    });
    thread.join();
    if (error)
        std::rethrow_exception(error);
}

/** Joins a thread on every exit path, exceptions included. */
class Joiner
{
  public:
    explicit Joiner(std::thread &t) : t_(t) {}
    ~Joiner()
    {
        if (t_.joinable())
            t_.join();
    }
    Joiner(const Joiner &) = delete;
    Joiner &operator=(const Joiner &) = delete;

  private:
    std::thread &t_;
};

/** Parse `"key":<digits>` or `"key":"<text>"` out of a response line. */
std::string_view
field(std::string_view line, std::string_view key)
{
    const size_t at = line.find(key);
    if (at == std::string_view::npos)
        return {};
    size_t b = at + key.size();
    if (b < line.size() && line[b] == '"')
        ++b;
    size_t e = b;
    while (e < line.size() && line[e] != '"' && line[e] != ',' &&
           line[e] != '}')
        ++e;
    return line.substr(b, e - b);
}

/**
 * Match every captured power event to its chunk, check it equals the
 * standalone reference byte for byte, and fill the trial's latency
 * distribution. Chunks without exactly one correct event fail.
 */
void
evaluate(const Inputs &in, const Schedule &sched,
         std::vector<OutLine> &lines, Trial &t, Report &report)
{
    std::vector<char> seen(sched.chunks, 0);
    std::vector<char> matched(sched.chunks, 0);
    std::vector<double> latency(sched.chunks, 0.0);
    size_t bad = 0;
    for (const OutLine &out : lines) {
        const std::string_view text = out.text;
        if (text.find("\"event\":\"power\"") == std::string_view::npos) {
            if (text.find("\"event\":\"error\"") != std::string_view::npos) {
                bad++;
                report.fail("server error line: " + out.text);
            }
            continue;
        }
        const std::string_view name = field(text, "\"session\":");
        const std::string_view first = field(text, "\"first_index\":");
        const size_t s =
            name.size() == 3 ? std::strtoul(std::string(name.substr(1)).c_str(),
                                            nullptr, 10)
                             : kSessions;
        const uint64_t index = std::strtoull(std::string(first).c_str(),
                                             nullptr, 10);
        const size_t k = index / kOutPerChunk;
        const size_t i = k * kSessions + s;
        if (s >= kSessions || index % kOutPerChunk || i >= sched.chunks ||
            seen[i]) {
            bad++;
            continue;
        }
        seen[i] = 1;
        const float *ref =
            in.reference[s].data() + (k % kPool) * kOutPerChunk;
        const std::string expect = serve::encodePowerEvent(
            sessionName(s), index, std::span<const float>(ref, kOutPerChunk));
        if (out.text != expect) {
            bad++;
            continue;
        }
        matched[i] = 1;
        latency[i] = std::chrono::duration<double, std::milli>(
                         out.at - sched.due(i))
                         .count();
        t.wallSeconds = std::max(
            t.wallSeconds,
            std::chrono::duration<double>(out.at - sched.t0).count());
    }
    t.sent = sched.chunks;
    for (size_t i = 0; i < sched.chunks; ++i)
        if (matched[i])
            t.latencyMs.push_back(latency[i]);
    t.ok = t.latencyMs.size();
    t.failed = t.sent - t.ok;
    if (t.failed || bad)
        report.fail("at " + std::to_string(t.mcps) + " Mcyc/s, " +
                        std::to_string(t.failed) + " of " +
                        std::to_string(t.sent) +
                        " chunks lack exactly one correct power event",
                    std::max<size_t>(t.failed, 1));

    // Backlog grows when the last quarter waits clearly longer than
    // the first (chunk order is due-time order).
    if (!t.latencyMs.empty()) {
        const size_t q = t.latencyMs.size() / 4;
        const std::vector<double> head(t.latencyMs.begin(),
                                       t.latencyMs.begin() + q + 1);
        const std::vector<double> tail(t.latencyMs.end() - q - 1,
                                       t.latencyMs.end());
        t.backlogGrows = median(tail) > 2.0 * median(head) + 1.0;
    }
}

/** One open-loop trial through serve::runServeLoop. */
Trial
runLoopTrial(const Inputs &in, double mcps, double seconds,
             size_t min_chunks, Report &report)
{
    Trial t;
    t.mcps = mcps;
    Schedule sched = makeSchedule(mcps, seconds, min_chunks);
    t.lateMs.assign(sched.chunks, 0.0);
    LinePipe pipe;
    OutCapture capture(sched.chunks + 4 * kSessions);
    std::istream is(&pipe);
    std::ostream os(&capture);

    serve::ServeLoopOptions opts;
    opts.config.withThreads(in.poolThreads).withMaxSessions(kSessions);
    report.attempt(sched.chunks);
    const auto counters0 =
        obs::MetricRegistry::instance().counterValues();
    const double cpu0 = cpuSeconds();
    std::thread gen([&] { generate(in, sched, pipe, t.lateMs); });
    Joiner join_gen(gen);
    StatusOr<serve::ServeLoopReport> loop = Status::invalidArgument("not run");
    runOnOwnThread([&] {
        Span span("serve", "runServeLoop");
        loop = serve::runServeLoop(in.registry, is, os, opts);
    });
    gen.join();
    t.cpuSeconds = cpuSeconds() - cpu0;
    const auto counters1 =
        obs::MetricRegistry::instance().counterValues();
    const char *stalls = "apollo.serve.backpressure_stalls";
    if (counters1.count(stalls))
        t.backpressureStalls =
            counters1.at(stalls) -
            (counters0.count(stalls) ? counters0.at(stalls) : 0);
    report.check(loop.ok(), "runServeLoop: " + loop.status().toString());
    evaluate(in, sched, capture.lines(), t, report);
    return t;
}

/**
 * The traced replica of runServeLoop: the same public calls in the
 * same order (getline, parseRequestLine, createSession/submitChunk/
 * closeSession, encodePowerEvent under one output lock), each timed.
 */
class ReplicaSink : public PowerSink
{
  public:
    ReplicaSink(size_t session, std::mutex &out_mu, std::ostream &out,
                ReplicaTimes &times, size_t chunks)
        : session_(session), name_(sessionName(session)), outMu_(out_mu),
          out_(out), times_(times), chunks_(chunks)
    {}

    Status
    consume(uint64_t first_index, std::span<const float> values) override
    {
        const size_t i = first_index / kOutPerChunk * kSessions + session_;
        const Clock::time_point start = Clock::now();
        Span span("serve", "PowerSink::consume");
        {
            const std::string line =
                serve::encodePowerEvent(name_, first_index, values);
            std::lock_guard<std::mutex> lock(outMu_);
            out_ << line;
        }
        if (i < chunks_) {
            times_.sinkStart[i] =
                std::chrono::duration<double>(start.time_since_epoch())
                    .count();
            times_.emit[i] = span.stop();
        }
        return Status::okStatus();
    }

  private:
    size_t session_;
    std::string name_;
    std::mutex &outMu_;
    std::ostream &out_;
    ReplicaTimes &times_;
    size_t chunks_;
};

Trial
runReplicaTrial(const Inputs &in, double mcps, ReplicaTimes &times,
                Report &report)
{
    Trial t;
    t.mcps = mcps;
    Schedule sched = makeSchedule(mcps, 0.0, kRefTrialChunks);
    t.lateMs.assign(sched.chunks, 0.0);
    times.resize(sched.chunks);
    LinePipe pipe;
    OutCapture capture(sched.chunks + 4 * kSessions);
    std::istream is(&pipe);
    std::ostream os(&capture);
    std::mutex out_mu;
    std::vector<std::unique_ptr<ReplicaSink>> sinks;
    for (size_t s = 0; s < kSessions; ++s)
        sinks.push_back(std::make_unique<ReplicaSink>(s, out_mu, os, times,
                                                      sched.chunks));
    std::array<serve::SessionId, kSessions> ids{};
    std::array<size_t, kSessions> submitted{};

    report.attempt(sched.chunks);
    const double cpu0 = cpuSeconds();
    runOnOwnThread([&] {
        // Declared after the sinks so its workers stop before they go.
        serve::SessionManager manager(
            in.registry, serve::ServeConfig()
                             .withThreads(in.poolThreads)
                             .withMaxSessions(kSessions));
        std::thread gen([&] { generate(in, sched, pipe, t.lateMs); });
        Joiner join_gen(gen);
        std::string line;
        while (std::getline(is, line)) {
            StatusOr<serve::WireRequest> req =
                Status::invalidArgument("not run");
            const double decode = timed("serve", "parseRequestLine", [&] {
                req = serve::parseRequestLine(line);
            });
            if (!report.check(req.ok(), "parse: " + req.status().toString()))
                continue;
            const size_t s = std::strtoul(req->session.c_str() + 1,
                                          nullptr, 10);
            if (!report.check(s < kSessions, "unknown session"))
                continue;
            if (req->op == serve::RequestOp::CreateSession) {
                StatusOr<serve::SessionId> id = manager.createSession(
                    serve::SessionOptions{req->model, req->windowT},
                    sinks[s].get());
                if (report.check(id.ok(), "createSession: " +
                                              id.status().toString()))
                    ids[s] = *id;
                std::lock_guard<std::mutex> lock(out_mu);
                os << serve::encodeSessionCreated(req->session, req->model);
            } else if (req->op == serve::RequestOp::SubmitChunk) {
                const size_t i = submitted[s]++ * kSessions + s;
                Span span("serve", "SessionManager::submitChunk");
                const Status st =
                    manager.submitChunk(ids[s], std::move(req->bits));
                const double secs = span.stop();
                report.check(st.ok(), "submitChunk: " + st.toString());
                if (i < sched.chunks) {
                    times.decode[i] = decode;
                    times.submit[i] = secs;
                    times.submitEnd[i] =
                        std::chrono::duration<double>(
                            Clock::now().time_since_epoch())
                            .count();
                }
            } else if (req->op == serve::RequestOp::CloseSession) {
                StatusOr<serve::SessionSummary> sum =
                    manager.closeSession(ids[s]);
                report.check(sum.ok(), "closeSession: " +
                                           sum.status().toString());
                std::lock_guard<std::mutex> lock(out_mu);
                if (sum.ok())
                    os << serve::encodeSessionClosed(req->session, *sum);
            }
        }
        gen.join();
        t.backpressureStalls = manager.stats().backpressureStalls;
    });
    t.cpuSeconds = cpuSeconds() - cpu0;
    evaluate(in, sched, capture.lines(), t, report);
    return t;
}

/** Build the registry, the encoded requests and the references. */
Status
buildInputs(uint64_t seed, Inputs &in)
{
    in = Inputs{};
    // Generator + loop reader + pool <= nproc.
    in.poolThreads = std::max<size_t>(1, hardwareThreads() - 2);
    const ApolloModel model = seededProxyModel(kQ * 64, seed);
    in.registry = std::make_shared<serve::ModelRegistry>();
    if (Status st = in.registry->addFloat("fleet", model); !st.ok())
        return st;
    StatusOr<serve::ModelInfo> q =
        in.registry->addQuantizedVariant(kModel, "fleet", kBits, kWindow);
    if (!q.ok())
        return q.status();
    const Inference engine(
        *in.registry->find(kModel)->qmodel, kWindow);

    in.chunkLines.assign(kSessions, {});
    in.reference.assign(kSessions, {});
    for (size_t s = 0; s < kSessions; ++s) {
        serve::WireRequest req;
        req.session = sessionName(s);
        req.op = serve::RequestOp::CreateSession;
        req.model = kModel;
        in.createLines[s] = serve::encodeRequest(req);
        req.op = serve::RequestOp::CloseSession;
        in.closeLines[s] = serve::encodeRequest(req);

        // Two pool periods streamed standalone: the second must repeat
        // the first, so the period is the reference for any length.
        BitColumnMatrix period(2 * kPool * kChunkCycles, kQ);
        const size_t wpc = kChunkCycles / 64;
        req.op = serve::RequestOp::SubmitChunk;
        for (size_t j = 0; j < kPool; ++j) {
            req.bits = syntheticChunk(seed, s, j);
            for (size_t c = 0; c < kQ; ++c)
                for (size_t rep = 0; rep < 2; ++rep)
                    std::memcpy(period.colWordsMutable(c) +
                                    (rep * kPool + j) * wpc,
                                req.bits.colWords(c), wpc * 8);
            in.chunkLines[s].push_back(serve::encodeRequest(req));
        }
        MatrixChunkReader reader(period);
        VectorSink sink;
        StatusOr<StreamStats> st = engine.stream(
            reader, sink, StreamConfig().withChunkCycles(kChunkCycles));
        if (!st.ok())
            return st.status();
        const std::vector<float> &v = sink.values();
        const size_t half = kPool * kOutPerChunk;
        if (v.size() != 2 * half ||
            !std::equal(v.begin(), v.begin() + half, v.begin() + half))
            return Status::invalidArgument(
                "reference output is not periodic in the chunk pool");
        in.reference[s].assign(v.begin(), v.begin() + half);
    }
    return Status::okStatus();
}

/** A ladder search: the rungs it ran, in order, and its answer. */
struct LadderSearch
{
    std::vector<std::pair<int, Trial>> rungs;
    /** Highest passing rung's rate (0 when rung 0 fails). */
    double mcpsAtSlo = 0.0;
};

/**
 * Bisect the ladder for the highest rung that meets the SLO, taking
 * pass/fail as monotone in the offered rate (latency only grows with
 * load): about log2(kRungs) rungs instead of a full sweep. A rung that
 * misses is tried once more, so one host stall of a few milliseconds
 * cannot sink a rate the server sustains; above capacity the backlog
 * grows on every try.
 */
LadderSearch
searchLadder(const Inputs &in, Report &report)
{
    LadderSearch search;
    auto passes = [&](int k) {
        bool pass = false;
        for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
            Trial t = runLoopTrial(in, ladderRate(k), kMinRungSeconds,
                                   kMinRungChunks, report);
            pass = t.meetsSlo();
            std::fprintf(stderr,
                         "[serve_fleet] rung %2d %6.2f Mcyc/s: %zu/%zu ok, "
                         "p50 %.3f ms, p99 %.3f ms, late p99 %.3f ms%s%s\n",
                         k, t.mcps, t.ok, t.sent, t.p50(), t.p99(),
                         percentile(t.lateMs, 0.99),
                         t.backlogGrows ? ", backlog grows" : "",
                         pass ? "" : " -> misses SLO");
            search.rungs.emplace_back(k, std::move(t));
        }
        return pass;
    };
    int lo = -1, hi = kRungs; // lo passes, hi fails (virtual ends)
    while (hi - lo > 1) {
        const int k = (lo + hi) / 2;
        (passes(k) ? lo : hi) = k;
    }
    search.mcpsAtSlo = lo >= 0 ? ladderRate(lo) : 0.0;
    return search;
}

/** The rungs of a search as JSON rows for the trace file. */
std::string
rungsJson(const LadderSearch &search)
{
    std::string out = "[";
    for (const auto &[k, t] : search.rungs) {
        char buf[320];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"rung\": %d, \"mcps\": %.4f, \"sent\": %zu, "
                      "\"ok\": %zu, \"failed\": %zu, \"p50_ms\": %.4f, "
                      "\"p99_ms\": %.4f, \"late_p99_ms\": %.4f, "
                      "\"backlog_grows\": %s, \"meets_slo\": %s}",
                      out.size() > 1 ? ", " : "", k, t.mcps, t.sent, t.ok,
                      t.failed, t.p50(), t.p99(),
                      percentile(t.lateMs, 0.99),
                      t.backlogGrows ? "true" : "false",
                      t.meetsSlo() ? "true" : "false");
        out += buf;
    }
    return out + "]";
}

std::vector<double>
concat(const std::vector<Trial> &trials, std::vector<double> Trial::*field)
{
    std::vector<double> all;
    for (const Trial &t : trials)
        all.insert(all.end(), (t.*field).begin(), (t.*field).end());
    return all;
}

} // namespace

Report
runServeFleet(const RunContext &ctx)
{
    Report report;
    Inputs in;
    Status built = Status::okStatus();
    auto setup = [&](int) {
        built = buildInputs(ctx.seed, in);
        return built.ok();
    };

    if (!ctx.trace) {
        // One operation: one burst through runServeLoop.
        std::vector<Trial> bursts;
        const Measured m = measure(ctx, kPhases, setup, true, 1,
                                   [&](size_t, bool) {
            bursts.push_back(
                runLoopTrial(in, kBurstMcps, 0.0, kBurstChunks, report));
            const Trial &t = bursts.back();
            std::fprintf(stderr,
                         "[serve_fleet] burst of %zu: %.3f s wall, %.3f s "
                         "cpu, p50 %.3f ms, p99 %.3f ms\n",
                         t.sent, t.wallSeconds, t.cpuSeconds, t.p50(),
                         t.p99());
            return t.wallSeconds;
        });
        if (!m.setupOk) {
            report.attempt();
            report.fail("set-up: " + built.toString());
            return report;
        }
        std::vector<double> wall, cpu;
        for (const Trial &t : bursts) {
            wall.push_back(t.wallSeconds);
            cpu.push_back(t.cpuSeconds);
        }
        report.add("setup_s", m.setupSeconds, "s");
        report.add("wall_s", trimmedMean(wall), "s");
        report.add("cpu_s", trimmedMean(cpu), "s");
        report.add("peak_rss_mb", peakRssMb(), "MiB");
        return report;
    }

    // Traced run. Untraced half: a reference-rate trial through
    // runServeLoop (the latency figures) and one through the replica;
    // traced half: the replica with spans, for the decode/submit/
    // queue/emit split. The overhead compares the replica's CPU seconds
    // per trial. Then one ladder search through runServeLoop.
    std::vector<Trial> ref_trials;
    std::vector<ReplicaTimes> traced_times;
    const Measured m = measure(ctx, 1, setup, true, 2, [&](size_t, bool on) {
        if (!on)
            ref_trials.push_back(
                runLoopTrial(in, kRefMcps, 0.0, kRefTrialChunks, report));
        ReplicaTimes times;
        const double cpu =
            runReplicaTrial(in, kRefMcps, times, report).cpuSeconds;
        if (on)
            traced_times.push_back(std::move(times));
        return cpu;
    });
    if (!m.setupOk) {
        report.attempt();
        report.fail("set-up: " + built.toString());
        return report;
    }
    const LadderSearch search = searchLadder(in, report);

    std::vector<double> decode, submit, queue, emit;
    for (const ReplicaTimes &tt : traced_times) {
        for (size_t i = 0; i < tt.decode.size(); ++i) {
            if (tt.decode[i] < 0 || tt.sinkStart[i] < 0)
                continue;
            decode.push_back(tt.decode[i] * 1e3);
            submit.push_back(tt.submit[i] * 1e3);
            queue.push_back(
                std::max(0.0, tt.sinkStart[i] - tt.submitEnd[i]) * 1e3);
            emit.push_back(tt.emit[i] * 1e3);
        }
    }
    uint64_t stalls = 0;
    size_t sent = 0, ok = 0, failed = 0;
    for (const auto &[k, t] : search.rungs) {
        stalls += t.backpressureStalls;
        sent += t.sent;
        ok += t.ok;
        failed += t.failed;
    }
    // Chunk latency from due time to power-event line over the
    // reference-rate runServeLoop trials.
    double p50 = 0.0, cpu = 0.0;
    for (const Trial &t : ref_trials) {
        p50 += t.p50() / ref_trials.size();
        cpu += t.cpuSeconds / ref_trials.size();
    }
    report.add("serve.p50_ms", p50, "ms");
    report.add("serve.p99_ms",
               percentile(concat(ref_trials, &Trial::latencyMs), 0.99),
               "ms");
    report.add("serve.trial_cpu_s", cpu, "s");
    report.add("serve.decode_ms_p50", percentile(decode, 0.50), "ms");
    report.add("serve.decode_ms_p99", percentile(decode, 0.99), "ms");
    report.add("serve.submit_ms_p99", percentile(submit, 0.99), "ms");
    report.add("serve.queue_compute_ms_p50", percentile(queue, 0.50), "ms");
    report.add("serve.queue_compute_ms_p99", percentile(queue, 0.99), "ms");
    report.add("serve.emit_ms_p99", percentile(emit, 0.99), "ms");
    report.add("serve.backpressure_stalls", static_cast<double>(stalls),
               "count");
    report.add("serve.gen_late_ms_p99",
               percentile(concat(ref_trials, &Trial::lateMs), 0.99), "ms");
    report.add("serve.ladder_rungs", static_cast<double>(search.rungs.size()),
               "count");
    report.add("serve.ladder_sent", static_cast<double>(sent), "count");
    report.add("serve.ladder_ok", static_cast<double>(ok), "count");
    report.add("serve.ladder_failed", static_cast<double>(failed), "count");
    report.add("serve.ladder_mcps_at_slo", search.mcpsAtSlo, "Mcyc/s");
    report.add("bench.trace_overhead_frac", m.traced.overheadFrac, "frac");
    for (const auto &[layer, secs] :
         Tracer::instance().selfSecondsByLayer(m.traced.tracedOps))
        report.add(layer + ".self_s", secs, "s");
    writeTrace(ctx, "{\"apollo_counters\": " + m.traced.counterDeltas +
                        ", \"ladder_rungs\": " + rungsJson(search) + "}");
    return report;
}

} // namespace perfbench
