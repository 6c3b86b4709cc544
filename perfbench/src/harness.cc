#include "harness.hh"

#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/metrics.hh"
#include "util/popcnt_kernels.hh"

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

double
microsSinceEpoch(Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - kEpoch).count();
}

/** JSON string escaping for the few free-form strings we emit. */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

} // namespace

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

const double *
Report::find(const std::string &name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return &m.value;
    return nullptr;
}

void
Report::fail(const std::string &why, uint64_t n)
{
    failed_ += n;
    std::fprintf(stderr, "[perfbench] FAILED: %s\n", why.c_str());
}

std::string
Report::json() const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        os << (i ? ", " : "") << jsonString(m.name)
           << ": {\"value\": " << jsonNumber(m.value)
           << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    os << "}}";
    return os.str();
}

// ---------------------------------------------------------------------
// Tracer / Span
// ---------------------------------------------------------------------

struct Tracer::Buffer
{
    std::mutex mu;
    std::vector<SpanRecord> spans;
    std::vector<int64_t> open; ///< stack of open span slots
    uint32_t tid = 0;
};

namespace {

std::mutex gBuffersMu;
std::vector<std::shared_ptr<void>> gBuffers; // Tracer::Buffer, type-erased

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

Tracer::Buffer &
Tracer::localBuffer()
{
    thread_local Buffer *local = nullptr;
    if (!local) {
        auto buf = std::make_shared<Buffer>();
        std::lock_guard<std::mutex> lock(gBuffersMu);
        buf->tid = static_cast<uint32_t>(gBuffers.size() + 1);
        gBuffers.push_back(buf);
        local = buf.get();
    }
    return *local;
}

std::vector<std::vector<SpanRecord>>
Tracer::snapshot() const
{
    std::vector<std::vector<SpanRecord>> out;
    std::lock_guard<std::mutex> lock(gBuffersMu);
    for (const auto &erased : gBuffers) {
        auto *buf = static_cast<Buffer *>(erased.get());
        std::lock_guard<std::mutex> blk(buf->mu);
        out.push_back(buf->spans);
    }
    return out;
}

std::map<std::string, double>
Tracer::selfSecondsByLayer(double ops) const
{
    std::map<std::string, double> self;
    for (const std::vector<SpanRecord> &spans : snapshot()) {
        std::vector<double> child(spans.size(), 0.0);
        for (const SpanRecord &s : spans)
            if (s.parent >= 0)
                child[s.parent] += s.durUs;
        for (size_t i = 0; i < spans.size(); ++i)
            self[spans[i].layer] +=
                std::max(0.0, spans[i].durUs - child[i]) * 1e-6;
    }
    for (auto &[layer, secs] : self)
        secs /= std::max(1.0, ops);
    return self;
}

std::string
Tracer::chromeJson(const std::string &other_data) const
{
    std::ostringstream os;
    os << "{\"traceEvents\": [";
    bool first = true;
    for (const std::vector<SpanRecord> &spans : snapshot()) {
        for (const SpanRecord &s : spans) {
            os << (first ? "\n" : ",\n") << "{\"name\": \"" << s.layer
               << "." << s.name << "\", \"cat\": \"" << s.layer
               << "\", \"ph\": \"X\", \"ts\": " << jsonNumber(s.startUs)
               << ", \"dur\": " << jsonNumber(s.durUs)
               << ", \"pid\": 1, \"tid\": " << s.tid
               << ", \"args\": {\"op\": " << s.op
               << ", \"parent\": " << s.parent << "}}";
            first = false;
        }
    }
    os << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": "
       << (other_data.empty() ? "{}" : other_data) << "}\n";
    return os.str();
}

Span::Span(const char *layer, const char *name)
    : layer_(layer), name_(name)
{
    Tracer &tracer = Tracer::instance();
    if (tracer.enabled()) {
        Tracer::Buffer &buf = tracer.localBuffer();
        std::lock_guard<std::mutex> lock(buf.mu);
        SpanRecord rec;
        rec.layer = layer_;
        rec.name = name_;
        rec.tid = buf.tid;
        rec.parent = buf.open.empty() ? -1 : buf.open.back();
        rec.op = tracer.op();
        slot_ = static_cast<int64_t>(buf.spans.size());
        buf.spans.push_back(rec);
        buf.open.push_back(slot_);
    }
    t0_ = Clock::now();
}

Span::~Span() { stop(); }

double
Span::stop()
{
    if (seconds_ >= 0.0)
        return seconds_;
    const Clock::time_point t1 = Clock::now();
    seconds_ = std::chrono::duration<double>(t1 - t0_).count();
    if (slot_ >= 0) {
        Tracer::Buffer &buf = Tracer::instance().localBuffer();
        std::lock_guard<std::mutex> lock(buf.mu);
        SpanRecord &rec = buf.spans[slot_];
        rec.startUs = microsSinceEpoch(t0_);
        rec.durUs = seconds_ * 1e6;
        if (!buf.open.empty() && buf.open.back() == slot_)
            buf.open.pop_back();
    }
    return seconds_;
}

// ---------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------

apollo::StatusOr<size_t>
TimedReader::next(size_t max_rows, apollo::ProxyChunk &chunk)
{
    Span span("trace", "ProxyChunkReader::next");
    apollo::StatusOr<size_t> rows = inner_.next(max_rows, chunk);
    seconds_ += span.stop();
    return rows;
}

apollo::Status
TimedSink::consume(uint64_t first_index, std::span<const float> values)
{
    Span span("flow", "PowerSink::consume");
    apollo::Status st = inner_.consume(first_index, values);
    seconds_ += span.stop();
    return st;
}

apollo::Status
TimedSink::finish(uint64_t total)
{
    Span span("flow", "PowerSink::finish");
    apollo::Status st = inner_.finish(total);
    seconds_ += span.stop();
    return st;
}

// ---------------------------------------------------------------------
// Resources, statistics, host
// ---------------------------------------------------------------------

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) { return t.tv_sec + t.tv_usec * 1e-6; };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
trimmedMean(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    const size_t cut = n / 10;
    double sum = 0.0;
    for (size_t i = cut; i < n - cut; ++i)
        sum += v[i];
    return sum / static_cast<double>(n - 2 * cut);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size()));
    const size_t idx =
        static_cast<size_t>(std::clamp(rank, 1.0,
                                       static_cast<double>(v.size()))) -
        1;
    return v[idx];
}

uint64_t
fnv1a(const void *data, size_t bytes, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

size_t
hardwareThreads()
{
    return std::max<size_t>(1, std::thread::hardware_concurrency());
}

double
measureReadBandwidthGbps()
{
    const size_t words = (size_t{256} << 20) / sizeof(uint64_t);
    std::vector<uint64_t> buf(words);
    for (size_t i = 0; i < words; ++i)
        buf[i] = i * 0x9e3779b97f4a7c15ULL;
    const size_t threads = hardwareThreads();
    std::vector<uint64_t> sums(threads, 0);
    double best = 0.0;
    for (int pass = 0; pass < 6; ++pass) {
        const Clock::time_point t0 = Clock::now();
        std::vector<std::thread> pool;
        for (size_t t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
                const size_t lo = words * t / threads;
                const size_t hi = words * (t + 1) / threads;
                uint64_t a = 0, b = 0, c = 0, d = 0;
                size_t i = lo;
                for (; i + 4 <= hi; i += 4) {
                    a += buf[i];
                    b += buf[i + 1];
                    c += buf[i + 2];
                    d += buf[i + 3];
                }
                for (; i < hi; ++i)
                    a += buf[i];
                sums[t] += a ^ b ^ c ^ d;
            });
        }
        for (std::thread &th : pool)
            th.join();
        const double secs = secondsSince(t0);
        best = std::max(best, words * sizeof(uint64_t) / secs / 1e9);
    }
    uint64_t sink = 0;
    for (uint64_t s : sums)
        sink ^= s;
    // Keep the reads observable.
    if (sink == 0x1234567)
        std::fprintf(stderr, " ");
    return best;
}

namespace {

std::string
cpuBrand()
{
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000, nullptr);
    if (max_ext < 0x80000004)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1],
                    &regs[i * 4 + 2], &regs[i * 4 + 3]);
    std::string brand(reinterpret_cast<const char *>(regs), sizeof(regs));
    brand = brand.c_str();
    const size_t b = brand.find_first_not_of(' ');
    const size_t e = brand.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : brand.substr(b, e - b + 1);
}

std::vector<std::string>
isaFlags()
{
    std::vector<std::string> flags;
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid(1, &a, &b, &c, &d)) {
        if (c & bit_SSE4_2)
            flags.push_back("sse4_2");
        if (c & bit_POPCNT)
            flags.push_back("popcnt");
        if (c & bit_AVX)
            flags.push_back("avx");
        if (c & bit_FMA)
            flags.push_back("fma");
    }
    if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
        if (b & bit_AVX2)
            flags.push_back("avx2");
        if (b & bit_BMI2)
            flags.push_back("bmi2");
        if (b & bit_AVX512F)
            flags.push_back("avx512f");
        if (b & bit_AVX512BW)
            flags.push_back("avx512bw");
        if (b & bit_AVX512VL)
            flags.push_back("avx512vl");
        if (c & bit_AVX512VPOPCNTDQ)
            flags.push_back("avx512_vpopcntdq");
        if (c & bit_AVX512BITALG)
            flags.push_back("avx512_bitalg");
    }
    return flags;
}

} // namespace

std::string
hostJson(double membw_gbps)
{
    namespace pk = apollo::popkernels;
    std::ostringstream os;
    os << "{\"nproc\": " << hardwareThreads()
       << ", \"cpu_model\": " << jsonString(cpuBrand()) << ", \"isa\": [";
    const std::vector<std::string> flags = isaFlags();
    for (size_t i = 0; i < flags.size(); ++i)
        os << (i ? ", " : "") << jsonString(flags[i]);
    os << "], \"popcnt_kernel\": " << jsonString(pk::implName(pk::bestImpl()))
       << ", \"compiler\": " << jsonString(std::string("gcc ") + __VERSION__)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"apollo_native\": " << (PERFBENCH_NATIVE ? "true" : "false")
       << ", \"apollo_obs\": " << (APOLLO_OBS ? "true" : "false")
       << ", \"membw_gbps\": " << jsonNumber(membw_gbps) << "}";
    return os.str();
}

std::string
counterDeltaJson(const std::map<std::string, uint64_t> &before)
{
    const std::map<std::string, uint64_t> now =
        apollo::obs::MetricRegistry::instance().counterValues();
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[name, value] : now) {
        const auto it = before.find(name);
        const uint64_t prev = it == before.end() ? 0 : it->second;
        if (value == prev)
            continue;
        os << (first ? "" : ", ") << jsonString(name) << ": "
           << (value - prev);
        first = false;
    }
    os << "}";
    return os.str();
}

bool
writeFile(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary);
    os << text;
    return static_cast<bool>(os);
}

} // namespace perfbench
