#include "trace/dataset.hh"

#include <algorithm>
#include <numeric>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace apollo {

double
Dataset::meanLabel() const
{
    if (y.empty())
        return 0.0;
    return std::accumulate(y.begin(), y.end(), 0.0) /
           static_cast<double>(y.size());
}

void
WindowAverager::push(std::span<const float> values,
                     std::vector<float> &out)
{
    for (float v : values) {
        acc_ += v;
        if (++phase_ == T_) {
            out.push_back(static_cast<float>(
                offset_ + acc_ / static_cast<double>(T_)));
            reset();
        }
    }
}

StatusOr<std::vector<float>>
windowAverages(std::span<const float> values, uint32_t T,
               std::span<const SegmentInfo> segments, double offset)
{
    if (T < 1)
        return Status::invalidArgument("window size must be positive");
    for (const SegmentInfo &seg : segments) {
        if (seg.end < seg.begin)
            return Status::invalidArgument("segment '", seg.name,
                                           "' has end ", seg.end,
                                           " before begin ", seg.begin);
        if (seg.end > values.size())
            return Status::outOfRange("segment '", seg.name, "' [",
                                      seg.begin, ", ", seg.end,
                                      ") exceeds the ", values.size(),
                                      " cycles available");
    }
    // Each segment contributes whole windows only, so the averager is
    // back at phase 0 at every segment boundary.
    std::vector<float> out;
    WindowAverager window(T, offset);
    for (const SegmentInfo &seg : segments)
        window.push(values.subspan(seg.begin, seg.cycles() / T * T), out);
    if (out.empty())
        return Status::invalidArgument(
            "no full windows at T=", T,
            " (every segment is shorter than the window)");
    return out;
}

Dataset
Dataset::selectRows(const std::vector<uint32_t> &rows) const
{
    Dataset out;
    out.X.reset(rows.size(), X.cols());
    out.y.resize(rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
        APOLLO_REQUIRE(rows[r] < cycles(), "row out of range");
        out.y[r] = y[rows[r]];
    }
    parallelFor(X.cols(), [&](size_t c0, size_t c1) {
        for (size_t c = c0; c < c1; ++c)
            for (size_t r = 0; r < rows.size(); ++r)
                if (X.get(rows[r], c))
                    out.X.setBit(r, c);
    });
    out.segments.push_back({"subset", 0, rows.size()});
    return out;
}

CountDataset
aggregateIntervals(const Dataset &dataset, uint32_t tau)
{
    APOLLO_REQUIRE(tau >= 1 && tau <= 255, "tau must be in [1, 255]");
    APOLLO_REQUIRE(!dataset.segments.empty(),
                   "dataset has no segment metadata");

    // Lay out intervals per segment.
    struct IntervalSpan
    {
        size_t cycleBegin;
        size_t firstInterval;
        size_t count;
    };
    std::vector<IntervalSpan> spans;
    CountDataset out;
    out.tau = tau;
    size_t n_intervals = 0;
    for (const SegmentInfo &seg : dataset.segments) {
        const size_t k = seg.cycles() / tau;
        if (k == 0)
            continue;
        spans.push_back({seg.begin, n_intervals, k});
        SegmentInfo out_seg;
        out_seg.name = seg.name;
        out_seg.begin = n_intervals;
        out_seg.end = n_intervals + k;
        out.segments.push_back(out_seg);
        n_intervals += k;
    }
    // Labels: interval-average power. Fatal on segments that overrun
    // the labels or hold no full interval.
    out.y = windowAverages(dataset.y, tau, dataset.segments).value();
    out.X = CountColumnMatrix(n_intervals, dataset.signals());

    // Features: toggle counts per interval, column-parallel.
    parallelFor(dataset.signals(), [&](size_t c0, size_t c1) {
        for (size_t c = c0; c < c1; ++c) {
            for (const IntervalSpan &span : spans) {
                for (size_t k = 0; k < span.count; ++k) {
                    uint8_t count = 0;
                    for (uint32_t t = 0; t < tau; ++t)
                        count += dataset.X.get(
                            span.cycleBegin + k * tau + t, c);
                    out.X.set(span.firstInterval + k, c, count);
                }
            }
        }
    });

    return out;
}

} // namespace apollo
