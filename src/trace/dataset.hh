/**
 * @file
 * Dataset containers: per-cycle toggle features (packed bits) with
 * ground-truth power labels, benchmark segment metadata, the T-window
 * averager of Eq. (9), train/val splitting, and tau-cycle interval
 * aggregation for the multi-cycle APOLLO_tau model (§4.5).
 */

#ifndef APOLLO_TRACE_DATASET_HH
#define APOLLO_TRACE_DATASET_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/bitvec.hh"
#include "util/status.hh"

namespace apollo {

/** One benchmark's cycle range [begin, end) within a dataset. */
struct SegmentInfo
{
    std::string name;
    size_t begin = 0;
    size_t end = 0;

    size_t cycles() const { return end - begin; }
};

/**
 * The one T-window averager: Eq. (9) predictions and the Fig. 11 /
 * interval / counter-epoch labels all average through it. Values are
 * folded into a double accumulator in order; each time T of them have
 * arrived it appends float(offset + acc / T) and starts a new window.
 * The partial window carries across push() calls, so a series fed in
 * any number of pieces yields the same samples bit for bit.
 */
class WindowAverager
{
  public:
    /** @p offset is added once per window: the model intercept for
     *  predictions over intercept-free sums, 0 for labels. */
    explicit WindowAverager(uint32_t T, double offset = 0.0)
        : T_(T), offset_(offset)
    {}

    /** Fold @p values; append each window they complete to @p out. */
    void push(std::span<const float> values, std::vector<float> &out);

    /** Drop the partial window. */
    void
    reset()
    {
        acc_ = 0.0;
        phase_ = 0;
    }

  private:
    uint32_t T_;
    double offset_;
    double acc_ = 0.0;
    uint32_t phase_ = 0;
};

/**
 * Batch averaging over consecutive T-value windows of each segment of
 * @p values (full windows only: a window never straddles a segment
 * boundary, a segment's partial tail is dropped).
 *
 * Data errors return a Status instead of aborting: InvalidArgument
 * when T is zero, a segment ends before it begins, or no segment holds
 * a full window; OutOfRange when a segment ends past values.size().
 */
StatusOr<std::vector<float>> windowAverages(
    std::span<const float> values, uint32_t T,
    std::span<const SegmentInfo> segments, double offset = 0.0);

/** Per-cycle dataset: X is cycles x signals toggle bits, y is power. */
struct Dataset
{
    BitColumnMatrix X;
    std::vector<float> y;
    std::vector<SegmentInfo> segments;

    size_t cycles() const { return X.rows(); }
    size_t signals() const { return X.cols(); }

    /** Mean label. */
    double meanLabel() const;

    /** Row-subset copy; segment metadata rebuilt. */
    Dataset selectRows(const std::vector<uint32_t> &rows) const;
};

/**
 * tau-cycle aggregated dataset: X entries are toggle *counts* within
 * each tau-cycle interval (0..tau), y is the interval-average power.
 * Intervals never straddle segment boundaries (partial tails dropped).
 */
struct CountDataset
{
    CountColumnMatrix X;
    std::vector<float> y;
    uint32_t tau = 1;
    std::vector<SegmentInfo> segments; ///< in interval units

    size_t intervals() const { return X.rows(); }
    size_t signals() const { return X.cols(); }
};

/** Aggregate a per-cycle dataset into tau-cycle intervals. */
CountDataset aggregateIntervals(const Dataset &dataset, uint32_t tau);

} // namespace apollo

#endif // APOLLO_TRACE_DATASET_HH
