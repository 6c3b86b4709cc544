/**
 * @file
 * Bit-true simulator of the APOLLO OPM hardware (Fig. 8): per cycle the
 * quantized weights are AND-gated by the proxy toggle bits and summed
 * (bit width B + ceil(log2 Q)); a T-cycle accumulator (width
 * B + ceil(log2 Q) + ceil(log2 T)) adds cycle sums and, every T cycles,
 * emits the window average by dropping the low log2(T) bits — T is a
 * power of two so the division is a shift. Output latency is two
 * cycles (registered proxy inputs + pipelined sum), matching §7.5.
 *
 * This class carries the sequential accumulator state. Whole traces
 * are evaluated by the bit-parallel pipeline (Inference::predict,
 * flow/stream_engine.hh), which replays window segments through
 * stepSegment(); the per-cycle batch oracle is ref::opmSimulate.
 */

#ifndef APOLLO_OPM_OPM_SIMULATOR_HH
#define APOLLO_OPM_OPM_SIMULATOR_HH

#include <cstdint>

#include "opm/quantize.hh"

namespace apollo {

/** Hardware-accurate OPM evaluation. */
class OpmSimulator
{
  public:
    /**
     * @param model the quantized model
     * @param T     measurement window in cycles; must be a power of two
     */
    OpmSimulator(const QuantizedModel &model, uint32_t T);

    /** One output sample (valid every T cycles). */
    struct Output
    {
        bool valid = false;
        int64_t raw = 0;   ///< accumulator >> log2(T)
        double power = 0.0;
    };

    /**
     * Advance one cycle. @p proxy_bits holds Q packed toggle bits
     * (bit q = proxy q toggled this cycle).
     */
    Output step(const uint64_t *proxy_bits);

    /**
     * The combinational "power computation" stage alone: the AND-gated
     * weighted sum of one cycle's proxy bits (plus the quantized
     * intercept), without touching accumulator state. Pure function;
     * the streaming engine evaluates it for whole chunks in parallel
     * and feeds the sums through stepSum() in cycle order, which is
     * bit-identical to calling step() cycle by cycle because integer
     * accumulation is exact.
     */
    int64_t cycleSum(const uint64_t *proxy_bits) const;

    /**
     * The sequential accumulate-then-shift stage: add one cycle's
     * precomputed sum, enforce the declared widths, and emit the
     * window average every T cycles. step() == stepSum(cycleSum()).
     */
    Output stepSum(int64_t cycle_sum);

    /**
     * Advance @p len cycles at once with their precomputed total
     * @p segment_sum — the bit-parallel replay stage: integer addition
     * is exact in any order, so one segment add equals len stepSum()
     * calls bit for bit. The segment must not straddle a window
     * boundary (phase() + len <= T); chunk code splits chunks at
     * window boundaries, which is how windows straddling chunk edges
     * carry across calls. The accumulator-width check (the PR 5
     * overflow budget) still runs per segment; the per-cycle sums
     * folded into @p segment_sum are bounded by the same worst-case
     * analysis the constructor sized the widths with, so skipping the
     * per-cycle asserts cannot hide an overflow.
     */
    Output stepSegment(int64_t segment_sum, uint32_t len);

    void reset();

    /** Cycles into the current window (0 <= phase < T). */
    uint32_t phase() const { return phase_; }

    /** Bit width of the per-cycle weighted sum. */
    uint32_t cycleSumBits() const { return cycleSumBits_; }
    /** Bit width of the T-cycle accumulator. */
    uint32_t accumulatorBits() const { return accumBits_; }
    /** Fixed pipeline latency in cycles. */
    static constexpr uint32_t latencyCycles = 2;

    uint32_t windowCycles() const { return T_; }

  private:
    QuantizedModel model_;
    uint32_t T_;
    uint32_t shift_;
    uint32_t cycleSumBits_;
    uint32_t accumBits_;
    int64_t accumulator_ = 0;
    uint32_t phase_ = 0;
};

} // namespace apollo

#endif // APOLLO_OPM_OPM_SIMULATOR_HH
