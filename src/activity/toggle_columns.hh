/**
 * @file
 * ToggleColumnGenerator: batched column-major toggle-bit generation
 * over one frame segment — the production fast path of the GA fitness
 * pipeline (bit-identical to per-cycle ActivityEngine::toggles calls).
 *
 * Per-cycle toggle evaluation reloads every signal's static fields,
 * re-derives its draw seed, and re-branches on its kind for every
 * (signal, cycle) pair. Generating a whole column at once hoists all
 * of that out of the cycle loop and leaves only the per-cycle hash
 * draw — which the util/hash_kernels batch kernel evaluates eight
 * lanes at a time. Additional batched structure:
 *  - per-unit clock-enable bitmasks are built once per bind() and
 *    AND-ed onto every column of that unit;
 *  - ClockEnable columns are pure word arithmetic (an XOR with the
 *    1-shifted enable mask) with no hashing at all;
 *  - per-bus event-pass masks are computed once per (bus, latency)
 *    and shared by all bits of the bus.
 *
 * The generator binds to a single segment (segment_begin = index 0 of
 * the bound span), matching how fitness simulation produces frames.
 */

#ifndef APOLLO_ACTIVITY_TOGGLE_COLUMNS_HH
#define APOLLO_ACTIVITY_TOGGLE_COLUMNS_HH

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "activity/activity_engine.hh"
#include "util/bitvec.hh"

namespace apollo {

/** Column-at-a-time toggle-bit generation over one frame segment. */
class ToggleColumnGenerator
{
  public:
    explicit ToggleColumnGenerator(const ActivityEngine &engine);

    /**
     * Bind to @p frames (one segment; lookbacks clamp at index 0).
     * Precomputes the per-unit enable masks; invalidates bus caches.
     * The span must stay valid until the next bind().
     */
    void bind(std::span<const ActivityFrame> frames);

    /** Words per column for the bound frame count (tail bits zero). */
    size_t wordCount() const { return words_; }

    /**
     * Fill the packed toggle column of @p sig_id: bit i of @p out is
     * toggles(sig_id, frames, i, 0). @p out must hold wordCount()
     * words. Bit-identical to the per-cycle path by construction.
     * Honors the packed zero-tail rule: bits at positions >= the
     * bound frame count in the last word are zero (apollo::
     * maskTailWords in util/bitvec.hh states the rule; the streaming
     * popcount kernels rely on it).
     */
    void fillColumn(uint32_t sig_id, uint64_t *out);

  private:
    void drawColumn(uint64_t seed);
    const uint64_t *busEventMask(const Signal &sig);

    const ActivityEngine &engine_;
    std::span<const ActivityFrame> frames_;
    size_t n_ = 0;
    size_t words_ = 0;
    uint64_t cycle0_ = 0;
    bool contiguousCycles_ = false;
    /** Per-unit clock-enable masks, numUnits x wordCount(). */
    std::vector<uint64_t> enabledMask_;
    /** Column-major copies of the per-unit activity/data factors. */
    std::vector<float> actU_;
    std::vector<float> dataU_;
    /** Batch draw scratch. */
    std::vector<float> draws_;
    std::vector<uint64_t> cycles_;
    /** (busId << 8 | latency) -> event-pass mask. */
    std::unordered_map<uint64_t, std::vector<uint64_t>> busMasks_;
};

} // namespace apollo

#endif // APOLLO_ACTIVITY_TOGGLE_COLUMNS_HH
