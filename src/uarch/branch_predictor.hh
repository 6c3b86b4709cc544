/**
 * @file
 * A gshare-style branch direction predictor: global history XOR pc
 * indexing a table of 2-bit saturating counters.
 */

#ifndef APOLLO_UARCH_BRANCH_PREDICTOR_HH
#define APOLLO_UARCH_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

namespace apollo {

/** Gshare direction predictor. Targets come from the dynamic trace. */
class BranchPredictor
{
  public:
    /** @param table_bits log2 of the counter-table size. */
    explicit BranchPredictor(uint32_t table_bits = 10);

    /** Predict the direction of the branch at @p pc. */
    bool predict(uint64_t pc) const;

    /** Train on the actual outcome and update global history. */
    void update(uint64_t pc, bool taken);

    uint64_t lookups() const { return lookups_; }
    uint64_t mispredicts() const { return mispredicts_; }

  private:
    uint32_t index(uint64_t pc) const;

    std::vector<uint8_t> counters_;
    uint32_t mask_;
    uint64_t history_ = 0;
    mutable uint64_t lookups_ = 0;
    uint64_t mispredicts_ = 0;
};

} // namespace apollo

#endif // APOLLO_UARCH_BRANCH_PREDICTOR_HH
