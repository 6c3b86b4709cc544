#include "uarch/branch_predictor.hh"

#include "util/logging.hh"

namespace apollo {

BranchPredictor::BranchPredictor(uint32_t table_bits)
{
    APOLLO_REQUIRE(table_bits >= 4 && table_bits <= 20,
                   "unreasonable predictor size");
    counters_.assign(1ULL << table_bits, 1); // weakly not-taken
    mask_ = (1U << table_bits) - 1;
}

uint32_t
BranchPredictor::index(uint64_t pc) const
{
    return static_cast<uint32_t>((pc ^ history_) & mask_);
}

bool
BranchPredictor::predict(uint64_t pc) const
{
    lookups_++;
    return counters_[index(pc)] >= 2;
}

void
BranchPredictor::update(uint64_t pc, bool taken)
{
    uint8_t &ctr = counters_[index(pc)];
    const bool predicted = ctr >= 2;
    if (predicted != taken)
        mispredicts_++;
    if (taken && ctr < 3)
        ctr++;
    else if (!taken && ctr > 0)
        ctr--;
    history_ = ((history_ << 1) | (taken ? 1 : 0)) & 0xffff;
}

} // namespace apollo
