#include "uarch/cache.hh"

#include <algorithm>

#include "util/logging.hh"

namespace apollo {

CacheModel::CacheModel(const CacheParams &params, CacheModel *next)
    : params_(params), next_(next)
{
    APOLLO_REQUIRE(params.lineBytes > 0 && params.ways > 0,
                   "bad cache geometry");
    numSets_ = params.sizeBytes / (params.lineBytes * params.ways);
    APOLLO_REQUIRE(numSets_ > 0, "cache too small for geometry");
    ways_.assign(static_cast<size_t>(numSets_) * params.ways, Way{});
}

void
CacheModel::expireMshrs(uint64_t now)
{
    for (auto it = outstanding_.begin(); it != outstanding_.end();) {
        if (it->second <= now)
            it = outstanding_.erase(it);
        else
            ++it;
    }
}

uint32_t
CacheModel::outstandingMisses(uint64_t now) const
{
    uint32_t n = 0;
    for (const auto &entry : outstanding_)
        if (entry.second > now)
            n++;
    return n;
}

CacheAccessResult
CacheModel::access(uint64_t addr, bool is_write, uint64_t now)
{
    accesses_++;
    expireMshrs(now);

    const uint64_t line = lineAddr(addr);
    const uint64_t set = line % numSets_;
    Way *set_ways = &ways_[set * params_.ways];

    // Tag hit? If the line is still being filled, this is a merge onto
    // the outstanding MSHR (hit-under-fill), not a true hit.
    for (uint32_t w = 0; w < params_.ways; ++w) {
        if (set_ways[w].valid && set_ways[w].tag == line) {
            set_ways[w].lastUse = now;
            CacheAccessResult res;
            if (auto it = outstanding_.find(line);
                it != outstanding_.end() && it->second > now) {
                misses_++;
                res.hit = false;
                res.readyCycle =
                    std::max(it->second, now + params_.latency);
            } else {
                res.hit = true;
                res.readyCycle = now + params_.latency;
            }
            return res;
        }
    }

    misses_++;

    // Merge with an outstanding fill whose line was since evicted.
    if (auto it = outstanding_.find(line); it != outstanding_.end()) {
        CacheAccessResult res;
        res.readyCycle = std::max(it->second, now + params_.latency);
        return res;
    }

    // Allocate an MSHR; wait for one if all are busy.
    uint64_t start = now;
    if (outstanding_.size() >= params_.mshrs) {
        uint64_t earliest = ~0ULL;
        for (const auto &entry : outstanding_)
            earliest = std::min(earliest, entry.second);
        start = std::max(start, earliest);
        // One slot frees at `start`; evict that entry.
        for (auto it = outstanding_.begin(); it != outstanding_.end();
             ++it) {
            if (it->second <= start) {
                outstanding_.erase(it);
                break;
            }
        }
    }

    // Fetch from the lower level (or memory) after the tag lookup.
    uint64_t fill_done;
    if (next_) {
        const CacheAccessResult lower =
            next_->access(addr, is_write, start + params_.latency);
        fill_done = lower.readyCycle;
    } else {
        fill_done = start + params_.latency + params_.fillLatency;
    }

    outstanding_.emplace(line, fill_done);

    // Victim selection (LRU) and fill.
    Way *victim = &set_ways[0];
    for (uint32_t w = 1; w < params_.ways; ++w) {
        if (!set_ways[w].valid) {
            victim = &set_ways[w];
            break;
        }
        if (set_ways[w].lastUse < victim->lastUse)
            victim = &set_ways[w];
    }
    victim->valid = true;
    victim->tag = line;
    victim->lastUse = fill_done;

    CacheAccessResult res;
    res.startedMiss = true;
    res.readyCycle = fill_done;
    return res;
}

} // namespace apollo
