/**
 * @file
 * Set-associative cache timing model with LRU replacement, MSHR-limited
 * outstanding misses, and miss merging. Two levels (L1 -> L2 -> memory)
 * are composed by chaining CacheModel instances.
 */

#ifndef APOLLO_UARCH_CACHE_HH
#define APOLLO_UARCH_CACHE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace apollo {

/** Cache geometry and timing parameters. */
struct CacheParams
{
    uint32_t sizeBytes = 32 * 1024;
    uint32_t ways = 4;
    uint32_t lineBytes = 64;
    uint32_t latency = 3;      ///< hit latency in cycles
    uint32_t mshrs = 4;        ///< max concurrent outstanding misses
    uint32_t fillLatency = 80; ///< miss latency when there is no next level
};

/** Result of a cache access. */
struct CacheAccessResult
{
    uint64_t readyCycle = 0; ///< cycle the data is available
    bool hit = false;
    bool startedMiss = false; ///< a new fill was initiated at this level
};

/** One level of cache. */
class CacheModel
{
  public:
    /** @param next the lower level, or nullptr for main memory. */
    CacheModel(const CacheParams &params, CacheModel *next = nullptr);

    /**
     * Access @p addr at time @p now.
     *
     * On a hit, readyCycle = now + latency. On a miss, an MSHR is
     * allocated (possibly waiting for a free one), the lower level is
     * accessed, the line is filled, and readyCycle reflects the full
     * path. Concurrent misses to the same line merge onto the
     * outstanding fill.
     */
    CacheAccessResult access(uint64_t addr, bool is_write, uint64_t now);

    /** Number of fills still outstanding at @p now. */
    uint32_t outstandingMisses(uint64_t now) const;

    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }
    const CacheParams &params() const { return params_; }

  private:
    uint64_t lineAddr(uint64_t addr) const
    {
        return addr / params_.lineBytes;
    }

    void expireMshrs(uint64_t now);

    CacheParams params_;
    CacheModel *next_;
    uint32_t numSets_;

    struct Way
    {
        uint64_t tag = ~0ULL;
        uint64_t lastUse = 0;
        bool valid = false;
    };
    std::vector<Way> ways_; // numSets_ * params_.ways

    /** Outstanding fills: line address -> completion cycle. */
    std::unordered_map<uint64_t, uint64_t> outstanding_;

    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
};

} // namespace apollo

#endif // APOLLO_UARCH_CACHE_HH
