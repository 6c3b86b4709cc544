/**
 * @file
 * The one place that decides which SIMD code may run: CPUID feature
 * probes plus the environment overrides every runtime-dispatched
 * kernel family honours (util/bitvec_kernels, util/hash_kernels,
 * util/popcnt_kernels, util/hex_kernels).
 *
 * Overrides (a switch counts as set when non-empty and not starting
 * with '0'):
 *
 *  - APOLLO_NO_AVX512 hides every AVX-512 feature;
 *  - APOLLO_NO_AVX2 hides AVX2 (AVX-512 stays unless also hidden);
 *  - APOLLO_POPCNT=scalar|avx2|avx512 forces that popcount kernel
 *    tier for the quantized inference engine.
 *
 * The two APOLLO_NO_* switches are read once per process, together
 * with CPUID. APOLLO_POPCNT is re-read on every popcountOverride()
 * call so tests and benches can switch kernels between engine runs.
 */

#ifndef APOLLO_UTIL_CPU_DISPATCH_HH
#define APOLLO_UTIL_CPU_DISPATCH_HH

#include <optional>

namespace apollo::cpu {

/** SIMD tiers of the dispatched kernels, in increasing ISA order. */
enum class Isa : int { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/** Stable lowercase name ("scalar", "avx2", "avx512"). */
const char *isaName(Isa isa);

/** The CPU features the kernels dispatch on; all false off x86-64. */
struct Features
{
    bool popcnt = false;
    bool avx2 = false;
    bool avx512 = false;  ///< AVX-512 F + BW + DQ + VL
    bool avx512Vpopcntdq = false;
};

/** What the CPU supports, ignoring the environment (probed once). */
const Features &hostFeatures();

/** hostFeatures() minus what APOLLO_NO_AVX512 / APOLLO_NO_AVX2 hide. */
const Features &enabledFeatures();

/**
 * The popcount tier APOLLO_POPCNT names, or nullopt when it is unset,
 * empty or not a tier name. Availability is the caller's check.
 */
std::optional<Isa> popcountOverride();

} // namespace apollo::cpu

#endif // APOLLO_UTIL_CPU_DISPATCH_HH
