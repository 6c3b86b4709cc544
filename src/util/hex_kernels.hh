/**
 * @file
 * Runtime-dispatched hex decode kernels for the serve wire's chunk
 * payloads (serve/wire.hh): 16 hex digits, most significant first,
 * become one packed 64-bit column word.
 *
 * Two implementations share one contract and produce identical words
 * and verdicts:
 *
 *  - Scalar: SWAR, eight digits per 64-bit load: byte-wise range
 *            checks with one "bad digit" test per eight digits, digit
 *            pairs joined by shifts and masks, then a byte swap. (A
 *            256-entry digit table, one lookup per digit, ran only
 *            about 1.5x faster than the per-nibble loop on a 2048 x
 *            159 payload, Xeon, gcc 12 -O2; SWAR runs about 3x.)
 *  - Avx2:   32 digits to two words per step: range checks with
 *            min_epu8/cmpeq, digit pairs joined with maddubs/packus,
 *            then a byte swap per word; a trailing odd word takes the
 *            scalar path.
 *
 * Both accept '0'-'9', 'a'-'f' and 'A'-'F'. There is no AVX-512 tier:
 * at AVX2 a 2048 x 159 chunk decodes in a few microseconds, a small
 * share of serving it.
 *
 * Dispatch: kernels() returns the best table the CPU supports,
 * detected once per process through util/cpu_dispatch, which also
 * applies the APOLLO_NO_AVX2 override. Per-implementation tables stay
 * reachable through implKernels() for the bench and the equivalence
 * tests.
 */

#ifndef APOLLO_UTIL_HEX_KERNELS_HH
#define APOLLO_UTIL_HEX_KERNELS_HH

#include <cstddef>
#include <cstdint>

#include "util/cpu_dispatch.hh"

namespace apollo::hexkernels {

/** Implementation tiers; Avx512 is never available here. */
using Impl = cpu::Isa;

/** One implementation's entry points (function-pointer table). */
struct Kernels
{
    /**
     * Decode the nwords * 16 digits at @p hex into out[0, nwords),
     * each word's most significant digit first. Returns false when
     * any digit is not a hex digit; out is then unspecified.
     */
    bool (*decodeWords)(const char *hex, size_t nwords, uint64_t *out);
};

/** True when the CPU (and build) can run @p impl. */
bool implAvailable(Impl impl);

/** Stable lowercase name ("scalar", "avx2"). */
const char *implName(Impl impl);

/** Entry points of @p impl; requires implAvailable(impl). */
const Kernels &implKernels(Impl impl);

/** Best available implementation after env overrides (cached). */
Impl bestImpl();

/** Entry points of bestImpl(). */
const Kernels &kernels();

} // namespace apollo::hexkernels

#endif // APOLLO_UTIL_HEX_KERNELS_HH
