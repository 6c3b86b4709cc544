#include "util/hex_kernels.hh"

#include <bit>
#include <cstring>

#include "util/cpu_dispatch.hh"
#include "util/logging.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#define APOLLO_HAVE_X86_HEX_KERNELS 1
#include <immintrin.h>
#endif

namespace apollo::hexkernels {

namespace {

constexpr uint64_t kEachByte = 0x0101010101010101ULL;

/**
 * Eight digits, loaded as one little-endian word (first digit in the
 * low byte), to their 32-bit value; false when any byte is not a hex
 * digit. SWAR: with every byte below 0x80, adding 0x80 - lo sets a
 * byte's top bit iff the byte is >= lo, and no carry crosses bytes.
 */
inline bool
decodeEightDigits(uint64_t x, uint32_t &out)
{
    const uint64_t top = 0x80 * kEachByte;
    const uint64_t lower = x | 0x20 * kEachByte;
    const uint64_t digit = (x + (0x80 - '0') * kEachByte) &
                           ~(x + (0x7F - '9') * kEachByte);
    const uint64_t letter = (lower + (0x80 - 'a') * kEachByte) &
                            ~(lower + (0x7F - 'f') * kEachByte);
    if ((x & top) != 0 || ((digit | letter) & top) != top)
        return false;
    // '0'-'9' -> 0-9; 'A'-'F' and 'a'-'f' have bit 6 set and low
    // nibbles 1-6, so adding 9 gives 10-15.
    const uint64_t nib =
        (x & 0x0F * kEachByte) + ((x >> 6) & kEachByte) * 9;
    // Join digit pairs into bytes, then the four bytes into one word
    // still in text order; the byte swap makes the first digit the
    // most significant.
    uint64_t bytes = ((nib & 0x000F000F000F000FULL) << 4) |
                     ((nib >> 8) & 0x000F000F000F000FULL);
    bytes = (bytes | (bytes >> 8)) & 0x0000FFFF0000FFFFULL;
    bytes = (bytes | (bytes >> 16)) & 0x00000000FFFFFFFFULL;
    out = __builtin_bswap32(static_cast<uint32_t>(bytes));
    return true;
}

/** Eight bytes as one word whose low byte is the first. */
inline uint64_t
loadLittle(const char *p)
{
    uint64_t x = 0;
    std::memcpy(&x, p, 8);
    if constexpr (std::endian::native == std::endian::big)
        x = __builtin_bswap64(x);
    return x;
}

/** One word from 16 digits; false when any digit is not hex. */
inline bool
decodeWordSwar(const char *hex, uint64_t &out)
{
    uint32_t h = 0, l = 0;
    if (!decodeEightDigits(loadLittle(hex), h) ||
        !decodeEightDigits(loadLittle(hex + 8), l))
        return false;
    out = (uint64_t{h} << 32) | l;
    return true;
}

// --- Scalar (portable) --------------------------------------------------

bool
decodeWordsScalar(const char *hex, size_t nwords, uint64_t *out)
{
    for (size_t w = 0; w < nwords; ++w)
        if (!decodeWordSwar(hex + 16 * w, out[w]))
            return false;
    return true;
}

constexpr Kernels kScalarKernels = {decodeWordsScalar};

#if APOLLO_HAVE_X86_HEX_KERNELS

// --- AVX2 ---------------------------------------------------------------

__attribute__((target("avx2"))) bool
decodeWordsAvx2(const char *hex, size_t nwords, uint64_t *out)
{
    const __m256i zero_char = _mm256_set1_epi8('0');
    const __m256i a_char = _mm256_set1_epi8('a');
    const __m256i case_bit = _mm256_set1_epi8(0x20);
    const __m256i nine = _mm256_set1_epi8(9);
    const __m256i five = _mm256_set1_epi8(5);
    const __m256i ten = _mm256_set1_epi8(10);
    // maddubs weights: the earlier digit of each pair is the high
    // nibble of its byte.
    const __m256i pair_weights = _mm256_set1_epi16(0x0110);
    size_t w = 0;
    for (; w + 2 <= nwords; w += 2) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(hex + 16 * w));
        // '0'-'9' -> 0-9 in d. Setting the case bit maps exactly
        // 'A'-'F' and 'a'-'f' onto 'a'-'f', so 0-5 in l.
        const __m256i d = _mm256_sub_epi8(v, zero_char);
        const __m256i l =
            _mm256_sub_epi8(_mm256_or_si256(v, case_bit), a_char);
        const __m256i is_digit =
            _mm256_cmpeq_epi8(_mm256_min_epu8(d, nine), d);
        const __m256i is_letter =
            _mm256_cmpeq_epi8(_mm256_min_epu8(l, five), l);
        if (_mm256_movemask_epi8(_mm256_or_si256(is_digit, is_letter)) !=
            -1)
            return false;
        const __m256i nibbles =
            _mm256_blendv_epi8(_mm256_add_epi8(l, ten), d, is_digit);
        // Each 128-bit lane holds one word's 16 digits; after the pack
        // its 8 bytes sit in the lane's low half, in text order.
        const __m256i pairs = _mm256_maddubs_epi16(nibbles, pair_weights);
        const __m256i bytes = _mm256_packus_epi16(pairs, pairs);
        out[w] = __builtin_bswap64(
            static_cast<uint64_t>(_mm256_extract_epi64(bytes, 0)));
        out[w + 1] = __builtin_bswap64(
            static_cast<uint64_t>(_mm256_extract_epi64(bytes, 2)));
    }
    if (w < nwords)
        return decodeWordSwar(hex + 16 * w, out[w]);
    return true;
}

constexpr Kernels kAvx2Kernels = {decodeWordsAvx2};

#endif // APOLLO_HAVE_X86_HEX_KERNELS

/** True when the feature set @p f can run @p impl. */
bool
supports(const cpu::Features &f, Impl impl)
{
    switch (impl) {
      case Impl::Scalar:
        return true;
      case Impl::Avx2:
        return f.avx2;
      default:
        return false;
    }
}

} // namespace

bool
implAvailable(Impl impl)
{
    return supports(cpu::hostFeatures(), impl);
}

const char *
implName(Impl impl)
{
    return cpu::isaName(impl);
}

const Kernels &
implKernels(Impl impl)
{
    APOLLO_REQUIRE(implAvailable(impl),
                   "hex decode implementation not available on this CPU");
#if APOLLO_HAVE_X86_HEX_KERNELS
    if (impl == Impl::Avx2)
        return kAvx2Kernels;
#endif
    return kScalarKernels;
}

Impl
bestImpl()
{
    static const Impl best = supports(cpu::enabledFeatures(), Impl::Avx2)
                                 ? Impl::Avx2
                                 : Impl::Scalar;
    return best;
}

const Kernels &
kernels()
{
    return implKernels(bestImpl());
}

} // namespace apollo::hexkernels
