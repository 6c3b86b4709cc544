#include "ref/reference_wire.hh"

#include <cstdint>

namespace apollo::ref {

namespace {

int
hexNibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

} // namespace

StatusOr<BitColumnMatrix>
decodeBitsHex(std::string_view hex, size_t rows, size_t cols)
{
    const uint64_t wpc =
        static_cast<uint64_t>(rows) / 64 + (rows % 64 != 0 ? 1 : 0);
    uint64_t words = 0;
    if ((cols != 0 && wpc > UINT64_MAX / cols) ||
        (words = wpc * cols) > UINT64_MAX / 16)
        return Status::parseError("bits payload size for ", rows, "x",
                                  cols, " overflows");
    const uint64_t expected = words * 16;
    if (hex.size() != expected)
        return Status::parseError("bits payload is ", hex.size(),
                                  " hex digits, ", rows, "x", cols,
                                  " needs ", expected);
    BitColumnMatrix bits(rows, cols);
    const uint64_t tail_mask =
        (rows % 64 == 0) ? ~uint64_t{0}
                         : ((uint64_t{1} << (rows % 64)) - 1);
    size_t i = 0;
    for (size_t c = 0; c < cols; ++c) {
        uint64_t *out = bits.colWordsMutable(c);
        for (size_t w = 0; w < wpc; ++w) {
            uint64_t value = 0;
            for (int k = 0; k < 16; ++k) {
                const int nibble = hexNibble(hex[i++]);
                if (nibble < 0)
                    return Status::parseError(
                        "non-hex digit in bits payload");
                value = (value << 4) | static_cast<uint64_t>(nibble);
            }
            if (w + 1 == wpc && (value & ~tail_mask) != 0)
                return Status::parseError(
                    "bits payload has set bits past row ", rows,
                    " in column ", c);
            out[w] = value;
        }
    }
    return bits;
}

} // namespace apollo::ref
