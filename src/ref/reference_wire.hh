/**
 * @file
 * Reference decoder of the serve wire's hex chunk payloads: the
 * per-nibble loop the dispatched decoder (serve::decodeBitsHex over
 * util/hex_kernels) replaced, kept as its differential oracle.
 */

#ifndef APOLLO_REF_REFERENCE_WIRE_HH
#define APOLLO_REF_REFERENCE_WIRE_HH

#include <cstddef>
#include <string_view>

#include "util/bitvec.hh"
#include "util/status.hh"

namespace apollo::ref {

/**
 * serve::decodeBitsHex one digit at a time, each digit branching on
 * its character class. Same contract, same Status codes and messages:
 * ParseError for a size overflow, a length other than
 * cols * wordsPerCol * 16, a non-hex digit, or set bits past @p rows
 * in a column's tail word, in the order the digits are read.
 */
StatusOr<BitColumnMatrix> decodeBitsHex(std::string_view hex,
                                        size_t rows, size_t cols);

} // namespace apollo::ref

#endif // APOLLO_REF_REFERENCE_WIRE_HH
