/**
 * @file
 * Fuzz target for the serve wire's request parser and its hex payload
 * decoder. Every input is used twice:
 *
 *  - as one request line: parseRequestLine must return a Status,
 *    never crash or throw, and an accepted submit_chunk must carry a
 *    zero-tail payload that round-trips through encodeRequest to the
 *    same words;
 *  - as a decode case: byte 0 picks the column count, byte 1 how far
 *    the row count falls short of the payload's whole words, and the
 *    rest is the hex. decodeBitsHex on every dispatched tier must
 *    then agree with ref::decodeBitsHex on the Status and the words.
 */

#include "fuzz/fuzz_driver.hh"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "ref/reference_wire.hh"
#include "serve/wire.hh"
#include "util/hex_kernels.hh"

namespace {

using namespace apollo;

[[noreturn]] void
bug(const char *what)
{
    std::fprintf(stderr, "FUZZ-BUG: %s\n", what);
    std::abort();
}

void
checkRequestLine(std::string_view line)
{
    StatusOr<serve::WireRequest> req = serve::parseRequestLine(line);
    if (!req.ok() || req->op != serve::RequestOp::SubmitChunk)
        return;
    const BitColumnMatrix &bits = req->bits;
    if (bits.rows() % 64 != 0)
        for (size_t c = 0; c < bits.cols(); ++c)
            if (bits.colWords(c)[bits.wordsPerCol() - 1] >>
                (bits.rows() % 64))
                bug("accepted submit_chunk leaks tail bits");
    StatusOr<serve::WireRequest> back =
        serve::parseRequestLine(serve::encodeRequest(*req));
    if (!back.ok() || back->op != serve::RequestOp::SubmitChunk ||
        back->session != req->session || back->bits != bits)
        bug("submit_chunk does not round-trip through encodeRequest");
}

void
checkDecode(const uint8_t *data, size_t size)
{
    if (size < 2)
        return;
    const std::string_view hex(reinterpret_cast<const char *>(data) + 2,
                               size - 2);
    const size_t cols = 1 + data[0] % 3;
    const size_t wpc = hex.size() / 16 / cols;
    const size_t rows = wpc == 0 ? 1 + data[1] % 64
                                 : wpc * 64 - data[1] % 64;
    const StatusOr<BitColumnMatrix> want =
        ref::decodeBitsHex(hex, rows, cols);
    for (hexkernels::Impl impl :
         {hexkernels::Impl::Scalar, hexkernels::Impl::Avx2}) {
        if (!hexkernels::implAvailable(impl))
            continue;
        const StatusOr<BitColumnMatrix> got = serve::decodeBitsHex(
            hex, rows, cols, hexkernels::implKernels(impl));
        if (got.ok() != want.ok())
            bug("decodeBitsHex accepts differently from the oracle");
        if (!want.ok() && (got.status().code() != want.status().code() ||
                           got.status().message() !=
                               want.status().message()))
            bug("decodeBitsHex fails differently from the oracle");
        if (want.ok() && *got != *want)
            bug("decodeBitsHex words differ from the oracle");
    }
}

} // namespace

void
apolloFuzzOne(const uint8_t *data, size_t size)
{
    checkRequestLine(
        std::string_view(reinterpret_cast<const char *>(data), size));
    checkDecode(data, size);
}
