/**
 * @file
 * Regenerates the checked-in fuzz seed corpus (tests/corpus/aptr,
 * tests/corpus/dataset and tests/corpus/wire): small valid APTR /
 * APDS artifacts and serve wire requests plus systematically
 * malformed variants (truncations at interesting offsets, bad magics,
 * absurd declared sizes, forged payload tails, non-hex digits).
 * Deterministic — running it twice produces identical bytes, so the
 * corpus only changes when the formats do.
 *
 * Usage: make_corpus <output-dir>
 */

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "trace/dataset.hh"
#include "trace/dataset_io.hh"
#include "serve/wire.hh"
#include "trace/stream_reader.hh"
#include "util/bitvec.hh"
#include "util/rng.hh"

namespace fs = std::filesystem;
using namespace apollo;

namespace {

void
writeFile(const fs::path &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    std::printf("  %s (%zu bytes)\n", path.string().c_str(),
                bytes.size());
}

std::string
patch(std::string bytes, size_t at, const void *data, size_t len)
{
    bytes.replace(at, len,
                  std::string(static_cast<const char *>(data), len));
    return bytes;
}

void
makeAptrCorpus(const fs::path &dir)
{
    Xoshiro256StarStar rng(hashMix(0xa9712));
    BitColumnMatrix Xq(37, 3);
    for (size_t c = 0; c < Xq.cols(); ++c)
        for (size_t r = 0; r < Xq.rows(); ++r)
            if (rng.nextDouble() < 0.3)
                Xq.setBit(r, c);

    std::ostringstream one_block;
    {
        ProxyTraceWriter w(one_block, Xq.cols());
        (void)w.append(Xq);
        (void)w.finish();
    }
    const std::string valid = one_block.str();
    writeFile(dir / "valid_small.aptr", valid);

    std::ostringstream multi;
    {
        ProxyTraceWriter w(multi, Xq.cols());
        BitColumnMatrix block(8, Xq.cols());
        for (size_t begin = 0; begin < Xq.rows(); begin += 8) {
            const size_t rows = std::min<size_t>(8, Xq.rows() - begin);
            block.reset(rows, Xq.cols());
            for (size_t c = 0; c < Xq.cols(); ++c)
                for (size_t r = 0; r < rows; ++r)
                    if (Xq.get(begin + r, c))
                        block.setBit(r, c);
            (void)w.append(block);
        }
        (void)w.finish();
    }
    writeFile(dir / "valid_multiblock.aptr", multi.str());

    writeFile(dir / "empty.aptr", "");
    writeFile(dir / "trunc_header.aptr", valid.substr(0, 7));
    writeFile(dir / "trunc_midblock.aptr",
              valid.substr(0, valid.size() * 3 / 5));
    writeFile(dir / "no_terminator.aptr",
              valid.substr(0, valid.size() - 4));
    writeFile(dir / "bad_magic.aptr", "XPTR" + valid.substr(4));

    // Header fields: "APTR" u32 version u32 q u64 cycles.
    const uint32_t huge_q = 0x7fffffffu;
    writeFile(dir / "huge_q.aptr", patch(valid, 8, &huge_q, 4));
    const uint64_t huge_cycles = ~uint64_t{0};
    writeFile(dir / "huge_cycles.aptr",
              patch(valid, 12, &huge_cycles, 8));
    // First block row count (u32 right after the 20-byte header).
    const uint32_t huge_rows = 0xffffffffu;
    writeFile(dir / "huge_block_rows.aptr",
              patch(valid, 20, &huge_rows, 4));
}

void
makeDatasetCorpus(const fs::path &dir)
{
    Xoshiro256StarStar rng(hashMix(0xa9d5));
    Dataset ds;
    ds.X.reset(24, 5);
    for (size_t c = 0; c < 5; ++c)
        for (size_t r = 0; r < 24; ++r)
            if (rng.nextDouble() < 0.4)
                ds.X.setBit(r, c);
    ds.y.resize(24);
    for (float &v : ds.y)
        v = static_cast<float>(rng.nextRange(0.0, 3.0));
    ds.segments = {{"warm", 0, 10}, {"hot", 10, 24}};

    std::ostringstream os;
    saveDataset(os, ds);
    const std::string valid = os.str();
    writeFile(dir / "valid_small.apds", valid);
    writeFile(dir / "empty.apds", "");
    writeFile(dir / "bad_magic.apds", "XPDS" + valid.substr(4));
    writeFile(dir / "trunc_header.apds", valid.substr(0, 9));
    writeFile(dir / "trunc_matrix.apds",
              valid.substr(0, valid.size() / 3));
    writeFile(dir / "trunc_labels.apds",
              valid.substr(0, valid.size() * 2 / 3));
    writeFile(dir / "trunc_tail.apds",
              valid.substr(0, valid.size() - 3));

    // Header: "APDS" u32 version u64 rows u64 cols.
    const uint64_t huge = ~uint64_t{0} / 2;
    writeFile(dir / "huge_rows.apds", patch(valid, 8, &huge, 8));
    writeFile(dir / "huge_cols.apds", patch(valid, 16, &huge, 8));
}

/** @p hex with the character at @p at replaced by @p c. */
std::string
withChar(std::string hex, size_t at, char c)
{
    hex[at] = c;
    return hex;
}

void
makeWireCorpus(const fs::path &dir)
{
    // 129 rows x 3 proxies: three words per column, so each column
    // holds one two-word SIMD block and one scalar tail word, and the
    // last word of each column has 63 bits that must stay zero.
    Xoshiro256StarStar rng(hashMix(0xa3e1));
    const size_t rows = 129;
    BitColumnMatrix bits(rows, 3);
    for (size_t c = 0; c < bits.cols(); ++c)
        for (size_t r = 0; r < rows; ++r)
            if (rng.nextDouble() < 0.4)
                bits.setBit(r, c);

    serve::WireRequest req;
    req.session = "s0";
    req.op = serve::RequestOp::CreateSession;
    req.model = "opm_q10";
    writeFile(dir / "create_session.ndjson", serve::encodeRequest(req));
    req.op = serve::RequestOp::CloseSession;
    writeFile(dir / "close_session.ndjson", serve::encodeRequest(req));
    req.op = serve::RequestOp::CancelSession;
    writeFile(dir / "cancel_session.ndjson", serve::encodeRequest(req));
    req.op = serve::RequestOp::ListModels;
    writeFile(dir / "list_models.ndjson", serve::encodeRequest(req));

    req.op = serve::RequestOp::SubmitChunk;
    req.session = "s0";
    req.bits = bits;
    const std::string submit = serve::encodeRequest(req);
    writeFile(dir / "submit_chunk.ndjson", submit);

    const std::string hex = serve::encodeBitsHex(bits);
    const size_t at = submit.find(hex);
    const auto withPayload = [&](const std::string &payload) {
        return submit.substr(0, at) + payload +
               submit.substr(at + hex.size());
    };
    std::string upper = hex;
    for (char &c : upper)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    // Column 0 is digits [0, 48): words 0-1 are [0, 32) and the tail
    // word [32, 48). Digit 32 is the tail word's top nibble, rows
    // 188-191, all past the end.
    const std::string forged = withChar(hex, 32, 'f');
    const std::string bad_simd = withChar(hex, 21, 'g');
    const std::string bad_tail = withChar(hex, 40, 'G');
    writeFile(dir / "submit_upper.ndjson", withPayload(upper));
    writeFile(dir / "submit_forged_tail.ndjson", withPayload(forged));
    writeFile(dir / "submit_bad_digit_simd.ndjson",
              withPayload(bad_simd));
    writeFile(dir / "submit_bad_digit_tail.ndjson",
              withPayload(bad_tail));
    writeFile(dir / "submit_short.ndjson",
              withPayload(hex.substr(0, hex.size() - 1)));
    writeFile(dir / "submit_long.ndjson", withPayload(hex + "0"));

    // Decode cases (see tests/fuzz/fuzz_wire.cc): byte 0 = 2 picks
    // three columns, byte 1 = 63 makes 3 * 64 - 63 = 129 rows.
    const std::string dims = {2, 63};
    writeFile(dir / "decode_valid.bin", dims + hex);
    writeFile(dir / "decode_upper.bin", dims + upper);
    writeFile(dir / "decode_forged_tail.bin", dims + forged);
    writeFile(dir / "decode_bad_digit_simd.bin", dims + bad_simd);
    writeFile(dir / "decode_bad_digit_tail.bin", dims + bad_tail);
    writeFile(dir / "decode_short.bin",
              dims + hex.substr(0, hex.size() - 16));
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: make_corpus <output-dir>\n");
        return 2;
    }
    const fs::path root(argv[1]);
    for (const char *sub : {"aptr", "dataset", "wire"})
        fs::create_directories(root / sub);
    makeAptrCorpus(root / "aptr");
    makeDatasetCorpus(root / "dataset");
    makeWireCorpus(root / "wire");
    return 0;
}
