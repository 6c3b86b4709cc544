#include "trace/vcd.hh"

#include <algorithm>
#include <bit>
#include <istream>
#include <ostream>

#include "trace/stream_reader.hh"
#include "util/logging.hh"

namespace apollo {

VcdWriter::VcdWriter(std::ostream &os, const Netlist &netlist,
                     std::vector<uint32_t> signals)
    : os_(os), netlist_(netlist), signals_(std::move(signals)),
      value_(signals_.size(), 0)
{
    APOLLO_REQUIRE(!signals_.empty(), "no signals to dump");
}

std::string
VcdWriter::idCode(size_t index)
{
    // Printable identifier characters '!' (33) .. '~' (126), base 94.
    std::string id;
    do {
        id.push_back(static_cast<char>(33 + index % 94));
        index /= 94;
    } while (index);
    return id;
}

void
VcdWriter::writeHeader()
{
    os_ << "$date apollo $end\n";
    os_ << "$version apollo-vcd 1.0 $end\n";
    os_ << "$timescale 1ns $end\n";

    // One scope per functional unit, in signal order.
    UnitId current = UnitId::NumUnits;
    bool scope_open = false;
    for (size_t k = 0; k < signals_.size(); ++k) {
        const Signal &sig = netlist_.signal(signals_[k]);
        if (sig.unit != current) {
            if (scope_open)
                os_ << "$upscope $end\n";
            os_ << "$scope module u_" << unitName(sig.unit) << " $end\n";
            current = sig.unit;
            scope_open = true;
        }
        os_ << "$var wire 1 " << idCode(k) << " "
            << netlist_.signalName(signals_[k]) << " $end\n";
    }
    if (scope_open)
        os_ << "$upscope $end\n";
    os_ << "$enddefinitions $end\n";
    os_ << "$dumpvars\n";
    for (size_t k = 0; k < signals_.size(); ++k)
        os_ << "0" << idCode(k) << "\n";
    os_ << "$end\n";
    headerDone_ = true;
}

void
VcdWriter::writeCycle(const BitVector &toggled)
{
    APOLLO_REQUIRE(headerDone_, "writeHeader() must be called first");
    APOLLO_REQUIRE(toggled.size() == signals_.size(),
                   "toggle vector arity mismatch");
    os_ << "#" << cycle_ << "\n";
    for (size_t k = 0; k < signals_.size(); ++k) {
        if (toggled.get(k)) {
            value_[k] ^= 1;
            os_ << static_cast<int>(value_[k]) << idCode(k) << "\n";
        }
    }
    cycle_++;
}

void
VcdWriter::finish()
{
    os_ << "#" << cycle_ << "\n";
    os_.flush();
}

StatusOr<VcdTrace>
tryParseVcd(std::istream &is)
{
    // Drain the streaming reader in chunks of about 2^22 bits, keeping
    // only the set bits, so nothing larger than one chunk is allocated
    // before the in-memory cap below has seen the row count.
    constexpr uint64_t kChunkBits = uint64_t{1} << 22;
    constexpr uint64_t kMaxBits = uint64_t{1} << 32;
    VcdChunkReader reader(is);
    ProxyChunk chunk;
    std::vector<std::pair<uint64_t, uint32_t>> flips; // (cycle, column)
    uint64_t rows = 0;
    size_t max_rows = 64; // until the header has given the width
    for (;;) {
        StatusOr<size_t> got = reader.next(max_rows, chunk);
        if (!got.ok())
            return got.status();
        if (*got == 0)
            break;
        const size_t cols = chunk.proxies();
        max_rows = std::max<size_t>(64, kChunkBits / cols);
        rows += *got;
        // The streaming reader is the supported path for dumps beyond
        // in-memory size.
        if (rows * cols > kMaxBits)
            return Status::parseError(
                "VCD too large for in-memory parse (at least ", rows,
                " cycles x ", cols, " signals); use VcdChunkReader");
        for (size_t c = 0; c < cols; ++c) {
            const uint64_t *words = chunk.bits.colWords(c);
            for (size_t w = 0; w < chunk.bits.wordsPerCol(); ++w)
                for (uint64_t bits = words[w]; bits; bits &= bits - 1)
                    flips.emplace_back(chunk.firstCycle + 64 * w +
                                           std::countr_zero(bits),
                                       static_cast<uint32_t>(c));
        }
    }
    VcdTrace trace;
    trace.names = reader.names();
    trace.toggles.reset(rows, trace.names.size());
    for (const auto &[cycle, col] : flips)
        trace.toggles.setBit(cycle, col);
    return trace;
}

VcdTrace
parseVcd(std::istream &is)
{
    StatusOr<VcdTrace> trace = tryParseVcd(is);
    if (!trace.ok())
        fatal(trace.status().toString());
    return std::move(*trace);
}

} // namespace apollo
