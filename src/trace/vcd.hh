/**
 * @file
 * Minimal VCD (Value Change Dump) writer and reader for toggle traces.
 *
 * The design-time flow of Fig. 7(a) passes simulation traces between
 * tools as VCD/FSDB files; we provide the same interchange artifact for
 * a selected signal subset. Signals are dumped as 1-bit wires whose
 * value flips on every toggle, so toggles can be reconstructed exactly
 * by the reader.
 */

#ifndef APOLLO_TRACE_VCD_HH
#define APOLLO_TRACE_VCD_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "rtl/netlist.hh"
#include "util/bitvec.hh"
#include "util/status.hh"

namespace apollo {

/** Streams a toggle trace as VCD. */
class VcdWriter
{
  public:
    /**
     * @param os        output stream (kept by reference)
     * @param netlist   used for hierarchical signal names
     * @param signals   ids of the signals to dump
     */
    VcdWriter(std::ostream &os, const Netlist &netlist,
              std::vector<uint32_t> signals);

    /** Emit the header ($scope/$var declarations, initial values). */
    void writeHeader();

    /**
     * Emit one cycle: @p toggled holds one bit per *dumped* signal
     * (indexed like the `signals` vector given at construction).
     */
    void writeCycle(const BitVector &toggled);

    /** Finish the file. */
    void finish();

    uint64_t cyclesWritten() const { return cycle_; }

  private:
    static std::string idCode(size_t index);

    std::ostream &os_;
    const Netlist &netlist_;
    std::vector<uint32_t> signals_;
    std::vector<uint8_t> value_;
    uint64_t cycle_ = 0;
    bool headerDone_ = false;
};

/**
 * Largest timestamp the VCD reader accepts. Timestamps come from
 * untrusted input and directly size the reconstructed trace (the
 * reader synthesizes one row per cycle), so an implausible declared
 * length is a ParseError, not an allocation attempt.
 */
inline constexpr uint64_t kMaxVcdCycles = uint64_t{1} << 30;

/** Parsed VCD contents: per-signal toggle columns. */
struct VcdTrace
{
    std::vector<std::string> names;
    /** cycles x signals toggle matrix reconstructed from value flips. */
    BitColumnMatrix toggles;
};

/**
 * Parse a whole VCD produced by VcdWriter into memory, reporting
 * malformed input as a Status value. Drains trace/stream_reader.hh's
 * VcdChunkReader, so the grammar and its errors are the reader's; a
 * trace over 2^32 toggle bits (cycles x signals) is a ParseError,
 * raised before the result matrix is allocated. For bounded-memory
 * ingestion of long dumps use VcdChunkReader directly.
 */
StatusOr<VcdTrace> tryParseVcd(std::istream &is);

/** Throwing wrapper of tryParseVcd (throws FatalError). */
VcdTrace parseVcd(std::istream &is);

} // namespace apollo

#endif // APOLLO_TRACE_VCD_HH
