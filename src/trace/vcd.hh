/**
 * @file
 * Minimal VCD (Value Change Dump) writer for toggle traces.
 *
 * The design-time flow of Fig. 7(a) passes simulation traces between
 * tools as VCD/FSDB files; we provide the same interchange artifact for
 * a selected signal subset, for waveform viewers. Signals are dumped
 * as 1-bit wires whose value flips on every toggle, so every toggle is
 * visible as a value change. Traces are read back only in the APTR
 * format (trace/stream_reader.hh).
 */

#ifndef APOLLO_TRACE_VCD_HH
#define APOLLO_TRACE_VCD_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "rtl/netlist.hh"
#include "util/bitvec.hh"

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

} // namespace apollo

#endif // APOLLO_TRACE_VCD_HH
