#include "trace/vcd.hh"

#include <ostream>

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

} // namespace apollo
