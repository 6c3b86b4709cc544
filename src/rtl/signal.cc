#include "rtl/signal.hh"

namespace apollo {

const char *
unitName(UnitId unit)
{
    switch (unit) {
      case UnitId::Fetch: return "Fetch";
      case UnitId::BranchPred: return "BranchPred";
      case UnitId::ICache: return "ICache";
      case UnitId::Decode: return "Decode";
      case UnitId::Rename: return "Rename";
      case UnitId::Issue: return "Issue";
      case UnitId::IntAlu: return "IntAlu";
      case UnitId::IntMulDiv: return "IntMulDiv";
      case UnitId::VecExec: return "VecExec";
      case UnitId::RegFile: return "RegFile";
      case UnitId::Bypass: return "Bypass";
      case UnitId::LoadStore: return "LoadStore";
      case UnitId::DCache: return "DCache";
      case UnitId::L2Cache: return "L2Cache";
      case UnitId::Retire: return "Retire";
      case UnitId::ClockTree: return "ClockTree";
      case UnitId::Misc: return "Misc";
      default: return "?";
    }
}

} // namespace apollo
