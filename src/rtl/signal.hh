/**
 * @file
 * RTL signal model: the atomic unit APOLLO selects power proxies from.
 *
 * Each signal carries the static properties that drive both its toggle
 * behaviour (via the activity engine) and its power contribution (via the
 * power oracle): the functional unit it belongs to, its kind, its
 * effective switched capacitance, and sensitivities to unit activity and
 * data values.
 */

#ifndef APOLLO_RTL_SIGNAL_HH
#define APOLLO_RTL_SIGNAL_HH

#include <cstdint>
#include <string>

namespace apollo {

/**
 * Functional units of the synthetic core. These mirror the unit taxonomy
 * of Fig. 15(a) in the paper (Fetch, Issue, Vector Execution, Load Store,
 * gated clocks, ...), plus the cache hierarchy the uarch model simulates.
 */
enum class UnitId : uint8_t
{
    Fetch,
    BranchPred,
    ICache,
    Decode,
    Rename,
    Issue,
    IntAlu,
    IntMulDiv,
    VecExec,
    RegFile,
    Bypass,
    LoadStore,
    DCache,
    L2Cache,
    Retire,
    ClockTree,
    Misc,
    NumUnits,
};

/** Number of functional units. */
constexpr size_t numUnits = static_cast<size_t>(UnitId::NumUnits);

/** Short unit name for reports (e.g. Fig. 15(a) distribution). */
const char *unitName(UnitId unit);

/** Kinds of RTL signals, following §6's OPM interface taxonomy. */
enum class SignalKind : uint8_t
{
    FlipFlop,    ///< register output
    CombWire,    ///< combinational net
    GatedClock,  ///< gated clock net (toggles when its enable is high)
    ClockEnable, ///< clock-gate enable (toggles when gating state changes)
    BusBit,      ///< one bit of a multi-bit bus (correlated toggling)
};

/**
 * Static per-signal properties. Kept compact (the netlist holds tens of
 * thousands of these; the real designs the paper targets hold >5e5).
 */
struct Signal
{
    UnitId unit = UnitId::Misc;
    SignalKind kind = SignalKind::CombWire;
    /** Effective switched capacitance (arbitrary femtofarad-like units). */
    float cap = 1.0f;
    /** How strongly toggle probability follows unit activity, [0, 1]. */
    float actSensitivity = 0.5f;
    /** How strongly toggle probability follows data toggling, [0, 1]. */
    float dataSensitivity = 0.0f;
    /** Background toggle probability when the unit clock is enabled. */
    float baseRate = 0.0f;
    /** Pipeline delay (cycles) between unit activity and this signal. */
    uint8_t latency = 0;
    /** Combinational depth; scales the glitch-power contribution. */
    uint8_t glitchDepth = 0;
    /** Bus membership (index into Netlist::buses()), or -1. */
    int32_t busId = -1;
};

} // namespace apollo

#endif // APOLLO_RTL_SIGNAL_HH
