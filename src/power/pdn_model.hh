/**
 * @file
 * PdnModel: a second-order (RLC) power-delivery-network response model
 * used by the Ldi/dt droop application (§8.2). The supply voltage seen
 * by the core responds to current-demand steps with an underdamped
 * second-order transfer function — the classic mid-frequency PDN
 * resonance that makes di/dt events dangerous within < 10 cycles.
 */

#ifndef APOLLO_POWER_PDN_MODEL_HH
#define APOLLO_POWER_PDN_MODEL_HH

#include <cstddef>

namespace apollo {

/** PDN electrical parameters (normalized units). */
struct PdnParams
{
    double vdd = 0.75;
    /** Resonant frequency in cycles (period of the LC resonance). */
    double resonancePeriodCycles = 24.0;
    /** Damping ratio (< 1: underdamped). */
    double damping = 0.25;
    /** Static IR-drop coefficient: volts per unit current. */
    double rStatic = 0.0008;
    /** Dynamic droop gain: volts per unit current step. */
    double dynamicGain = 0.004;
};

/**
 * Discrete-time state-space simulation of the PDN: feed per-cycle
 * current demand, read per-cycle supply voltage at the core.
 */
class PdnModel
{
  public:
    explicit PdnModel(const PdnParams &params = PdnParams{});

    /** Advance one cycle with current demand @p current; returns Vdd. */
    double step(double current);

    const PdnParams &params() const { return params_; }

  private:
    PdnParams params_;
    double x1_ = 0.0; ///< droop state (volts below nominal)
    double x2_ = 0.0; ///< droop state derivative
    double lastCurrent_ = 0.0;
    bool first_ = true;
};

} // namespace apollo

#endif // APOLLO_POWER_PDN_MODEL_HH
