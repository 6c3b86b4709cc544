#include "power/pdn_model.hh"

#include <cmath>

namespace apollo {

PdnModel::PdnModel(const PdnParams &params) : params_(params) {}

double
PdnModel::step(double current)
{
    // Underdamped second-order resonator driven by dI (current steps):
    //   x'' + 2*zeta*w0*x' + w0^2*x = dynamicGain * w0^2 * dI
    // discretized with unit time step (one CPU cycle).
    const double w0 =
        2.0 * M_PI / params_.resonancePeriodCycles;
    const double di = first_ ? 0.0 : current - lastCurrent_;
    first_ = false;
    lastCurrent_ = current;

    const double accel = params_.dynamicGain * w0 * w0 * di -
                         2.0 * params_.damping * w0 * x2_ -
                         w0 * w0 * x1_;
    x2_ += accel;
    x1_ += x2_;

    return params_.vdd - params_.rStatic * current - x1_;
}

} // namespace apollo
