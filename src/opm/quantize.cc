#include "opm/quantize.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace apollo {

StatusOr<QuantizedModel>
tryQuantizeModel(const ApolloModel &model, uint32_t bits)
{
    if (bits < 2 || bits > 24)
        return Status::invalidArgument("bits must be in [2, 24], got ",
                                       bits);
    QuantizedModel qm;
    qm.proxyIds = model.proxyIds;
    qm.bits = bits;

    double max_abs = 0.0;
    for (float w : model.weights)
        max_abs = std::max(max_abs, std::abs(static_cast<double>(w)));
    if (max_abs == 0.0)
        max_abs = 1.0;
    const auto qmax = static_cast<double>((1 << (bits - 1)) - 1);
    qm.scale = max_abs / qmax;

    qm.qweights.resize(model.weights.size());
    double pos_sum = 0.0;
    double neg_sum = 0.0;
    for (size_t q = 0; q < model.weights.size(); ++q) {
        const auto v = static_cast<int32_t>(
            std::lround(model.weights[q] / qm.scale));
        qm.qweights[q] = std::clamp<int32_t>(
            v, -static_cast<int32_t>(qmax), static_cast<int32_t>(qmax));
        if (qm.qweights[q] > 0)
            pos_sum += qm.qweights[q];
        else
            neg_sum += qm.qweights[q];
    }

    // Width check on the worst-case per-cycle sum *including* the
    // quantized intercept, in double before the llround: llround of a
    // value outside int64 range is undefined, and even an in-range
    // result would silently wrap the fixed-point datapath that
    // opm_hardware/hls_emitter size from these fields.
    const double q_intercept = model.intercept / qm.scale;
    const double worst = std::max(std::abs(q_intercept + pos_sum),
                                  std::abs(q_intercept + neg_sum));
    const double limit =
        static_cast<double>(1LL << kOpmMaxCycleSumBits);
    if (!(worst < limit))
        return Status::outOfRange(
            "quantized intercept ", model.intercept, " at scale ",
            qm.scale, " yields a worst-case cycle sum of ", worst,
            " units, exceeding the ", kOpmMaxCycleSumBits,
            "-bit OPM cycle-sum budget");
    qm.qintercept =
        static_cast<int64_t>(std::llround(q_intercept));
    APOLLO_COUNT("apollo.opm.quantizations", 1);
    return qm;
}

QuantizedModel
quantizeModel(const ApolloModel &model, uint32_t bits)
{
    return tryQuantizeModel(model, bits).value();
}

} // namespace apollo
