/**
 * @file
 * Weight quantization for the on-chip power meter (§6): weights become
 * B-bit fixed-point integers (signed, symmetric scale); the intercept
 * is quantized on the same scale and added once per cycle.
 */

#ifndef APOLLO_OPM_QUANTIZE_HH
#define APOLLO_OPM_QUANTIZE_HH

#include <cstdint>
#include <vector>

#include "core/apollo_model.hh"
#include "util/status.hh"

namespace apollo {

/**
 * Width budget for the OPM's per-cycle sum *including* the quantized
 * intercept. OpmSimulator/opm_hardware/hls_emitter size the accumulator
 * as cycleSumBits + log2(T) and require the result to fit 62 bits;
 * capping the cycle sum at 47 magnitude bits leaves room for every
 * supported window (T up to 2^15) without silent wraparound in the
 * emitted fixed-point datapath.
 */
constexpr uint32_t kOpmMaxCycleSumBits = 47;

/** A B-bit fixed-point APOLLO model. */
struct QuantizedModel
{
    std::vector<uint32_t> proxyIds;
    /** Signed B-bit weights: |qw| <= 2^(B-1) - 1. */
    std::vector<int32_t> qweights;
    /** Quantized intercept on the same scale. */
    int64_t qintercept = 0;
    uint32_t bits = 10;
    /** Dequantization factor: w ~= qw * scale. */
    double scale = 1.0;

    size_t proxyCount() const { return proxyIds.size(); }

    /** Convert an integer accumulator value back to power units. */
    double dequantize(int64_t acc) const { return acc * scale; }
};

/**
 * Quantize @p model to @p bits-bit weights. Data errors return a
 * Status: InvalidArgument when bits is outside [2, 24], OutOfRange
 * when the quantized intercept pushes the worst-case cycle sum past
 * kOpmMaxCycleSumBits (the overflow is checked in double *before* the
 * llround, so a huge intercept/scale ratio can never wrap int64).
 *
 * Dequantization error contract (checked by the opm.quantize_roundtrip
 * differential oracle): a T-window OPM output differs from the Eq. (9)
 * float inference of the dequantized model (ref::dequantize) by less
 * than one scale unit (the >> log2(T) truncation) plus float rounding
 * of the weight sums.
 */
StatusOr<QuantizedModel> tryQuantizeModel(const ApolloModel &model,
                                          uint32_t bits);

/** tryQuantizeModel that throws FatalError on invalid input. */
QuantizedModel quantizeModel(const ApolloModel &model, uint32_t bits);

} // namespace apollo

#endif // APOLLO_OPM_QUANTIZE_HH
