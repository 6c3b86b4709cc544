/**
 * @file
 * Accuracy metrics used throughout the evaluation (§7.1):
 *   R^2 (coefficient of determination), NRMSE, NMAE, Pearson
 *   correlation, and the variance inflation factor (VIF) used in
 *   Fig. 14 to quantify correlation among selected proxies.
 */

#ifndef APOLLO_ML_METRICS_HH
#define APOLLO_ML_METRICS_HH

#include <cstddef>
#include <span>
#include <vector>

#include "util/bitvec.hh"

namespace apollo {

/** Coefficient of determination R^2 = 1 - SSE/SST. */
double r2Score(std::span<const float> label, std::span<const float> pred);

/** NRMSE = RMSE / mean(label), per §7.1. */
double nrmse(std::span<const float> label, std::span<const float> pred);

/** NMAE = sum|err| / sum(label), per §7.1. */
double nmae(std::span<const float> label, std::span<const float> pred);

/** Mean of a span. */
double mean(std::span<const float> v);

/**
 * Average variance inflation factor over the columns of @p X
 * (each column ridge-regressed on all the others; VIF_j = 1/(1-R_j^2)).
 * @p ridge guards against exact collinearity. VIF values are clamped
 * to @p cap (collinear columns otherwise explode to infinity).
 */
double averageVif(const BitColumnMatrix &X, double ridge = 1e-3,
                  double cap = 1000.0);

} // namespace apollo

#endif // APOLLO_ML_METRICS_HH
