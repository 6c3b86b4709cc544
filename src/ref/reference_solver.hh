/**
 * @file
 * Dense, obviously-correct reference coordinate descent: plain cyclic
 * sweeps over every live column, per-element double-precision dot
 * products through FeatureView::value(), no screening, no working set,
 * no gradient caching, no SIMD, no threads. The penalty math (Eq. 5 /
 * Eq. 6 closed forms) is transcribed here independently of
 * ml/penalty.cc so the production solver and its oracle share no
 * arithmetic.
 *
 * The reference mirrors the production solver's *mathematical*
 * iteration (intercept re-centering then one cyclic pass, repeated to
 * the same tolerance) but not its implementation, so converged
 * solutions agree to solver tolerance rather than bit-exactly; the
 * differential harness additionally certifies the production solution
 * directly via kktViolation(), which is an optimality check
 * independent of either iteration.
 */

#ifndef APOLLO_REF_REFERENCE_SOLVER_HH
#define APOLLO_REF_REFERENCE_SOLVER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "ml/coordinate_descent.hh"
#include "ml/feature_view.hh"

namespace apollo::ref {

/** Reference fit output (double precision throughout). */
struct RefFitResult
{
    std::vector<double> w;
    double intercept = 0.0;
    uint32_t sweeps = 0;
    bool converged = false;

    std::vector<uint32_t> support() const;
};

/**
 * Fit @p config on (X, y) by naive full-matrix cyclic coordinate
 * descent. Honors penalty kind/lambda/gamma/lambda2/nonneg,
 * fitIntercept, maxSweeps, and tol; ignores the screening fields
 * (the reference never screens).
 */
RefFitResult fit(const FeatureView &X, std::span<const float> y,
                 const CdConfig &config);

/**
 * Largest lambda with an all-zero L1-family solution, computed the
 * slow way: max_j |<x_j, y - mean(y)>| / N with per-element double
 * accumulation.
 */
double lambdaMax(const FeatureView &X, std::span<const float> y);

/**
 * Independent KKT certificate for a solution of the penalized problem:
 * for each live column, the fixed-point residual of the coordinate
 * map, |update(g_j / N + a_j w_j, a_j) - w_j| * sqrt(a_j), where g_j
 * is the naive double dot of column j with the exact residual
 * y - X w - b. At an exact coordinate-wise optimum every term is zero;
 * the returned value is the maximum over columns (same scaling as the
 * solvers' convergence metric). Works for every penalty family,
 * including nonneg constraints and the non-convex MCP (where it
 * certifies coordinate-wise optimality).
 */
double kktViolation(const FeatureView &X, std::span<const float> y,
                    std::span<const float> w, double intercept,
                    const PenaltyConfig &penalty);

/** Penalized objective (1/2N)||y - Xw - b||^2 + sum_j P(|w_j|),
 *  evaluated naively in double. */
double objective(const FeatureView &X, std::span<const float> y,
                 std::span<const float> w, double intercept,
                 const PenaltyConfig &penalty);

/** Penalty value P(w), Eq. (5) / Eq. (6) plus the L2 term (0 for
 *  PenaltyKind::None); the closed-form oracle of coordinateUpdate(). */
double penaltyValue(double w, const PenaltyConfig &cfg);

/** |dP/dw|, the weight shrinking rate of Eq. (7). */
double penaltyDerivativeMagnitude(double w, const PenaltyConfig &cfg);

} // namespace apollo::ref

#endif // APOLLO_REF_REFERENCE_SOLVER_HH
