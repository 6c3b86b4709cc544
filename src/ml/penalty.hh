/**
 * @file
 * Sparsity-inducing penalties and their coordinate-descent updates.
 *
 * The coordinate subproblem solved per feature j is
 *   minimize over w:  (1/2) a w^2 - rho w + P(|w|)
 * where a = <x_j, x_j>/N and rho = <x_j, r>/N + a w_old (r is the
 * current residual). Closed-form minimizers:
 *
 *   Ridge  (Eq. ridge):  w = rho / (a + lambda2)
 *   Lasso  (Eq. 5):      w = S(rho, lambda) / (a + lambda2)
 *   MCP    (Eq. 6):      w = S(rho, lambda) / (a - 1/gamma)
 *                                          if |rho| <= gamma*lambda*a
 *                        w = rho / a       otherwise
 *
 * where S is the soft-threshold operator. The MCP branch condition and
 * denominators generalize the standardized-feature updates of
 * Breheny & Huang to unstandardized columns; weights with
 * |w| > gamma*lambda are left unpenalized — exactly the property (Eq. 7)
 * that lets APOLLO keep large proxy weights accurate while pruning.
 *
 * ElasticNet (Simmani's model) is Lasso with lambda2 > 0.
 */

#ifndef APOLLO_ML_PENALTY_HH
#define APOLLO_ML_PENALTY_HH

#include <algorithm>
#include <cmath>

namespace apollo {

/** Supported penalty families. */
enum class PenaltyKind
{
    None,       ///< ordinary least squares
    Ridge,      ///< L2 only
    Lasso,      ///< L1 (+ optional L2 = elastic net)
    Mcp,        ///< minimax concave penalty (+ optional tiny L2)
};

/** Penalty configuration. */
struct PenaltyConfig
{
    PenaltyKind kind = PenaltyKind::Lasso;
    double lambda = 0.0;  ///< L1 / MCP strength
    double gamma = 10.0;  ///< MCP concavity threshold (paper uses 10)
    double lambda2 = 0.0; ///< L2 strength
    /** Clamp weights at zero (paper's model has w in R+). */
    bool nonneg = false;
};

/** Soft-threshold operator S(z, t) = sign(z) * max(|z| - t, 0). */
inline double
softThreshold(double z, double t)
{
    if (z > t)
        return z - t;
    if (z < -t)
        return z + t;
    return 0.0;
}

/**
 * Closed-form minimizer of the coordinate subproblem (see file docs).
 * @param rho  <x_j, r>/N + a * w_old
 * @param a    <x_j, x_j>/N (must be > 0)
 */
double coordinateUpdate(double rho, double a, const PenaltyConfig &cfg);

} // namespace apollo

#endif // APOLLO_ML_PENALTY_HH
