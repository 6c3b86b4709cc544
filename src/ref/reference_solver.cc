#include "ref/reference_solver.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace apollo::ref {

namespace {

/** S(z, t) = sign(z) * max(|z| - t, 0), transcribed from Eq. (5). */
double
refSoftThreshold(double z, double t)
{
    const double az = std::abs(z);
    if (az <= t)
        return 0.0;
    return z > 0.0 ? az - t : -(az - t);
}

/**
 * Closed-form minimizer of the coordinate subproblem
 *   (1/2) a w^2 - rho w + P(|w|)
 * transcribed independently from the equations documented in
 * ml/penalty.hh, including the local gamma floor that keeps the MCP
 * concave-region denominator positive for low-rate columns.
 */
double
refCoordinateUpdate(double rho, double a, const PenaltyConfig &cfg)
{
    double w = 0.0;
    switch (cfg.kind) {
      case PenaltyKind::None:
        w = rho / (a + 1e-12);
        break;
      case PenaltyKind::Ridge:
        w = rho / (a + cfg.lambda2);
        break;
      case PenaltyKind::Lasso:
        w = refSoftThreshold(rho, cfg.lambda) / (a + cfg.lambda2);
        break;
      case PenaltyKind::Mcp: {
        const double gamma = std::max(cfg.gamma, 1.5 / a);
        if (std::abs(rho) <= gamma * cfg.lambda * (a + cfg.lambda2))
            w = refSoftThreshold(rho, cfg.lambda) /
                (a + cfg.lambda2 - 1.0 / gamma);
        else
            w = rho / (a + cfg.lambda2);
        break;
      }
    }
    if (cfg.nonneg && w < 0.0)
        w = 0.0;
    return w;
}

/** <x_j, v> with per-element double accumulation through value(). */
double
refDot(const FeatureView &X, size_t col, const std::vector<double> &v)
{
    double acc = 0.0;
    for (size_t i = 0; i < X.rows(); ++i)
        acc += X.value(i, col) * v[i];
    return acc;
}

} // namespace

std::vector<uint32_t>
RefFitResult::support() const
{
    std::vector<uint32_t> s;
    for (size_t j = 0; j < w.size(); ++j)
        if (w[j] != 0.0)
            s.push_back(static_cast<uint32_t>(j));
    return s;
}

RefFitResult
fit(const FeatureView &X, std::span<const float> y,
    const CdConfig &config)
{
    const size_t n = X.rows();
    const size_t m = X.cols();
    APOLLO_REQUIRE(n == y.size(), "rows/labels mismatch");
    APOLLO_REQUIRE(n > 1, "need at least two samples");
    const auto nD = static_cast<double>(n);

    std::vector<double> a(m);
    for (size_t j = 0; j < m; ++j)
        a[j] = X.sumSquares(j) / nD;

    double mu = 0.0;
    for (float v : y)
        mu += v;
    mu /= nD;
    double var = 0.0;
    for (float v : y)
        var += (v - mu) * (v - mu);
    double y_std = std::sqrt(var / nD);
    if (y_std <= 0.0)
        y_std = 1.0;
    const double tol_abs = config.tol * y_std;

    RefFitResult res;
    res.w.assign(m, 0.0);
    std::vector<double> r(y.begin(), y.end());

    while (res.sweeps < config.maxSweeps) {
        if (config.fitIntercept) {
            double shift = 0.0;
            for (double v : r)
                shift += v;
            shift /= nD;
            res.intercept += shift;
            for (double &v : r)
                v -= shift;
        }
        double max_delta = 0.0;
        for (size_t j = 0; j < m; ++j) {
            if (a[j] <= 0.0)
                continue; // dead column: never enters the model
            const double w_old = res.w[j];
            const double rho = refDot(X, j, r) / nD + a[j] * w_old;
            const double w_new =
                refCoordinateUpdate(rho, a[j], config.penalty);
            if (w_new != w_old) {
                for (size_t i = 0; i < n; ++i)
                    r[i] += (w_old - w_new) * X.value(i, j);
                res.w[j] = w_new;
                max_delta = std::max(
                    max_delta, std::abs(w_new - w_old) * std::sqrt(a[j]));
            }
        }
        res.sweeps++;
        if (max_delta <= tol_abs) {
            res.converged = true;
            break;
        }
    }
    return res;
}

double
lambdaMax(const FeatureView &X, std::span<const float> y)
{
    const auto nD = static_cast<double>(X.rows());
    double mu = 0.0;
    for (float v : y)
        mu += v;
    mu /= nD;
    std::vector<double> centered(y.size());
    for (size_t i = 0; i < y.size(); ++i)
        centered[i] = y[i] - mu;
    double best = 0.0;
    for (size_t j = 0; j < X.cols(); ++j)
        best = std::max(best, std::abs(refDot(X, j, centered)) / nD);
    return best;
}

double
kktViolation(const FeatureView &X, std::span<const float> y,
             std::span<const float> w, double intercept,
             const PenaltyConfig &penalty)
{
    const size_t n = X.rows();
    const size_t m = X.cols();
    APOLLO_REQUIRE(w.size() == m, "weight arity mismatch");
    const auto nD = static_cast<double>(n);

    std::vector<double> r(n);
    for (size_t i = 0; i < n; ++i)
        r[i] = static_cast<double>(y[i]) - intercept;
    for (size_t j = 0; j < m; ++j)
        if (w[j] != 0.0f)
            for (size_t i = 0; i < n; ++i)
                r[i] -= static_cast<double>(w[j]) * X.value(i, j);

    double worst = 0.0;
    for (size_t j = 0; j < m; ++j) {
        const double a = X.sumSquares(j) / nD;
        if (a <= 0.0)
            continue;
        const double rho = refDot(X, j, r) / nD + a * w[j];
        const double w_opt = refCoordinateUpdate(rho, a, penalty);
        worst = std::max(worst, std::abs(w_opt - w[j]) * std::sqrt(a));
    }
    return worst;
}

double
objective(const FeatureView &X, std::span<const float> y,
          std::span<const float> w, double intercept,
          const PenaltyConfig &penalty)
{
    const size_t n = X.rows();
    const size_t m = X.cols();
    APOLLO_REQUIRE(w.size() == m, "weight arity mismatch");

    std::vector<double> r(n);
    for (size_t i = 0; i < n; ++i)
        r[i] = static_cast<double>(y[i]) - intercept;
    for (size_t j = 0; j < m; ++j)
        if (w[j] != 0.0f)
            for (size_t i = 0; i < n; ++i)
                r[i] -= static_cast<double>(w[j]) * X.value(i, j);

    double sse = 0.0;
    for (double v : r)
        sse += v * v;
    double obj = 0.5 * sse / static_cast<double>(n);

    // Penalty terms transcribed from Eq. (5) / Eq. (6).
    for (size_t j = 0; j < m; ++j) {
        const double aw = std::abs(static_cast<double>(w[j]));
        obj += 0.5 * penalty.lambda2 * aw * aw;
        switch (penalty.kind) {
          case PenaltyKind::None:
          case PenaltyKind::Ridge:
            break;
          case PenaltyKind::Lasso:
            obj += penalty.lambda * aw;
            break;
          case PenaltyKind::Mcp:
            if (aw <= penalty.gamma * penalty.lambda)
                obj += penalty.lambda * aw -
                       aw * aw / (2.0 * penalty.gamma);
            else
                obj += 0.5 * penalty.gamma * penalty.lambda *
                       penalty.lambda;
            break;
        }
    }
    return obj;
}

double
penaltyValue(double w, const PenaltyConfig &cfg)
{
    const double aw = std::abs(w);
    double p = 0.5 * cfg.lambda2 * w * w;
    switch (cfg.kind) {
      case PenaltyKind::None:
        return 0.0;
      case PenaltyKind::Ridge:
        return p;
      case PenaltyKind::Lasso:
        return p + cfg.lambda * aw;
      case PenaltyKind::Mcp: {
        // Eq. (6).
        if (aw <= cfg.gamma * cfg.lambda)
            return p + cfg.lambda * aw - w * w / (2.0 * cfg.gamma);
        return p + 0.5 * cfg.gamma * cfg.lambda * cfg.lambda;
      }
    }
    return p;
}

double
penaltyDerivativeMagnitude(double w, const PenaltyConfig &cfg)
{
    const double aw = std::abs(w);
    switch (cfg.kind) {
      case PenaltyKind::None:
      case PenaltyKind::Ridge:
        return cfg.lambda2 * aw;
      case PenaltyKind::Lasso:
        return cfg.lambda + cfg.lambda2 * aw;
      case PenaltyKind::Mcp:
        // Eq. (7): large weights are not shrunk at all.
        if (aw <= cfg.gamma * cfg.lambda)
            return cfg.lambda - aw / cfg.gamma + cfg.lambda2 * aw;
        return cfg.lambda2 * aw;
    }
    return 0.0;
}

} // namespace apollo::ref
