#include "ml/penalty.hh"

#include "util/logging.hh"

namespace apollo {

double
coordinateUpdate(double rho, double a, const PenaltyConfig &cfg)
{
    APOLLO_ASSERT(a > 0.0, "zero-norm column reached the solver");
    double w = 0.0;
    switch (cfg.kind) {
      case PenaltyKind::None:
        w = rho / (a + 1e-12);
        break;
      case PenaltyKind::Ridge:
        w = rho / (a + cfg.lambda2);
        break;
      case PenaltyKind::Lasso:
        w = softThreshold(rho, cfg.lambda) / (a + cfg.lambda2);
        break;
      case PenaltyKind::Mcp: {
        // The concave region needs a - 1/gamma > 0 for a unique interior
        // minimizer; for low-rate columns (small a) raise gamma locally.
        const double gamma = std::max(cfg.gamma, 1.5 / a);
        if (std::abs(rho) <= gamma * cfg.lambda * (a + cfg.lambda2)) {
            w = softThreshold(rho, cfg.lambda) /
                (a + cfg.lambda2 - 1.0 / gamma);
        } else {
            w = rho / (a + cfg.lambda2);
        }
        break;
      }
    }
    if (cfg.nonneg && w < 0.0)
        w = 0.0;
    return w;
}

} // namespace apollo
