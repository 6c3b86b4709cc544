#include "ml/metrics.hh"

#include <algorithm>
#include <cmath>

#include "ml/coordinate_descent.hh"
#include "util/logging.hh"

namespace apollo {

double
mean(std::span<const float> v)
{
    if (v.empty())
        return 0.0;
    double acc = 0.0;
    for (float x : v)
        acc += x;
    return acc / static_cast<double>(v.size());
}

double
r2Score(std::span<const float> label, std::span<const float> pred)
{
    APOLLO_REQUIRE(label.size() == pred.size() && !label.empty(),
                   "metric arity mismatch");
    const double mu = mean(label);
    double sse = 0.0;
    double sst = 0.0;
    for (size_t i = 0; i < label.size(); ++i) {
        const double e = static_cast<double>(label[i]) - pred[i];
        const double d = label[i] - mu;
        sse += e * e;
        sst += d * d;
    }
    if (sst <= 0.0)
        return sse <= 0.0 ? 1.0 : 0.0;
    return 1.0 - sse / sst;
}

double
nrmse(std::span<const float> label, std::span<const float> pred)
{
    APOLLO_REQUIRE(label.size() == pred.size() && !label.empty(),
                   "metric arity mismatch");
    const double mu = mean(label);
    APOLLO_REQUIRE(mu != 0.0, "NRMSE undefined for zero-mean labels");
    double sse = 0.0;
    for (size_t i = 0; i < label.size(); ++i) {
        const double e = static_cast<double>(label[i]) - pred[i];
        sse += e * e;
    }
    return std::sqrt(sse / static_cast<double>(label.size())) / mu;
}

double
nmae(std::span<const float> label, std::span<const float> pred)
{
    APOLLO_REQUIRE(label.size() == pred.size() && !label.empty(),
                   "metric arity mismatch");
    double abs_err = 0.0;
    double label_sum = 0.0;
    for (size_t i = 0; i < label.size(); ++i) {
        abs_err += std::abs(static_cast<double>(label[i]) - pred[i]);
        label_sum += label[i];
    }
    APOLLO_REQUIRE(label_sum != 0.0, "NMAE undefined for zero-sum labels");
    return abs_err / label_sum;
}

double
averageVif(const BitColumnMatrix &X, double ridge, double cap)
{
    const size_t q = X.cols();
    APOLLO_REQUIRE(q >= 2, "VIF needs at least two columns");
    const size_t n = X.rows();

    BitFeatureView view(X);
    double vif_sum = 0.0;
    size_t counted = 0;

    CdConfig cfg;
    cfg.penalty.kind = PenaltyKind::Ridge;
    cfg.penalty.lambda2 = ridge;
    cfg.maxSweeps = 60;
    cfg.tol = 1e-4;

    std::vector<float> target(n);
    for (size_t j = 0; j < q; ++j) {
        // Regress column j on all other columns (ridge-regularized).
        for (size_t i = 0; i < n; ++i)
            target[i] = X.get(i, j) ? 1.0f : 0.0f;
        const double mu = mean(target);
        double sst = 0.0;
        for (float v : target)
            sst += (v - mu) * (v - mu);
        if (sst <= 0.0)
            continue; // constant column: VIF undefined, skip

        // Mask column j by zeroing its own weight each sweep: easiest is
        // a solver over a view minus the column; emulate by fitting on
        // all columns, then reject self-fit by excluding j via a copied
        // matrix. Cheaper: build the selected-minus-one matrix.
        std::vector<uint32_t> others;
        others.reserve(q - 1);
        for (size_t c = 0; c < q; ++c)
            if (c != j)
                others.push_back(static_cast<uint32_t>(c));
        const BitColumnMatrix sub = X.selectColumns(others);
        BitFeatureView sub_view(sub);
        CdSolver solver(sub_view, target);
        const CdResult fit = solver.fit(cfg);

        std::vector<float> pred(n);
        sub_view.predict(fit.w, fit.intercept, pred.data());
        double sse = 0.0;
        for (size_t i = 0; i < n; ++i) {
            const double e = static_cast<double>(target[i]) - pred[i];
            sse += e * e;
        }
        const double r2 = 1.0 - sse / sst;
        const double vif =
            r2 >= 1.0 ? cap : std::min(cap, 1.0 / (1.0 - r2));
        vif_sum += vif;
        counted++;
    }
    APOLLO_REQUIRE(counted > 0, "no usable columns for VIF");
    return vif_sum / static_cast<double>(counted);
}

} // namespace apollo
