#include "ml/pca.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace apollo {

namespace {

/** In-place modified Gram-Schmidt on row-major (n x k) Y. */
void
orthonormalizeColumns(std::vector<float> &y, size_t n, size_t k)
{
    for (size_t c = 0; c < k; ++c) {
        for (size_t p = 0; p < c; ++p) {
            double dot = 0.0;
            for (size_t i = 0; i < n; ++i)
                dot += static_cast<double>(y[i * k + c]) * y[i * k + p];
            const auto d = static_cast<float>(dot);
            for (size_t i = 0; i < n; ++i)
                y[i * k + c] -= d * y[i * k + p];
        }
        double norm = 0.0;
        for (size_t i = 0; i < n; ++i)
            norm += static_cast<double>(y[i * k + c]) * y[i * k + c];
        norm = std::sqrt(norm);
        const auto inv =
            static_cast<float>(norm > 1e-12 ? 1.0 / norm : 0.0);
        for (size_t i = 0; i < n; ++i)
            y[i * k + c] *= inv;
    }
}

/**
 * Z (n x k) = centered-X * W (m x k): accumulate V rows over set bits,
 * then subtract the rank-one mean correction.
 */
std::vector<float>
multiplyCentered(const BitColumnMatrix &X, const std::vector<float> &w,
                 const std::vector<float> &mean_vec, size_t k)
{
    const size_t n = X.rows();
    const size_t m = X.cols();
    std::vector<float> z(n * k, 0.0f);
    // Column-parallel would race on z rows; parallelize over row blocks
    // instead by splitting each column's contribution — simplest safe
    // scheme: sequential over columns, vectorized inner loop. Columns
    // dominate (nnz * k work); parallelize by sharding k.
    parallelFor(k, [&](size_t k0, size_t k1) {
        for (size_t c = 0; c < m; ++c) {
            const float *wr = &w[c * k];
            X.forEachSetBit(c, [&](size_t row) {
                float *zr = &z[row * k];
                for (size_t t = k0; t < k1; ++t)
                    zr[t] += wr[t];
            });
        }
    });
    // Mean correction: z_row -= mean^T W (same for every row).
    std::vector<double> corr(k, 0.0);
    for (size_t c = 0; c < m; ++c)
        for (size_t t = 0; t < k; ++t)
            corr[t] += static_cast<double>(mean_vec[c]) * w[c * k + t];
    for (size_t i = 0; i < n; ++i)
        for (size_t t = 0; t < k; ++t)
            z[i * k + t] -= static_cast<float>(corr[t]);
    return z;
}

/** W (m x k) = centered-X^T * Z (n x k). */
std::vector<float>
multiplyTransposeCentered(const BitColumnMatrix &X,
                          const std::vector<float> &z,
                          const std::vector<float> &mean_vec, size_t k)
{
    const size_t m = X.cols();
    const size_t n = X.rows();
    std::vector<float> w(m * k, 0.0f);
    // Column sums of Z (for the mean correction).
    std::vector<double> z_col_sum(k, 0.0);
    for (size_t i = 0; i < n; ++i)
        for (size_t t = 0; t < k; ++t)
            z_col_sum[t] += z[i * k + t];

    parallelFor(m, [&](size_t c0, size_t c1) {
        for (size_t c = c0; c < c1; ++c) {
            float *wr = &w[c * k];
            X.forEachSetBit(c, [&](size_t row) {
                const float *zr = &z[row * k];
                for (size_t t = 0; t < k; ++t)
                    wr[t] += zr[t];
            });
            for (size_t t = 0; t < k; ++t)
                wr[t] -= static_cast<float>(mean_vec[c] * z_col_sum[t]);
        }
    });
    return w;
}

} // namespace

std::vector<float>
PcaModel::projectAll(const BitColumnMatrix &X) const
{
    APOLLO_REQUIRE(X.cols() == inputDims, "PCA dimension mismatch");
    return multiplyCentered(X, v, meanVec, components);
}

PcaModel
fitPca(const BitColumnMatrix &X, size_t k, uint64_t seed)
{
    const size_t n = X.rows();
    const size_t m = X.cols();
    APOLLO_REQUIRE(k >= 1 && k <= std::min(n, m), "bad component count");

    PcaModel model;
    model.inputDims = m;
    model.components = k;
    model.meanVec.resize(m);
    for (size_t c = 0; c < m; ++c)
        model.meanVec[c] = static_cast<float>(
            static_cast<double>(X.colPopcount(c)) / n);

    // Random start W = G (m x k).
    Xoshiro256StarStar rng(seed);
    std::vector<float> w(m * k);
    for (float &x : w)
        x = static_cast<float>(rng.nextGaussian());

    // Range finding with one power iteration.
    std::vector<float> y = multiplyCentered(X, w, model.meanVec, k);
    orthonormalizeColumns(y, n, k);
    w = multiplyTransposeCentered(X, y, model.meanVec, k);
    orthonormalizeColumns(w, m, k);
    y = multiplyCentered(X, w, model.meanVec, k);
    orthonormalizeColumns(y, n, k);
    w = multiplyTransposeCentered(X, y, model.meanVec, k);
    orthonormalizeColumns(w, m, k);

    model.v = std::move(w);
    model.meanDotV_.assign(k, 0.0f);
    for (size_t c = 0; c < m; ++c)
        for (size_t t = 0; t < k; ++t)
            model.meanDotV_[t] += model.meanVec[c] *
                                  model.v[c * k + t];
    return model;
}

} // namespace apollo
