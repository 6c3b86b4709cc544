/**
 * @file
 * Tests for K-means signal clustering, randomized PCA, and the PowerNet
 * nonlinear baseline.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ml/kmeans.hh"
#include "ml/metrics.hh"
#include "ml/neural_net.hh"
#include "ml/pca.hh"
#include "util/rng.hh"

namespace apollo {
namespace {

/** Columns drawn from `groups` shared patterns + per-column noise. */
BitColumnMatrix
groupedColumns(size_t n, size_t cols_per_group, size_t groups,
               uint64_t seed, double flip = 0.02)
{
    BitColumnMatrix X(n, cols_per_group * groups);
    Xoshiro256StarStar rng(seed);
    std::vector<std::vector<uint8_t>> base(groups,
                                           std::vector<uint8_t>(n));
    for (size_t g = 0; g < groups; ++g)
        for (size_t r = 0; r < n; ++r)
            base[g][r] = rng.nextDouble() < 0.25 ? 1 : 0;
    for (size_t g = 0; g < groups; ++g) {
        for (size_t k = 0; k < cols_per_group; ++k) {
            const size_t c = g * cols_per_group + k;
            for (size_t r = 0; r < n; ++r) {
                bool v = base[g][r];
                if (rng.nextDouble() < flip)
                    v = !v;
                if (v)
                    X.setBit(r, c);
            }
        }
    }
    return X;
}

TEST(Kmeans, RecoversPlantedGroups)
{
    const size_t groups = 6;
    const size_t per = 20;
    const BitColumnMatrix X = groupedColumns(800, per, groups, 9);
    KmeansConfig cfg;
    cfg.k = groups;
    const KmeansResult res = kmeansSignals(X, cfg);

    // Same-group columns should share a cluster; count the majority
    // agreement per planted group.
    size_t agree = 0;
    for (size_t g = 0; g < groups; ++g) {
        std::vector<size_t> votes(groups, 0);
        for (size_t k = 0; k < per; ++k)
            votes[res.assignment[g * per + k]]++;
        agree += *std::max_element(votes.begin(), votes.end());
    }
    EXPECT_GT(agree, static_cast<size_t>(0.9 * groups * per));
}

TEST(Kmeans, RepresentativesAreDistinctAndValid)
{
    const BitColumnMatrix X = groupedColumns(500, 15, 8, 21);
    KmeansConfig cfg;
    cfg.k = 8;
    const KmeansResult res = kmeansSignals(X, cfg);
    ASSERT_EQ(res.representatives.size(), 8u);
    std::vector<uint32_t> reps = res.representatives;
    std::sort(reps.begin(), reps.end());
    EXPECT_EQ(std::unique(reps.begin(), reps.end()), reps.end());
    for (uint32_t r : res.representatives)
        EXPECT_LT(r, X.cols());
}

TEST(Kmeans, DeterministicPerSeed)
{
    const BitColumnMatrix X = groupedColumns(400, 10, 5, 33);
    KmeansConfig cfg;
    cfg.k = 5;
    const KmeansResult a = kmeansSignals(X, cfg);
    const KmeansResult b = kmeansSignals(X, cfg);
    EXPECT_EQ(a.representatives, b.representatives);
    EXPECT_EQ(a.assignment, b.assignment);
}

TEST(Pca, CapturesLowRankStructure)
{
    // Rank-3-ish binary matrix: projections should reconstruct labels
    // driven by the same latent factors.
    const BitColumnMatrix X = groupedColumns(1200, 30, 3, 55, 0.01);
    const PcaModel pca = fitPca(X, 4);
    EXPECT_EQ(pca.components, 4u);
    EXPECT_EQ(pca.inputDims, X.cols());

    const std::vector<float> z = pca.projectAll(X);
    // Variance of the first component should dominate the fourth.
    double var1 = 0.0;
    double var4 = 0.0;
    double m1 = 0.0;
    double m4 = 0.0;
    const size_t n = X.rows();
    for (size_t i = 0; i < n; ++i) {
        m1 += z[i * 4 + 0];
        m4 += z[i * 4 + 3];
    }
    m1 /= n;
    m4 /= n;
    for (size_t i = 0; i < n; ++i) {
        var1 += (z[i * 4 + 0] - m1) * (z[i * 4 + 0] - m1);
        var4 += (z[i * 4 + 3] - m4) * (z[i * 4 + 3] - m4);
    }
    EXPECT_GT(var1, 3.0 * var4);
}

TEST(Pca, ProjectRowMatchesProjectAll)
{
    const BitColumnMatrix X = groupedColumns(300, 12, 4, 77);
    const PcaModel pca = fitPca(X, 5);
    const std::vector<float> z_all = pca.projectAll(X);

    for (size_t i = 0; i < X.rows(); i += 37) {
        std::vector<uint32_t> active;
        for (size_t c = 0; c < X.cols(); ++c)
            if (X.get(i, c))
                active.push_back(static_cast<uint32_t>(c));
        // z = V^T (x - mean), one row, straight from the definition.
        for (size_t k = 0; k < 5; ++k) {
            double z = 0.0;
            for (size_t c = 0; c < X.cols(); ++c)
                z -= static_cast<double>(pca.meanVec[c]) * pca.v[c * 5 + k];
            for (uint32_t c : active)
                z += pca.v[c * 5 + k];
            EXPECT_NEAR(z, z_all[i * 5 + k], 1e-3)
                << "row " << i << " comp " << k;
        }
    }
}

TEST(PowerNet, LearnsLinearFunction)
{
    // y = sum of a few planted weights: even a nonlinear net must nail
    // this almost exactly.
    const size_t n = 3000;
    const size_t m = 60;
    BitColumnMatrix X(n, m);
    Xoshiro256StarStar rng(7);
    std::vector<float> w(m);
    for (size_t c = 0; c < m; ++c)
        w[c] = static_cast<float>(rng.nextDouble());
    std::vector<float> y(n, 1.0f);
    for (size_t c = 0; c < m; ++c)
        for (size_t r = 0; r < n; ++r)
            if (rng.nextDouble() < 0.25) {
                X.setBit(r, c);
                y[r] += w[c];
            }

    std::vector<uint32_t> ids(m);
    for (size_t c = 0; c < m; ++c)
        ids[c] = static_cast<uint32_t>(c);

    NeuralNetConfig cfg;
    cfg.epochs = 30;
    PowerNet net;
    net.train(X, ids, y, cfg);
    const std::vector<float> pred = net.predict(X);
    EXPECT_GT(r2Score(y, pred), 0.95);
}

TEST(PowerNet, LearnsNonlinearInteraction)
{
    // y depends on an AND of two features — out of reach for a linear
    // model with these two features alone, easy for the net.
    const size_t n = 4000;
    BitColumnMatrix X(n, 2);
    Xoshiro256StarStar rng(13);
    std::vector<float> y(n);
    for (size_t r = 0; r < n; ++r) {
        const bool a = rng.nextDouble() < 0.5;
        const bool b = rng.nextDouble() < 0.5;
        if (a)
            X.setBit(r, 0);
        if (b)
            X.setBit(r, 1);
        y[r] = (a && b) ? 3.0f : 1.0f;
    }
    NeuralNetConfig cfg;
    cfg.epochs = 60;
    cfg.hidden1 = 8;
    cfg.hidden2 = 4;
    PowerNet net;
    net.train(X, std::vector<uint32_t>{0, 1}, y, cfg);
    const std::vector<float> pred = net.predict(X);
    EXPECT_GT(r2Score(y, pred), 0.95);
}

TEST(PowerNet, DeterministicTraining)
{
    const BitColumnMatrix X = groupedColumns(500, 10, 3, 99);
    std::vector<float> y(X.rows());
    for (size_t r = 0; r < X.rows(); ++r)
        y[r] = static_cast<float>(X.get(r, 0) + 2 * X.get(r, 10));
    std::vector<uint32_t> ids(X.cols());
    for (size_t c = 0; c < X.cols(); ++c)
        ids[c] = static_cast<uint32_t>(c);

    NeuralNetConfig cfg;
    cfg.epochs = 3;
    PowerNet a;
    a.train(X, ids, y, cfg);
    PowerNet b;
    b.train(X, ids, y, cfg);
    const auto pa = a.predict(X);
    const auto pb = b.predict(X);
    for (size_t i = 0; i < pa.size(); ++i)
        ASSERT_EQ(pa[i], pb[i]) << "nondeterministic training";
}

} // namespace
} // namespace apollo
