#include "ml/neural_net.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace apollo {

namespace {

/** Extract per-sample active input index lists for the given columns. */
std::vector<std::vector<uint32_t>>
extractActiveSets(const BitColumnMatrix &X,
                  std::span<const uint32_t> input_ids)
{
    std::vector<std::vector<uint32_t>> active(X.rows());
    for (uint32_t f = 0; f < input_ids.size(); ++f) {
        X.forEachSetBit(input_ids[f], [&](size_t row) {
            active[row].push_back(f);
        });
    }
    return active;
}

/** Adam state for one parameter tensor. */
struct AdamState
{
    std::vector<float> m;
    std::vector<float> v;

    explicit AdamState(size_t n) : m(n, 0.f), v(n, 0.f) {}

    void
    apply(std::vector<float> &param, const std::vector<float> &grad,
          float lr, float l2, uint64_t step)
    {
        constexpr float beta1 = 0.9f;
        constexpr float beta2 = 0.999f;
        constexpr float eps = 1e-8f;
        const float bc1 =
            1.f - std::pow(beta1, static_cast<float>(step));
        const float bc2 =
            1.f - std::pow(beta2, static_cast<float>(step));
        for (size_t i = 0; i < param.size(); ++i) {
            const float g = grad[i] + l2 * param[i];
            m[i] = beta1 * m[i] + (1.f - beta1) * g;
            v[i] = beta2 * v[i] + (1.f - beta2) * g * g;
            param[i] -=
                lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + eps);
        }
    }
};

/** Flat gradient buffers for one chunk. */
struct GradBuffers
{
    std::vector<float> w1, b1, w2, b2, w3;
    float b3 = 0.f;

    GradBuffers(size_t n1, size_t nb1, size_t n2, size_t nb2, size_t n3)
        : w1(n1, 0.f), b1(nb1, 0.f), w2(n2, 0.f), b2(nb2, 0.f),
          w3(n3, 0.f)
    {}

    void
    clear()
    {
        std::fill(w1.begin(), w1.end(), 0.f);
        std::fill(b1.begin(), b1.end(), 0.f);
        std::fill(w2.begin(), w2.end(), 0.f);
        std::fill(b2.begin(), b2.end(), 0.f);
        std::fill(w3.begin(), w3.end(), 0.f);
        b3 = 0.f;
    }
};

} // namespace

float
PowerNet::forward(const std::vector<uint32_t> &active, float *h1,
                  float *h2) const
{
    for (uint32_t u = 0; u < h1_; ++u)
        h1[u] = b1_[u];
    for (uint32_t f : active) {
        const float *row = &w1_[static_cast<size_t>(f) * h1_];
        for (uint32_t u = 0; u < h1_; ++u)
            h1[u] += row[u];
    }
    for (uint32_t u = 0; u < h1_; ++u)
        h1[u] = std::max(0.f, h1[u]);

    for (uint32_t u = 0; u < h2_; ++u)
        h2[u] = b2_[u];
    for (uint32_t u = 0; u < h1_; ++u) {
        if (h1[u] == 0.f)
            continue;
        const float *row = &w2_[static_cast<size_t>(u) * h2_];
        for (uint32_t t = 0; t < h2_; ++t)
            h2[t] += h1[u] * row[t];
    }
    float out = b3_;
    for (uint32_t t = 0; t < h2_; ++t) {
        h2[t] = std::max(0.f, h2[t]);
        out += w3_[t] * h2[t];
    }
    return out;
}

void
PowerNet::train(const BitColumnMatrix &X,
                std::span<const uint32_t> input_ids,
                std::span<const float> y, const NeuralNetConfig &config)
{
    APOLLO_REQUIRE(!input_ids.empty(), "no input signals");
    APOLLO_REQUIRE(X.rows() == y.size(), "rows/labels mismatch");
    const size_t n = X.rows();
    const size_t f = input_ids.size();
    inputIds_.assign(input_ids.begin(), input_ids.end());
    h1_ = config.hidden1;
    h2_ = config.hidden2;

    // Label standardization.
    double mu = 0.0;
    for (float v : y)
        mu += v;
    mu /= static_cast<double>(n);
    double var = 0.0;
    for (float v : y)
        var += (v - mu) * (v - mu);
    yMean_ = static_cast<float>(mu);
    yStd_ = static_cast<float>(
        std::sqrt(std::max(1e-12, var / static_cast<double>(n))));

    // He-style init.
    Xoshiro256StarStar rng(config.seed);
    auto init = [&](std::vector<float> &w, size_t count, size_t fan_in) {
        w.resize(count);
        const float scale =
            std::sqrt(2.f / static_cast<float>(fan_in));
        for (float &x : w)
            x = scale * static_cast<float>(rng.nextGaussian());
    };
    // First-layer fan-in is the typical active count, not F.
    init(w1_, f * h1_, 256);
    b1_.assign(h1_, 0.f);
    init(w2_, static_cast<size_t>(h1_) * h2_, h1_);
    b2_.assign(h2_, 0.f);
    init(w3_, h2_, h2_);
    b3_ = 0.f;

    const std::vector<std::vector<uint32_t>> active =
        extractActiveSets(X, input_ids);

    // Shuffled sample order, re-shuffled per epoch.
    std::vector<uint32_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = static_cast<uint32_t>(i);

    AdamState s_w1(w1_.size()), s_b1(b1_.size()), s_w2(w2_.size()),
        s_b2(b2_.size()), s_w3(w3_.size()), s_b3(1);
    std::vector<float> g_b3_vec(1, 0.f);
    std::vector<float> p_b3_vec(1, b3_);

    const size_t batch = config.batchSize;
    const size_t n_chunks =
        std::max<size_t>(1, ThreadPool::global().threadCount());
    std::vector<GradBuffers> chunk_grads;
    chunk_grads.reserve(n_chunks);
    for (size_t c = 0; c < n_chunks; ++c)
        chunk_grads.emplace_back(w1_.size(), b1_.size(), w2_.size(),
                                 b2_.size(), w3_.size());

    GradBuffers total(w1_.size(), b1_.size(), w2_.size(), b2_.size(),
                      w3_.size());

    uint64_t step = 0;
    for (uint32_t epoch = 0; epoch < config.epochs; ++epoch) {
        // Fisher-Yates shuffle.
        for (size_t i = n; i > 1; --i)
            std::swap(order[i - 1], order[rng.nextBounded(i)]);

        for (size_t b0 = 0; b0 < n; b0 += batch) {
            const size_t b1_end = std::min(n, b0 + batch);
            const size_t bsz = b1_end - b0;
            const size_t per_chunk = (bsz + n_chunks - 1) / n_chunks;

            // Deterministic parallel chunks.
            parallelFor(n_chunks, [&](size_t c0, size_t c1) {
                for (size_t c = c0; c < c1; ++c) {
                    GradBuffers &g = chunk_grads[c];
                    g.clear();
                    const size_t s_begin = b0 + c * per_chunk;
                    const size_t s_end =
                        std::min(b1_end, s_begin + per_chunk);
                    std::vector<float> h1(h1_), h2(h2_), dh1(h1_),
                        dh2(h2_);
                    for (size_t s = s_begin; s < s_end; ++s) {
                        const uint32_t row = order[s];
                        const float target =
                            (y[row] - yMean_) / yStd_;
                        const float pred =
                            forward(active[row], h1.data(), h2.data());
                        const float dout = 2.f * (pred - target) /
                            static_cast<float>(bsz);

                        g.b3 += dout;
                        for (uint32_t t = 0; t < h2_; ++t) {
                            g.w3[t] += dout * h2[t];
                            dh2[t] = h2[t] > 0.f ? dout * w3_[t] : 0.f;
                            g.b2[t] += dh2[t];
                        }
                        for (uint32_t u = 0; u < h1_; ++u) {
                            float acc = 0.f;
                            const float *row2 =
                                &w2_[static_cast<size_t>(u) * h2_];
                            float *grow2 =
                                &g.w2[static_cast<size_t>(u) * h2_];
                            for (uint32_t t = 0; t < h2_; ++t) {
                                grow2[t] += dh2[t] * h1[u];
                                acc += dh2[t] * row2[t];
                            }
                            dh1[u] = h1[u] > 0.f ? acc : 0.f;
                            g.b1[u] += dh1[u];
                        }
                        for (uint32_t ff : active[row]) {
                            float *grow =
                                &g.w1[static_cast<size_t>(ff) * h1_];
                            for (uint32_t u = 0; u < h1_; ++u)
                                grow[u] += dh1[u];
                        }
                    }
                }
            });

            // Ordered reduction keeps training bit-deterministic.
            total.clear();
            for (const GradBuffers &g : chunk_grads) {
                for (size_t i = 0; i < total.w1.size(); ++i)
                    total.w1[i] += g.w1[i];
                for (size_t i = 0; i < total.b1.size(); ++i)
                    total.b1[i] += g.b1[i];
                for (size_t i = 0; i < total.w2.size(); ++i)
                    total.w2[i] += g.w2[i];
                for (size_t i = 0; i < total.b2.size(); ++i)
                    total.b2[i] += g.b2[i];
                for (size_t i = 0; i < total.w3.size(); ++i)
                    total.w3[i] += g.w3[i];
                total.b3 += g.b3;
            }

            step++;
            s_w1.apply(w1_, total.w1, config.learningRate, config.l2,
                       step);
            s_b1.apply(b1_, total.b1, config.learningRate, 0.f, step);
            s_w2.apply(w2_, total.w2, config.learningRate, config.l2,
                       step);
            s_b2.apply(b2_, total.b2, config.learningRate, 0.f, step);
            s_w3.apply(w3_, total.w3, config.learningRate, config.l2,
                       step);
            g_b3_vec[0] = total.b3;
            p_b3_vec[0] = b3_;
            s_b3.apply(p_b3_vec, g_b3_vec, config.learningRate, 0.f,
                       step);
            b3_ = p_b3_vec[0];
        }
    }
}

std::vector<float>
PowerNet::predict(const BitColumnMatrix &X) const
{
    APOLLO_REQUIRE(!inputIds_.empty(), "train() first");
    const std::vector<std::vector<uint32_t>> active =
        extractActiveSets(X, inputIds_);
    std::vector<float> out(X.rows());
    parallelFor(X.rows(), [&](size_t i0, size_t i1) {
        std::vector<float> h1(h1_), h2(h2_);
        for (size_t i = i0; i < i1; ++i) {
            const float pred = forward(active[i], h1.data(), h2.data());
            out[i] = pred * yStd_ + yMean_;
        }
    });
    return out;
}

} // namespace apollo
