/**
 * @file
 * PowerNet: a from-scratch nonlinear power model over *all* flip-flop
 * toggles — the PRIMAL-class baseline [79]. PRIMAL's best model is a
 * CNN over register toggles; we substitute a two-hidden-layer MLP
 * trained with Adam (documented in DESIGN.md §2): like the CNN it is a
 * dense nonlinear model over every flip-flop, accurate but requiring
 * the full signal vector at inference — which is exactly why it is
 * orders of magnitude more expensive than APOLLO at design time and a
 * non-starter as a runtime OPM.
 *
 * Training is deterministic: batches are sharded into fixed chunks whose
 * gradients are reduced in chunk order.
 */

#ifndef APOLLO_ML_NEURAL_NET_HH
#define APOLLO_ML_NEURAL_NET_HH

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitvec.hh"

namespace apollo {

/** Trainer hyper-parameters. */
struct NeuralNetConfig
{
    uint32_t hidden1 = 64;
    uint32_t hidden2 = 32;
    uint32_t epochs = 10;
    uint32_t batchSize = 128;
    float learningRate = 3e-3f;
    float l2 = 5e-4f;
    uint64_t seed = 0x27e7ULL;
};

/** The fitted network. */
class PowerNet
{
  public:
    /**
     * Train on dataset @p X (cycles x all-signals) restricted to input
     * columns @p input_ids (the flip-flop signals), labels @p y.
     */
    void train(const BitColumnMatrix &X,
               std::span<const uint32_t> input_ids,
               std::span<const float> y,
               const NeuralNetConfig &config = NeuralNetConfig{});

    /** Predict power for every row of @p X (same column space). */
    std::vector<float> predict(const BitColumnMatrix &X) const;

    size_t inputCount() const { return inputIds_.size(); }
    const std::vector<uint32_t> &inputIds() const { return inputIds_; }

  private:
    /** Forward pass; returns standardized prediction. */
    float forward(const std::vector<uint32_t> &active, float *h1,
                  float *h2) const;

    std::vector<uint32_t> inputIds_;
    uint32_t h1_ = 0;
    uint32_t h2_ = 0;
    std::vector<float> w1_; ///< F x h1 (row per input)
    std::vector<float> b1_;
    std::vector<float> w2_; ///< h1 x h2
    std::vector<float> b2_;
    std::vector<float> w3_; ///< h2
    float b3_ = 0.f;
    float yMean_ = 0.f;
    float yStd_ = 1.f;
};

} // namespace apollo

#endif // APOLLO_ML_NEURAL_NET_HH
