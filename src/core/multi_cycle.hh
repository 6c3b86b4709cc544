/**
 * @file
 * Multi-cycle power modeling (§4.5). APOLLO_tau is trained on tau-cycle
 * averaged toggles/labels; at inference, Eq. (9) rearranges the T-cycle
 * window average so only per-cycle binary accumulate + a final divide
 * by T (a shift, since T is a power of two) is needed:
 *
 *   p_T = b + (1/T) * sum over the T cycles of sum_j w_j x_j[i]
 *
 * The same machinery expresses the two straw-man baselines of Fig. 11:
 * tau = 1 is "average of per-cycle predictions" and tau = T is
 * "averaged inputs".
 */

#ifndef APOLLO_CORE_MULTI_CYCLE_HH
#define APOLLO_CORE_MULTI_CYCLE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/apollo_model.hh"
#include "core/apollo_trainer.hh"
#include "trace/dataset.hh"
#include "util/status.hh"

namespace apollo {

/** APOLLO_tau: a linear model trained at interval size tau. */
struct MultiCycleModel
{
    ApolloModel base;
    uint32_t tau = 1;

    /**
     * Eq. (9) inference: window-average predictions over consecutive
     * T-cycle windows of a *full* per-cycle feature matrix; windows
     * never straddle the @p segments boundaries.
     *
     * Runs ApolloModel::sumColumns with start 0, then windowAverages
     * with the intercept as offset. Data errors return a Status
     * instead of aborting: those of windowAverages (bad T or segments,
     * no full window), and OutOfRange when a proxy id is not a column
     * of @p X.
     */
    StatusOr<std::vector<float>> predictWindowsFull(
        const BitColumnMatrix &X, uint32_t T,
        std::span<const SegmentInfo> segments) const;
};

/** Train APOLLO_tau from a per-cycle dataset. */
MultiCycleModel trainMultiCycle(const Dataset &train, uint32_t tau,
                                const ApolloTrainConfig &config,
                                const std::string &design_name = "");

/**
 * Ground-truth labels for Fig. 11: window-average power over
 * consecutive T-cycle windows (per segment, full windows only), i.e.
 * windowAverages(y, T, segments) with the same error contract.
 */
StatusOr<std::vector<float>> windowAverageLabels(
    std::span<const float> y, uint32_t T,
    std::span<const SegmentInfo> segments);

} // namespace apollo

#endif // APOLLO_CORE_MULTI_CYCLE_HH
