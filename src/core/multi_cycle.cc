#include "core/multi_cycle.hh"

namespace apollo {

StatusOr<std::vector<float>>
MultiCycleModel::predictWindowsFull(
    const BitColumnMatrix &X, uint32_t T,
    std::span<const SegmentInfo> segments) const
{
    std::vector<float> sums(X.rows());
    if (Status st = base.sumColumns(X, ColumnLayout::Full, 0.0f, sums);
        !st.ok())
        return st;
    return windowAverages(sums, T, segments, base.intercept);
}

MultiCycleModel
trainMultiCycle(const Dataset &train, uint32_t tau,
                const ApolloTrainConfig &config,
                const std::string &design_name)
{
    MultiCycleModel model;
    model.tau = tau;
    if (tau == 1) {
        model.base = trainApollo(train, config, design_name).model;
        return model;
    }
    const CountDataset agg = aggregateIntervals(train, tau);
    model.base =
        trainApolloOnCounts(agg, config, design_name).model;
    return model;
}

StatusOr<std::vector<float>>
windowAverageLabels(std::span<const float> y, uint32_t T,
                    std::span<const SegmentInfo> segments)
{
    return windowAverages(y, T, segments);
}

} // namespace apollo
