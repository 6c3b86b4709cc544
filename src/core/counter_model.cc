#include "core/counter_model.hh"

#include "ml/coordinate_descent.hh"
#include "util/logging.hh"

namespace apollo {

const char *
counterEventName(CounterEvent event)
{
    switch (event) {
      case CounterEvent::RetiredOps: return "retired_ops";
      case CounterEvent::IntIssue: return "int_issue";
      case CounterEvent::VecIssue: return "vec_issue";
      case CounterEvent::MemIssue: return "mem_issue";
      case CounterEvent::L1DActivity: return "l1d_activity";
      case CounterEvent::L2Activity: return "l2_activity";
      case CounterEvent::FrontendOps: return "frontend_ops";
      default: return "?";
    }
}

namespace {

/** One cycle's increments, as a hardware event counter would see them.
 *  Events are observed *post hoc* (retire/cache levels), i.e. later
 *  than the switching they correspond to — the latency that degrades
 *  fine-grained counter models. */
void
eventIncrements(const ActivityFrame &frame, float out[numCounterEvents])
{
    out[static_cast<size_t>(CounterEvent::RetiredOps)] =
        frame.act(UnitId::Retire);
    out[static_cast<size_t>(CounterEvent::IntIssue)] =
        frame.act(UnitId::IntAlu);
    out[static_cast<size_t>(CounterEvent::VecIssue)] =
        frame.act(UnitId::VecExec);
    out[static_cast<size_t>(CounterEvent::MemIssue)] =
        frame.act(UnitId::LoadStore);
    out[static_cast<size_t>(CounterEvent::L1DActivity)] =
        frame.act(UnitId::DCache);
    out[static_cast<size_t>(CounterEvent::L2Activity)] =
        frame.act(UnitId::L2Cache);
    out[static_cast<size_t>(CounterEvent::FrontendOps)] =
        frame.act(UnitId::Fetch);
}

} // namespace

CounterTrace
collectCounters(std::span<const ActivityFrame> frames,
                std::span<const float> power,
                const std::vector<SegmentInfo> &segments,
                uint32_t epoch_cycles)
{
    APOLLO_REQUIRE(frames.size() == power.size(),
                   "frames/labels mismatch");

    CounterTrace trace;
    trace.epochCycles = epoch_cycles;
    // Fatal on a zero epoch, segments that overrun the frames, or no
    // full epoch; the counter loop below then stays in bounds.
    trace.epochPower =
        windowAverages(power, epoch_cycles, segments).value();
    float inc[numCounterEvents];

    for (const SegmentInfo &seg : segments) {
        const size_t epochs = seg.cycles() / epoch_cycles;
        for (size_t e = 0; e < epochs; ++e) {
            float acc[numCounterEvents] = {};
            for (uint32_t t = 0; t < epoch_cycles; ++t) {
                eventIncrements(frames[seg.begin + e * epoch_cycles + t],
                                inc);
                for (size_t k = 0; k < numCounterEvents; ++k)
                    acc[k] += inc[k];
            }
            for (size_t k = 0; k < numCounterEvents; ++k)
                trace.counts.push_back(acc[k] / epoch_cycles);
            trace.epochs++;
        }
    }
    return trace;
}

std::vector<float>
CounterPowerModel::predict(const CounterTrace &trace) const
{
    APOLLO_REQUIRE(weights.size() == numCounterEvents,
                   "untrained counter model");
    std::vector<float> out;
    out.reserve(trace.epochs);
    for (size_t e = 0; e < trace.epochs; ++e) {
        double acc = intercept;
        for (size_t k = 0; k < numCounterEvents; ++k)
            acc += static_cast<double>(weights[k]) *
                   trace.counts[e * numCounterEvents + k];
        out.push_back(static_cast<float>(acc));
    }
    return out;
}

CounterPowerModel
trainCounterModel(const CounterTrace &trace, double ridge)
{
    APOLLO_REQUIRE(trace.epochs > numCounterEvents,
                   "too few epochs to fit");
    DenseColumnMatrix features(trace.epochs, numCounterEvents);
    for (size_t e = 0; e < trace.epochs; ++e)
        for (size_t k = 0; k < numCounterEvents; ++k)
            features.set(e, k,
                         trace.counts[e * numCounterEvents + k]);

    DenseFeatureView view(features);
    CdSolver solver(view, trace.epochPower);
    CdConfig cfg;
    cfg.penalty.kind = PenaltyKind::Ridge;
    cfg.penalty.lambda2 = ridge;
    cfg.maxSweeps = 600;
    cfg.tol = 1e-7;
    const CdResult fit = solver.fit(cfg);

    CounterPowerModel model;
    model.trainedEpochCycles = trace.epochCycles;
    model.intercept = fit.intercept;
    model.weights.assign(numCounterEvents, 0.0f);
    for (size_t k = 0; k < fit.w.size(); ++k)
        model.weights[k] = fit.w[k];
    return model;
}

} // namespace apollo
