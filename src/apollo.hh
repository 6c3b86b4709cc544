/**
 * @file
 * The APOLLO public umbrella header: include this one header and use
 * the entry-point layer — apollo::Trainer, apollo::Inference,
 * apollo::Flows — plus whatever substrate types the task needs.
 *
 * Layering:
 *  - Trainer    Fig. 5(a) model construction: MCP proxy selection +
 *               ridge relaxation, per-cycle or tau-aggregated
 *               (configured with the validated TrainOptions builder).
 *  - Inference  unified batch + streaming inference over a trained
 *               model (float design-time estimator or quantized OPM).
 *               Streaming pumps any ProxyChunkReader into any
 *               PowerSink with bounded memory and results
 *               bit-identical to the batch calls.
 *  - Flows      the Fig. 7 design-time flow comparisons, including the
 *               streaming emulator-assisted flow that never
 *               materializes the proxy trace.
 *  - serve::*   the serving layer: ModelRegistry + SessionManager
 *               multiplex N concurrent power-introspection sessions
 *               over shared immutable models, bit-identical to the
 *               one-stream engine, plus the versioned wire protocol
 *               behind `apollo_cli serve` (docs/SERVE_SCHEMA.md).
 *
 * Everything lives in namespace apollo. The per-module headers remain
 * valid includes; this header is the supported surface for examples,
 * benches, and external consumers.
 */

#ifndef APOLLO_APOLLO_HH
#define APOLLO_APOLLO_HH

// Substrate: utilities, ISA, RTL, microarchitecture, power.
#include "util/bitvec.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/status.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

#include "isa/instruction.hh"
#include "isa/program.hh"

#include "rtl/design_builder.hh"
#include "rtl/netlist.hh"
#include "rtl/signal.hh"

#include "uarch/activity_frame.hh"
#include "uarch/core.hh"
#include "uarch/throttle.hh"

#include "activity/activity_engine.hh"
#include "power/pdn_model.hh"
#include "power/power_oracle.hh"

// Traces and datasets.
#include "trace/dataset.hh"
#include "trace/dataset_io.hh"
#include "trace/stream_reader.hh"
#include "trace/toggle_trace.hh"
#include "trace/vcd.hh"

// Training-data generation.
#include "gen/ga_generator.hh"
#include "gen/test_suite.hh"

// Solvers and models.
#include "ml/coordinate_descent.hh"
#include "ml/feature_view.hh"
#include "ml/kmeans.hh"
#include "ml/metrics.hh"
#include "ml/neural_net.hh"
#include "ml/pca.hh"
#include "ml/penalty.hh"
#include "ml/solver_path.hh"

#include "core/abstract_model.hh"
#include "core/apollo_model.hh"
#include "core/apollo_trainer.hh"
#include "core/baselines.hh"
#include "core/counter_model.hh"
#include "core/multi_cycle.hh"
#include "core/proxy_selector.hh"

// The runtime OPM.
#include "opm/baseline_opms.hh"
#include "opm/hls_emitter.hh"
#include "opm/opm_hardware.hh"
#include "opm/opm_simulator.hh"
#include "opm/quantize.hh"

// Flows, streaming engine, droop analysis, closed-loop control.
#include "flow/flows.hh"
#include "flow/stream_engine.hh"
#include "droop/droop.hh"
#include "control/closed_loop.hh"
#include "control/droop_controller.hh"
#include "control/droop_lab.hh"

// The serving layer (v1): a model registry plus a session manager
// multiplexing N concurrent trace-to-power streams, with the
// versioned line-delimited wire form `apollo_cli serve` speaks
// (docs/SERVE_SCHEMA.md). Everything lives in namespace
// apollo::serve.
#include "serve/model_registry.hh"
#include "serve/serve_loop.hh"
#include "serve/session_manager.hh"
#include "serve/wire.hh"

namespace apollo {

/** Library version string ("<major>.<minor>"). */
const char *apolloVersion();

/**
 * Validated builder for the training configuration. Defaults (also the
 * ApolloTrainConfig/ProxySelectorConfig defaults):
 *
 *   targetQ            159     proxies to select (the paper's N1 Q)
 *   penalty            Mcp     selection penalty family
 *   gamma              10.0    MCP concavity
 *   nonneg             false   constrain weights to R+ (Eq. 1)
 *   relaxRidge         1e-3    weak L2 for the relaxation refit
 *   selectionCycleCap  0       selection-stage cycle subsample (0=off)
 *   screen             true    strong-rule screening in the CD solver
 *   parallel           true    parallel gradient/norm passes
 *
 * Setters validate eagerly (throwing FatalError on out-of-domain
 * values, the configuration-error regime) and chain:
 *
 *   Trainer trainer(TrainOptions().targetQ(40).nonneg(true));
 */
class TrainOptions
{
  public:
    TrainOptions() = default;

    TrainOptions &
    targetQ(size_t q)
    {
        APOLLO_REQUIRE(q > 0, "targetQ must be positive");
        config_.selection.targetQ = q;
        return *this;
    }

    TrainOptions &
    penalty(PenaltyKind kind)
    {
        config_.selection.kind = kind;
        return *this;
    }

    TrainOptions &
    gamma(double g)
    {
        APOLLO_REQUIRE(g > 1.0, "MCP gamma must exceed 1");
        config_.selection.gamma = g;
        return *this;
    }

    TrainOptions &
    nonneg(bool on)
    {
        config_.selection.nonneg = on;
        config_.relaxNonneg = on;
        return *this;
    }

    TrainOptions &
    relaxRidge(double ridge)
    {
        APOLLO_REQUIRE(ridge >= 0.0, "relax ridge must be >= 0");
        config_.relaxRidge = ridge;
        return *this;
    }

    TrainOptions &
    selectionCycleCap(size_t cap)
    {
        config_.selectionCycleCap = cap;
        return *this;
    }

    TrainOptions &
    screen(bool on)
    {
        config_.selection.screen = on;
        return *this;
    }

    TrainOptions &
    parallel(bool on)
    {
        config_.selection.parallel = on;
        return *this;
    }

    const ApolloTrainConfig &config() const { return config_; }

  private:
    ApolloTrainConfig config_;
};

/**
 * Entry point for model construction (Fig. 5(a)). Thin, stateless
 * facade over trainApollo/trainMultiCycle with a validated
 * configuration.
 */
class Trainer
{
  public:
    explicit Trainer(TrainOptions options = {})
        : config_(options.config())
    {}

    explicit Trainer(ApolloTrainConfig config)
        : config_(std::move(config))
    {}

    /** MCP selection + ridge relaxation on a per-cycle dataset. */
    ApolloTrainResult
    train(const Dataset &train_set,
          const std::string &design_name = "") const
    {
        return trainApollo(train_set, config_, design_name);
    }

    /** APOLLO_tau: train at interval size tau (§4.5). */
    MultiCycleModel
    trainTau(const Dataset &train_set, uint32_t tau,
             const std::string &design_name = "") const
    {
        return trainMultiCycle(train_set, tau, config_, design_name);
    }

    const ApolloTrainConfig &config() const { return config_; }

  private:
    ApolloTrainConfig config_;
};

/**
 * Unified batch + streaming inference over a trained model.
 *
 * Float engine (design-time estimator):
 *   Inference inf(result.model);
 *   auto p = inf.predict(proxies);              // per-cycle, batch
 *   inf.stream(reader, sink);                   // per-cycle, streaming
 *   inf.stream(reader, sink,
 *              StreamConfig().withWindowT(32)); // Eq. (9) windows
 *
 * Quantized engine (bit-true OPM):
 *   Inference opm(quantizeModel(result.model, 10), 32);
 *   auto hw = opm.predict(proxies);             // == ref::opmSimulate
 *   opm.stream(reader, sink);                   // same, bounded memory
 *
 * Streaming and batch calls produce bit-identical samples (see
 * flow/stream_engine.hh for the argument). Quantized batch and stream
 * run the same bit-parallel StreamPipeline; predict() is one
 * single-threaded whole-matrix chunk, so it may be called from inside
 * a parallelFor body.
 */
class Inference
{
  public:
    /** Float-weight engine over proxy-layout traces. */
    explicit Inference(ApolloModel model)
        : model_(std::move(model)), engine_(model_)
    {}

    /** Quantized fixed-point engine (one sample per T-cycle window). */
    Inference(QuantizedModel model, uint32_t window_T)
        : model_(model.toFloatModel()), qmodel_(std::move(model)),
          windowT_(window_T), engine_(*qmodel_, window_T)
    {}

    bool quantized() const { return qmodel_.has_value(); }
    size_t proxyCount() const { return model_.proxyIds.size(); }
    const ApolloModel &model() const { return model_; }

    /**
     * Batch inference over a proxy-layout matrix: per-cycle power for
     * the float engine, one bit-true sample per complete T-cycle
     * window for the quantized engine (trailing partial window
     * dropped). A column count other than proxyCount() is fatal.
     */
    std::vector<float> predict(const BitColumnMatrix &Xq) const;

    /** Per-cycle batch inference over a full M-column matrix. */
    std::vector<float>
    predictFull(const BitColumnMatrix &X) const
    {
        APOLLO_REQUIRE(!quantized(),
                       "predictFull is a float-engine call");
        return model_.predictFull(X);
    }

    /**
     * Eq. (9) batch inference: T-cycle window averages over the whole
     * trace (one segment, trailing partial window dropped). Like
     * predict(), data errors (a column count other than proxyCount(),
     * no full window) are fatal.
     */
    std::vector<float>
    predictWindows(const BitColumnMatrix &Xq, uint32_t T) const
    {
        APOLLO_REQUIRE(!quantized(),
                       "predictWindows is a float-engine call; the "
                       "quantized engine windows via predict()");
        std::vector<float> sums(Xq.rows());
        model_.sumColumns(Xq, ColumnLayout::Proxies, 0.0f, sums).orFatal();
        const SegmentInfo whole{"", 0, Xq.rows()};
        return windowAverages(sums, T,
                              std::span<const SegmentInfo>(&whole, 1),
                              model_.intercept)
            .value();
    }

    /**
     * Streaming inference: pump @p reader to exhaustion into @p sink
     * with bounded memory. The quantized engine always windows at its
     * construction T; the float engine windows iff config.windowT > 0.
     */
    StatusOr<StreamStats>
    stream(ProxyChunkReader &reader, PowerSink &sink,
           const StreamConfig &config = {}) const
    {
        return engine_.run(reader, sink, config);
    }

  private:
    ApolloModel model_;
    std::optional<QuantizedModel> qmodel_;
    uint32_t windowT_ = 0;
    StreamingInference engine_;
};

/**
 * Entry point for the Fig. 7 design-time flows, including the
 * streaming emulator-assisted flow (proxy bits generated chunk by
 * chunk, power delivered to a sink — nothing trace-length-sized is
 * ever resident).
 */
class Flows
{
  public:
    explicit Flows(const Netlist &netlist,
                   const CoreParams &core_params = CoreParams::defaults(),
                   const PowerParams &power_params = PowerParams{})
        : flows_(netlist, core_params, power_params)
    {}

    /** Fig. 7(a): all-signal trace + ground-truth power. */
    FlowReport
    commercial(const Program &prog, uint64_t max_cycles)
    {
        return flows_.runCommercialFlow(prog, max_cycles);
    }

    /** Fig. 7(b): all-signal trace + APOLLO model inference. */
    FlowReport
    apolloAssisted(const Program &prog, uint64_t max_cycles,
                   const ApolloModel &model)
    {
        return flows_.runApolloFlow(prog, max_cycles, model);
    }

    /** Fig. 7(c): proxy-only trace + model inference (streaming). */
    FlowReport
    emulatorAssisted(const Program &prog, uint64_t max_cycles,
                     const ApolloModel &model)
    {
        return flows_.runEmulatorFlow(prog, max_cycles, model);
    }

    /** Fig. 7(c) with caller-owned sink: power never materializes. */
    FlowReport
    emulatorStreaming(const Program &prog, uint64_t max_cycles,
                      const ApolloModel &model, PowerSink &sink,
                      const StreamConfig &config = {})
    {
        return flows_.runEmulatorFlowStreaming(prog, max_cycles, model,
                                               sink, config);
    }

  private:
    DesignTimeFlows flows_;
};

} // namespace apollo

#endif // APOLLO_APOLLO_HH
