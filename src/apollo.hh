/**
 * @file
 * The APOLLO public umbrella header: include this one header and use
 * the entry-point layer — apollo::Trainer, apollo::Inference,
 * apollo::DesignTimeFlows — plus whatever substrate types the task
 * needs.
 *
 * Layering:
 *  - Trainer    Fig. 5(a) model construction: MCP proxy selection +
 *               ridge relaxation, per-cycle or tau-aggregated
 *               (configured with the validated TrainOptions builder).
 *  - Inference  batch + streaming inference over a trained model
 *               (float design-time estimator or quantized OPM), in
 *               flow/stream_engine.hh. Streaming pumps any
 *               ProxyChunkReader into any PowerSink with bounded
 *               memory and results bit-identical to the batch calls.
 *  - DesignTimeFlows  the Fig. 7 design-time flow comparisons
 *               (flow/flows.hh), including the streaming
 *               emulator-assisted flow that never materializes the
 *               proxy trace.
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

// Design-time flows, inference engine, droop analysis, closed-loop
// control.
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

} // namespace apollo

#endif // APOLLO_APOLLO_HH
