/**
 * @file
 * design_n1: the model-construction flow at the repo's N1 scale
 * (M ~ 23.7k signals). One operation is the whole flow:
 *
 *   generateTrainingSet (GA, power-uniform export)
 *   -> designer test suite build (DatasetBuilder: core, activity and
 *      power simulation)
 *   -> Trainer::train at Q = 159 (MCP selection + ridge relaxation)
 *   -> quantizeModel at B = 10
 *   -> held-out evaluation (float model per cycle, OPM at T = 32).
 *
 * Operation i runs the flow on GA input (seed, i). Set-up builds the
 * netlist only; no streaming or serving code runs. Every flow's
 * held-out accuracy must stay under a ceiling, so a corrupted model
 * fails the run.
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "workloads.hh"

namespace perfbench {

namespace {

using namespace apollo;

constexpr size_t kTargetQ = 159;
constexpr uint32_t kOpmBits = 10;
constexpr uint32_t kOpmWindow = 32;
/**
 * Accuracy is reported over GA inputs 0 .. kAccuracyInputs-1 of the
 * seed, which every run reaches, so it does not depend on how many
 * flows fit in the run.
 */
constexpr size_t kAccuracyInputs = 2;
/**
 * Held-out NRMSE ceilings of one flow. Correct flows stay near 8% and
 * 3% (per-cycle, OPM); a wrong model lands far above.
 */
constexpr double kMaxTestNrmsePct = 15.0;
constexpr double kMaxOpmNrmsePct = 6.0;

/** The GA budgets of the repo's N1 training context (§4.1). */
TrainingGenOptions
trainingOptions(uint64_t seed)
{
    TrainingGenOptions opts;
    opts.ga.populationSize = 30;
    opts.ga.generations = 10;
    opts.ga.fitnessCycles = 600;
    opts.ga.fitnessSignalStride = 4;
    opts.ga.seed = hashCombine(0x6a6aULL, seed);
    opts.benchmarks = 60;
    opts.cyclesEach = 500;
    return opts;
}

/** Everything one flow produces that the checks and metrics need. */
struct FlowResult
{
    double wall = 0.0;
    double cpu = 0.0;
    double datagen = 0.0;
    GaRunStats ga;
    uint64_t exportSimCycles = 0;
    double testset = 0.0;
    double sim = 0.0;
    uint64_t simCycles = 0;
    ApolloTrainResult trained;
    double quantize = 0.0;
    double eval = 0.0;
    double testNrmsePct = 0.0;
    double opmNrmsePct = 0.0;
    uint64_t digest = 0;
    Dataset train; ///< for the selectProxies reproduction check
};

/** Digest of the trained model: support, weights and intercept. */
uint64_t
modelDigest(const ApolloModel &model)
{
    uint64_t h = fnv1a(model.proxyIds.data(),
                       model.proxyIds.size() * sizeof(uint32_t));
    h = fnv1a(model.weights.data(), model.weights.size() * sizeof(float), h);
    return fnv1a(&model.intercept, sizeof(model.intercept), h);
}

FlowResult
runFlow(const Netlist &netlist, uint64_t seed, Report &report)
{
    FlowResult r;
    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();

    StatusOr<TrainingGenReport> gen = Status::invalidArgument("not run");
    r.datagen = timed("gen", "generateTrainingSet", [&] {
        gen = generateTrainingSet(netlist, trainingOptions(seed));
    });
    if (!report.check(gen.ok(), "generateTrainingSet: " +
                                    gen.status().toString()))
        return r;
    r.ga = gen->gaStats;
    r.exportSimCycles = gen->exportSimulatedCycles;
    r.train = std::move(gen->dataset);

    Dataset test;
    {
        Span build("uarch", "DatasetBuilder::testSuite");
        DatasetBuilder builder(netlist);
        for (const TestBenchmark &bench : designerTestSuite()) {
            r.sim += timed("uarch", "DatasetBuilder::addProgram", [&] {
                r.simCycles +=
                    builder.addProgram(bench.program, bench.cycles,
                                       bench.throttle)
                        .cycles;
            });
        }
        timed("uarch", "DatasetBuilder::build",
              [&] { test = builder.build(); });
        r.testset = build.stop();
    }

    timed("core", "Trainer::train", [&] {
        r.trained = Trainer(TrainOptions().targetQ(kTargetQ))
                        .train(r.train, netlist.name());
    });
    const ApolloModel &model = r.trained.model;

    QuantizedModel qmodel;
    r.quantize = timed("opm", "quantizeModel",
                       [&] { qmodel = quantizeModel(model, kOpmBits); });

    std::vector<float> pred;
    timed("core", "Inference::predictFull",
          [&] { pred = Inference(model).predictFull(test.X); });
    std::vector<float> opm;
    {
        Span eval("opm", "Inference::predict");
        const BitColumnMatrix Xq = test.X.selectColumns(model.proxyIds);
        opm = Inference(qmodel, kOpmWindow).predict(Xq);
        r.eval = eval.stop();
    }
    r.wall = secondsSince(t0);
    r.cpu = cpuSeconds() - cpu0;

    // Accuracy against the held-out ground truth (not timed).
    r.testNrmsePct = 100.0 * nrmse(test.y, pred);
    const SegmentInfo whole{"", 0, test.cycles()};
    StatusOr<std::vector<float>> truth = windowAverageLabels(
        test.y, kOpmWindow, std::span<const SegmentInfo>(&whole, 1));
    if (report.check(truth.ok() && truth->size() == opm.size(),
                     "OPM windows do not align with the held-out labels"))
        r.opmNrmsePct = 100.0 * nrmse(*truth, opm);
    r.digest = modelDigest(model);
    report.check(model.proxyCount() == kTargetQ,
                 "trained model does not have Q proxies");
    report.check(std::isfinite(r.testNrmsePct) && r.testNrmsePct > 0.0 &&
                     std::isfinite(r.opmNrmsePct) && r.opmNrmsePct > 0.0,
                 "held-out NRMSE is not a positive number");
    report.check(r.testNrmsePct <= kMaxTestNrmsePct &&
                     r.opmNrmsePct <= kMaxOpmNrmsePct,
                 "held-out NRMSE above its ceiling");
    std::fprintf(stderr,
                 "[design_n1] flow %.2f s: test NRMSE %.3f%%, OPM NRMSE "
                 "%.3f%%\n",
                 r.wall, r.testNrmsePct, r.opmNrmsePct);
    return r;
}

} // namespace

Report
runDesignN1(const RunContext &ctx)
{
    Report report;
    std::unique_ptr<Netlist> netlist;
    std::vector<FlowResult> flows;
    // Operation i runs the flow on GA input i of this seed, so one run
    // spans several inputs; training sets are dropped once measured.
    const Measured m = measure(
        ctx, 1,
        [&](int) {
            netlist = std::make_unique<Netlist>(
                DesignBuilder::build(DesignConfig::neoverseN1ish()));
            return true;
        },
        true, kAccuracyInputs,
        [&](size_t i, bool) {
            report.attempt();
            flows.push_back(runFlow(*netlist, hashCombine(ctx.seed, i),
                                    report));
            flows.back().train = Dataset{};
            return flows.back().wall;
        });

    // Correctness (untimed): the first input's flow again yields the
    // same model digest, and the public selectProxies call reproduces
    // its selection.
    report.attempt();
    const FlowResult again = runFlow(*netlist, hashCombine(ctx.seed, 0),
                                     report);
    report.check(again.digest == flows.front().digest,
                 "model digest differs between two flows of one input");
    if (again.train.cycles() > 0) {
        BitFeatureView view(again.train.X);
        const ProxySelection sel = selectProxies(
            view, again.train.y,
            TrainOptions().targetQ(kTargetQ).config().selection);
        const ProxySelection &trained = again.trained.selection;
        report.check(sel.proxyIds == trained.proxyIds &&
                         sel.sparseModel.w == trained.sparseModel.w &&
                         sel.sparseModel.intercept ==
                             trained.sparseModel.intercept,
                     "selectProxies does not reproduce the selection");
        report.check(trained.proxyIds == again.trained.model.proxyIds,
                     "model proxies differ from the selection");
    }

    auto med = [&](auto field) {
        std::vector<double> v;
        for (const FlowResult &f : flows)
            v.push_back(static_cast<double>(field(f)));
        return median(v);
    };
    if (!ctx.trace) {
        report.add("setup_s", m.setupSeconds, "s");
        std::vector<double> wall, cpu;
        for (const FlowResult &f : flows) {
            wall.push_back(f.wall);
            cpu.push_back(f.cpu);
        }
        report.add("wall_s", trimmedMean(wall), "s");
        report.add("cpu_s", trimmedMean(cpu), "s");
        report.add("peak_rss_mb", peakRssMb(), "MiB");
        return report;
    }

    // Accuracy of the fixed inputs, then per-layer metrics from the
    // traced flows (the second half).
    double test = 0.0, opm = 0.0;
    for (size_t i = 0; i < kAccuracyInputs; ++i) {
        test += flows[i].testNrmsePct / kAccuracyInputs;
        opm += flows[i].opmNrmsePct / kAccuracyInputs;
    }
    report.add("core.test_nrmse_pct", test, "%");
    report.add("opm.nrmse_pct", opm, "%");
    flows.erase(flows.begin(), flows.end() - m.traced.tracedOps);
    report.add("gen.datagen_s", med([](auto &f) { return f.datagen; }), "s");
    report.add("gen.evaluations",
               med([](auto &f) { return f.ga.evaluations; }), "count");
    report.add("gen.cache_hit_rate",
               med([](auto &f) { return f.ga.hitRate(); }), "frac");
    report.add("gen.export_sim_cycles",
               med([](auto &f) { return f.exportSimCycles; }), "count");
    report.add("uarch.testset_build_s",
               med([](auto &f) { return f.testset; }), "s");
    report.add("uarch.sim_kcps",
               med([](auto &f) { return f.simCycles / f.sim / 1e3; }),
               "kcyc/s");
    report.add("core.select_s",
               med([](auto &f) { return f.trained.selectSeconds; }), "s");
    report.add("core.relax_s",
               med([](auto &f) { return f.trained.relaxSeconds; }), "s");
    auto diag = [&](auto field) {
        return med([&](auto &f) {
            return field(f.trained.selection.diagnostics);
        });
    };
    report.add("ml.sweeps", diag([](auto &d) { return d.totalSweeps; }),
               "count");
    report.add("ml.kkt_dots", diag([](auto &d) { return d.totalKktDots; }),
               "count");
    report.add("ml.path_points", diag([](auto &d) { return d.pathPoints; }),
               "count");
    report.add("opm.quantize_s", med([](auto &f) { return f.quantize; }),
               "s");
    report.add("opm.eval_s", med([](auto &f) { return f.eval; }), "s");
    report.add("bench.trace_overhead_frac", m.traced.overheadFrac, "frac");
    for (const auto &[layer, secs] :
         Tracer::instance().selfSecondsByLayer(m.traced.tracedOps))
        report.add(layer + ".self_s", secs, "s");
    writeTrace(ctx, "{\"apollo_counters\": " + m.traced.counterDeltas + "}");
    return report;
}

} // namespace perfbench
