/**
 * @file
 * Design-time power introspection at workload scale (§5, §8.1): trace a
 * long multi-phase workload through the *streaming* emulator-assisted
 * flow (proxy bits generated chunk by chunk, per-cycle power delivered
 * to a sink — the full power trace never materializes), dump a VCD of
 * the proxies for waveform tools, and use the model for a relative
 * microarchitecture comparison (§7.3: unbiased predictions make
 * relative comparisons trustworthy) — here, the power cost of the
 * three throttling schemes across the whole workload.
 *
 * Run: ./examples/design_space_tracing
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apollo.hh"

using namespace apollo;

namespace {

/**
 * Online power profiler: consumes the per-cycle stream and keeps only
 * reductions — the running mean, a coarse phase profile, and 64-cycle
 * window means for the sustained-peak percentile. Memory is O(cycles /
 * 64) regardless of how the engine chunks the trace.
 */
class ProfileSink final : public PowerSink
{
  public:
    Status
    consume(uint64_t, std::span<const float> values) override
    {
        for (const float v : values) {
            sum_ += v;
            ++count_;
            winAcc_ += v;
            if (++winFill_ == 64) {
                windows_.push_back(winAcc_ / 64);
                winAcc_ = 0.0;
                winFill_ = 0;
            }
            phaseAcc_ += v;
            if (++phaseFill_ == kPhase) {
                phases_.push_back(phaseAcc_ / kPhase);
                phaseAcc_ = 0.0;
                phaseFill_ = 0;
            }
        }
        return Status::okStatus();
    }

    double
    meanPower() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /** 99.5th percentile of 64-cycle window means (sustained peak). */
    double
    peakPower() const
    {
        std::vector<double> sorted = windows_;
        std::sort(sorted.begin(), sorted.end());
        return sorted.empty()
                   ? 0.0
                   : sorted[static_cast<size_t>(
                         0.995 * (sorted.size() - 1))];
    }

    static constexpr size_t kPhase = 2000;
    const std::vector<double> &
    phases() const
    {
        return phases_;
    }

  private:
    double sum_ = 0.0;
    uint64_t count_ = 0;
    double winAcc_ = 0.0;
    size_t winFill_ = 0;
    std::vector<double> windows_;
    double phaseAcc_ = 0.0;
    size_t phaseFill_ = 0;
    std::vector<double> phases_;
};

} // namespace

int
main()
{
    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());

    // Train once.
    DatasetBuilder builder(netlist);
    Xoshiro256StarStar rng(31337);
    for (int i = 0; i < 18; ++i) {
        builder.addProgram(
            Program::makeLoop("t" + std::to_string(i),
                              GaGenerator::randomBody(rng, 6, 24), 4000,
                              rng()),
            300);
    }
    const Trainer trainer(TrainOptions().targetQ(40));
    const ApolloModel model =
        trainer.train(builder.build(), netlist.name()).model;

    // Streaming emulator-assisted tracing of a long workload: the sink
    // reduces the power stream online, so peak memory is bounded by
    // the chunk size rather than the workload length.
    DesignTimeFlows flows(netlist);
    const Program workload = makeLongWorkload("workload", 120000, 4);
    ProfileSink profile;
    const FlowReport trace =
        flows.runEmulatorFlowStreaming(workload, 100000, model, profile);
    std::printf("traced %llu cycles in %.2fs (%.0f kcycles/s); proxy "
                "trace %.2f MB vs %.1f MB for all signals\n",
                static_cast<unsigned long long>(trace.cycles),
                trace.totalSeconds(),
                trace.cycles / trace.totalSeconds() / 1e3,
                trace.traceBytes / 1e6,
                static_cast<double>(netlist.signalCount()) *
                    trace.cycles / 8 / 1e6);

    // Phase profile, reduced online by the sink.
    std::printf("\nwindowed power profile (one row per %zu cycles):\n",
                ProfileSink::kPhase);
    const size_t shown = std::min<size_t>(profile.phases().size(), 20);
    for (size_t w = 0; w < shown; ++w) {
        const double acc = profile.phases()[w];
        std::printf("  %7zu %7.3f %s\n", w * ProfileSink::kPhase, acc,
                    std::string(static_cast<size_t>(acc * 30), '#')
                        .c_str());
    }

    // Dump the first 2000 cycles of proxy activity as VCD (opens in
    // GTKWave etc.).
    {
        DatasetBuilder wl(netlist);
        wl.addProgram(workload, 2000);
        const auto begin_of = wl.segmentBeginTable();
        const BitColumnMatrix bits = DatasetBuilder::traceProxies(
            wl.engine(), wl.frames(), model.proxyIds, begin_of);
        std::ofstream os("proxies.vcd");
        VcdWriter vcd(os, netlist, model.proxyIds);
        vcd.writeHeader();
        for (size_t i = 0; i < bits.rows(); ++i) {
            BitVector row(bits.cols());
            for (size_t q = 0; q < bits.cols(); ++q)
                if (bits.get(i, q))
                    row.setBit(q);
            vcd.writeCycle(row);
        }
        vcd.finish();
        std::printf("\nwrote proxies.vcd (%llu cycles x %zu proxies)\n",
                    static_cast<unsigned long long>(
                        vcd.cyclesWritten()),
                    model.proxyCount());
    }

    // Relative microarchitecture comparison: throttling schemes over
    // the full workload, measured purely with the model. Each variant
    // streams through its own sink; no power vector is ever allocated.
    std::printf("\nthrottling-scheme comparison over the workload "
                "(model-only, no sign-off runs). Throttling caps the "
                "*peak*; dependence-bound phases keep their average:\n");
    const double base_mean = profile.meanPower();
    const double base_peak = profile.peakPower();
    std::printf("  %-10s avg %.3f  peak(p99.5/64cyc) %.3f\n",
                "baseline", base_mean, base_peak);
    for (auto [mode, name] :
         {std::pair{ThrottleMode::Scheme1, "scheme 1"},
          std::pair{ThrottleMode::Scheme2, "scheme 2"},
          std::pair{ThrottleMode::Scheme3, "scheme 3"}}) {
        CoreParams params;
        params.throttle = mode;
        DesignTimeFlows tflows(netlist, params);
        ProfileSink tp;
        tflows.runEmulatorFlowStreaming(workload, 100000, model, tp);
        std::printf("  %-10s avg %.3f (%5.1f%%)  peak %.3f (%5.1f%%)\n",
                    name, tp.meanPower(),
                    100.0 * tp.meanPower() / base_mean, tp.peakPower(),
                    100.0 * tp.peakPower() / base_peak);
    }
    return 0;
}
