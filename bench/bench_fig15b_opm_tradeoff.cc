/**
 * @file
 * Reproduces Fig. 15(b) and §7.5: the OPM area-overhead vs accuracy
 * (NRMSE) trade-off explored over the number of proxies Q and the
 * weight bit width B, measured with the bit-true OPM simulator and the
 * structural gate-area model. Paper anchors: accuracy loss is high for
 * B < 9 and negligible for B > 10; with B=10, Q=159 the OPM is 0.2% of
 * the core area, 0.9% of core power (0.5% logic + 0.4% proxy routing),
 * with a 2-cycle latency.
 */

#include <cstdio>
#include <iostream>

#include "common.hh"

using namespace apollo;
using namespace apollo::bench;

int
main()
{
    Context ctx = loadContext(Design::N1ish);
    printHeader("Fig. 15(b) / §7.5",
                "OPM area vs accuracy trade-off over (Q, B)", ctx);

    const std::vector<size_t> qs =
        ctx.fast ? std::vector<size_t>{50, 159}
                 : std::vector<size_t>{25, 50, 100, 159, 300};
    const std::vector<uint32_t> bit_widths = {4, 5, 6, 8, 9, 10, 12};

    // One MCP path serves every Q.
    BitFeatureView view(ctx.train.X);
    CdSolver solver(view, ctx.train.y);
    CdConfig cd;
    cd.penalty.kind = PenaltyKind::Mcp;
    cd.penalty.gamma = 10.0;
    const auto solutions = solveForTargetsQ(solver, cd, qs);

    TablePrinter table({"Q", "B", "area overhead", "NRMSE (bit-true)",
                        "float NRMSE", "quant. loss"});

    for (size_t k = 0; k < qs.size(); ++k) {
        const auto apollo = relaxProxySet(ctx.train,
                                          solutions[k].support(),
                                          ApolloTrainConfig{},
                                          ctx.netlist.name());
        const BitColumnMatrix proxies =
            ctx.test.X.selectColumns(apollo.model.proxyIds);
        const auto float_pred = apollo.model.predictProxies(proxies);
        const double float_nrmse = nrmse(ctx.test.y, float_pred);

        double toggle_rate = 0.0;
        for (size_t q = 0; q < proxies.cols(); ++q)
            toggle_rate += static_cast<double>(proxies.colPopcount(q)) /
                           proxies.rows();
        toggle_rate /= proxies.cols();

        for (uint32_t b : bit_widths) {
            const QuantizedModel qm = quantizeModel(apollo.model, b);
            const auto hw_pred = Inference(qm, 1).predict(proxies);
            const double hw_nrmse = nrmse(ctx.test.y, hw_pred);
            const OpmHardwareReport rep = analyzeOpmHardware(
                ctx.netlist, qm, 32, toggle_rate);
            table.addRow(
                {TablePrinter::integer(static_cast<long long>(qs[k])),
                 TablePrinter::integer(b),
                 TablePrinter::percent(rep.areaOverhead, 3),
                 TablePrinter::percent(hw_nrmse),
                 TablePrinter::percent(float_nrmse),
                 TablePrinter::percent(hw_nrmse - float_nrmse, 3)});
        }
    }
    table.render(std::cout);

    // §7.5 headline configuration.
    const size_t headline_idx =
        std::find(qs.begin(), qs.end(), 159) - qs.begin();
    if (headline_idx < qs.size()) {
        const auto apollo = relaxProxySet(ctx.train,
                                          solutions[headline_idx]
                                              .support(),
                                          ApolloTrainConfig{},
                                          ctx.netlist.name());
        const BitColumnMatrix proxies =
            ctx.test.X.selectColumns(apollo.model.proxyIds);
        double toggle_rate = 0.0;
        for (size_t q = 0; q < proxies.cols(); ++q)
            toggle_rate += static_cast<double>(proxies.colPopcount(q)) /
                           proxies.rows();
        toggle_rate /= proxies.cols();
        const QuantizedModel qm = quantizeModel(apollo.model, 10);
        const OpmHardwareReport rep =
            analyzeOpmHardware(ctx.netlist, qm, 32, toggle_rate);
        std::printf("\nheadline OPM (Q=159, B=10, T=32) vs nominal "
                    "%.1fM-gate core:\n",
                    ctx.netlist.nominalCoreGates() / 1e6);
        std::printf("  area: interface %.0f GE + compute %.0f GE + "
                    "accumulate %.0f GE + routing %.0f GE = %.0f GE "
                    "-> %.3f%% of core (paper: 0.2%%, <0.5%%)\n",
                    rep.interfaceGE, rep.computeGE, rep.accumGE,
                    rep.routingGE, rep.totalGE,
                    100.0 * rep.areaOverhead);
        std::printf("  power: logic %.2f%% + proxy routing %.2f%% = "
                    "%.2f%% of core power (paper: 0.5%% + 0.4%% = "
                    "0.9%%)\n",
                    100.0 * rep.logicPowerOverhead,
                    100.0 * rep.routingPowerOverhead,
                    100.0 * rep.totalPowerOverhead);
        std::printf("  latency: %u cycles (paper: 2 cycles)\n",
                    rep.latencyCycles);
    }
    return 0;
}
