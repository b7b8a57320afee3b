/**
 * @file
 * OPT headroom ablation: for each trace, I-cache and BTB misses under
 * LRU, GHRP and Belady's OPT (offline optimum with bypass). Reports
 * how much of the LRU-to-OPT gap GHRP captures — the honest upper
 * bound any online policy is fighting for (EXPERIMENTS.md fidelity
 * analysis).
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/opt.hh"
#include "stats/table.hh"

int
main(int argc, char **argv)
{
    using namespace ghrp;

    core::CliOptions cli(argc, argv);
    const core::SuiteOptions options =
        bench::suiteOptions(cli, 6, 4'000'000, "ablation_opt_headroom");
    const std::uint32_t num_traces = options.numTraces;

    std::printf("=== OPT headroom (cold caches, %u traces) ===\n\n",
                num_traces);
    stats::TextTable table({"trace", "LRU MPKI", "GHRP MPKI", "OPT MPKI",
                            "headroom %", "captured %"});

    // Legs: LRU, GHRP, OPT — I-cache MPKI from cold caches.
    frontend::FrontendConfig cfg = options.base;
    cfg.warmupFraction = 0.0;  // OPT replays the whole trace
    const auto sweep = bench::sweepLegs(
        options, 3, [&](std::size_t n, const trace::DecodedTrace &dec) {
            if (n == 2)
                return core::simulateOptIcache(dec, cfg.icache).mpki();
            frontend::FrontendConfig leg = cfg;
            leg.policy = n == 0 ? frontend::PolicyKind::Lru
                                : frontend::PolicyKind::Ghrp;
            return frontend::simulateDecoded(leg, dec).icacheMpki;
        });
    const std::vector<workload::TraceSpec> &specs = sweep.run.specs;

    double sum_headroom = 0, sum_captured = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const double lru = sweep.cells[i][0];
        const double ghrp = sweep.cells[i][1];
        const double opt = sweep.cells[i][2];
        const double headroom = lru > 0 ? (lru - opt) / lru * 100 : 0;
        const double captured =
            lru - opt > 1e-9 ? (lru - ghrp) / (lru - opt) * 100 : 0;
        sum_headroom += headroom;
        sum_captured += captured;

        table.addRow({specs[i].name, stats::TextTable::num(lru),
                      stats::TextTable::num(ghrp),
                      stats::TextTable::num(opt),
                      stats::TextTable::num(headroom, 1),
                      stats::TextTable::num(captured, 1)});
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("mean headroom %.1f%%; mean share captured by GHRP "
                "%.1f%%\n",
                sum_headroom / num_traces, sum_captured / num_traces);

    report::ReportBuilder builder("ablation_opt_headroom");
    for (std::size_t i = 0; i < specs.size(); ++i) {
        builder.addMetric(specs[i].name + "_lru_mpki", sweep.cells[i][0]);
        builder.addMetric(specs[i].name + "_ghrp_mpki", sweep.cells[i][1]);
        builder.addMetric(specs[i].name + "_opt_mpki", sweep.cells[i][2]);
    }
    builder.addMetric("mean_headroom_pct", sum_headroom / num_traces);
    builder.addMetric("mean_captured_pct", sum_captured / num_traces);
    builder.setSweep(sweep.run.wallSeconds, bench::effectiveJobs(options),
                     sweep.legs());
    bench::maybeWriteReport(cli, builder.finish());
    bench::writeTraceIfRequested(cli, "ablation_opt_headroom");
    return 0;
}
