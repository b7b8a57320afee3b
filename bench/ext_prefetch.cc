/**
 * @file
 * Extension: interaction of replacement policy and next-line
 * instruction prefetching (the context of the paper's related work,
 * Section II-E). Reports I-cache demand MPKI for LRU and GHRP with
 * prefetch degrees 0, 1 and 2. Prefetching absorbs the sequential
 * misses (scans, straight-line code); the replacement policy then
 * fights over what pollution the prefetcher adds.
 */

#include <cstdio>

#include "bench_common.hh"
#include "stats/running_stats.hh"
#include "stats/table.hh"

int
main(int argc, char **argv)
{
    using namespace ghrp;

    core::CliOptions cli(argc, argv);
    const core::SuiteOptions options =
        bench::suiteOptions(cli, 8, 0, "ext_prefetch");
    const std::uint32_t num_traces = options.numTraces;

    const std::uint32_t degrees[] = {0, 1, 2};

    // Leg 2d is LRU at degrees[d], leg 2d + 1 is GHRP.
    std::vector<frontend::FrontendConfig> legs;
    for (std::uint32_t degree : degrees) {
        frontend::FrontendConfig cfg = options.base;
        cfg.nextLinePrefetch = degree;
        cfg.policy = frontend::PolicyKind::Lru;
        legs.push_back(cfg);
        cfg.policy = frontend::PolicyKind::Ghrp;
        legs.push_back(cfg);
    }
    const auto sweep = bench::sweepConfigs(options, legs);

    stats::RunningStats lru_acc[3], ghrp_acc[3];
    for (const std::vector<frontend::FrontendResult> &row : sweep.cells) {
        for (std::size_t d = 0; d < std::size(degrees); ++d) {
            lru_acc[d].add(row[2 * d].icacheMpki);
            ghrp_acc[d].add(row[2 * d + 1].icacheMpki);
        }
    }

    std::printf("=== Extension: next-line prefetch x replacement "
                "(%u traces) ===\n\n",
                num_traces);
    stats::TextTable table({"prefetch degree", "LRU MPKI", "GHRP MPKI",
                            "GHRP vs LRU %"});
    for (std::size_t d = 0; d < std::size(degrees); ++d) {
        const double rel =
            lru_acc[d].mean() > 0
                ? (ghrp_acc[d].mean() - lru_acc[d].mean()) /
                      lru_acc[d].mean() * 100
                : 0;
        table.addRow({std::to_string(degrees[d]),
                      stats::TextTable::num(lru_acc[d].mean()),
                      stats::TextTable::num(ghrp_acc[d].mean()),
                      stats::TextTable::num(rel, 1)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Sequential prefetching absorbs the straight-line "
                "misses; what remains is\nthe reuse-limit traffic that "
                "replacement policy fights over.\n");

    report::ReportBuilder builder("ext_prefetch");
    for (std::size_t d = 0; d < std::size(degrees); ++d) {
        const std::string key = "degree" + std::to_string(degrees[d]);
        builder.addMetric(key + "_lru_mpki", lru_acc[d].mean());
        builder.addMetric(key + "_ghrp_mpki", ghrp_acc[d].mean());
    }
    builder.setSweep(sweep.run.wallSeconds, bench::effectiveJobs(options),
                     sweep.legs());
    bench::maybeWriteReport(cli, builder.finish());
    bench::writeTraceIfRequested(cli, "ext_prefetch");
    return 0;
}
