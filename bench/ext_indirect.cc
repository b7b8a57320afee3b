/**
 * @file
 * Future-work extension (paper Section VI): interaction with indirect
 * branch prediction. Compares indirect-target misprediction rates with
 * the BTB's last-seen target (the paper's baseline) against the
 * path-history-indexed indirect target predictor, under GHRP
 * replacement, and reports the effect on BTB MPKI.
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
        bench::suiteOptions(cli, 8, 0, "ext_indirect");
    const std::uint32_t num_traces = options.numTraces;

    // Leg 0: BTB last-seen target; leg 1: path-history target predictor.
    std::vector<frontend::FrontendConfig> legs(2, options.base);
    legs[0].policy = legs[1].policy = frontend::PolicyKind::Ghrp;
    legs[1].useIndirectPredictor = true;
    const auto sweep = bench::sweepConfigs(options, legs);
    const std::vector<workload::TraceSpec> &specs = sweep.run.specs;

    stats::RunningStats base_rate, itp_rate, base_mpki, itp_mpki;
    for (const std::vector<frontend::FrontendResult> &row : sweep.cells) {
        const frontend::FrontendResult &base = row[0];
        const frontend::FrontendResult &itp = row[1];
        if (base.indirectBranches > 0) {
            base_rate.add(100.0 *
                          static_cast<double>(base.indirectMispredicts) /
                          static_cast<double>(base.indirectBranches));
            itp_rate.add(100.0 *
                         static_cast<double>(itp.indirectMispredicts) /
                         static_cast<double>(itp.indirectBranches));
        }
        base_mpki.add(base.indirectMpki());
        itp_mpki.add(itp.indirectMpki());
    }

    std::printf("=== Extension: indirect target prediction (GHRP "
                "replacement, %u traces) ===\n\n",
                num_traces);
    stats::TextTable table({"scheme", "indirect mispredict %",
                            "indirect MPKI"});
    table.addRow({"BTB last-seen target",
                  stats::TextTable::num(base_rate.mean(), 2),
                  stats::TextTable::num(base_mpki.mean())});
    table.addRow({"+ path-history target predictor",
                  stats::TextTable::num(itp_rate.mean(), 2),
                  stats::TextTable::num(itp_mpki.mean())});
    std::printf("%s\n", table.render().c_str());
    std::printf("paper Section VI lists this interaction as future "
                "work; the polymorphic,\npath-correlated indirect sites "
                "(cyclic callee rotation in the workload)\nare exactly "
                "what last-target prediction cannot capture.\n");

    report::ReportBuilder builder("ext_indirect");
    for (std::size_t i = 0; i < specs.size(); ++i) {
        builder.addLeg(specs[i].name, "GHRP+last-target",
                       sweep.cells[i][0]);
        builder.addLeg(specs[i].name, "GHRP+path-itp", sweep.cells[i][1]);
    }
    builder.addMetric("base_indirect_mispredict_pct", base_rate.mean());
    builder.addMetric("itp_indirect_mispredict_pct", itp_rate.mean());
    builder.addMetric("base_indirect_mpki", base_mpki.mean());
    builder.addMetric("itp_indirect_mpki", itp_mpki.mean());
    builder.setSweep(sweep.run.wallSeconds, bench::effectiveJobs(options));
    bench::maybeWriteReport(cli, builder.finish());
    bench::writeTraceIfRequested(cli, "ext_indirect");
    return 0;
}
