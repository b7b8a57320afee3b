/**
 * @file
 * Tests of the multi-daemon sweep fabric: the report-layer shard merge
 * (bit-identical to the unsharded run, loud on missing/duplicate
 * legs), a two-cell campaign across two daemons whose cells match
 * in-process runSuite, and shard retry when a daemon dies
 * mid-campaign.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hh"
#include "report/report.hh"
#include "service/server.hh"
#include "service/sweep.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::service;
namespace fs = std::filesystem;

std::string
scratchDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "/sweep-" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

ServerConfig
testConfig(const std::string &dir)
{
    ServerConfig cfg;
    cfg.socketPath = dir + "/daemon.sock";
    cfg.journalDir = dir + "/journals";
    cfg.jobs = 2;
    cfg.fsync = FsyncPolicy::Never;
    return cfg;
}

/** In-process daemon: run() on its own thread, stopped on scope exit. */
class TestDaemon
{
  public:
    explicit TestDaemon(ServerConfig cfg) : server(std::move(cfg))
    {
        server.start();
        thread = std::thread([this] { server.run(); });
    }

    ~TestDaemon() { stop(); }

    void
    stop()
    {
        if (thread.joinable()) {
            server.requestStop();
            thread.join();
        }
    }

    ServiceServer server;

  private:
    std::thread thread;
};

core::SuiteOptions
cellOptions(std::uint32_t traces = 2,
            std::uint64_t instructions = 200'000)
{
    core::SuiteOptions options;
    options.numTraces = traces;
    options.baseSeed = 42;
    options.instructionOverride = instructions;
    options.jobs = 2;
    return options;
}

/** Same normalization as the service end-to-end tests: strip identity,
 *  timing and capture, keep the simulation payload. */
std::string
normalizedDump(report::RunReport r)
{
    r.runId.clear();
    r.createdUnix = 0;
    r.build.clear();
    r.environment.clear();
    r.options = report::Json::object();
    r.sweep = report::SweepStats{};
    r.extras = report::Json::object();
    for (report::Leg &leg : r.legs)
        leg.seconds = 0.0;
    return r.toJson().dump(2);
}

/** Each campaign cell must equal an in-process runSuite of its options. */
void
expectCellsMatchInProcess(const std::string &experiment,
                          const SweepOutcome &outcome)
{
    ASSERT_EQ(outcome.cells.size(), outcome.cellOptions.size());
    for (std::size_t c = 0; c < outcome.cells.size(); ++c) {
        const core::SuiteOptions &cell = outcome.cellOptions[c];
        const report::RunReport reference = report::buildSuiteReport(
            experiment, cell, core::runSuite(cell));
        EXPECT_EQ(normalizedDump(outcome.cells[c]),
                  normalizedDump(reference))
            << "seed " << cell.baseSeed;
    }
}

TEST(Service, MergedShardReportsMatchUnshardedReport)
{
    core::SuiteOptions cell = cellOptions();
    cell.policies = {frontend::PolicyKind::Lru,
                     frontend::PolicyKind::Srrip,
                     frontend::PolicyKind::Ghrp};

    const core::SuiteResults full = core::runSuite(cell);
    const report::RunReport reference =
        report::buildSuiteReport("merge-test", cell, full);

    std::vector<report::RunReport> shards;
    for (const frontend::PolicySpec &policy : cell.policies) {
        core::SuiteOptions shard = cell;
        shard.policies = {policy};
        shards.push_back(report::buildSuiteReport(
            "merge-test", shard, core::runSuite(shard)));
    }

    const report::RunReport merged =
        report::mergeShardReports("merge-test", cell, shards);
    EXPECT_EQ(normalizedDump(merged), normalizedDump(reference));
    EXPECT_EQ(merged.legs.size(), reference.legs.size());

    // A shard set with legs missing or duplicated must fail loudly
    // rather than aggregate a partial cell.
    EXPECT_THROW(report::mergeShardReports("merge-test", cell,
                                           {shards.front()}),
                 report::ReportError);
    std::vector<report::RunReport> duplicated = shards;
    duplicated.push_back(shards.front());
    EXPECT_THROW(
        report::mergeShardReports("merge-test", cell, duplicated),
        report::ReportError);

    // A shard from a different cell (other seed) must be rejected.
    core::SuiteOptions other = cell;
    other.baseSeed = 43;
    other.policies = {frontend::PolicyKind::Lru};
    std::vector<report::RunReport> mismatched = {
        report::buildSuiteReport("merge-test", other,
                                 core::runSuite(other))};
    EXPECT_THROW(
        report::mergeShardReports("merge-test", cell, mismatched),
        report::ReportError);
}

TEST(Service, SweepCampaignMergesBitIdenticalAcrossTwoDaemons)
{
    TestDaemon a(testConfig(scratchDir("two-a")));
    TestDaemon b(testConfig(scratchDir("two-b")));

    SweepGrid grid;
    grid.experiment = "sweep-two-daemons";
    grid.base = cellOptions();
    grid.seeds = {42, 43};

    SweepOptions options;
    options.daemons = {a.server.config().socketPath,
                       b.server.config().socketPath};
    options.pollSeconds = 0.02;
    options.connectTimeoutSeconds = 0.5;

    // One shard per cell, each on its own daemon.
    const SweepOutcome outcome = runSweepCampaign(grid, options);
    EXPECT_EQ(outcome.shards, 2u);
    EXPECT_EQ(outcome.resubmits, 0u);
    expectCellsMatchInProcess(grid.experiment, outcome);
}

TEST(Service, SweepRetriesShardsLostWithDaemonDeath)
{
    TestDaemon survivor(testConfig(scratchDir("death-a")));
    auto victim = std::make_unique<TestDaemon>(
        testConfig(scratchDir("death-b")));

    SweepGrid grid;
    grid.experiment = "sweep-daemon-death";
    grid.base = cellOptions(2, 500'000);
    grid.seeds = {42, 43};

    SweepOptions options;
    options.daemons = {survivor.server.config().socketPath,
                       victim->server.config().socketPath};
    options.pollSeconds = 0.02;
    options.connectTimeoutSeconds = 0.3;
    // The deterministic kill point: both cells have been accepted, one
    // per daemon, none has been polled — the victim's cell must be
    // re-run on the survivor.
    options.onAllSubmitted = [&victim] { victim.reset(); };

    const SweepOutcome outcome = runSweepCampaign(grid, options);
    EXPECT_EQ(outcome.shards, 2u);
    EXPECT_GE(outcome.resubmits, 1u);
    expectCellsMatchInProcess(grid.experiment, outcome);
}

} // anonymous namespace
