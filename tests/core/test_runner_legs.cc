/** @file runSuiteLegs: caller-defined legs on runSuite's trace path
 *  must equal plain simulateTrace at any job count, with the trace
 *  store off, cold or warm. */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/runner.hh"

namespace
{

using namespace ghrp;
namespace fs = std::filesystem;

constexpr std::uint32_t numTraces = 3;
constexpr std::uint64_t instructions = 100'000;

/** Three legs that differ in policy, geometry and front-end knobs. */
std::vector<frontend::FrontendConfig>
legConfigs()
{
    std::vector<frontend::FrontendConfig> legs(3);
    legs[0].policy = frontend::PolicyKind::Lru;
    legs[0].icache = cache::CacheConfig::icache(16, 4);
    legs[1].policy = frontend::PolicyKind::Ghrp;
    legs[2].policy = frontend::PolicyKind::Srrip;
    legs[2].nextLinePrefetch = 1;
    legs[2].warmupFraction = 0.0;
    return legs;
}

using Grid = std::vector<std::vector<frontend::FrontendResult>>;

Grid
runLegs(unsigned jobs, const std::string &cache_dir, core::SweepRun &run)
{
    core::SuiteOptions options;
    options.numTraces = numTraces;
    options.instructionOverride = instructions;
    options.jobs = jobs;
    options.traceCacheDir = cache_dir;
    const std::vector<frontend::FrontendConfig> legs = legConfigs();
    Grid grid(numTraces, std::vector<frontend::FrontendResult>(legs.size()));
    run = core::runSuiteLegs(
        options, legs.size(),
        [&](std::size_t i, std::size_t n, const trace::DecodedTrace &dec) {
            grid[i][n] = frontend::simulateDecoded(legs[n], dec);
        });
    return grid;
}

void
expectSame(const Grid &got, const Grid &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].size(), want[i].size());
        for (std::size_t n = 0; n < got[i].size(); ++n) {
            SCOPED_TRACE("trace " + std::to_string(i) + " leg " +
                         std::to_string(n));
            const frontend::FrontendResult &a = got[i][n];
            const frontend::FrontendResult &b = want[i][n];
            EXPECT_EQ(a.icache.hits, b.icache.hits);
            EXPECT_EQ(a.icache.misses, b.icache.misses);
            EXPECT_EQ(a.btb.hits, b.btb.hits);
            EXPECT_EQ(a.btb.misses, b.btb.misses);
            EXPECT_EQ(a.condMispredicts, b.condMispredicts);
            EXPECT_EQ(a.totalInstructions, b.totalInstructions);
            EXPECT_DOUBLE_EQ(a.icacheMpki, b.icacheMpki);
            EXPECT_DOUBLE_EQ(a.btbMpki, b.btbMpki);
        }
    }
}

/** Every file in @p dir with its size and modification time. */
std::map<std::string, std::pair<std::uintmax_t, fs::file_time_type>>
listing(const std::string &dir)
{
    std::map<std::string, std::pair<std::uintmax_t, fs::file_time_type>>
        files;
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        files[e.path().filename().string()] = {e.file_size(),
                                               e.last_write_time()};
    return files;
}

TEST(RunnerLegs, CustomLegsMatchSimulateTraceAtAnyJobsAndStoreState)
{
    const std::vector<frontend::FrontendConfig> legs = legConfigs();
    Grid reference(numTraces);
    for (std::uint32_t i = 0; i < numTraces; ++i) {
        const trace::Trace tr = workload::buildTrace(
            workload::makeSuite(numTraces, 42)[i], instructions);
        for (const frontend::FrontendConfig &config : legs)
            reference[i].push_back(frontend::simulateTrace(config, tr));
    }

    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        core::SweepRun run;
        expectSame(runLegs(jobs, "", run), reference);
        EXPECT_FALSE(run.traceStoreEnabled);
        EXPECT_EQ(run.specs.size(), numTraces);

        const std::string dir = ::testing::TempDir() + "/runner-legs-" +
                                std::to_string(jobs);
        fs::remove_all(dir);

        core::SweepRun cold;
        expectSame(runLegs(jobs, dir, cold), reference);
        EXPECT_TRUE(cold.traceStoreEnabled);
        EXPECT_EQ(cold.traceStore.hits, 0u);
        EXPECT_EQ(cold.traceStore.misses, numTraces);
        EXPECT_EQ(cold.traceStore.stores, numTraces);

        // One trace and one direction sidecar per suite trace.
        const auto after_cold = listing(dir);
        std::size_t traces = 0, sidecars = 0;
        for (const auto &[name, info] : after_cold) {
            traces += name.ends_with(".ghrptrc");
            sidecars += name.find(".dir") != std::string::npos;
        }
        EXPECT_EQ(traces, numTraces);
        EXPECT_EQ(sidecars, numTraces);
        EXPECT_EQ(after_cold.size(), traces + sidecars);

        core::SweepRun warm;
        expectSame(runLegs(jobs, dir, warm), reference);
        EXPECT_EQ(warm.traceStore.hits, numTraces);
        EXPECT_EQ(warm.traceStore.misses, 0u);
        EXPECT_EQ(warm.traceStore.stores, 0u);
        EXPECT_EQ(listing(dir), after_cold);  // nothing new written

        fs::remove_all(dir);
    }
}

TEST(RunnerLegs, ProgressTicksOncePerLeg)
{
    core::SuiteOptions options;
    options.numTraces = 2;
    options.instructionOverride = 50'000;
    options.jobs = 2;
    std::size_t ticks = 0, last_total = 0;
    core::runSuiteLegs(
        options, 3,
        [](std::size_t, std::size_t, const trace::DecodedTrace &) {},
        [&](std::size_t done, std::size_t total, const std::string &) {
            ++ticks;
            EXPECT_LE(done, total);
            last_total = total;
        });
    EXPECT_EQ(ticks, 6u);
    EXPECT_EQ(last_total, 6u);
}

} // anonymous namespace
