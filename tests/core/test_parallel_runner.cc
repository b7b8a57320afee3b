/**
 * @file
 * Differential tests for the parallel suite runner: the sweep must be
 * bit-identical for every worker count. Per-trace seeds are derived
 * purely from (baseSeed, trace index) and every leg writes into a
 * pre-sized slot, so neither the simulated results nor the aggregation
 * may depend on scheduling. These tests pin that guarantee down by
 * comparing complete per-trace FrontendResults — MPKI values and the
 * raw hit/miss/bypass/eviction counters — across jobs = 1, 2 and 8,
 * repeated for several base seeds.
 */

#include <gtest/gtest.h>

#include <cstddef>

#include "core/runner.hh"

namespace
{

using namespace ghrp;

core::SuiteOptions
smallSuite(std::uint64_t seed)
{
    core::SuiteOptions options;
    options.numTraces = 4;
    options.baseSeed = seed;
    options.instructionOverride = 60'000;
    return options;
}

void
expectStatsIdentical(const stats::AccessStats &a, const stats::AccessStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.bypasses, b.bypasses);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.deadEvictions, b.deadEvictions);
}

/**
 * Assert that two suite runs produced bit-identical results. Timing
 * fields (legSeconds, wallSeconds) are deliberately not compared: they
 * are the only scheduling-dependent outputs.
 */
void
expectResultsIdentical(const core::SuiteResults &a,
                       const core::SuiteResults &b)
{
    ASSERT_EQ(a.specs.size(), b.specs.size());
    for (std::size_t i = 0; i < a.specs.size(); ++i) {
        EXPECT_EQ(a.specs[i].seed, b.specs[i].seed);
        EXPECT_EQ(a.specs[i].category, b.specs[i].category);
    }

    ASSERT_EQ(a.results.size(), b.results.size());
    for (const auto &[policy, legs] : a.results) {
        const auto it = b.results.find(policy);
        ASSERT_NE(it, b.results.end());
        ASSERT_EQ(legs.size(), it->second.size());
        for (std::size_t i = 0; i < legs.size(); ++i) {
            const frontend::FrontendResult &x = legs[i];
            const frontend::FrontendResult &y = it->second[i];
            SCOPED_TRACE(::testing::Message()
                         << frontend::policyName(policy) << " trace " << i);

            // Exact equality, not EXPECT_NEAR: the guarantee is
            // bit-identical, not merely close.
            EXPECT_EQ(x.icacheMpki, y.icacheMpki);
            EXPECT_EQ(x.btbMpki, y.btbMpki);
            expectStatsIdentical(x.icache, y.icache);
            expectStatsIdentical(x.btb, y.btb);

            EXPECT_EQ(x.totalInstructions, y.totalInstructions);
            EXPECT_EQ(x.warmupInstructions, y.warmupInstructions);
            EXPECT_EQ(x.measuredInstructions, y.measuredInstructions);
            EXPECT_EQ(x.condBranches, y.condBranches);
            EXPECT_EQ(x.condMispredicts, y.condMispredicts);
            EXPECT_EQ(x.btbTargetMismatches, y.btbTargetMismatches);
            EXPECT_EQ(x.rasReturns, y.rasReturns);
            EXPECT_EQ(x.rasMispredicts, y.rasMispredicts);
            EXPECT_EQ(x.indirectBranches, y.indirectBranches);
            EXPECT_EQ(x.indirectMispredicts, y.indirectMispredicts);
            EXPECT_EQ(x.traceName, y.traceName);
            EXPECT_EQ(x.policy, y.policy);
        }
    }
}

TEST(ParallelRunner, WorkerCountNeverChangesResults)
{
    for (std::uint64_t seed : {1ull, 42ull, 1234ull}) {
        SCOPED_TRACE(::testing::Message() << "base seed " << seed);

        core::SuiteOptions serial = smallSuite(seed);
        serial.jobs = 1;
        const core::SuiteResults reference = core::runSuite(serial);

        for (unsigned jobs : {2u, 8u}) {
            SCOPED_TRACE(::testing::Message() << "jobs " << jobs);
            core::SuiteOptions options = smallSuite(seed);
            options.jobs = jobs;
            expectResultsIdentical(reference, core::runSuite(options));
        }
    }
}

TEST(ParallelRunner, HardwareDefaultMatchesSerial)
{
    core::SuiteOptions serial = smallSuite(42);
    serial.jobs = 1;
    core::SuiteOptions dflt = smallSuite(42);
    dflt.jobs = 0;  // resolve to hardware concurrency
    expectResultsIdentical(core::runSuite(serial), core::runSuite(dflt));
}

TEST(ParallelRunner, RepeatedParallelRunsIdentical)
{
    // Two parallel runs with the same options — interleaving differs,
    // results must not.
    core::SuiteOptions options = smallSuite(7);
    options.jobs = 8;
    expectResultsIdentical(core::runSuite(options), core::runSuite(options));
}

TEST(ParallelRunner, TimingFieldsPopulated)
{
    core::SuiteOptions options = smallSuite(42);
    options.jobs = 2;
    const core::SuiteResults results = core::runSuite(options);

    EXPECT_GT(results.wallSeconds, 0.0);
    EXPECT_EQ(results.totalLegs(),
              options.numTraces * options.policies.size());
    EXPECT_GT(results.simulatedInstructions(), 0u);
    ASSERT_EQ(results.legSeconds.size(), results.results.size());
    for (const auto &[policy, seconds] : results.legSeconds) {
        ASSERT_EQ(seconds.size(), options.numTraces);
        for (double s : seconds)
            EXPECT_GE(s, 0.0);
    }
}

TEST(ParallelRunner, ProgressCoversEveryLeg)
{
    core::SuiteOptions options = smallSuite(42);
    options.jobs = 4;
    std::size_t calls = 0;
    std::size_t last_done = 0;
    std::size_t reported_total = 0;
    const core::SuiteResults results = core::runSuite(
        options, [&](std::size_t done, std::size_t total,
                     const std::string &) {
            ++calls;
            // Serialised callback: completion counter is monotonic even
            // though leg completion order is scheduling-dependent.
            EXPECT_GT(done, last_done);
            last_done = done;
            reported_total = total;
        });
    EXPECT_EQ(calls, results.totalLegs());
    EXPECT_EQ(last_done, results.totalLegs());
    EXPECT_EQ(reported_total, results.totalLegs());
}

TEST(ParallelRunner, SingleLegSuiteRuns)
{
    core::SuiteOptions options = smallSuite(42);
    options.numTraces = 1;
    options.policies = {frontend::PolicyKind::Lru};
    options.jobs = 8;  // more workers than legs must still work
    const core::SuiteResults results = core::runSuite(options);
    ASSERT_EQ(results.totalLegs(), 1u);
    EXPECT_GT(results.results.at(frontend::PolicyKind::Lru)[0].icacheMpki,
              0.0);
}

TEST(ParallelRunner, SkipHookSimulatesOnlyRemainingLegs)
{
    // Journal-resume shape: mark some legs as already done; the runner
    // must simulate exactly the remaining legs, tick progress for all,
    // and report onLegDone only for the simulated ones.
    const auto skip = [](std::size_t trace_index,
                         const frontend::PolicySpec &policy) {
        return trace_index == 0 ||
               policy == frontend::PolicySpec(frontend::PolicyKind::Random);
    };
    core::SuiteOptions plain = smallSuite(3);
    plain.numTraces = 2;
    plain.jobs = 1;
    const core::SuiteResults reference = core::runSuite(plain);

    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "jobs " << jobs);
        core::SuiteOptions options = plain;
        options.jobs = jobs;

        core::RunHooks hooks;
        hooks.skipLeg = skip;
        // onLegDone and progress are serialised by the runner, so the
        // counters need no lock even at jobs > 1.
        std::size_t done_legs = 0;
        hooks.onLegDone = [&](std::size_t trace_index,
                              const frontend::PolicySpec &policy,
                              const frontend::FrontendResult &, double) {
            EXPECT_FALSE(skip(trace_index, policy));
            ++done_legs;
        };

        std::size_t ticks = 0;
        const core::SuiteResults results = core::runSuite(
            options,
            [&](std::size_t, std::size_t, const std::string &) { ++ticks; },
            hooks);

        const std::size_t policies = options.policies.size();
        EXPECT_EQ(ticks, 2 * policies);      // skipped legs still tick
        EXPECT_EQ(done_legs, policies - 1);  // trace 1, minus Random
        // Skipped slots stay default-initialized (the caller's journal
        // fills them); simulated slots match a plain run.
        const auto &lru = results.results.at(frontend::PolicyKind::Lru);
        const auto &ref = reference.results.at(frontend::PolicyKind::Lru);
        EXPECT_EQ(lru[0].icache.accesses, 0u);
        expectStatsIdentical(lru[1].icache, ref[1].icache);
        expectStatsIdentical(lru[1].btb, ref[1].btb);
        EXPECT_EQ(lru[1].icacheMpki, ref[1].icacheMpki);
        EXPECT_EQ(lru[1].btbMpki, ref[1].btbMpki);
        EXPECT_EQ(lru[1].condMispredicts, ref[1].condMispredicts);
    }
}

} // anonymous namespace
