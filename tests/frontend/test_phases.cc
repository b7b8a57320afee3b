/**
 * @file
 * Tests for the phase flight recorder at the front-end layer: a zero
 * window disables sampling and perturbs nothing, sampling produces
 * monotone interval records, and the 128-slot decimating sampler
 * bounds memory at 1M-instruction scale while keeping power-of-two
 * strides.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "frontend/frontend.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::frontend;

trace::Trace
phaseTrace(std::size_t index = 0, std::uint64_t instructions = 60000)
{
    const auto specs = workload::makeSuite(4, 42);
    return workload::buildTrace(specs[index % specs.size()],
                                instructions);
}

void
expectSameRecord(const PhaseRecord &a, const PhaseRecord &b,
                 std::size_t index)
{
    SCOPED_TRACE("record " + std::to_string(index));
    EXPECT_EQ(a.window, b.window);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.icacheAccesses, b.icacheAccesses);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.icacheEvictions, b.icacheEvictions);
    EXPECT_EQ(a.btbAccesses, b.btbAccesses);
    EXPECT_EQ(a.btbMisses, b.btbMisses);
    EXPECT_EQ(a.btbEvictions, b.btbEvictions);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.condMispredicts, b.condMispredicts);
    EXPECT_EQ(a.btbTargetMismatches, b.btbTargetMismatches);
    EXPECT_EQ(a.deadHits, b.deadHits);
    EXPECT_EQ(a.liveHits, b.liveHits);
    EXPECT_EQ(a.deadEvictions, b.deadEvictions);
    EXPECT_EQ(a.liveEvictions, b.liveEvictions);
    EXPECT_EQ(a.psel, b.psel);
}

void
expectSameTrajectory(const PhaseTrajectory &a, const PhaseTrajectory &b)
{
    EXPECT_EQ(a.window, b.window);
    EXPECT_EQ(a.stride, b.stride);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i)
        expectSameRecord(a.records[i], b.records[i], i);
}

/** The flight-recorder invariants every trajectory must satisfy. */
void
expectWellFormed(const PhaseTrajectory &t)
{
    EXPECT_GT(t.window, 0u);
    // Power-of-two stride: decimation only ever doubles it.
    EXPECT_GT(t.stride, 0u);
    EXPECT_EQ(t.stride & (t.stride - 1), 0u);
    EXPECT_LE(t.records.size(), kPhaseTrajectoryCapacity);
    std::uint64_t prev_window = 0;
    std::uint64_t prev_instructions = 0;
    bool first = true;
    for (const PhaseRecord &r : t.records) {
        if (!first) {
            EXPECT_GT(r.window, prev_window);
            EXPECT_GT(r.instructions, prev_instructions);
        }
        prev_window = r.window;
        prev_instructions = r.instructions;
        first = false;
    }
}

TEST(Phases, WindowZeroDisablesSamplingWithoutPerturbingResults)
{
    const trace::Trace tr = phaseTrace();
    FrontendConfig off;
    off.policy = PolicyKind::Ghrp;
    FrontendConfig on = off;
    on.phaseWindow = 10'000;

    const FrontendResult a = simulateTrace(off, tr);
    const FrontendResult b = simulateTrace(on, tr);

    EXPECT_FALSE(a.hasPhases);
    EXPECT_TRUE(a.phases.records.empty());
    ASSERT_TRUE(b.hasPhases);
    EXPECT_FALSE(b.phases.records.empty());

    // Observation must not perturb the simulation: every headline
    // counter is bit-identical with the recorder on and off.
    EXPECT_EQ(a.icache.accesses, b.icache.accesses);
    EXPECT_EQ(a.icache.misses, b.icache.misses);
    EXPECT_EQ(a.icache.evictions, b.icache.evictions);
    EXPECT_EQ(a.btb.misses, b.btb.misses);
    EXPECT_EQ(a.condMispredicts, b.condMispredicts);
    EXPECT_EQ(a.icacheMpki, b.icacheMpki);
    EXPECT_EQ(a.btbMpki, b.btbMpki);
}

TEST(Phases, SamplesMonotoneIntervalRecordsDeterministically)
{
    FrontendConfig cfg;
    cfg.policy = PolicyKind::Ghrp;
    cfg.phaseWindow = 10'000;
    const trace::Trace tr = phaseTrace(1);

    const FrontendResult r = simulateTrace(cfg, tr);
    ASSERT_TRUE(r.hasPhases);
    EXPECT_EQ(r.phases.window, 10'000u);
    // 6 raw windows over a 60k trace: nowhere near the capacity, so
    // the stride never decimates.
    EXPECT_EQ(r.phases.stride, 1u);
    expectWellFormed(r.phases);

    std::uint64_t accesses = 0;
    for (const PhaseRecord &rec : r.phases.records)
        accesses += rec.icacheAccesses;
    EXPECT_GT(accesses, 0u);

    // GHRP legs report dead-block predictor outcomes; the totals over
    // the run are visible through the interval records.
    std::uint64_t outcomes = 0;
    for (const PhaseRecord &rec : r.phases.records)
        outcomes += rec.deadHits + rec.liveHits + rec.deadEvictions +
                    rec.liveEvictions;
    EXPECT_GT(outcomes, 0u);

    // A predictor-less leg carries all-zero outcome fields.
    FrontendConfig lru = cfg;
    lru.policy = PolicyKind::Lru;
    const FrontendResult plain = simulateTrace(lru, tr);
    ASSERT_TRUE(plain.hasPhases);
    for (const PhaseRecord &rec : plain.phases.records) {
        EXPECT_EQ(rec.deadHits + rec.liveHits + rec.deadEvictions +
                      rec.liveEvictions,
                  0u);
        EXPECT_EQ(rec.psel, 0);
    }

    // Determinism: an identical run reproduces the trajectory exactly.
    const FrontendResult again = simulateTrace(cfg, tr);
    ASSERT_TRUE(again.hasPhases);
    expectSameTrajectory(r.phases, again.phases);
}

TEST(Phases, DecimationBoundsRecordsAtMillionInstructionScale)
{
    // 1000 raw windows against a 128-slot sampler: the recorder must
    // merge pairwise until everything fits, ending at a power-of-two
    // stride with a half-full-or-better trajectory.
    FrontendConfig cfg;
    cfg.policy = PolicyKind::Ghrp;
    cfg.phaseWindow = 1'000;
    const trace::Trace tr = phaseTrace(0, 1'000'000);

    const FrontendResult r = simulateTrace(cfg, tr);
    ASSERT_TRUE(r.hasPhases);
    expectWellFormed(r.phases);
    EXPECT_GT(r.phases.stride, 1u);
    EXPECT_LE(r.phases.records.size(), kPhaseTrajectoryCapacity);
    EXPECT_GT(r.phases.records.size(), kPhaseTrajectoryCapacity / 2);
    EXPECT_LE(r.phases.records.back().instructions,
              r.totalInstructions);

    // Decimation golden: the exact same run decimates the exact same
    // way — stride, record count and every merged interval.
    const FrontendResult again = simulateTrace(cfg, tr);
    ASSERT_TRUE(again.hasPhases);
    expectSameTrajectory(r.phases, again.phases);
}

} // anonymous namespace
