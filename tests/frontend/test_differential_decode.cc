/** @file
 * Differential tests: the decode-once fetch-op path must be
 * bit-identical to the reference walker path for every policy, with
 * and without the pre-resolved direction stream.
 */

#include <gtest/gtest.h>

#include "frontend/frontend.hh"
#include "trace/decoded_trace.hh"
#include "trace/fetch_stream.hh"
#include "util/random.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::frontend;

void
expectIdentical(const FrontendResult &a, const FrontendResult &b,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_EQ(a.warmupInstructions, b.warmupInstructions);
    EXPECT_EQ(a.measuredInstructions, b.measuredInstructions);
    EXPECT_EQ(a.icache.accesses, b.icache.accesses);
    EXPECT_EQ(a.icache.hits, b.icache.hits);
    EXPECT_EQ(a.icache.misses, b.icache.misses);
    EXPECT_EQ(a.icache.bypasses, b.icache.bypasses);
    EXPECT_EQ(a.icache.evictions, b.icache.evictions);
    EXPECT_EQ(a.icache.deadEvictions, b.icache.deadEvictions);
    EXPECT_EQ(a.btb.accesses, b.btb.accesses);
    EXPECT_EQ(a.btb.hits, b.btb.hits);
    EXPECT_EQ(a.btb.misses, b.btb.misses);
    EXPECT_EQ(a.btb.bypasses, b.btb.bypasses);
    EXPECT_EQ(a.btb.evictions, b.btb.evictions);
    EXPECT_EQ(a.btb.deadEvictions, b.btb.deadEvictions);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.condMispredicts, b.condMispredicts);
    EXPECT_EQ(a.btbTargetMismatches, b.btbTargetMismatches);
    EXPECT_EQ(a.rasReturns, b.rasReturns);
    EXPECT_EQ(a.rasMispredicts, b.rasMispredicts);
    EXPECT_EQ(a.indirectBranches, b.indirectBranches);
    EXPECT_EQ(a.indirectMispredicts, b.indirectMispredicts);
    EXPECT_DOUBLE_EQ(a.icacheMpki, b.icacheMpki);
    EXPECT_DOUBLE_EQ(a.btbMpki, b.btbMpki);
}

constexpr PolicyKind allPolicies[] = {
    PolicyKind::Lru,  PolicyKind::Random, PolicyKind::Fifo,
    PolicyKind::Srrip, PolicyKind::Brrip,  PolicyKind::Drrip,
    PolicyKind::Sdbp, PolicyKind::Ship,   PolicyKind::Ghrp,
};

class DecodedVsWalker
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>>
{
};

TEST_P(DecodedVsWalker, BitIdenticalForEveryPolicy)
{
    const auto [seed, trace_index] = GetParam();
    const auto specs = workload::makeSuite(4, seed);
    const trace::Trace tr =
        workload::buildTrace(specs[static_cast<std::size_t>(trace_index)],
                             120'000);

    FrontendConfig base;
    base.icache = cache::CacheConfig::icache(8, 4);
    base.btb = cache::CacheConfig::btb(512, 4);

    trace::DecodedTrace dec =
        trace::decodeTrace(tr, base.icache.blockBytes, base.instBytes);
    trace::DecodedTrace resolved = dec;
    resolveDirectionStream(resolved, base.direction);

    for (PolicyKind policy : allPolicies) {
        FrontendConfig cfg = base;
        cfg.policy = policy;

        FrontendSim walker_sim(cfg);
        const FrontendResult ref = walker_sim.runWalker(tr);

        FrontendSim decoded_sim(cfg);
        expectIdentical(decoded_sim.run(dec), ref,
                        std::string(policyName(policy)) + " decoded");

        FrontendSim resolved_sim(cfg);
        expectIdentical(resolved_sim.run(resolved), ref,
                        std::string(policyName(policy)) +
                            " decoded+direction");
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndTraces, DecodedVsWalker,
    ::testing::Combine(::testing::Values(9u, 42u, 1234u),
                       ::testing::Values(0, 1, 2, 3)));

TEST(DecodedVsWalkerEdge, TinyHandBuiltTrace)
{
    trace::Trace t;
    t.entryPc = 0x1000;
    for (int i = 0; i < 3; ++i)
        t.records.push_back(
            {0x1010, 0x1000, trace::BranchType::CondDirect, true});
    t.records.push_back(
        {0x1010, 0x1000, trace::BranchType::CondDirect, false});
    t.records.push_back({0x1020, 0x2000, trace::BranchType::Call, true});
    t.records.push_back(
        {0x2008, 0x1024, trace::BranchType::Return, true});

    FrontendConfig cfg;
    cfg.warmupFraction = 0.0;
    for (PolicyKind policy : allPolicies) {
        cfg.policy = policy;
        FrontendSim a(cfg), b(cfg);
        expectIdentical(b.run(trace::decodeTrace(t, cfg.icache.blockBytes,
                                                 cfg.instBytes)),
                        a.runWalker(t), policyName(policy));
    }
}

TEST(DecodedVsWalkerEdge, OutOfOrderRecordsResyncIdentically)
{
    // Hand-built trace where about a third of the records lie behind
    // the fetch PC, so the walker resyncs at them. Both paths must
    // fetch from the record's own block and feed GHRP the record's pc.
    Rng rng(400);
    trace::Trace t;
    t.entryPc = 0x10000;
    trace::FetchStreamWalker shadow(t.entryPc);
    for (int i = 0; i < 400; ++i) {
        const Addr fetch = shadow.currentPc();
        trace::BranchRecord rec;
        if (rng.nextBounded(3) == 0 && fetch > 0x10000 + 0x200)
            rec.pc = fetch - 4 * (1 + rng.nextBounded(128));
        else
            rec.pc = fetch + 4 * rng.nextBounded(40);
        rec.type = rng.nextBounded(2) == 0 ? trace::BranchType::CondDirect
                                           : trace::BranchType::UncondDirect;
        rec.taken = rec.type == trace::BranchType::UncondDirect ||
                    rng.nextBounded(2) == 0;
        rec.target = 0x10000 + 4 * rng.nextBounded(2048);
        shadow.advance(rec, [](Addr) {});
        t.records.push_back(rec);
    }
    ASSERT_GT(shadow.resyncs(), 50u);

    FrontendConfig cfg;
    cfg.icache = cache::CacheConfig::icache(1, 2);
    cfg.btb = cache::CacheConfig::btb(64, 2);
    cfg.warmupFraction = 0.0;
    const trace::DecodedTrace dec =
        trace::decodeTrace(t, cfg.icache.blockBytes, cfg.instBytes);
    EXPECT_EQ(dec.resyncs, shadow.resyncs());
    for (PolicyKind policy : allPolicies) {
        cfg.policy = policy;
        FrontendSim a(cfg), b(cfg);
        expectIdentical(b.run(dec), a.runWalker(t), policyName(policy));
    }
}

TEST(DecodedVsWalkerEdge, MismatchedDirectionStreamFallsBackLive)
{
    const auto specs = workload::makeSuite(1, 5);
    const trace::Trace tr = workload::buildTrace(specs.front(), 60'000);

    FrontendConfig cfg;
    cfg.policy = PolicyKind::Ghrp;
    cfg.direction = DirectionKind::Gshare;

    trace::DecodedTrace dec =
        trace::decodeTrace(tr, cfg.icache.blockBytes, cfg.instBytes);
    // Resolve with a *different* predictor kind: the leg must ignore
    // the stream and simulate its own predictor, still matching the
    // walker reference.
    resolveDirectionStream(dec, DirectionKind::Bimodal);
    ASSERT_TRUE(dec.hasDirectionStream());

    FrontendSim a(cfg), b(cfg);
    expectIdentical(b.run(dec), a.runWalker(tr), "gshare fallback");
}

TEST(DecodedVsWalkerEdge, ResolvedStreamMatchesLivePredictor)
{
    const auto specs = workload::makeSuite(1, 21);
    const trace::Trace tr = workload::buildTrace(specs.front(), 60'000);

    for (DirectionKind kind :
         {DirectionKind::HashedPerceptron, DirectionKind::Gshare,
          DirectionKind::Bimodal}) {
        FrontendConfig cfg;
        cfg.direction = kind;

        trace::DecodedTrace dec =
            trace::decodeTrace(tr, cfg.icache.blockBytes, cfg.instBytes);
        resolveDirectionStream(dec, kind);

        FrontendSim live(cfg), pre(cfg);
        trace::DecodedTrace plain =
            trace::decodeTrace(tr, cfg.icache.blockBytes, cfg.instBytes);
        expectIdentical(pre.run(dec), live.run(plain),
                        "direction kind " +
                            std::to_string(static_cast<int>(kind)));
    }
}

} // anonymous namespace
