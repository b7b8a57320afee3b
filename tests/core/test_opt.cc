/** @file Unit tests for the Belady's-OPT offline simulator. */

#include <gtest/gtest.h>

#include "core/opt.hh"
#include "frontend/frontend.hh"
#include "trace/fetch_stream.hh"
#include "util/bit_ops.hh"
#include "util/random.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;
using core::OptResult;
using core::simulateOptStream;

TEST(OptStream, ColdMissesOnly)
{
    const OptResult r = simulateOptStream({1, 2, 3, 1, 2, 3}, 1, 4);
    EXPECT_EQ(r.accesses, 6u);
    EXPECT_EQ(r.misses, 3u);
    EXPECT_EQ(r.compulsory, 3u);
}

TEST(OptStream, BeladyClassicExample)
{
    // Fully associative, 3 frames; a textbook reference string.
    const std::vector<std::uint64_t> keys = {7, 0, 1, 2, 0, 3, 0, 4,
                                             2, 3, 0, 3, 2, 1, 2, 0,
                                             1, 7, 0, 1};
    const OptResult r = simulateOptStream(keys, 1, 3);
    // Textbook demand-paging OPT yields 9 faults on this string; our
    // variant additionally bypasses (never caches a block whose next
    // use is farthest), which saves one more.
    EXPECT_EQ(r.misses, 8u);
}

TEST(OptStream, OptNeverWorseThanLruOnAnyStream)
{
    // Differential property against a simple LRU model.
    Rng rng(5);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 20000; ++i)
        keys.push_back(rng.nextZipf(128, 1.2));
    const OptResult opt = simulateOptStream(keys, 4, 4);

    // Reference LRU.
    std::vector<std::vector<std::uint64_t>> sets(4);
    std::uint64_t lru_misses = 0;
    for (std::uint64_t key : keys) {
        auto &s = sets[key % 4];
        bool hit = false;
        for (std::size_t j = 0; j < s.size(); ++j) {
            if (s[j] == key) {
                s.erase(s.begin() + static_cast<std::ptrdiff_t>(j));
                s.push_back(key);
                hit = true;
                break;
            }
        }
        if (!hit) {
            ++lru_misses;
            if (s.size() >= 4)
                s.erase(s.begin());
            s.push_back(key);
        }
    }
    EXPECT_LE(opt.misses, lru_misses);
}

TEST(OptStream, BypassBeatsForcedFill)
{
    // Stream where a never-reused key interleaves a hot pair in a
    // 1-way set: OPT must bypass the cold key and keep the hot one.
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 50; ++i) {
        keys.push_back(0);                              // hot
        keys.push_back(100 + static_cast<unsigned>(i)); // cold, 1-shot
    }
    const OptResult r = simulateOptStream(keys, 1, 1);
    // Misses: 1 for the hot key + 50 cold = 51; hot stays resident.
    EXPECT_EQ(r.misses, 51u);
}

TEST(OptIcache, LowerBoundsOnlinePolicies)
{
    workload::TraceSpec spec;
    spec.category = workload::Category::ShortServer;
    spec.seed = 13;
    spec.name = "opt";
    const trace::Trace tr = workload::buildTrace(spec, 1'000'000);

    const cache::CacheConfig cfg = cache::CacheConfig::icache(64, 8);
    const OptResult opt =
        core::simulateOptIcache(trace::decodeTrace(tr, 64, 4), cfg);

    frontend::FrontendConfig fcfg;
    fcfg.warmupFraction = 0.0;  // compare cold-start to cold-start
    for (frontend::PolicyKind policy : frontend::paperPolicies) {
        fcfg.policy = policy;
        const frontend::FrontendResult r =
            frontend::simulateTrace(fcfg, tr);
        EXPECT_LE(opt.misses, r.icache.misses)
            << frontend::policyName(policy);
    }
    EXPECT_GT(opt.instructions, 999'000u);
}

TEST(OptBtb, LowerBoundsOnlinePolicies)
{
    workload::TraceSpec spec;
    spec.category = workload::Category::ShortServer;
    spec.seed = 17;
    spec.name = "optbtb";
    const trace::Trace tr = workload::buildTrace(spec, 1'000'000);

    const cache::CacheConfig cfg = cache::CacheConfig::btb(4096, 4);
    const OptResult opt =
        core::simulateOptBtb(trace::decodeTrace(tr, 64, 4), cfg);

    frontend::FrontendConfig fcfg;
    fcfg.warmupFraction = 0.0;
    fcfg.btb = cfg;
    for (frontend::PolicyKind policy : frontend::paperPolicies) {
        fcfg.policy = policy;
        const frontend::FrontendResult r =
            frontend::simulateTrace(fcfg, tr);
        EXPECT_LE(opt.misses, r.btb.misses)
            << frontend::policyName(policy);
    }
}

TEST(OptResultStruct, Mpki)
{
    OptResult r;
    r.misses = 10;
    r.instructions = 2000;
    EXPECT_DOUBLE_EQ(r.mpki(), 5.0);
    r.instructions = 0;
    EXPECT_EQ(r.mpki(), 0.0);
}

/**
 * The decoded-stream OPT replays must equal OPT over key streams built
 * independently from the branch records with FetchStreamWalker: the
 * walker's blocks coalesced as the front-end's fetch buffer does for
 * the I-cache, and taken non-return branches for the BTB.
 */
TEST(OptDecoded, MatchesWalkerKeyStreamsForEveryCategory)
{
    const cache::CacheConfig icache = cache::CacheConfig::icache(16, 4);
    const cache::CacheConfig btb = cache::CacheConfig::btb(1024, 4);
    for (workload::Category category :
         {workload::Category::ShortMobile, workload::Category::LongMobile,
          workload::Category::ShortServer,
          workload::Category::LongServer}) {
        SCOPED_TRACE(workload::categoryName(category));
        workload::TraceSpec spec;
        spec.category = category;
        spec.seed = 29;
        spec.name = "opt-decoded";
        const trace::Trace tr = workload::buildTrace(spec, 300'000);

        std::vector<std::uint64_t> block_keys, btb_keys;
        trace::FetchStreamWalker walker(tr.entryPc, icache.blockBytes);
        const unsigned shift = floorLog2(icache.blockBytes);
        std::uint64_t last_key = ~std::uint64_t{0};
        for (const trace::BranchRecord &rec : tr.records) {
            walker.advance(rec, [&](Addr block) {
                if (block >> shift != last_key)
                    block_keys.push_back(last_key = block >> shift);
            });
            if (rec.taken && rec.type != trace::BranchType::Return)
                btb_keys.push_back(rec.pc >> 2);
        }
        ASSERT_FALSE(block_keys.empty());
        ASSERT_FALSE(btb_keys.empty());

        const trace::DecodedTrace dec =
            trace::decodeTrace(tr, icache.blockBytes, 4);
        const OptResult want_icache =
            simulateOptStream(block_keys, icache.numSets(), icache.assoc);
        const OptResult got_icache = core::simulateOptIcache(dec, icache);
        EXPECT_EQ(got_icache.accesses, want_icache.accesses);
        EXPECT_EQ(got_icache.misses, want_icache.misses);
        EXPECT_EQ(got_icache.compulsory, want_icache.compulsory);
        EXPECT_EQ(got_icache.instructions, walker.instructionCount());

        const OptResult want_btb =
            simulateOptStream(btb_keys, btb.numSets(), btb.assoc);
        const OptResult got_btb = core::simulateOptBtb(dec, btb);
        EXPECT_EQ(got_btb.accesses, want_btb.accesses);
        EXPECT_EQ(got_btb.misses, want_btb.misses);
        EXPECT_EQ(got_btb.compulsory, want_btb.compulsory);
        EXPECT_EQ(got_btb.instructions, walker.instructionCount());
    }
}

} // anonymous namespace
