/** @file Unit and property tests for the LRU stack helper. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/lru_stack.hh"
#include "util/random.hh"

namespace
{

using ghrp::Rng;
using ghrp::cache::LruStack;

TEST(LruStack, InitialOrderIsWayOrder)
{
    LruStack s;
    s.reset(2, 4);
    EXPECT_EQ(s.positionOf(0, 0), 0);
    EXPECT_EQ(s.positionOf(0, 3), 3);
    EXPECT_EQ(s.lruWay(0), 3u);
}

TEST(LruStack, TouchPromotesToMru)
{
    LruStack s;
    s.reset(1, 4);
    s.touch(0, 2);
    EXPECT_EQ(s.positionOf(0, 2), 0);
    EXPECT_EQ(s.lruWay(0), 3u);
    s.touch(0, 3);
    EXPECT_EQ(s.positionOf(0, 3), 0);
    EXPECT_EQ(s.positionOf(0, 2), 1);
    EXPECT_EQ(s.lruWay(0), 1u);
}

TEST(LruStack, SetsIndependent)
{
    LruStack s;
    s.reset(2, 2);
    s.touch(0, 1);
    EXPECT_EQ(s.lruWay(0), 0u);
    EXPECT_EQ(s.lruWay(1), 1u);
}

TEST(LruStack, RepeatTouchIsIdempotent)
{
    LruStack s;
    s.reset(1, 3);
    s.touch(0, 1);
    s.touch(0, 1);
    EXPECT_EQ(s.positionOf(0, 1), 0);
    EXPECT_EQ(s.lruWay(0), 2u);
}

/** Property: positions always form a permutation of 0..ways-1. */
class LruStackWays : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(LruStackWays, PositionsArePermutation)
{
    const std::uint32_t ways = GetParam();
    LruStack s;
    s.reset(4, ways);
    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
        const auto set = static_cast<std::uint32_t>(rng.nextBounded(4));
        const auto way =
            static_cast<std::uint32_t>(rng.nextBounded(ways));
        s.touch(set, way);
        std::vector<bool> seen(ways, false);
        for (std::uint32_t w = 0; w < ways; ++w) {
            const std::uint8_t pos = s.positionOf(set, w);
            ASSERT_LT(pos, ways);
            ASSERT_FALSE(seen[pos]);
            seen[pos] = true;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Ways, LruStackWays,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

/**
 * Reference model: one byte per way, aged by a scalar per-way loop.
 * The packed stack must agree with it on every position.
 */
class ByteLoopStack
{
  public:
    ByteLoopStack(std::uint32_t num_sets, std::uint32_t num_ways)
        : ways(num_ways), position(num_sets * num_ways)
    {
        for (std::uint32_t s = 0; s < num_sets; ++s)
            for (std::uint32_t w = 0; w < ways; ++w)
                position[s * ways + w] = static_cast<std::uint8_t>(w);
    }

    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        std::uint8_t *row = &position[set * ways];
        const std::uint8_t old_pos = row[way];
        for (std::uint32_t w = 0; w < ways; ++w)
            row[w] += static_cast<std::uint8_t>(row[w] < old_pos);
        row[way] = 0;
    }

    std::uint32_t
    lruWay(std::uint32_t set) const
    {
        for (std::uint32_t w = 0; w < ways; ++w)
            if (position[set * ways + w] == ways - 1)
                return w;
        return ways;
    }

    std::uint8_t
    positionOf(std::uint32_t set, std::uint32_t way) const
    {
        return position[set * ways + way];
    }

  private:
    std::uint32_t ways;
    std::vector<std::uint8_t> position;
};

/** Differential property: packed stack == byte-loop reference. */
class LruStackDifferential
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(LruStackDifferential, MatchesByteLoopReference)
{
    const std::uint32_t ways = GetParam();
    constexpr std::uint32_t sets = 3;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        LruStack packed;
        packed.reset(sets, ways);
        ByteLoopStack ref(sets, ways);
        std::uint64_t state = seed * 1000 + ways;
        for (int step = 0; step < 2000; ++step) {
            state = ghrp::splitMix64(state);
            const auto set = static_cast<std::uint32_t>(state % sets);
            // Skew half the touches toward the LRU end so deep
            // positions (and padding neighbours) get promoted often.
            const std::uint32_t way =
                ((state >> 32) & 1) != 0
                    ? ref.lruWay(set)
                    : static_cast<std::uint32_t>((state >> 8) % ways);
            packed.touch(set, way);
            ref.touch(set, way);
            for (std::uint32_t s = 0; s < sets; ++s) {
                for (std::uint32_t w = 0; w < ways; ++w)
                    ASSERT_EQ(packed.positionOf(s, w), ref.positionOf(s, w))
                        << "seed " << seed << " step " << step << " set "
                        << s << " way " << w;
                ASSERT_EQ(packed.lruWay(s), ref.lruWay(s))
                    << "seed " << seed << " step " << step << " set " << s;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Ways, LruStackDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 7u, 8u, 9u, 16u,
                                           63u, 64u));

TEST(LruStack, ResetRestoresWayOrder)
{
    LruStack s;
    s.reset(2, 9);
    s.touch(1, 8);
    s.touch(0, 3);
    s.reset(2, 9);
    for (std::uint32_t set = 0; set < 2; ++set) {
        for (std::uint32_t w = 0; w < 9; ++w)
            EXPECT_EQ(s.positionOf(set, w), w);
        EXPECT_EQ(s.lruWay(set), 8u);
    }
}

} // anonymous namespace
