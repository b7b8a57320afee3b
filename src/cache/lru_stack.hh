/**
 * @file
 * Reusable true-LRU recency bookkeeping for sets x ways frames. Used
 * by the LRU policy itself and as the fallback ordering inside the
 * predictive policies (GHRP and SDBP keep "3 bits of LRU stack
 * position" per block in the paper's metadata budget).
 */

#ifndef GHRP_CACHE_LRU_STACK_HH
#define GHRP_CACHE_LRU_STACK_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace ghrp::cache
{

/**
 * Stack-position LRU: position 0 is MRU, position ways-1 is LRU.
 * touch() moves a way to MRU and ages the ways in front of it.
 *
 * Positions are packed one byte per way, eight ways per 64-bit word
 * (way w is byte w % 8 of word w / 8), ceil(ways / 8) words per set.
 * Unused bytes of a set's last word hold 0x7F, a position no way can
 * reach, so the word-wide updates below leave them alone. Supports 1
 * to 64 ways.
 */
class LruStack
{
  public:
    LruStack() = default;

    /** Size for @p num_sets x @p num_ways; initial order is way order. */
    void
    reset(std::uint32_t num_sets, std::uint32_t num_ways)
    {
        GHRP_ASSERT(num_ways >= 1 && num_ways <= 64);
        sets = num_sets;
        ways = num_ways;
        wordsPerSet = (ways + 7) / 8;
        // Way order within one set, padding included; every set
        // starts from the same row.
        std::vector<std::uint64_t> row(wordsPerSet, 0);
        for (std::uint32_t w = 0; w < wordsPerSet * 8; ++w) {
            const std::uint64_t pos = w < ways ? w : padByte;
            row[w / 8] |= pos << (8 * (w % 8));
        }
        words.clear();
        words.reserve(static_cast<std::size_t>(sets) * wordsPerSet);
        for (std::uint32_t s = 0; s < sets; ++s)
            words.insert(words.end(), row.begin(), row.end());
    }

    /** Promote (set, way) to MRU. */
    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        std::uint64_t *row = &words[rowIndex(set, way)];
        const unsigned shift = 8 * (way % 8);
        const std::uint64_t old_pos = (row[way / 8] >> shift) & 0xFF;
        // Per byte, 0x80 + old - 1 - v has its high bit set exactly
        // when v < old. Every byte is at most 0x7F and the minuend at
        // least 0x7F, so no byte borrows from its neighbour, and v + 1
        // never exceeds old.
        const std::uint64_t minuend = bcast(0x80 + old_pos - 1);
        for (std::uint32_t i = 0; i < wordsPerSet; ++i) {
            const std::uint64_t v = row[i];
            row[i] = v + (((minuend - v) & highBits) >> 7);
        }
        row[way / 8] &= ~(std::uint64_t{0xFF} << shift);
    }

    /** Way currently at the LRU position of @p set. */
    std::uint32_t
    lruWay(std::uint32_t set) const
    {
        const std::uint64_t *row = &words[rowIndex(set, 0)];
        const std::uint64_t last = bcast(ways - 1);
        for (std::uint32_t i = 0; i < wordsPerSet; ++i) {
            // Zero-byte test on v ^ last: the lowest flagged byte is
            // the first byte equal to ways - 1 (only bytes above a
            // true zero can be flagged falsely).
            const std::uint64_t x = row[i] ^ last;
            const std::uint64_t zero = (x - lowBits) & ~x & highBits;
            if (zero != 0)
                return 8 * i + static_cast<std::uint32_t>(
                                   std::countr_zero(zero) / 8);
        }
        panic("corrupt LRU stack in set %u", set);
    }

    /** Stack position of (set, way); 0 = MRU. */
    std::uint8_t
    positionOf(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::uint8_t>(
            words[rowIndex(set, way) + way / 8] >> (8 * (way % 8)));
    }

    std::uint32_t numWays() const { return ways; }

  private:
    static constexpr std::uint64_t lowBits = 0x0101010101010101ull;
    static constexpr std::uint64_t highBits = 0x8080808080808080ull;
    static constexpr std::uint64_t padByte = 0x7F;

    /** @p byte repeated in all eight bytes of a word. */
    static constexpr std::uint64_t
    bcast(std::uint64_t byte)
    {
        return byte * lowBits;
    }

    /** Index of the first word of @p set's row. */
    std::size_t
    rowIndex(std::uint32_t set, std::uint32_t way) const
    {
        GHRP_ASSERT(set < sets && way < ways);
        return static_cast<std::size_t>(set) * wordsPerSet;
    }

    std::uint32_t sets = 0;
    std::uint32_t ways = 0;
    std::uint32_t wordsPerSet = 0;
    std::vector<std::uint64_t> words;
};

} // namespace ghrp::cache

#endif // GHRP_CACHE_LRU_STACK_HH
