/**
 * @file
 * Belady's OPT (the clairvoyant offline replacement optimum) for the
 * I-cache and the BTB. OPT needs future knowledge, so it cannot be a
 * cache::ReplacementPolicy; instead it replays a whole decoded trace
 * in two passes. Used to bound the headroom available to *any* online
 * replacement policy on a given workload (EXPERIMENTS.md fidelity
 * analysis).
 */

#ifndef GHRP_CORE_OPT_HH
#define GHRP_CORE_OPT_HH

#include <cstdint>
#include <vector>

#include "cache/config.hh"
#include "trace/decoded_trace.hh"

namespace ghrp::core
{

/** Results of an offline OPT replay. */
struct OptResult
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t compulsory = 0;  ///< first-ever accesses
    std::uint64_t instructions = 0;

    double
    mpki() const
    {
        return instructions ? static_cast<double>(misses) * 1000.0 /
                                  static_cast<double>(instructions)
                            : 0.0;
    }
};

/**
 * Replay @p dec's fetch ops (already fetch-buffer coalesced, as the
 * front-end sees them) through an OPT-managed I-cache of geometry
 * @p config; @p dec must be decoded at config.blockBytes. OPT here
 * includes optimal bypass: an incoming block whose next use is
 * farther than every resident block's is not cached.
 */
OptResult simulateOptIcache(const trace::DecodedTrace &dec,
                            const cache::CacheConfig &config);

/**
 * Replay @p dec's taken-branch stream through an OPT-managed BTB of
 * geometry @p config (from CacheConfig::btb). Returns use the RAS and
 * are excluded, matching the front-end's default.
 */
OptResult simulateOptBtb(const trace::DecodedTrace &dec,
                         const cache::CacheConfig &config);

/**
 * Generic OPT over an explicit access stream: @p keys are
 * tag-granular identifiers (block numbers, entry indices); @p sets
 * and @p ways give the geometry; key-to-set mapping is modulo.
 */
OptResult simulateOptStream(const std::vector<std::uint64_t> &keys,
                            std::uint32_t sets, std::uint32_t ways);

} // namespace ghrp::core

#endif // GHRP_CORE_OPT_HH
