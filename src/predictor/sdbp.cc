#include "predictor/sdbp.hh"

#include <bit>

#include "util/logging.hh"

namespace ghrp::predictor
{

SdbpReplacement::SdbpReplacement(const SdbpConfig &config)
    : cfg(config), bank(cfg.tableEntries, cfg.counterBits)
{
}

void
SdbpReplacement::reset(std::uint32_t num_sets, std::uint32_t num_ways)
{
    sets = num_sets;
    ways = num_ways;
    samplerValid.assign(sets, 0);
    samplerTags.assign(static_cast<std::size_t>(sets) * ways, 0);
    samplerSigs.assign(static_cast<std::size_t>(sets) * ways, 0);
    samplerLru.reset(sets, ways);
    deadBit.assign(static_cast<std::size_t>(sets) * ways, 0);
    lru.reset(sets, ways);
    outcomes = {};
}

std::uint16_t
SdbpReplacement::partialPc(Addr pc) const
{
    return static_cast<std::uint16_t>(
        foldXor(pc >> cfg.pcAlignShift, cfg.signatureBits));
}

std::uint16_t
SdbpReplacement::samplerTag(Addr addr) const
{
    return static_cast<std::uint16_t>(
        foldXor(addr, cfg.samplerTagBits));
}

bool
SdbpReplacement::predictDead(std::uint16_t sig) const
{
    return bank.sumVote(bank.computeIndices(sig), cfg.deadThreshold);
}

void
SdbpReplacement::sampleAccess(const cache::AccessInfo &info)
{
    // Guard against double-sampling one access: shouldBypass and the
    // fill hooks may both run for the same tick.
    if (info.tick == lastSampledTick)
        return;
    lastSampledTick = info.tick;

    const std::uint16_t tag = samplerTag(info.address);
    const std::uint16_t sig = signatureFor(info);
    const std::uint32_t set = info.set;
    const std::size_t row = index(set, 0);
    std::uint16_t *tags_row = &samplerTags[row];
    std::uint16_t *sigs_row = &samplerSigs[row];
    const std::uint64_t valid = samplerValid[set];

    // Sampler lookup: a partial tag can only occupy one way (installs
    // happen on misses only), so the scan order is immaterial.
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (tags_row[w] == tag && ((valid >> w) & 1u) != 0) {
            // Reuse: the signature of the previous access to this
            // block did not lead to a dead block.
            bank.train(bank.computeIndices(sigs_row[w]), false);
            sigs_row[w] = sig;
            samplerLru.touch(set, w);
            return;
        }
    }

    // Sampler miss: victimize the lowest invalid way or the
    // sampler-LRU one, training "dead" for the victim's last
    // signature.
    std::uint32_t victim;
    const std::uint64_t invalid = ~valid & mask(ways);
    if (invalid != 0) {
        victim = static_cast<std::uint32_t>(std::countr_zero(invalid));
    } else {
        victim = samplerLru.lruWay(set);
        bank.train(bank.computeIndices(sigs_row[victim]), true);
    }
    samplerValid[set] = valid | (std::uint64_t{1} << victim);
    tags_row[victim] = tag;
    sigs_row[victim] = sig;
    samplerLru.touch(set, victim);
}

bool
SdbpReplacement::shouldBypass(const cache::AccessInfo &info)
{
    sampleAccess(info);
    if (!cfg.bypassEnabled)
        return false;
    return bank.sumVote(bank.computeIndices(signatureFor(info)),
                        cfg.bypassThreshold);
}

std::uint32_t
SdbpReplacement::chooseVictim(const cache::AccessInfo &info)
{
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (deadBit[index(info.set, w)]) {
            lastDead = true;
            ++outcomes.deadEvictions;
            return w;
        }
    }
    lastDead = false;
    ++outcomes.liveEvictions;
    return lru.lruWay(info.set);
}

void
SdbpReplacement::onHit(const cache::AccessInfo &info, std::uint32_t way)
{
    sampleAccess(info);
    if (deadBit[index(info.set, way)])
        ++outcomes.deadHits;
    else
        ++outcomes.liveHits;
    deadBit[index(info.set, way)] =
        predictDead(signatureFor(info)) ? 1 : 0;
    lru.touch(info.set, way);
}

void
SdbpReplacement::onFill(const cache::AccessInfo &info, std::uint32_t way)
{
    deadBit[index(info.set, way)] =
        predictDead(signatureFor(info)) ? 1 : 0;
    lru.touch(info.set, way);
}

std::uint64_t
SdbpReplacement::storageBits() const
{
    const std::uint64_t frames = static_cast<std::uint64_t>(sets) * ways;
    // Sampler entry: valid + prediction + 3 LRU bits + signature + tag.
    const std::uint64_t sampler_bits =
        frames * (1 + 1 + 3 + cfg.signatureBits + cfg.samplerTagBits);
    // Main-cache metadata: prediction bit + 3 LRU bits per block.
    const std::uint64_t block_bits = frames * (1 + 3);
    return bank.storageBits() + sampler_bits + block_bits;
}

} // namespace ghrp::predictor
