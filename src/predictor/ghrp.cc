#include "predictor/ghrp.hh"

#include "util/logging.hh"

namespace ghrp::predictor
{

// ------------------------------------------------------ GhrpPredictor

GhrpPredictor::GhrpPredictor(const GhrpConfig &config)
    : cfg(config), bank(cfg.tableEntries, cfg.counterBits),
      historyMask(static_cast<std::uint32_t>(mask(cfg.historyBits)))
{
    GHRP_ASSERT(cfg.historyBits >= cfg.shiftPerAccess);
    GHRP_ASSERT(cfg.pcBitsPerAccess < cfg.shiftPerAccess);
}

void
GhrpPredictor::updateSpecHistory(Addr pc)
{
    const auto pc_bits = static_cast<std::uint32_t>(
        bits(pc >> cfg.historyPcShift, 0, cfg.pcBitsPerAccess));
    // Shift in the PC bits followed by one zero bit (Algorithm 2); the
    // zero lets PC bits pass into the signature unmodified in the XOR.
    spec = ((spec << cfg.shiftPerAccess) | (pc_bits << 1)) & historyMask;
}

void
GhrpPredictor::updateRetiredHistory(Addr pc)
{
    const auto pc_bits = static_cast<std::uint32_t>(
        bits(pc >> cfg.historyPcShift, 0, cfg.pcBitsPerAccess));
    retired =
        ((retired << cfg.shiftPerAccess) | (pc_bits << 1)) & historyMask;
}

void
GhrpPredictor::recoverHistory()
{
    spec = retired;
}

std::uint16_t
GhrpPredictor::signature(Addr pc) const
{
    return signatureFor(pc, spec);
}

std::uint16_t
GhrpPredictor::signatureFor(Addr pc, std::uint32_t history) const
{
    const auto pc_hash = static_cast<std::uint32_t>(
        bits(pc >> cfg.pcAlignShift, 0, cfg.historyBits));
    return static_cast<std::uint16_t>((history ^ pc_hash) & historyMask);
}

bool
GhrpPredictor::vote(std::uint16_t sig, std::uint32_t majority_threshold,
                    std::uint32_t sum_threshold) const
{
    const TableIndices idx = bank.computeIndices(sig);
    if (cfg.majorityVote)
        return bank.majorityVote(idx, majority_threshold);
    return bank.sumVote(idx, sum_threshold);
}

bool
GhrpPredictor::predictDead(std::uint16_t sig) const
{
    return vote(sig, cfg.deadThreshold, cfg.sumDeadThreshold);
}

bool
GhrpPredictor::predictBypass(std::uint16_t sig) const
{
    return vote(sig, cfg.bypassThreshold, cfg.sumBypassThreshold);
}

bool
GhrpPredictor::predictBtbDead(std::uint16_t sig) const
{
    return vote(sig, cfg.btbDeadThreshold, cfg.sumDeadThreshold);
}

bool
GhrpPredictor::predictBtbBypass(std::uint16_t sig) const
{
    return vote(sig, cfg.btbBypassThreshold, cfg.sumBypassThreshold);
}

void
GhrpPredictor::train(std::uint16_t sig, bool dead)
{
    bank.train(bank.computeIndices(sig), dead);
}

std::uint64_t
GhrpPredictor::storageBits() const
{
    // Tables plus the two history registers.
    return bank.storageBits() + 2ull * cfg.historyBits;
}

// ---------------------------------------------------- GhrpReplacement

GhrpReplacement::GhrpReplacement(GhrpPredictor &predictor) : pred(predictor)
{
}

void
GhrpReplacement::reset(std::uint32_t num_sets, std::uint32_t num_ways)
{
    sets = num_sets;
    ways = num_ways;
    meta.assign(static_cast<std::size_t>(sets) * ways, Meta{});
    lru.reset(sets, ways);
    outcomes = {};
}

bool
GhrpReplacement::shouldBypass(const cache::AccessInfo &info)
{
    if (!pred.config().bypassEnabled)
        return false;
    return pred.predictBypass(pred.signature(info.pc));
}

std::uint32_t
GhrpReplacement::chooseVictim(const cache::AccessInfo &info)
{
    // Prefer a predicted-dead block (Algorithm 5); fall back to LRU.
    // With the staleness guard, take the least-recent dead block and
    // never the MRU one (most likely a false positive).
    std::uint32_t best = ways;
    std::uint8_t best_pos = 0;
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (!meta[index(info.set, w)].predictedDead)
            continue;
        const std::uint8_t pos = lru.positionOf(info.set, w);
        if (!pred.config().requireStaleVictim) {
            lastDead = true;
            ++outcomes.deadEvictions;
            return w;
        }
        if (pos > 0 && (best == ways || pos > best_pos)) {
            best = w;
            best_pos = pos;
        }
    }
    if (best != ways) {
        lastDead = true;
        ++outcomes.deadEvictions;
        return best;
    }
    lastDead = false;
    ++outcomes.liveEvictions;
    return lru.lruWay(info.set);
}

void
GhrpReplacement::onHit(const cache::AccessInfo &info, std::uint32_t way)
{
    Meta &m = meta[index(info.set, way)];
    // A hit on a predicted-dead block is a predictor confusion; tally
    // the stored verdict before it is overwritten below.
    if (m.predictedDead)
        ++outcomes.deadHits;
    else
        ++outcomes.liveHits;
    // The old signature led to a reuse: train toward "live" so the same
    // path predicts live in the future (Algorithm 1 lines 23-25).
    pred.train(m.signature, false);
    // Re-predict under the current history and store the new signature
    // for future training (Algorithm 1 lines 26-28).
    const std::uint16_t sig = pred.signature(info.pc);
    m.signature = sig;
    m.predictedDead = pred.predictDead(sig);
    lru.touch(info.set, way);
}

void
GhrpReplacement::onFill(const cache::AccessInfo &info, std::uint32_t way)
{
    Meta &m = meta[index(info.set, way)];
    const std::uint16_t sig = pred.signature(info.pc);
    m.signature = sig;
    m.predictedDead = pred.predictDead(sig);
    lru.touch(info.set, way);
}

void
GhrpReplacement::onEvict(const cache::AccessInfo &info, std::uint32_t way,
                         Addr victim_addr)
{
    (void)info;
    (void)victim_addr;
    // The victim's stored signature led to a dead block: train toward
    // "dead" (Algorithm 6 with isDead = true).
    pred.train(meta[index(info.set, way)].signature, true);
}

std::uint16_t
GhrpReplacement::signatureAt(std::uint32_t set, std::uint32_t way) const
{
    return meta[index(set, way)].signature;
}

bool
GhrpReplacement::predictionAt(std::uint32_t set, std::uint32_t way) const
{
    return meta[index(set, way)].predictedDead;
}

// ------------------------------------------------- GhrpBtbReplacement

GhrpBtbReplacement::GhrpBtbReplacement(
    GhrpPredictor &predictor, GhrpReplacement &icache_policy,
    cache::CacheModel<cache::NoPayload> &icache_model)
    : pred(predictor), icachePolicy(icache_policy), icache(icache_model)
{
}

void
GhrpBtbReplacement::reset(std::uint32_t num_sets, std::uint32_t num_ways)
{
    sets = num_sets;
    ways = num_ways;
    deadBit.assign(static_cast<std::size_t>(sets) * ways, 0);
    lru.reset(sets, ways);
    outcomes = {};
}

std::uint16_t
GhrpBtbReplacement::signatureFor(Addr pc) const
{
    // Use the signature recorded with the branch's I-cache block when
    // the block is resident (the paper's shared-metadata scheme); fall
    // back to a freshly computed signature otherwise (block bypassed or
    // already evicted).
    if (auto way = icache.probe(pc)) {
        ++coupling.residentBlock;
        return icachePolicy.signatureAt(icache.setIndex(pc), *way);
    }
    ++coupling.fallback;
    return pred.signature(pc);
}

bool
GhrpBtbReplacement::shouldBypass(const cache::AccessInfo &info)
{
    if (!pred.config().btbBypassEnabled)
        return false;
    return pred.predictBtbBypass(signatureFor(info.pc));
}

std::uint32_t
GhrpBtbReplacement::chooseVictim(const cache::AccessInfo &info)
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
GhrpBtbReplacement::onHit(const cache::AccessInfo &info, std::uint32_t way)
{
    ++coupling.accesses;
    if (deadBit[index(info.set, way)])
        ++outcomes.deadHits;
    else
        ++outcomes.liveHits;
    const bool dead = pred.predictBtbDead(signatureFor(info.pc));
    if (dead)
        ++coupling.predictedDead;
    deadBit[index(info.set, way)] = dead ? 1 : 0;
    lru.touch(info.set, way);
}

void
GhrpBtbReplacement::onFill(const cache::AccessInfo &info, std::uint32_t way)
{
    ++coupling.accesses;
    const bool dead = pred.predictBtbDead(signatureFor(info.pc));
    if (dead)
        ++coupling.predictedDead;
    deadBit[index(info.set, way)] = dead ? 1 : 0;
    lru.touch(info.set, way);
}


// -------------------------------------------------- GhrpBtbDedicated

GhrpBtbDedicated::GhrpBtbDedicated(const GhrpConfig &config)
    : pred(config)
{
}

void
GhrpBtbDedicated::reset(std::uint32_t num_sets, std::uint32_t num_ways)
{
    sets = num_sets;
    ways = num_ways;
    meta.assign(static_cast<std::size_t>(sets) * ways, Meta{});
    lru.reset(sets, ways);
    outcomes = {};
}

bool
GhrpBtbDedicated::shouldBypass(const cache::AccessInfo &info)
{
    if (!pred.config().btbBypassEnabled)
        return false;
    return pred.predictBtbBypass(pred.signature(info.pc));
}

std::uint32_t
GhrpBtbDedicated::chooseVictim(const cache::AccessInfo &info)
{
    std::uint32_t best = ways;
    std::uint8_t best_pos = 0;
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (!meta[index(info.set, w)].predictedDead)
            continue;
        const std::uint8_t pos = lru.positionOf(info.set, w);
        if (!pred.config().requireStaleVictim) {
            lastDead = true;
            ++outcomes.deadEvictions;
            return w;
        }
        if (pos > 0 && (best == ways || pos > best_pos)) {
            best = w;
            best_pos = pos;
        }
    }
    if (best != ways) {
        lastDead = true;
        ++outcomes.deadEvictions;
        return best;
    }
    lastDead = false;
    ++outcomes.liveEvictions;
    return lru.lruWay(info.set);
}

void
GhrpBtbDedicated::onHit(const cache::AccessInfo &info, std::uint32_t way)
{
    Meta &m = meta[index(info.set, way)];
    if (m.predictedDead)
        ++outcomes.deadHits;
    else
        ++outcomes.liveHits;
    pred.train(m.signature, false);
    const std::uint16_t sig = pred.signature(info.pc);
    m.signature = sig;
    m.predictedDead = pred.predictBtbDead(sig);
    lru.touch(info.set, way);
    // The dedicated history is fed with branch PCs, using the same
    // update formula (Section III-E).
    pred.updateSpecHistory(info.pc);
    pred.updateRetiredHistory(info.pc);
}

void
GhrpBtbDedicated::onFill(const cache::AccessInfo &info, std::uint32_t way)
{
    Meta &m = meta[index(info.set, way)];
    const std::uint16_t sig = pred.signature(info.pc);
    m.signature = sig;
    m.predictedDead = pred.predictBtbDead(sig);
    lru.touch(info.set, way);
    pred.updateSpecHistory(info.pc);
    pred.updateRetiredHistory(info.pc);
}

void
GhrpBtbDedicated::onEvict(const cache::AccessInfo &info, std::uint32_t way,
                          Addr victim_addr)
{
    (void)info;
    (void)victim_addr;
    pred.train(meta[index(info.set, way)].signature, true);
}

std::uint64_t
GhrpBtbDedicated::storageBits() const
{
    const std::uint64_t frames = static_cast<std::uint64_t>(sets) * ways;
    // Per-entry: 16-bit signature + prediction bit + 3-bit LRU.
    return pred.storageBits() + frames * (16 + 1 + 3);
}

} // namespace ghrp::predictor
