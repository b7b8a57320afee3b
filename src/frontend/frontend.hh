/**
 * @file
 * Trace-driven decoupled front-end simulator: replays a branch trace,
 * reconstructs the fetch-block stream, and drives the I-cache, BTB,
 * direction predictor, return address stack and (for GHRP) the shared
 * dead-block predictor. Not cycle accurate — MPKI is the figure of
 * merit, as in the paper (Section IV-A).
 */

#ifndef GHRP_FRONTEND_FRONTEND_HH
#define GHRP_FRONTEND_FRONTEND_HH

#include <memory>
#include <string>
#include <vector>

#include "branch/btb.hh"
#include "branch/direction.hh"
#include "branch/indirect.hh"
#include "branch/ras.hh"
#include "cache/cache.hh"
#include "cache/config.hh"
#include "cache/duel_policy.hh"
#include "predictor/ghrp.hh"
#include "predictor/sdbp.hh"
#include "predictor/ship.hh"
#include "stats/efficiency.hh"
#include "trace/branch_record.hh"
#include "trace/decoded_trace.hh"

namespace ghrp::frontend
{

/** Replacement policies the harness can instantiate. */
enum class PolicyKind : std::uint8_t
{
    Lru,
    Random,
    Fifo,
    Srrip,
    Brrip,
    Drrip,
    Sdbp,
    Ship,  ///< SHiP [Wu et al. 2011], extension baseline
    Ghrp,
    /** Set-dueling meta-policy composing two of the kinds above; must
     *  stay the LAST enumerator so duel legs sort after every static
     *  policy in result maps and report leg order. Parameterized by
     *  PolicySpec, never used bare. */
    Duel
};

/** Display name ("LRU", "GHRP", ...). */
const char *policyName(PolicyKind kind);

/** Parse a static policy name (case-insensitive); fatal() on error.
 *  Rejects "duel:..." specs — use parsePolicySpec for those. */
PolicyKind parsePolicy(const std::string &name);

/** The five policies evaluated in the paper's figures. */
inline constexpr PolicyKind paperPolicies[] = {
    PolicyKind::Lru, PolicyKind::Random, PolicyKind::Srrip,
    PolicyKind::Sdbp, PolicyKind::Ghrp};

/** Every static (non-meta) policy kind, in registry order. */
const std::vector<PolicyKind> &allPolicyKinds();

/**
 * One entry of a suite's policy axis: a static policy kind, or a
 * `duel:<A>,<B>[,psel=N,leaders=K]` set-dueling spec composing two
 * static kinds. Implicitly convertible from PolicyKind so existing
 * call sites (result-map lookups, config assignment) keep compiling;
 * the duel parameters are meaningful only when kind == Duel and are
 * ignored by comparison/naming otherwise.
 */
struct PolicySpec
{
    PolicyKind kind = PolicyKind::Lru;
    PolicyKind duelA = PolicyKind::Ghrp;  ///< leader-set policy A
    PolicyKind duelB = PolicyKind::Lru;   ///< leader-set policy B
    std::uint32_t duelPselMax = 1023;     ///< PSEL saturation bound
    std::uint32_t duelLeaders = 32;       ///< leader sets per policy

    PolicySpec() = default;
    /*implicit*/ PolicySpec(PolicyKind k) : kind(k) {}

    bool isDuel() const { return kind == PolicyKind::Duel; }

    /** True when any constituent (or the spec itself) is GHRP, i.e.
     *  the front-end must build the shared dead-block predictor. */
    bool
    involvesGhrp() const
    {
        if (kind == PolicyKind::Ghrp)
            return true;
        return isDuel() && (duelA == PolicyKind::Ghrp ||
                            duelB == PolicyKind::Ghrp);
    }
};

bool operator==(const PolicySpec &a, const PolicySpec &b);
bool operator<(const PolicySpec &a, const PolicySpec &b);
inline bool
operator!=(const PolicySpec &a, const PolicySpec &b)
{
    return !(a == b);
}

/** Canonical display name: the kind's name, or "duel:GHRP,LRU" with
 *  ",psel=N" / ",leaders=K" suffixes only when non-default. */
std::string policyName(const PolicySpec &spec);

/** Parse a policy name or duel spec; fatal() on error. */
PolicySpec parsePolicySpec(const std::string &name);

/** Non-fatal parse for daemons/report readers: returns false instead
 *  of exiting on an unknown name or malformed duel spec. */
bool tryParsePolicySpec(const std::string &name, PolicySpec &out);

/**
 * Parse a comma-separated policy list, duel-aware: a `duel:` token
 * absorbs the following token (its second constituent) plus any
 * subsequent `psel=` / `leaders=` tokens, so "GHRP,duel:GHRP,LRU,
 * psel=511,SRRIP" yields {GHRP, duel:GHRP,LRU,psel=511, SRRIP}.
 * fatal() on error.
 */
std::vector<PolicySpec> parsePolicyList(const std::string &csv);

/** Direction predictors available to the front-end. */
enum class DirectionKind : std::uint8_t
{
    HashedPerceptron,  ///< the paper's predictor
    Gshare,
    Bimodal
};

/** Front-end configuration. */
struct FrontendConfig
{
    cache::CacheConfig icache = cache::CacheConfig::icache(64, 8);
    cache::CacheConfig btb = cache::CacheConfig::btb(4096, 4);
    PolicySpec policy = PolicyKind::Lru;
    DirectionKind direction = DirectionKind::HashedPerceptron;

    predictor::GhrpConfig ghrp;
    predictor::SdbpConfig sdbp;
    predictor::ShipConfig ship;

    bool useRas = true;  ///< returns predicted by the RAS, not the BTB

    /**
     * Attach the path-history-indexed indirect target predictor (the
     * paper's future-work extension). When off, indirect targets come
     * from the BTB's last-seen target.
     */
    bool useIndirectPredictor = false;
    branch::IndirectConfig indirect;

    /** Warm-up: first min(fraction * total, cap) instructions excluded
     *  from the reported statistics (paper Section IV-C). */
    double warmupFraction = 0.5;
    std::uint64_t warmupCapInstructions = 200'000'000;

    /**
     * Use the stand-alone BTB GHRP (own tables, history and per-entry
     * signatures) instead of the paper's shared-metadata coupling —
     * the "dedicated vs shared" ablation of Section III-E.
     */
    bool ghrpDedicatedBtb = false;

    /** Speculative-history recovery on mispredictions (Section III-F);
     *  disabling it is an ablation. */
    bool recoverGhrpHistory = true;
    /** Wrong-path fetch addresses injected into the speculative
     *  history per misprediction, before recovery. */
    std::uint32_t wrongPathNoise = 3;

    /**
     * Next-line instruction prefetch degree: on a demand I-cache miss,
     * prefetch the following N sequential blocks (0 = off, the paper's
     * configuration). Interacts with replacement: prefetched blocks
     * that are dead-on-arrival pollute exactly like scan traffic.
     */
    std::uint32_t nextLinePrefetch = 0;

    bool trackEfficiency = false;  ///< attach heat-map trackers
    std::uint32_t instBytes = 4;

    /**
     * Phase flight recorder: sample one windowed telemetry record
     * every this many instructions (0 = off, the default). Records
     * carry *interval* counts (I-cache/BTB misses, mispredictions,
     * dead-block prediction outcomes, duel PSEL) and are bounded by a
     * 128-slot decimating sampler, so memory stays O(1) per leg and
     * the trajectory is a pure function of the access stream —
     * bit-identical across --jobs, crash resume and sweep shard
     * merges.
     */
    std::uint64_t phaseWindow = 0;
};

/**
 * One committed flight-recorder window: interval (not cumulative)
 * counts over `window` raw instructions — or, after decimation, over a
 * stride-sized group of raw windows ending at this record.
 */
struct PhaseRecord
{
    std::uint64_t window = 0;        ///< raw window ordinal (0-based)
    std::uint64_t instructions = 0;  ///< cumulative instructions at commit

    std::uint64_t icacheAccesses = 0;
    std::uint64_t icacheMisses = 0;
    std::uint64_t icacheEvictions = 0;
    std::uint64_t btbAccesses = 0;
    std::uint64_t btbMisses = 0;
    std::uint64_t btbEvictions = 0;

    std::uint64_t condBranches = 0;
    std::uint64_t condMispredicts = 0;
    std::uint64_t btbTargetMismatches = 0;

    /** Dead-block predictor outcomes, I-cache + BTB policies combined
     *  (all zeros under predictor-less policies). */
    std::uint64_t deadHits = 0;
    std::uint64_t liveHits = 0;
    std::uint64_t deadEvictions = 0;
    std::uint64_t liveEvictions = 0;

    /** I-cache duel PSEL at commit time (0 for non-duel legs). */
    std::int64_t psel = 0;
};

/** Flight-recorder record bound per leg: when a trajectory would grow
 *  past this, adjacent records merge pairwise and the stride doubles,
 *  so any run length fits in O(1) memory. */
inline constexpr std::size_t kPhaseTrajectoryCapacity = 128;

/** The per-leg phase trajectory harvested by the flight recorder. */
struct PhaseTrajectory
{
    std::uint64_t window = 0;  ///< raw window size, instructions
    std::uint64_t stride = 1;  ///< raw windows per record after decimation
    std::vector<PhaseRecord> records;
};

/** Results of one simulation. */
struct FrontendResult
{
    std::string traceName;
    std::string policy;

    std::uint64_t totalInstructions = 0;
    std::uint64_t warmupInstructions = 0;
    std::uint64_t measuredInstructions = 0;

    stats::AccessStats icache;  ///< post-warm-up
    stats::AccessStats btb;     ///< post-warm-up (taken branches)
    double icacheMpki = 0.0;
    double btbMpki = 0.0;

    std::uint64_t condBranches = 0;
    std::uint64_t condMispredicts = 0;
    std::uint64_t btbTargetMismatches = 0;
    std::uint64_t rasReturns = 0;
    std::uint64_t rasMispredicts = 0;
    std::uint64_t indirectBranches = 0;      ///< taken indirect branches
    std::uint64_t indirectMispredicts = 0;   ///< wrong/missing target

    /** Set-dueling statistics, present only when the leg ran a
     *  duel:<A>,<B> meta-policy (hasDuel). */
    bool hasDuel = false;
    cache::DuelTelemetry icacheDuel;
    cache::DuelTelemetry btbDuel;

    /** Phase flight recorder trajectory, present only when the leg ran
     *  with a non-zero phaseWindow (hasPhases). */
    bool hasPhases = false;
    PhaseTrajectory phases;

    /** Indirect target mispredictions per 1000 instructions. */
    double
    indirectMpki() const
    {
        return measuredInstructions
                   ? static_cast<double>(indirectMispredicts) * 1000.0 /
                         static_cast<double>(measuredInstructions)
                   : 0.0;
    }

    double
    mispredictRate() const
    {
        return condBranches
                   ? static_cast<double>(condMispredicts) / condBranches
                   : 0.0;
    }
};

/**
 * The simulator. Construct once per (config, trace) run; the
 * structures are warm only within a single run() call.
 */
class FrontendSim
{
  public:
    explicit FrontendSim(const FrontendConfig &config);
    ~FrontendSim();

    /**
     * Simulate one decoded fetch-op stream and return the post-warm-up
     * statistics. This is the hot path: no fetch-stream walking, no
     * per-block callback dispatch and no separate instruction-count
     * pass — all of that happened once, in decodeTrace(). The decode
     * granularity must match the configuration (asserted).
     */
    FrontendResult run(const trace::DecodedTrace &decoded);

    /** Simulate one trace: decodes once, then runs the decoded path. */
    FrontendResult run(const trace::Trace &trace);

    /**
     * Reference implementation: replay the branch records through
     * FetchStreamWalker directly, exactly as the simulator did before
     * the decode-once layer. Kept as an independently-coded oracle for
     * the differential tests and the decode-overhead benchmark; results
     * are bit-identical to run() on any trace.
     */
    FrontendResult runWalker(const trace::Trace &trace);

    /** Heat-map trackers (non-null only when trackEfficiency). */
    stats::EfficiencyTracker *icacheTracker() { return icacheEff.get(); }
    stats::EfficiencyTracker *btbTracker() { return btbEff.get(); }

    /** Underlying structures, for white-box tests. */
    cache::CacheModel<cache::NoPayload> &icacheModel() { return *icache; }
    branch::Btb &btbModel() { return *btb; }

  private:
    FrontendConfig cfg;

    std::unique_ptr<predictor::GhrpPredictor> ghrpPredictor;
    predictor::GhrpReplacement *icacheGhrp = nullptr;  ///< borrowed
    cache::DuelPolicy *icacheDuel = nullptr;           ///< borrowed
    cache::DuelPolicy *btbDuel = nullptr;              ///< borrowed

    std::unique_ptr<cache::CacheModel<cache::NoPayload>> icache;
    std::unique_ptr<branch::Btb> btb;
    std::unique_ptr<branch::DirectionPredictor> direction;
    std::unique_ptr<branch::IndirectPredictor> indirect;
    branch::ReturnAddressStack ras;

    std::unique_ptr<stats::EfficiencyTracker> icacheEff;
    std::unique_ptr<stats::EfficiencyTracker> btbEff;

    // ---- phase flight recorder (see FrontendConfig::phaseWindow) ----
    /** Cumulative counters at @p out, read from the live structures
     *  and the in-flight branch counters of @p live. */
    void phaseCapture(PhaseRecord &out, const FrontendResult &live) const;
    /** Fold counts about to be discarded by a stats reset into the
     *  carry, then rebase the snapshot on the post-reset values. */
    void phaseFoldReset(const FrontendResult &live);
    /** Close the raw window ending at @p cum instructions. */
    void phaseSample(std::uint64_t cum, const FrontendResult &live);

    std::uint64_t phaseNextBoundary = ~std::uint64_t{0};
    std::uint64_t phaseWindowId = 0;
    std::uint64_t phaseStride = 1;
    std::uint64_t phasePendingCount = 0;
    PhaseRecord phasePending;   ///< stride-group being accumulated
    PhaseRecord phaseSnapshot;  ///< cumulative counters at last boundary
    PhaseRecord phaseCarry;     ///< counts folded across stats resets
    std::vector<PhaseRecord> phaseRecords;
};

/**
 * Convenience: simulate @p trace under @p config and return results.
 */
FrontendResult simulateTrace(const FrontendConfig &config,
                             const trace::Trace &trace);

/**
 * Convenience: simulate a pre-decoded stream under @p config. Use this
 * when several policy legs share one trace — decode once, run many.
 */
FrontendResult simulateDecoded(const FrontendConfig &config,
                               const trace::DecodedTrace &decoded);

/**
 * Resolve the direction-predictor stream of @p dec once: run the
 * @p kind predictor over the conditional-branch sequence and store the
 * per-record predicted-taken bit in the decoded trace. Legs configured
 * with the same predictor kind then read the bit instead of
 * re-simulating the predictor — the predictor only ever observes the
 * branch records, so the bits are exactly what a live predictor would
 * produce and simulation results are unchanged.
 */
void resolveDirectionStream(trace::DecodedTrace &dec, DirectionKind kind);

} // namespace ghrp::frontend

#endif // GHRP_FRONTEND_FRONTEND_HH
