/**
 * @file
 * Multi-daemon sweep campaigns: expand a parameter grid (seeds x
 * policies) into one shard per seed cell, spread the shards across a
 * pool of ghrp-served daemons by this campaign's outstanding-shard
 * count, poll the fleet until every shard lands, retry shards lost to
 * daemon crashes or failures, and check each cell's report against
 * its cell (report::mergeShardReports) so it is the document an
 * in-process runSuite would have produced, bit-identical per leg.
 *
 * A shard carries all of the grid's policies, so its daemon decodes
 * each trace once and replays it under every policy, as in-process
 * runSuite does. A shard that dies with its daemon is simply
 * resubmitted elsewhere — the daemon's own journal handles intra-job
 * resume, the campaign handles whole-shard loss.
 */

#ifndef GHRP_SERVICE_SWEEP_HH
#define GHRP_SERVICE_SWEEP_HH

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "report/report.hh"

namespace ghrp::service
{

/** Thrown when a campaign cannot complete (no live daemons, a shard
 *  out of attempts, an unmergeable report). */
struct SweepError : std::runtime_error
{
    explicit SweepError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** The parameter grid of one campaign: cells = seeds, one shard per
 *  cell. */
struct SweepGrid
{
    std::string experiment = "sweep";
    /** Cell template; its baseSeed/policies members are overridden per
     *  cell. */
    core::SuiteOptions base;
    /** One cell per seed; empty means one cell at base.baseSeed. */
    std::vector<std::uint64_t> seeds;
    /** Policies of every cell; empty means base.policies. */
    std::vector<frontend::PolicySpec> policies;
};

/** Campaign knobs. */
struct SweepOptions
{
    /** Daemon socket paths; each shard goes to the live one with the
     *  fewest of this campaign's shards outstanding. */
    std::vector<std::string> daemons;
    /** Total submit attempts per shard before the campaign fails. */
    unsigned maxAttempts = 3;
    /** Fleet poll interval while shards are in flight. */
    double pollSeconds = 0.2;
    /** Per-daemon connect timeout; an unreachable daemon is treated as
     *  down for that round, and its shards as lost. */
    double connectTimeoutSeconds = 2.0;
    /** Deadline for one submit while a daemon's queue is full. */
    double submitTimeoutSeconds = 120.0;
    /** Wall-clock bound on the whole campaign; 0 = none. */
    double campaignTimeoutSeconds = 0.0;
    bool verbose = false;
    /** Test hook: invoked once after every shard's initial submit has
     *  been acknowledged, before the first poll — the deterministic
     *  point to kill a daemon when exercising shard retry. */
    std::function<void()> onAllSubmitted;
};

/** What one campaign did. */
struct SweepOutcome
{
    /** One merged report per cell, in seeds order. */
    std::vector<report::RunReport> cells;
    /** The cell options each report was merged against. */
    std::vector<core::SuiteOptions> cellOptions;
    std::size_t shards = 0;     ///< shards submitted at least once
    std::size_t resubmits = 0;  ///< shards resubmitted after loss
};

/**
 * Parse a daemon discovery file: one socket path per line, blank lines
 * and '#' comments ignored. Throws SweepError when unreadable or
 * empty.
 */
std::vector<std::string> readDaemonsFile(const std::string &path);

/**
 * Run one campaign to completion: expand, submit, poll, retry, merge.
 * Progress is reported through util/logging (inform/warn). Throws
 * SweepError when the campaign cannot complete.
 */
SweepOutcome runSweepCampaign(const SweepGrid &grid,
                              const SweepOptions &options);

} // namespace ghrp::service

#endif // GHRP_SERVICE_SWEEP_HH
