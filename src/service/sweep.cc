#include "service/sweep.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <thread>

#include "service/client.hh"
#include "service/protocol.hh"
#include "util/logging.hh"

namespace ghrp::service
{

namespace
{

/** One request over a throwaway connection. nullopt means the daemon
 *  is unreachable or dropped the connection (treated as down for this
 *  round); an error reply propagates as ProtocolError. */
std::optional<report::Json>
requestOnce(const std::string &socket, const report::Json &message,
            double connect_timeout)
{
    ServiceClient client(socket);
    if (!client.connect(connect_timeout))
        return std::nullopt;
    client.send(message);
    std::optional<report::Json> reply = client.receive();
    if (!reply)
        return std::nullopt;
    if (checkMessage(*reply) == "error")
        throw ProtocolError(reply->at("error").asString());
    return reply;
}

/** One cell of campaign work: a whole seed with all of the grid's
 *  policies, so each trace is decoded once per campaign. */
struct Shard
{
    std::size_t cell = 0;
    std::string daemon;  ///< socket it currently runs on
    std::string jobId;
    unsigned attempts = 0;
    bool done = false;
    report::RunReport report;
    std::string label;  ///< "seed N" for log lines
};

} // anonymous namespace

std::vector<std::string>
readDaemonsFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        throw SweepError("sweep: cannot read daemons file '" + path +
                         "'");
    std::vector<std::string> daemons;
    std::string line;
    while (std::getline(file, line)) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        const std::size_t begin = line.find_first_not_of(" \t\r");
        if (begin == std::string::npos)
            continue;
        const std::size_t end = line.find_last_not_of(" \t\r");
        daemons.push_back(line.substr(begin, end - begin + 1));
    }
    if (daemons.empty())
        throw SweepError("sweep: daemons file '" + path +
                         "' lists no sockets");
    return daemons;
}

SweepOutcome
runSweepCampaign(const SweepGrid &grid, const SweepOptions &options)
{
    using Clock = std::chrono::steady_clock;

    if (options.daemons.empty())
        throw SweepError("sweep: no daemons given");
    const std::vector<std::uint64_t> seeds =
        grid.seeds.empty() ? std::vector<std::uint64_t>{grid.base.baseSeed}
                           : grid.seeds;
    const std::vector<frontend::PolicySpec> policies =
        grid.policies.empty() ? grid.base.policies : grid.policies;
    if (policies.empty())
        throw SweepError("sweep: no policies in the grid");
    if (grid.base.numTraces == 0)
        throw SweepError("sweep: zero traces per cell");

    SweepOutcome outcome;
    for (std::uint64_t seed : seeds) {
        core::SuiteOptions cell = grid.base;
        cell.baseSeed = seed;
        cell.policies = policies;
        outcome.cellOptions.push_back(std::move(cell));
    }

    std::vector<Shard> shards(outcome.cellOptions.size());
    for (std::size_t c = 0; c < shards.size(); ++c) {
        shards[c].cell = c;
        shards[c].label = "seed " + std::to_string(seeds[c]);
    }
    outcome.shards = shards.size();

    // This campaign's in-flight shards per daemon: the load signal.
    std::map<std::string, unsigned> outstanding;
    for (const std::string &daemon : options.daemons)
        outstanding[daemon] = 0;

    // Submit one shard to the daemon with the fewest of this
    // campaign's shards outstanding, skipping @p avoid (the daemon
    // that just lost it) unless it is the only one; the connect below
    // skips daemons that are down. Returns whether any daemon accepted.
    const auto submitShard = [&](Shard &shard,
                                 const std::string &avoid) -> bool {
        std::vector<std::string> ranked = options.daemons;
        std::stable_sort(ranked.begin(), ranked.end(),
                         [&outstanding](const std::string &a,
                                        const std::string &b) {
                             return outstanding.at(a) < outstanding.at(b);
                         });
        if (ranked.size() > 1 && !avoid.empty())
            std::stable_partition(ranked.begin(), ranked.end(),
                                  [&avoid](const std::string &daemon) {
                                      return daemon != avoid;
                                  });

        report::Json message = makeMessage("submit");
        message.set("experiment", grid.experiment);
        message.set("options", report::suiteOptionsToJson(
                                   outcome.cellOptions[shard.cell]));

        for (const std::string &daemon : ranked) {
            try {
                ServiceClient client(daemon);
                if (!client.connect(options.connectTimeoutSeconds))
                    continue;
                const report::Json reply = client.submitWithBackoff(
                    message, options.submitTimeoutSeconds);
                shard.daemon = daemon;
                shard.jobId = reply.at("job").asString();
                ++shard.attempts;
                ++outstanding[daemon];
                if (options.verbose)
                    inform("sweep: %s -> %s as %s", shard.label.c_str(),
                           daemon.c_str(), shard.jobId.c_str());
                return true;
            } catch (const ProtocolError &e) {
                warn("sweep: submit of %s to %s failed: %s",
                     shard.label.c_str(), daemon.c_str(), e.what());
            }
        }
        return false;
    };

    const auto resubmit = [&](Shard &shard, const char *why) {
        if (!shard.daemon.empty()) {
            auto it = outstanding.find(shard.daemon);
            if (it != outstanding.end() && it->second > 0)
                --it->second;
        }
        if (shard.attempts >= options.maxAttempts)
            throw SweepError("sweep: shard " + shard.label + " " + why +
                             " after " +
                             std::to_string(shard.attempts) +
                             " attempt(s); giving up");
        warn("sweep: shard %s %s (attempt %u); resubmitting",
             shard.label.c_str(), why, shard.attempts);
        const std::string lost_on = shard.daemon;
        shard.daemon.clear();
        shard.jobId.clear();
        if (!submitShard(shard, lost_on))
            throw SweepError("sweep: no live daemon accepted shard " +
                             shard.label);
        ++outcome.resubmits;
    };

    for (Shard &shard : shards)
        if (!submitShard(shard, ""))
            throw SweepError("sweep: no live daemon accepted shard " +
                             shard.label);
    inform("sweep: %zu shard(s) submitted across %zu daemon(s)",
           shards.size(), options.daemons.size());
    if (options.onAllSubmitted)
        options.onAllSubmitted();

    const Clock::time_point campaign_deadline =
        options.campaignTimeoutSeconds > 0
            ? Clock::now() +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          options.campaignTimeoutSeconds))
            : Clock::time_point::max();

    std::size_t done = 0;
    while (done < shards.size()) {
        if (Clock::now() > campaign_deadline)
            throw SweepError("sweep: campaign timed out with " +
                             std::to_string(shards.size() - done) +
                             " shard(s) in flight");

        for (Shard &shard : shards) {
            if (shard.done)
                continue;

            std::optional<report::Json> status;
            try {
                report::Json message = makeMessage("status");
                message.set("job", shard.jobId);
                status = requestOnce(shard.daemon, message,
                                     options.connectTimeoutSeconds);
            } catch (const ProtocolError &e) {
                // e.g. "unknown job": the daemon restarted without the
                // shard's journal. The shard is gone; run it again.
                resubmit(shard, "was lost");
                continue;
            }
            if (!status) {
                resubmit(shard, "lost its daemon");
                continue;
            }

            const std::string state = status->at("state").asString();
            if (state == "queued" || state == "running")
                continue;
            if (state != "done") {
                std::string why = "ended " + state;
                if (const report::Json *e = status->find("error"))
                    why += " (" + e->asString() + ")";
                resubmit(shard, why.c_str());
                continue;
            }

            report::Json message = makeMessage("result");
            message.set("job", shard.jobId);
            std::optional<report::Json> result;
            try {
                result = requestOnce(shard.daemon, message,
                                     options.connectTimeoutSeconds);
            } catch (const ProtocolError &e) {
                resubmit(shard, e.what());
                continue;
            }
            if (!result) {
                resubmit(shard, "lost its daemon");
                continue;
            }
            shard.report =
                report::RunReport::fromJson(result->at("report"));
            shard.done = true;
            ++done;
            auto it = outstanding.find(shard.daemon);
            if (it != outstanding.end() && it->second > 0)
                --it->second;
            if (options.verbose)
                inform("sweep: %s done (%zu/%zu)", shard.label.c_str(),
                       done, shards.size());
        }

        if (done < shards.size())
            std::this_thread::sleep_for(
                std::chrono::duration<double>(options.pollSeconds));
    }

    // Each cell's daemon report is validated against its cell (legs,
    // policies and options) by the same merge that joins shard sets.
    for (const Shard &shard : shards) {
        try {
            outcome.cells.push_back(report::mergeShardReports(
                grid.experiment, outcome.cellOptions[shard.cell],
                {shard.report}));
        } catch (const report::ReportError &e) {
            throw SweepError(std::string("sweep: merge failed: ") +
                             e.what());
        }
    }
    return outcome;
}

} // namespace ghrp::service
