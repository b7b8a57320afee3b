/**
 * @file
 * ghrp-client: command-line client of the sweep-serving daemon.
 *
 *   ghrp-client submit --socket PATH [--experiment NAME] [--traces N]
 *       [--seed S] [--instructions M] [--jobs N] [--phase-window N]
 *       [--priority P] [--timeout SEC] [--wait] [--out FILE]
 *       Submit a suite sweep (fig03-style defaults). With --wait,
 *       stream progress until the job finishes, then fetch the run
 *       report (to --out FILE, else stdout). The wait loop reconnects
 *       with exponential backoff, so it survives a daemon restart.
 *       --phase-window enables the flight recorder on the daemon side;
 *       the records land in the report and stream to watchers.
 *
 *   ghrp-client status --socket PATH --job ID
 *   ghrp-client watch  --socket PATH --job ID [--phases]
 *       Stream progress until the job finishes. With --phases, each
 *       progress frame's flight-recorder record (protocol minor 3) is
 *       rendered as a rolling interval I-cache MPKI / direction
 *       accuracy readout of the latest finished leg.
 *   ghrp-client result --socket PATH --job ID [--out FILE]
 *   ghrp-client cancel --socket PATH --job ID
 *   ghrp-client ping   --socket PATH
 *   ghrp-client metrics --socket PATH [--prometheus] [--out FILE]
 *       [--watch SECS]
 *       Fetch the daemon's live telemetry snapshot: queue depth, job
 *       wait/run histograms, trace-store hit counters, journal fsync
 *       latency, service.jobs_failed, service.uptime_seconds. Default
 *       output is the snapshot JSON; --prometheus renders Prometheus
 *       text exposition instead. --watch refreshes every SECS seconds
 *       (reconnecting across daemon restarts) until interrupted and
 *       prints a one-line uptime/failure health summary per refresh,
 *       so scheduler behaviour is observable live.
 *   ghrp-client shutdown --socket PATH
 *
 *   ghrp-client sweep (--daemons S1,S2,... | --daemons-file FILE)
 *       [--experiment NAME] [--traces N] [--instructions M]
 *       [--seeds A,B,...] [--policies P,Q,...] [--shard-attempts N]
 *       [--poll-ms MS] [--timeout SEC] [--out-dir DIR | --out FILE]
 *       Send one shard per seed cell, carrying all of the grid's
 *       policies, to the daemon with the fewest of this campaign's
 *       shards outstanding; retry shards lost to daemon crashes; and
 *       check each cell's report against its cell, so it is the
 *       document an in-process run would have produced (bit-identical
 *       per leg). One cell goes to --out/stdout; multiple cells
 *       require --out-dir.
 *
 * Exit codes: 0 success, 1 job failed/cancelled or rejected,
 * 2 usage or connection error.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/cli.hh"
#include "report/report.hh"
#include "report/telemetry_json.hh"
#include "service/client.hh"
#include "service/sweep.hh"
#include "telemetry/exposition.hh"
#include "util/logging.hh"

namespace
{

using namespace ghrp;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: ghrp-client submit --socket PATH [--experiment NAME]\n"
        "           [--traces N] [--seed S] [--instructions M] [--jobs N]\n"
        "           [--phase-window N] [--priority P] [--timeout SEC]\n"
        "           [--wait] [--out FILE]\n"
        "       ghrp-client status|watch|result|cancel --socket PATH"
        " --job ID [--out FILE] [--phases]\n"
        "       ghrp-client metrics --socket PATH [--prometheus]"
        " [--out FILE] [--watch SECS]\n"
        "       ghrp-client ping|shutdown --socket PATH\n"
        "       ghrp-client sweep (--daemons LIST | --daemons-file F)\n"
        "           [--experiment NAME] [--traces N] [--instructions M]\n"
        "           [--seeds A,B,...] [--policies P,Q,...]\n"
        "           [--shard-attempts N] [--poll-ms MS] [--timeout SEC]\n"
        "           [--out-dir DIR | --out FILE]\n");
    return 2;
}

/** Split a comma-separated list, dropping empty tokens. */
std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream stream(text);
    std::string token;
    while (std::getline(stream, token, ','))
        if (!token.empty())
            out.push_back(token);
    return out;
}

/** Write @p text to --out FILE, or stdout when no flag was given. */
void
emit(const core::CliOptions &cli, const std::string &text)
{
    const std::string out = cli.getString("out", "");
    if (out.empty()) {
        std::fputs(text.c_str(), stdout);
        return;
    }
    std::ofstream file(out);
    if (!file || !(file << text))
        throw service::ProtocolError("cannot write '" + out + "'");
    std::fprintf(stderr, "wrote %s\n", out.c_str());
}

/** Fetch the finished job's report and emit it. */
int
fetchResult(service::ServiceClient &client, const core::CliOptions &cli,
            const std::string &job)
{
    report::Json request = service::makeMessage("result");
    request.set("job", job);
    const report::Json reply = client.request(request);
    if (service::checkMessage(reply) != "result")
        throw service::ProtocolError("unexpected reply to result");
    emit(cli, reply.at("report").dump(2) + "\n");
    return 0;
}

/**
 * Follow @p job until it reaches a terminal state, printing progress
 * to stderr. Survives daemon restarts: on EOF the watch reconnects
 * with backoff and re-issues the request (the restarted daemon knows
 * the job from its journal).
 */
int
followJob(service::ServiceClient &client, const std::string &job,
          bool fetch, const core::CliOptions &cli)
{
    // Fallback clock for daemons that predate the elapsedSeconds
    // progress member (protocol minor 1): wall time since the watch
    // began rather than since the job started running.
    const auto watch_start = std::chrono::steady_clock::now();

    while (true) {
        report::Json request = service::makeMessage("watch");
        request.set("job", job);
        client.send(request);

        while (true) {
            std::optional<report::Json> message = client.receive();
            if (!message)
                break;  // connection lost: reconnect below
            const std::string type = service::checkMessage(*message);
            if (type == "progress") {
                const auto completed = message->at("completed").asUint();
                const auto total = message->at("total").asUint();
                double elapsed = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() -
                                     watch_start)
                                     .count();
                if (const report::Json *e =
                        message->find("elapsedSeconds"))
                    elapsed = e->asDouble();
                const double rate =
                    elapsed > 0.0
                        ? static_cast<double>(completed) / elapsed
                        : 0.0;
                // Rolling flight-recorder readout (--phases): the
                // newest phase record of the latest finished leg,
                // attached by protocol-minor-3 daemons.
                std::string phase_text;
                const report::Json *phase = message->find("phase");
                if (cli.has("phases") && phase) {
                    const double span =
                        static_cast<double>(
                            phase->at("phaseWindow").asUint()) *
                        static_cast<double>(
                            phase->at("stride").asUint());
                    const double mpki =
                        span > 0.0
                            ? static_cast<double>(
                                  phase->at("icacheMisses").asUint()) *
                                  1000.0 / span
                            : 0.0;
                    const std::uint64_t branches =
                        phase->at("condBranches").asUint();
                    const double accuracy =
                        branches
                            ? 100.0 *
                                  (1.0 -
                                   static_cast<double>(
                                       phase->at("condMispredicts")
                                           .asUint()) /
                                       static_cast<double>(branches))
                            : 0.0;
                    char buf[160];
                    std::snprintf(
                        buf, sizeof(buf),
                        " | %s/%s w%llu I$ %.2f MPKI dir %.1f%%",
                        phase->at("trace").asString().c_str(),
                        phase->at("policy").asString().c_str(),
                        static_cast<unsigned long long>(
                            phase->at("window").asUint()),
                        mpki, accuracy);
                    phase_text = buf;
                }
                std::fprintf(
                    stderr, "\r[%llu/%llu] %6.1fs %6.1f legs/s %-40s%s",
                    static_cast<unsigned long long>(completed),
                    static_cast<unsigned long long>(total),
                    elapsed, rate,
                    message->at("leg").asString().c_str(),
                    phase_text.c_str());
                continue;
            }
            if (type == "error")
                throw service::ProtocolError(
                    message->at("error").asString());
            if (type != "jobStatus")
                continue;
            const std::string state = message->at("state").asString();
            if (state == "queued" || state == "running")
                continue;
            std::fprintf(stderr, "\n%s: %s\n", job.c_str(),
                         state.c_str());
            if (state != "done") {
                if (const report::Json *e = message->find("error"))
                    std::fprintf(stderr, "%s\n",
                                 e->asString().c_str());
                return 1;
            }
            return fetch ? fetchResult(client, cli, job) : 0;
        }

        std::fprintf(stderr,
                     "\nghrp-client: connection lost, reconnecting...\n");
        if (!client.connect(60.0))
            throw service::ProtocolError(
                "could not reconnect to " + client.socketPath());
    }
}

int
cmdSubmit(service::ServiceClient &client, const core::CliOptions &cli)
{
    // fig03-style defaults: the paper's five policies over the
    // standard suite, default front-end geometry.
    core::SuiteOptions options;
    options.numTraces =
        static_cast<std::uint32_t>(cli.getUint("traces", 24));
    options.baseSeed = cli.getUint("seed", 42);
    options.instructionOverride = cli.getUint("instructions", 0);
    options.jobs = static_cast<unsigned>(cli.getUint("jobs", 0));
    options.base.phaseWindow = cli.getUint("phase-window", 0);

    report::Json request = service::makeMessage("submit");
    request.set("experiment",
                cli.getString("experiment", "fig03_icache_scurve"));
    request.set("options", report::suiteOptionsToJson(options));
    request.set("priority",
                static_cast<std::int64_t>(cli.getUint("priority", 0)));
    request.set("timeoutSeconds", cli.getDouble("timeout", 0.0));

    const report::Json reply = client.request(request);
    const std::string type = service::checkMessage(reply);
    if (type == "rejected") {
        std::fprintf(stderr, "rejected: %s\n",
                     reply.at("reason").asString().c_str());
        if (const report::Json *retry = reply.find("retryAfterSeconds"))
            std::fprintf(stderr, "retry after %llus\n",
                         static_cast<unsigned long long>(
                             retry->asUint()));
        return 1;
    }
    if (type != "submitted")
        throw service::ProtocolError("unexpected reply to submit");

    const std::string job = reply.at("job").asString();
    std::fprintf(stderr, "submitted %s\n", job.c_str());
    if (!cli.has("wait")) {
        std::printf("%s\n", job.c_str());
        return 0;
    }
    return followJob(client, job, true, cli);
}

/**
 * Fetch the daemon's live telemetry snapshot: JSON by default,
 * Prometheus text exposition with --prometheus.
 */
int
cmdMetrics(service::ServiceClient &client, const core::CliOptions &cli)
{
    const double watch = cli.getDouble("watch", 0.0);
    while (true) {
        const report::Json reply =
            client.request(service::makeMessage("metrics"));
        if (service::checkMessage(reply) != "metrics")
            throw service::ProtocolError("unexpected reply to metrics");
        const report::Json &snapshot_json = reply.at("metrics");
        if (cli.has("prometheus")) {
            const telemetry::Snapshot snapshot =
                report::telemetryFromJson(snapshot_json);
            emit(cli, telemetry::renderPrometheus(snapshot));
        } else {
            emit(cli, snapshot_json.dump(2) + "\n");
        }
        if (watch <= 0.0)
            return 0;
        {
            // One-line daemon health summary per refresh, so a
            // dashboard tailing stderr sees uptime and failures
            // without parsing the snapshot.
            const telemetry::Snapshot snapshot =
                report::telemetryFromJson(snapshot_json);
            double uptime = 0.0;
            std::uint64_t failed = 0;
            if (const auto it =
                    snapshot.gauges.find("service.uptime_seconds");
                it != snapshot.gauges.end())
                uptime = it->second;
            if (const auto it =
                    snapshot.counters.find("service.jobs_failed");
                it != snapshot.counters.end())
                failed = it->second;
            std::fprintf(stderr,
                         "[health] uptime %.0fs, %llu job(s) failed\n",
                         uptime,
                         static_cast<unsigned long long>(failed));
        }
        // Each refresh must reach a redirected stdout immediately —
        // a dashboard pipe should not lag a block-buffer behind.
        std::fflush(stdout);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(watch));
        // Survive a daemon restart between refreshes.
        if (!client.connected() && !client.connect(watch + 5.0))
            throw service::ProtocolError("lost connection to " +
                                         client.socketPath());
    }
}

int
cmdSweep(const core::CliOptions &cli)
{
    namespace fs = std::filesystem;

    service::SweepOptions options;
    options.daemons = splitList(cli.getString("daemons", ""));
    const std::string daemons_file = cli.getString("daemons-file", "");
    if (!daemons_file.empty()) {
        const std::vector<std::string> discovered =
            service::readDaemonsFile(daemons_file);
        options.daemons.insert(options.daemons.end(), discovered.begin(),
                               discovered.end());
    }
    if (options.daemons.empty()) {
        std::fprintf(stderr, "ghrp-client sweep: --daemons or "
                             "--daemons-file required\n");
        return 2;
    }
    options.maxAttempts =
        static_cast<unsigned>(cli.getUint("shard-attempts", 3));
    options.pollSeconds = cli.getDouble("poll-ms", 200.0) / 1000.0;
    options.campaignTimeoutSeconds = cli.getDouble("timeout", 0.0);
    options.verbose = true;  // inform() already honors --log-level

    service::SweepGrid grid;
    grid.experiment =
        cli.getString("experiment", "fig03_icache_scurve");
    grid.base.numTraces =
        static_cast<std::uint32_t>(cli.getUint("traces", 24));
    grid.base.instructionOverride = cli.getUint("instructions", 0);
    for (const std::string &token :
         splitList(cli.getString("seeds", "42")))
        grid.seeds.push_back(std::stoull(token));
    grid.policies =
        frontend::parsePolicyList(cli.getString("policies", ""));

    const service::SweepOutcome outcome =
        service::runSweepCampaign(grid, options);
    std::fprintf(stderr,
                 "sweep: %zu shard(s), %zu resubmit(s), %zu cell "
                 "report(s)\n",
                 outcome.shards, outcome.resubmits,
                 outcome.cells.size());

    const std::string out_dir = cli.getString("out-dir", "");
    if (out_dir.empty()) {
        if (outcome.cells.size() != 1) {
            std::fprintf(stderr, "ghrp-client sweep: %zu cell reports "
                                 "need --out-dir\n",
                         outcome.cells.size());
            return 2;
        }
        emit(cli, outcome.cells.front().toJson().dump(2) + "\n");
        return 0;
    }
    fs::create_directories(out_dir);
    for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
        const std::string path =
            out_dir + "/" + grid.experiment + "-seed" +
            std::to_string(outcome.cellOptions[i].baseSeed) +
            ".report.json";
        outcome.cells[i].write(path);
        std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
    return 0;
}

int
cmdSimple(service::ServiceClient &client, const core::CliOptions &cli,
          const std::string &type)
{
    report::Json request = service::makeMessage(type);
    if (type != "ping" && type != "shutdown")
        request.set("job", cli.getString("job", ""));
    const report::Json reply = client.request(request);
    std::printf("%s\n", reply.dump(2).c_str());
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    // argv[1] (the subcommand) takes the program-name slot so the flag
    // parser sees only the remaining --flag arguments.
    const core::CliOptions cli(argc - 1, argv + 1);
    core::applyLogLevel(cli);

    if (command == "sweep") {
        try {
            return cmdSweep(cli);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "ghrp-client: %s\n", e.what());
            return 2;
        }
    }

    const std::string socket = cli.getString("socket", "");
    if (socket.empty())
        return usage();

    try {
        service::ServiceClient client(socket);
        if (!client.connect(cli.getDouble("timeout", 10.0))) {
            std::fprintf(stderr, "ghrp-client: cannot connect to %s\n",
                         socket.c_str());
            return 2;
        }

        if (command == "submit")
            return cmdSubmit(client, cli);
        if (command == "status" || command == "cancel")
            return cmdSimple(client, cli,
                             command == "status" ? "status" : "cancel");
        if (command == "watch")
            return followJob(client, cli.getString("job", ""), false,
                             cli);
        if (command == "result")
            return fetchResult(client, cli, cli.getString("job", ""));
        if (command == "metrics")
            return cmdMetrics(client, cli);
        if (command == "ping" || command == "shutdown")
            return cmdSimple(client, cli, command);
        return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ghrp-client: %s\n", e.what());
        return 2;
    }
}
