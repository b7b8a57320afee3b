/**
 * @file
 * ghrp-served: the long-running sweep-serving daemon.
 *
 *   ghrp-served --socket PATH --journal-dir DIR [--jobs N]
 *               [--total-threads N] [--max-active N]
 *               [--max-queue N] [--trace-cache DIR]
 *               [--fsync every|close|off] [--start-paused] [--quiet]
 *               [--log-level quiet|warn|info] [--trace-out FILE]
 *
 * Listens on a unix-domain socket for ghrp-client requests (see
 * src/service/protocol.hh), executes submitted sweeps concurrently on
 * one shared simulation pool — --total-threads is the pool size,
 * --max-active bounds how many jobs run at once (1 restores the old
 * serial daemon) and --jobs is the default per-job thread request —
 * reads every job's traces from the --trace-cache store, journals
 * every completed leg under --journal-dir and serves the finished
 * ghrp-run-report JSON back. SIGTERM/SIGINT drain the in-flight jobs
 * at their next leg boundary and exit; restarting over the same
 * --journal-dir resumes every unfinished job from its last durable
 * leg.
 *
 * --start-paused brings the daemon up with its scheduler paused: it
 * accepts, queues and journals submissions but runs nothing. Meant for
 * fault-injection harnesses (CI kills a paused daemon to force shard
 * retry at a deterministic point); there is no unpause request, so a
 * paused daemon only ever drains after a restart.
 *
 * With --trace-out, span recording stays on for the daemon's entire
 * lifetime and a Chrome trace_event JSON covering every served job is
 * written on clean shutdown. Live metrics are always available through
 * `ghrp-client metrics` — no flag needed.
 *
 * Exit codes: 0 clean shutdown, 2 startup/usage error.
 */

#include <csignal>
#include <cstdio>

#include "core/cli.hh"
#include "service/server.hh"
#include "telemetry/span.hh"
#include "util/logging.hh"

namespace
{

ghrp::service::ServiceServer *activeServer = nullptr;

void
handleSignal(int)
{
    if (activeServer)
        activeServer->requestStop();  // async-signal-safe
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace ghrp;

    const core::CliOptions cli(argc, argv);
    core::applyLogLevel(cli);
    telemetry::setThreadName("main");
    const std::string trace_out = cli.getString("trace-out", "");
    if (!trace_out.empty())
        telemetry::setTracingEnabled(true);

    service::ServerConfig config;
    config.socketPath = cli.getString("socket", "");
    config.journalDir = cli.getString("journal-dir", "");
    config.traceCacheDir = cli.getString("trace-cache", "");
    config.jobs = static_cast<unsigned>(cli.getUint("jobs", 0));
    config.totalThreads =
        static_cast<unsigned>(cli.getUint("total-threads", 0));
    config.maxActiveJobs =
        static_cast<unsigned>(cli.getUint("max-active", 0));
    config.maxQueue = static_cast<std::size_t>(cli.getUint("max-queue", 8));
    config.startPaused = cli.has("start-paused");

    if (config.socketPath.empty() || config.journalDir.empty()) {
        std::fprintf(stderr,
                     "usage: ghrp-served --socket PATH --journal-dir DIR"
                     " [--jobs N] [--total-threads N] [--max-active N]"
                     " [--max-queue N] [--trace-cache DIR]"
                     " [--fsync every|close|off] [--start-paused]"
                     " [--quiet] [--log-level L] [--trace-out FILE]\n");
        return 2;
    }

    try {
        config.fsync =
            service::parseFsyncPolicy(cli.getString("fsync", "every"));

        service::ServiceServer server(std::move(config));
        server.start();

        activeServer = &server;
        std::signal(SIGTERM, handleSignal);
        std::signal(SIGINT, handleSignal);
        std::signal(SIGPIPE, SIG_IGN);

        server.run();
        activeServer = nullptr;

        if (!trace_out.empty() &&
            !telemetry::writeChromeTrace(trace_out))
            warn("cannot write trace '%s'", trace_out.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ghrp-served: %s\n", e.what());
        return 2;
    }
}
