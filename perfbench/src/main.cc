/**
 * @file
 * perfbench: the benchmark's measuring binary. run.py calls it
 * once per step and does the timing from outside, the statistics and
 * the correctness gate. Subcommands:
 *
 *   setup     bring an empty trace store to warm for the grid
 *   campaign  repeat the in-process grid (one core::runSuite per
 *             cell) for about --seconds, at least kMinReps times
 *   served    repeat the grid through service::runSweepCampaign
 *             against --daemon, then ping it and read its telemetry
 *   traced    the layer-by-layer run (layers.cc)
 *   reference pass B of the traced run alone, on a warm store: the
 *             independent per-leg reference of an untraced run
 *   ping      wait until --daemon answers a ping
 *
 * Both loops sample the peak resident set of each campaign, of this
 * process or of --rss-pid (the daemon).
 *
 * Every subcommand writes one JSON object to --out (stdout if unset).
 * Grid flags: --config paper|small --seed S --traces N
 * --instructions N --jobs N --store DIR.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "common.hh"
#include "layers.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/sweep.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/trace_store.hh"

using namespace ghrp;
using namespace perfbench;

namespace
{

std::uint64_t
directoryBytes(const std::string &dir)
{
    std::uint64_t bytes = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.is_regular_file())
            bytes += entry.file_size();
    return bytes;
}

/** Cold-store set-up along runSuite's miss path: acquireDecoded
 *  (generate + persist + decode), then resolve the direction stream
 *  and write its sidecar. */
Json
runSetup(const Args &args)
{
    if (args.store.empty())
        throw std::invalid_argument("setup needs --store");
    const frontend::FrontendConfig config = frontendConfig(args.config);
    const int kind = static_cast<int>(config.direction);
    workload::TraceStore store(args.store);
    const auto start = std::chrono::steady_clock::now();
    {
        util::ThreadPool pool(args.jobs);
        std::vector<std::future<void>> futures;
        for (const GridTrace &gt : gridTraces(args))
            futures.push_back(pool.submit([&, gt] {
                trace::DecodedTrace dec = store.acquireDecoded(
                    gt.spec, args.instructions, config.icache.blockBytes,
                    config.instBytes);
                if (!store.loadDirectionStream(gt.spec, args.instructions,
                                               kind, dec)) {
                    frontend::resolveDirectionStream(dec, config.direction);
                    store.storeDirectionStream(gt.spec, args.instructions,
                                               kind, dec);
                }
            }));
        for (auto &f : futures)
            f.get();
    }
    Json out = Json::object();
    out.set("seconds", since(start));
    out.set("traces_built", store.stats().misses);
    out.set("persisted_bytes", directoryBytes(args.store));
    return out;
}

/** Polls a process's resident set every 5 ms on its own thread and
 *  keeps the largest value seen: the peak of one campaign. */
class RssSampler
{
  public:
    explicit RssSampler(long pid)
        : path(pid > 0 ? "/proc/" + std::to_string(pid) + "/statm"
                       : "/proc/self/statm"),
          poller([this] {
              while (!done.load()) {
                  sample();
                  std::this_thread::sleep_for(std::chrono::milliseconds(5));
              }
          })
    {
    }

    /** Stop polling; return the peak in MB (10^6 bytes). */
    double
    stop()
    {
        done = true;
        poller.join();
        sample();
        return static_cast<double>(peakPages) *
               static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
    }

  private:
    void
    sample()
    {
        std::ifstream statm(path);
        std::uint64_t size = 0, resident = 0;
        if (statm >> size >> resident)
            peakPages = std::max(peakPages, resident);
    }

    std::string path;
    std::atomic<bool> done{false};
    std::uint64_t peakPages = 0;  ///< written by the poller until joined
    std::thread poller;
};

/** Shared shape of the two campaign loops' results. */
struct CampaignLog
{
    Json walls = Json::array();
    Json rssMb = Json::array();  ///< peak resident set of each campaign
    Json legMs = Json::array();
    Json legs = Json::array();  ///< first repetition's counters
    std::vector<std::string> firstDump;
    std::uint64_t repMismatches = 0;
    std::uint64_t instructions = 0;
    unsigned reps = 0;

    /** Record one repetition's legs; later repetitions must repeat the
     *  first one's counters exactly. */
    void
    addLegs(const std::vector<Json> &rep)
    {
        if (reps == 0) {
            for (const Json &leg : rep) {
                firstDump.push_back(leg.dump(0));
                legs.push(leg);
            }
        } else if (rep.size() != firstDump.size()) {
            repMismatches += std::max(rep.size(), firstDump.size());
        } else {
            for (std::size_t i = 0; i < rep.size(); ++i)
                if (rep[i].dump(0) != firstDump[i])
                    ++repMismatches;
        }
        ++reps;
    }

    Json
    finish(const Args &args)
    {
        if (args.corruptLeg >= 0)
            corruptLeg(legs, args.corruptLeg);
        Json out = Json::object();
        out.set("walls", walls);
        out.set("rss_mb", rssMb);
        out.set("leg_ms", legMs);
        out.set("instructions", instructions);
        out.set("rep_mismatches", repMismatches);
        out.set("legs", legs);
        return out;
    }
};

/** A loop ends once kMinReps ran and the time so far is nearer to
 *  --seconds than it would be after one more campaign as long as the
 *  mean one, so it measures --seconds give or take half a campaign. */
bool
loopDone(const CampaignLog &log, const Args &args,
         std::chrono::steady_clock::time_point start)
{
    if (log.reps < kMinReps)
        return false;
    const double elapsed = since(start);
    return elapsed + 0.5 * elapsed / log.reps > args.seconds;
}

Json
runCampaign(const Args &args)
{
    CampaignLog log;
    const auto loop_start = std::chrono::steady_clock::now();
    while (!loopDone(log, args, loop_start)) {
        std::vector<core::SuiteResults> cells;
        RssSampler rss(args.rssPid);
        const auto start = std::chrono::steady_clock::now();
        for (unsigned c = 0; c < kCells; ++c)
            cells.push_back(core::runSuite(cellOptions(args, c)));
        log.walls.push(since(start));
        log.rssMb.push(rss.stop());

        std::vector<Json> rep;
        std::uint64_t instructions = 0;
        for (unsigned c = 0; c < kCells; ++c) {
            const core::SuiteResults &r = cells[c];
            instructions += r.simulatedInstructions();
            for (const auto &[policy, series] : r.results)
                for (std::size_t t = 0; t < series.size(); ++t) {
                    rep.push_back(legRecord(args.seed + c, series[t]));
                    log.legMs.push(r.legSeconds.at(policy)[t] * 1e3);
                }
        }
        log.instructions = instructions;
        log.addLegs(rep);
    }
    return log.finish(args);
}

Json
pingDaemon(service::ServiceClient &client)
{
    return client.request(service::makeMessage("ping"));
}

Json
runServed(const Args &args)
{
    if (args.daemon.empty())
        throw std::invalid_argument("served needs --daemon");
    service::SweepGrid grid;
    grid.experiment = "perfbench";
    grid.base = cellOptions(args, 0);
    grid.base.traceCacheDir.clear();  // the daemon owns its store
    for (unsigned c = 0; c < kCells; ++c)
        grid.seeds.push_back(args.seed + c);
    service::SweepOptions options;
    options.daemons = {args.daemon};

    CampaignLog log;
    std::uint64_t resubmits = 0;
    const auto loop_start = std::chrono::steady_clock::now();
    while (!loopDone(log, args, loop_start)) {
        RssSampler rss(args.rssPid);
        const auto start = std::chrono::steady_clock::now();
        const service::SweepOutcome outcome =
            service::runSweepCampaign(grid, options);
        log.walls.push(since(start));
        log.rssMb.push(rss.stop());
        resubmits += outcome.resubmits;

        std::vector<Json> rep;
        std::uint64_t instructions = 0;
        for (std::size_t c = 0; c < outcome.cells.size(); ++c) {
            instructions += outcome.cells[c].sweep.simulatedInstructions;
            for (const report::Leg &leg : outcome.cells[c].legs) {
                rep.push_back(legRecord(grid.seeds[c], leg));
                log.legMs.push(leg.seconds * 1e3);
            }
        }
        log.instructions = instructions;
        log.addLegs(rep);
    }
    Json out = log.finish(args);
    out.set("resubmits", resubmits);

    service::ServiceClient client(args.daemon);
    if (!client.connect(10.0))
        throw std::runtime_error("cannot reconnect to " + args.daemon);
    Json pings = Json::array();
    for (unsigned i = 0; i < args.pings; ++i) {
        const auto start = std::chrono::steady_clock::now();
        pingDaemon(client);
        pings.push(since(start) * 1e3);
    }
    out.set("ping_ms", std::move(pings));
    out.set("daemon_metrics",
            client.request(service::makeMessage("metrics")).at("metrics"));
    return out;
}

/** Poll the daemon's socket every 2 ms until it answers a ping. */
Json
runPing(const Args &args)
{
    service::ServiceClient client(args.daemon);
    const auto start = std::chrono::steady_clock::now();
    while (!client.connect(0.0)) {
        if (since(start) > 60.0)
            throw std::runtime_error("daemon did not come up: " +
                                     args.daemon);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pingDaemon(client);
    Json out = Json::object();
    out.set("seconds", since(start));
    return out;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        setLogLevel(LogLevel::Warn);
        Json out;
        if (args.command == "setup")
            out = runSetup(args);
        else if (args.command == "campaign")
            out = runCampaign(args);
        else if (args.command == "served")
            out = runServed(args);
        else if (args.command == "traced")
            out = runTraced(args, true);
        else if (args.command == "reference")
            out = runTraced(args, false);
        else if (args.command == "ping")
            out = runPing(args);
        else
            throw std::invalid_argument("unknown command '" +
                                        args.command + "'");
        writeJson(args.out, out);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
