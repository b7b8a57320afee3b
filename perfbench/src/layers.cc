/**
 * @file
 * The traced run. Three passes over the grid, each span recorded
 * around one public layer call:
 *
 *   A. set-up: TraceStore::acquire on an empty store (generate +
 *      persist), decode, a fresh resolveDirectionStream, the sidecar
 *      write and a sidecar read-back that must equal the fresh bits,
 *      then a cache-layer replay of the decoded stream through
 *      cache::CacheModel and branch::Btb;
 *   B. the runSuite pipeline on the now-warm store:
 *      TraceStore::acquireDecoded, TraceStore::loadDirectionStream,
 *      simulateDecoded for every paper policy, on a pool of
 *      args.jobs threads with a window of 2 x jobs traces in flight
 *      (runSuite's window);
 *   C. the report layer: buildSuiteReport, RunReport::write and
 *      mergeShardReports of per-policy shards.
 *
 * Pass B's per-leg counters are the independent reference every
 * timed campaign is checked against.
 */

#include "layers.hh"

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "branch/btb.hh"
#include "cache/basic_policies.hh"
#include "cache/cache.hh"
#include "frontend/frontend.hh"
#include "report/telemetry_json.hh"
#include "telemetry/metrics.hh"
#include "util/thread_pool.hh"
#include "workload/trace_store.hh"

namespace perfbench
{

using namespace ghrp;

// ---------------------------------------------------------------- spans

std::int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

void
SpanLog::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex);
    spans.push_back(std::move(span));
}

SpanLog::Scope::Scope(SpanLog &log_, std::string name, std::uint64_t group,
                      std::uint64_t parent)
    : log(log_)
{
    span.name = std::move(name);
    span.group = group;
    span.parent = parent;
    span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    {
        std::lock_guard<std::mutex> lock(log.mutex);
        span.id = log.nextId++;
    }
    span.startNs = log.nowNs();
}

double
SpanLog::Scope::close()
{
    if (open) {
        open = false;
        span.endNs = log.nowNs();
        log.add(span);
    }
    return static_cast<double>(span.endNs - span.startNs) * 1e-9;
}

SpanLog::Scope::~Scope() { close(); }

Json
SpanLog::totals() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::map<std::string, std::pair<double, std::uint64_t>> sums;
    for (const Span &s : spans) {
        auto &[seconds, count] = sums[s.name];
        seconds += static_cast<double>(s.endNs - s.startNs) * 1e-9;
        ++count;
    }
    Json out = Json::object();
    for (const auto &[name, sum] : sums) {
        Json j = Json::object();
        j.set("seconds", sum.first);
        j.set("count", sum.second);
        out.set(name, std::move(j));
    }
    return out;
}

Json
SpanLog::chromeTrace() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::map<std::uint64_t, unsigned> tids;
    Json events = Json::array();
    for (const Span &s : spans) {
        const auto tid = tids.emplace(s.thread, tids.size() + 1).first;
        Json args = Json::object();
        args.set("id", s.id);
        args.set("parent", s.parent);
        args.set("trace", s.group);
        Json e = Json::object();
        e.set("name", s.name);
        e.set("ph", "X");
        e.set("pid", 1);
        e.set("tid", tid->second);
        e.set("ts", static_cast<double>(s.startNs) * 1e-3);
        e.set("dur", static_cast<double>(s.endNs - s.startNs) * 1e-3);
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    Json out = Json::object();
    out.set("traceEvents", std::move(events));
    return out;
}

// ------------------------------------------------------------- helpers

namespace
{

using DecodedPtr = std::shared_ptr<const trace::DecodedTrace>;

const frontend::PolicyKind kReplayPolicies[] = {
    frontend::PolicyKind::Lru, frontend::PolicyKind::Random,
    frontend::PolicyKind::Srrip};

std::unique_ptr<cache::ReplacementPolicy>
replayPolicy(frontend::PolicyKind kind)
{
    switch (kind) {
      case frontend::PolicyKind::Lru:
        return std::make_unique<cache::LruPolicy>();
      case frontend::PolicyKind::Random:
        return std::make_unique<cache::RandomPolicy>();
      default:
        return std::make_unique<cache::SrripPolicy>();
    }
}

std::uint64_t
warmupOf(const frontend::FrontendConfig &config,
         const trace::DecodedTrace &dec)
{
    return std::min<std::uint64_t>(
        static_cast<std::uint64_t>(
            config.warmupFraction *
            static_cast<double>(dec.totalInstructions())),
        config.warmupCapInstructions);
}

/** Post-warm-up counters of one replay, plus the accesses it made. */
struct ReplayResult
{
    stats::AccessStats stats;
    std::uint64_t accesses = 0;
    double seconds = 0.0;
};

/** The decoded fetch-block stream through a bare I-cache model, with
 *  the front-end's warm-up reset at the same record boundary. */
ReplayResult
replayIcache(const frontend::FrontendConfig &config,
             const trace::DecodedTrace &dec, frontend::PolicyKind kind,
             SpanLog &log, std::uint64_t group, std::uint64_t parent)
{
    cache::CacheModel<cache::NoPayload> model(config.icache,
                                              replayPolicy(kind));
    const Addr mask = ~static_cast<Addr>(config.icache.blockBytes - 1);
    const std::uint64_t warmup = warmupOf(config, dec);
    bool warm = warmup == 0;
    ReplayResult out;
    SpanLog::Scope span(log,
                        std::string("cache.replay.") +
                            frontend::policyName(kind),
                        group, parent);
    for (std::size_t i = 0; i < dec.numRecords(); ++i) {
        for (std::uint64_t op = dec.opBegin[i]; op < dec.opBegin[i + 1];
             ++op)
            model.access(dec.fetchPc[op] & mask, dec.fetchPc[op]);
        if (!warm && dec.cumInstructions[i] >= warmup) {
            warm = true;
            model.resetStats();
        }
    }
    out.seconds = span.close();
    out.accesses = dec.opBegin[dec.numRecords()];
    out.stats = model.accessStats();
    return out;
}

/** The taken-branch stream through a bare LRU BTB (returns go to the
 *  RAS, as in the front-end's default configuration). */
ReplayResult
replayBtb(const frontend::FrontendConfig &config,
          const trace::DecodedTrace &dec, SpanLog &log,
          std::uint64_t group, std::uint64_t parent)
{
    branch::Btb btb(config.btb, std::make_unique<cache::LruPolicy>());
    const std::uint64_t warmup = warmupOf(config, dec);
    bool warm = warmup == 0;
    ReplayResult out;
    SpanLog::Scope span(log, "branch.btb_replay", group, parent);
    for (std::size_t i = 0; i < dec.numRecords(); ++i) {
        const std::uint8_t meta = dec.brMeta[i];
        if (trace::branch_meta::taken(meta) &&
            !(trace::branch_meta::isReturn(meta) && config.useRas)) {
            btb.accessTaken(dec.brPc[i], dec.brTarget[i]);
            ++out.accesses;
        }
        if (!warm && dec.cumInstructions[i] >= warmup) {
            warm = true;
            btb.resetStats();
        }
    }
    out.seconds = span.close();
    out.stats = btb.accessStats();
    return out;
}

Json
replayJson(const ReplayResult &r)
{
    Json stats = Json::array();
    for (std::uint64_t v : {r.stats.accesses, r.stats.hits, r.stats.misses,
                            r.stats.bypasses, r.stats.evictions,
                            r.stats.deadEvictions})
        stats.push(v);
    Json j = Json::object();
    j.set("accesses", r.accesses);
    j.set("seconds", r.seconds);
    j.set("stats", std::move(stats));
    return j;
}

/** What pass A learned about one trace. */
struct SetupTrace
{
    std::uint64_t persistedBytes = 0;
    std::uint64_t condBranches = 0;
    bool sidecarMatched = false;
    Json replay = Json::object();
};

SetupTrace
setupTrace(const GridTrace &gt, std::uint64_t group, const Args &args,
           const frontend::FrontendConfig &config,
           workload::TraceStore &store, SpanLog &log)
{
    SetupTrace out;
    SpanLog::Scope root(log, "setup", group);
    const int kind = static_cast<int>(config.direction);

    trace::DecodedTrace dec;
    {
        SpanLog::Scope span(log, "workload.acquire", group, root.id());
        const trace::Trace tr = store.acquire(gt.spec, args.instructions);
        span.close();
        SpanLog::Scope decode(log, "trace.decode_memory", group, root.id());
        dec = trace::decodeTrace(tr, config.icache.blockBytes,
                                 config.instBytes);
    }
    std::error_code ec;
    out.persistedBytes = std::filesystem::file_size(
        store.pathFor(gt.spec, args.instructions), ec);
    if (ec)
        out.persistedBytes = 0;

    for (std::uint8_t meta : dec.brMeta)
        out.condBranches += trace::branch_meta::conditional(meta) ? 1 : 0;
    {
        SpanLog::Scope span(log, "branch.resolve", group, root.id());
        frontend::resolveDirectionStream(dec, config.direction);
    }
    {
        SpanLog::Scope span(log, "branch.sidecar_store", group, root.id());
        store.storeDirectionStream(gt.spec, args.instructions, kind, dec);
    }
    // Read the sidecar back: it must equal the bits just resolved.
    const std::vector<std::uint8_t> fresh = dec.dirPredictedTaken;
    dec.dirPredictedTaken.clear();
    dec.directionKind = -1;
    {
        SpanLog::Scope span(log, "branch.sidecar_verify", group, root.id());
        out.sidecarMatched = store.loadDirectionStream(
                                 gt.spec, args.instructions, kind, dec) &&
                             dec.dirPredictedTaken == fresh;
    }

    for (frontend::PolicyKind p : kReplayPolicies)
        out.replay.set(
            std::string("icache.") + frontend::policyName(p),
            replayJson(replayIcache(config, dec, p, log, group, root.id())));
    out.replay.set("btb.LRU",
                   replayJson(replayBtb(config, dec, log, group, root.id())));
    return out;
}

/** One pass-B leg result. */
struct PipelineLeg
{
    frontend::FrontendResult result;
    double seconds = 0.0;
};

/** Per-trace pass-B bookkeeping. */
struct PipelineTrace
{
    double acquireSeconds = 0.0;
    double sidecarSeconds = 0.0;
    bool sidecarHit = false;
    std::uint64_t records = 0;
    std::uint64_t decodedBytes = 0;
    std::vector<PipelineLeg> legs;  ///< one per paper policy
};

/** Everything pass B shares across its trace and leg tasks. */
struct Pipeline
{
    const Args &args;
    const frontend::FrontendConfig &config;
    const std::vector<GridTrace> &grid;
    const std::vector<frontend::PolicySpec> &policies;
    workload::TraceStore &store;
    SpanLog &log;
    std::vector<PipelineTrace> traces;

    Pipeline(const Args &a, const frontend::FrontendConfig &c,
             const std::vector<GridTrace> &g,
             const std::vector<frontend::PolicySpec> &p,
             workload::TraceStore &s, SpanLog &l)
        : args(a), config(c), grid(g), policies(p), store(s), log(l),
          traces(g.size()), pool(a.jobs)
    {
    }

    std::mutex windowMutex;  ///< guards inFlight
    std::condition_variable windowCv;
    std::size_t inFlight = 0;
    std::mutex futuresMutex;  ///< guards legFutures
    std::vector<std::future<void>> legFutures;

    /** Declared last, so its workers are joined before any state they
     *  use is destroyed, on the exception path too. */
    util::ThreadPool pool;

    /** Acquire + decode + sidecar-load grid trace @p g, then fan its
     *  legs out; the last leg to finish frees the trace's window slot. */
    void
    runTrace(std::size_t g)
    {
        PipelineTrace &pt = traces[g];
        const GridTrace &gt = grid[g];
        SpanLog::Scope root(log, "pipeline", g);
        auto dec = std::make_shared<trace::DecodedTrace>();
        {
            SpanLog::Scope span(log, "trace.acquire_decoded", g, root.id());
            *dec = store.acquireDecoded(gt.spec, args.instructions,
                                        config.icache.blockBytes,
                                        config.instBytes);
            pt.acquireSeconds = span.close();
        }
        {
            SpanLog::Scope span(log, "branch.sidecar_load", g, root.id());
            pt.sidecarHit = store.loadDirectionStream(
                gt.spec, args.instructions,
                static_cast<int>(config.direction), *dec);
            pt.sidecarSeconds = span.close();
        }
        if (!pt.sidecarHit)
            frontend::resolveDirectionStream(*dec, config.direction);
        pt.records = dec->numRecords();
        pt.decodedBytes = dec->memoryBytes();
        pt.legs.resize(policies.size());
        const std::uint64_t root_id = root.id();
        root.close();

        auto remaining =
            std::make_shared<std::atomic<std::size_t>>(policies.size());
        const DecodedPtr shared = std::move(dec);
        for (std::size_t p = 0; p < policies.size(); ++p) {
            auto fut = pool.submit([this, g, p, shared, remaining, root_id] {
                frontend::FrontendConfig leg_config = config;
                leg_config.policy = policies[p];
                SpanLog::Scope span(
                    log, "frontend.sim." + frontend::policyName(policies[p]),
                    g, root_id);
                traces[g].legs[p].result =
                    frontend::simulateDecoded(leg_config, *shared);
                traces[g].legs[p].seconds = span.close();
                if (remaining->fetch_sub(1) == 1) {
                    std::lock_guard<std::mutex> lock(windowMutex);
                    --inFlight;
                    windowCv.notify_all();
                }
            });
            std::lock_guard<std::mutex> lock(futuresMutex);
            legFutures.push_back(std::move(fut));
        }
    }

    /** One grid cell, like one runSuite call: traces enter a window of
     *  2 x jobs in flight; returns when every leg has finished. */
    void
    runCell(std::uint64_t cell_seed)
    {
        const std::size_t window = 2 * static_cast<std::size_t>(args.jobs);
        std::vector<std::future<void>> trace_futures;
        for (std::size_t g = 0; g < grid.size(); ++g) {
            if (grid[g].cellSeed != cell_seed)
                continue;
            {
                std::unique_lock<std::mutex> lock(windowMutex);
                windowCv.wait(lock, [&] { return inFlight < window; });
                ++inFlight;
            }
            trace_futures.push_back(pool.submit([this, g] { runTrace(g); }));
        }
        for (auto &f : trace_futures)
            f.get();
        // Every leg future exists once every trace task has returned.
        std::vector<std::future<void>> legs;
        {
            std::lock_guard<std::mutex> lock(futuresMutex);
            legs.swap(legFutures);
        }
        for (auto &f : legs)
            f.get();
    }
};

/** Pass C for one cell: build, write, and shard-merge its report. */
void
reportCell(const Args &args, unsigned cell, const Pipeline &pipe,
           double wall, SpanLog &log, std::uint64_t &bytes,
           std::uint64_t &merge_mismatches)
{
    const core::SuiteOptions options = cellOptions(args, cell);
    core::SuiteResults results;
    results.specs = workload::makeSuite(args.traces, options.baseSeed);
    results.wallSeconds = wall;
    results.traceStoreEnabled = true;
    for (std::size_t g = 0; g < pipe.grid.size(); ++g) {
        if (pipe.grid[g].cellSeed != options.baseSeed)
            continue;
        for (std::size_t p = 0; p < pipe.policies.size(); ++p) {
            results.results[pipe.policies[p]].push_back(
                pipe.traces[g].legs[p].result);
            results.legSeconds[pipe.policies[p]].push_back(
                pipe.traces[g].legs[p].seconds);
        }
    }
    SpanLog::Scope build(log, "report.build", cell);
    const report::RunReport full =
        report::buildSuiteReport("perfbench", options, results);
    build.close();

    const std::string path = args.workDir + "/cell" + std::to_string(cell) +
                             ".report.json";
    SpanLog::Scope write(log, "report.write", cell);
    full.write(path);
    write.close();
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    bytes += ec ? 0 : size;

    // Per-policy shards, as the sweep service produces them.
    std::vector<report::RunReport> shards;
    for (const frontend::PolicySpec &policy : pipe.policies) {
        core::SuiteOptions shard_options = options;
        shard_options.policies = {policy};
        core::SuiteResults shard = results;
        shard.results = {{policy, results.results.at(policy)}};
        shard.legSeconds = {{policy, results.legSeconds.at(policy)}};
        shards.push_back(
            report::buildSuiteReport("perfbench", shard_options, shard));
    }
    SpanLog::Scope merge(log, "report.merge", cell);
    const report::RunReport merged =
        report::mergeShardReports("perfbench", options, shards);
    merge.close();
    if (merged.legs.size() != full.legs.size()) {
        merge_mismatches += full.legs.size();
        return;
    }
    for (std::size_t i = 0; i < full.legs.size(); ++i)
        if (legRecord(0, merged.legs[i]).dump(0) !=
            legRecord(0, full.legs[i]).dump(0))
            ++merge_mismatches;
}

} // anonymous namespace

// ---------------------------------------------------------- traced run

Json
runTraced(const Args &args, bool full)
{
    if (args.store.empty() || (full && args.workDir.empty()))
        throw std::invalid_argument("traced needs --store and --work-dir");
    SpanLog log;
    const std::vector<GridTrace> grid = gridTraces(args);
    const frontend::FrontendConfig config = frontendConfig(args.config);
    const std::vector<frontend::PolicySpec> policies =
        core::SuiteOptions{}.policies;
    workload::TraceStore store(args.store);
    Json out = Json::object();
    std::vector<SetupTrace> setup(full ? grid.size() : 0);
    Pipeline pipe(args, config, grid, policies, store, log);

    // ---- pass A: set-up on an empty store --------------------------
    if (full) {
        std::vector<std::future<void>> futures;
        for (std::size_t g = 0; g < grid.size(); ++g)
            futures.push_back(pipe.pool.submit([&, g] {
                setup[g] = setupTrace(grid[g], g, args, config, store, log);
            }));
        for (auto &f : futures)
            f.get();
        // Flush pass A's freshly written store before timing pass B, so
        // write-back does not compete with the pipeline (run.py does
        // the same before every untraced campaign).
        ::sync();
    }
    const workload::TraceStore::Stats after_setup = store.stats();
    out.set("traces_built", after_setup.misses);

    // ---- pass B: the runSuite pipeline on the warm store, per cell --
    out.set("pool_before",
            report::telemetryToJson(telemetry::metrics().snapshot()));
    const auto pipe_start = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < kCells; ++c)
        pipe.runCell(args.seed + c);
    const double pipe_wall = since(pipe_start);
    out.set("pipeline_wall_s", pipe_wall);
    out.set("pool_after",
            report::telemetryToJson(telemetry::metrics().snapshot()));
    out.set("pool_threads", pipe.pool.size());

    Json legs = Json::array();
    for (std::size_t g = 0; g < grid.size(); ++g)
        for (const PipelineLeg &leg : pipe.traces[g].legs)
            legs.push(legRecord(grid[g].cellSeed, leg.result));
    out.set("legs", std::move(legs));
    if (!full)
        return out;

    // ---- pass C: the report layer ----------------------------------
    std::uint64_t report_bytes = 0;
    std::uint64_t merge_mismatches = 0;
    for (unsigned c = 0; c < kCells; ++c)
        reportCell(args, c, pipe, pipe_wall, log, report_bytes,
                   merge_mismatches);
    Json report_out = Json::object();
    report_out.set("bytes", report_bytes);
    report_out.set("merge_mismatches", merge_mismatches);
    out.set("report", std::move(report_out));

    Json traces = Json::array();
    for (std::size_t g = 0; g < grid.size(); ++g) {
        const PipelineTrace &pt = pipe.traces[g];
        Json t = Json::object();
        t.set("seed", grid[g].cellSeed);
        t.set("trace", grid[g].spec.name);
        t.set("persisted_bytes", setup[g].persistedBytes);
        t.set("cond_branches", setup[g].condBranches);
        t.set("sidecar_matched", setup[g].sidecarMatched);
        t.set("sidecar_hit", pt.sidecarHit);
        t.set("records", pt.records);
        t.set("decoded_bytes", pt.decodedBytes);
        t.set("acquire_s", pt.acquireSeconds);
        t.set("sidecar_load_s", pt.sidecarSeconds);
        t.set("replay", setup[g].replay);
        traces.push(std::move(t));
    }
    out.set("traces", std::move(traces));
    out.set("store_hits", store.stats().hits - after_setup.hits);
    out.set("spans", log.totals());

    std::ofstream trace_file(args.workDir + "/spans.trace.json");
    trace_file << log.chromeTrace().dump(0) << "\n";
    return out;
}

} // namespace perfbench
