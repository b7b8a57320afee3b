#include "core/runner.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace ghrp::core
{

std::vector<double>
SuiteResults::icacheMpki(const frontend::PolicySpec &policy) const
{
    const auto it = results.find(policy);
    GHRP_ASSERT(it != results.end());
    std::vector<double> series;
    series.reserve(it->second.size());
    for (const frontend::FrontendResult &r : it->second)
        series.push_back(r.icacheMpki);
    return series;
}

std::vector<double>
SuiteResults::btbMpki(const frontend::PolicySpec &policy) const
{
    const auto it = results.find(policy);
    GHRP_ASSERT(it != results.end());
    std::vector<double> series;
    series.reserve(it->second.size());
    for (const frontend::FrontendResult &r : it->second)
        series.push_back(r.btbMpki);
    return series;
}

double
SuiteResults::mean(const std::vector<double> &series)
{
    if (series.empty())
        return 0.0;
    double total = 0.0;
    for (double v : series)
        total += v;
    return total / static_cast<double>(series.size());
}

std::pair<double, std::size_t>
SuiteResults::subsetMean(const std::vector<double> &series,
                         const std::vector<double> &baseline, double floor)
{
    GHRP_ASSERT(series.size() == baseline.size());
    double total = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (baseline[i] >= floor) {
            total += series[i];
            ++count;
        }
    }
    return {count ? total / static_cast<double>(count) : 0.0, count};
}

std::vector<double>
SuiteResults::relativeDifference(const std::vector<double> &series,
                                 const std::vector<double> &base,
                                 double min_base)
{
    GHRP_ASSERT(series.size() == base.size());
    std::vector<double> out;
    out.reserve(series.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (base[i] >= min_base)
            out.push_back((series[i] - base[i]) / base[i]);
    }
    return out;
}

SuiteResults::WinLoss
SuiteResults::winLoss(const std::vector<double> &series,
                      const std::vector<double> &base, double tolerance,
                      double epsilon)
{
    GHRP_ASSERT(series.size() == base.size());
    WinLoss wl;
    for (std::size_t i = 0; i < series.size(); ++i) {
        const double margin = std::max(base[i] * tolerance, epsilon);
        if (series[i] < base[i] - margin)
            ++wl.better;
        else if (series[i] > base[i] + margin)
            ++wl.worse;
        else
            ++wl.similar;
    }
    return wl;
}

std::size_t
SuiteResults::totalLegs() const
{
    std::size_t legs = 0;
    for (const auto &[policy, runs] : results)
        legs += runs.size();
    return legs;
}

std::uint64_t
SuiteResults::simulatedInstructions() const
{
    std::uint64_t total = 0;
    for (const auto &[policy, runs] : results)
        for (const frontend::FrontendResult &r : runs)
            total += r.totalInstructions;
    return total;
}

namespace
{

using DecodedPtr = std::shared_ptr<const trace::DecodedTrace>;

/** Sweep telemetry, resolved once per process. */
struct SweepMetrics
{
    telemetry::Counter &legs;
    telemetry::Counter &slowLegs;
    telemetry::Counter &tracesDecoded;
    telemetry::Histogram &legSeconds;
    telemetry::Histogram &decodeSeconds;
};

SweepMetrics &
sweepMetrics()
{
    static SweepMetrics m{
        telemetry::metrics().counter("sweep.legs"),
        telemetry::metrics().counter("sweep.slow_legs"),
        telemetry::metrics().counter("sweep.traces_decoded"),
        telemetry::metrics().histogram("sweep.leg_seconds"),
        telemetry::metrics().histogram("sweep.decode_seconds"),
    };
    return m;
}

/** Shared bookkeeping for one sweep: pre-sized result slots plus a
 *  serialised progress tick, with the optional RunHooks control
 *  points (skip / cancel / leg-done journaling) applied per leg. */
class SweepSink
{
  public:
    SweepSink(SuiteResults &out, const SuiteOptions &options,
              const ProgressFn &progress, const RunHooks &hooks)
        : out(out), options(options), progress(progress), hooks(hooks),
          totalUnits(out.specs.size() * options.policies.size())
    {
        for (const frontend::PolicySpec &policy : options.policies) {
            out.results[policy].resize(out.specs.size());
            out.legSeconds[policy].resize(out.specs.size(), 0.0);
        }
    }

    /**
     * Consume one leg without simulating it when the hooks say so.
     * Returns true when the leg was handled here: skipped legs tick
     * progress (their result comes from the caller's journal),
     * cancelled legs are silently left for a future resume.
     */
    bool
    preempted(std::size_t trace_index, const frontend::PolicySpec &policy)
    {
        if (hooks.skipLeg && hooks.skipLeg(trace_index, policy)) {
            tick(trace_index, policy, nullptr, 0.0);
            return true;
        }
        return hooks.cancelled && hooks.cancelled();
    }

    /** True when every policy leg of @p trace_index is skipped — the
     *  trace build itself can then be elided on resume. Those legs
     *  are ticked here. */
    bool
    elide(std::size_t trace_index)
    {
        if (!hooks.skipLeg || options.policies.empty())
            return false;
        for (const frontend::PolicySpec &policy : options.policies)
            if (!hooks.skipLeg(trace_index, policy))
                return false;
        for (const frontend::PolicySpec &policy : options.policies)
            tick(trace_index, policy, nullptr, 0.0);
        return true;
    }

    /** Simulate one (trace, policy) leg and store it in its slot. The
     *  decoded stream is immutable and shared by every leg of its
     *  trace — decoding happened exactly once, upstream. */
    void
    runLeg(std::size_t trace_index, const frontend::PolicySpec &policy,
           const trace::DecodedTrace &dec)
    {
        if (preempted(trace_index, policy))
            return;

        frontend::FrontendConfig config = options.base;
        config.policy = policy;

        const auto start = std::chrono::steady_clock::now();
        frontend::FrontendResult result = [&] {
            TELEMETRY_SPAN("simulate",
                           out.specs[trace_index].name + " / " +
                               frontend::policyName(policy));
            return frontend::simulateDecoded(config, dec);
        }();
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        sweepMetrics().legs.add();
        sweepMetrics().legSeconds.observeSeconds(elapsed.count());

        result.traceName = out.specs[trace_index].name;
        // Slot writes: distinct (policy, trace_index) pairs never
        // alias, and the vectors were sized up front, so concurrent
        // legs need no lock here.
        out.results[policy][trace_index] = std::move(result);
        out.legSeconds[policy][trace_index] = elapsed.count();
        tick(trace_index, policy, &out.results[policy][trace_index],
             elapsed.count());
    }

  private:
    void
    tick(std::size_t trace_index, const frontend::PolicySpec &policy,
         const frontend::FrontendResult *result, double seconds)
    {
        std::lock_guard<std::mutex> lock(progressMutex);
        // Journal before progress: a watcher that reacts to the
        // progress tick may already rely on the leg being durable.
        if (result && hooks.onLegDone)
            hooks.onLegDone(trace_index, policy, *result, seconds);
        if (result && options.slowLegMs > 0.0 &&
            seconds * 1000.0 > options.slowLegMs) {
            sweepMetrics().slowLegs.add();
            warn("slow leg: %s / %s took %.1f ms (threshold %.1f ms)",
                 out.specs[trace_index].name.c_str(),
                 frontend::policyName(policy).c_str(), seconds * 1000.0,
                 options.slowLegMs);
        }
        ++done;
        if (progress)
            progress(done, totalUnits,
                     out.specs[trace_index].name + " / " +
                         frontend::policyName(policy));
        else if (options.verbose)
            inform("[%zu/%zu] %s %s", done, totalUnits,
                   out.specs[trace_index].name.c_str(),
                   frontend::policyName(policy).c_str());
    }

    SuiteResults &out;
    const SuiteOptions &options;
    const ProgressFn &progress;
    const RunHooks &hooks;
    const std::size_t totalUnits;
    std::mutex progressMutex;
    std::size_t done = 0;
};

/**
 * Caps one run's in-flight pool tasks at its thread lease, so several
 * concurrent runs can share one pool without any of them swamping the
 * queue: a run with lease L keeps at most L tasks submitted-but-
 * unfinished, leaving the remaining workers to other runs. acquire()
 * blocks the coordinating (non-pool) thread only; pool tasks never
 * block, so the shared pool cannot deadlock.
 */
class TaskThrottle
{
  public:
    explicit TaskThrottle(std::size_t limit)
        : limit(std::max<std::size_t>(limit, 1))
    {
    }

    void
    acquire()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return inFlight < limit; });
        ++inFlight;
    }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            --inFlight;
        }
        cv.notify_one();
    }

  private:
    const std::size_t limit;
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t inFlight = 0;
};

/** Submit @p fn to @p pool, holding one throttle permit (when a
 *  throttle is present) from submission until the task finishes,
 *  normally or by exception. */
template <typename F>
auto
submitLeased(util::ThreadPool &pool, TaskThrottle *throttle, F fn)
{
    if (!throttle)
        return pool.submit(std::move(fn));
    throttle->acquire();
    return pool.submit([throttle, fn = std::move(fn)]() {
        struct Permit
        {
            TaskThrottle *throttle;
            ~Permit() { throttle->release(); }
        } permit{throttle};
        return fn();
    });
}

/** Acquire + decode + direction-resolve one trace: the one way every
 *  caller, in-process or served, gets a decoded stream. */
DecodedPtr
buildDecoded(const workload::TraceSpec &spec, const SuiteOptions &options,
             workload::TraceStore &store)
{
    TELEMETRY_SPAN("decode", spec.name);
    const auto start = std::chrono::steady_clock::now();
    auto dec = std::make_shared<trace::DecodedTrace>(store.acquireDecoded(
        spec, options.instructionOverride, options.base.icache.blockBytes,
        options.base.instBytes));
    // The resolved direction stream is a pure function of (trace
    // content, direction kind), so the store can serve it from a
    // sidecar; a miss resolves live and persists for the next run.
    const int dir_kind = static_cast<int>(options.base.direction);
    if (!store.loadDirectionStream(spec, options.instructionOverride,
                                   dir_kind, *dec)) {
        frontend::resolveDirectionStream(*dec, options.base.direction);
        store.storeDirectionStream(spec, options.instructionOverride,
                                   dir_kind, *dec);
    }
    sweepMetrics().tracesDecoded.add();
    sweepMetrics().decodeSeconds.observeSeconds(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
    return DecodedPtr(std::move(dec));
}

/**
 * The legs of one sweep: legsPerTrace legs per trace, each run by
 * runLeg on the trace's shared decoded stream. elide (optional) is
 * asked once per trace before its build; true means every leg of that
 * trace is accounted for elsewhere, so neither the build nor the legs
 * run.
 */
struct LegPlan
{
    std::size_t legsPerTrace = 0;
    std::function<bool(std::size_t)> elide;
    LegFn runLeg;
};

/** Serial reference path: same slot discipline, no threads. */
void
runSerial(const LegPlan &plan, const SweepRun &out,
          const SuiteOptions &options, workload::TraceStore &store,
          const RunHooks &hooks)
{
    for (std::size_t i = 0; i < out.specs.size(); ++i) {
        if (hooks.cancelled && hooks.cancelled())
            return;
        if (plan.elide && plan.elide(i))
            continue;
        // Acquire and decode the trace once and reuse the stream for
        // every leg so the comparison is paired (identical access
        // streams) and the decode cost is paid once, not per leg. The
        // direction predictor is leg-independent, so its stream is
        // resolved here too instead of once per leg.
        const DecodedPtr dec = buildDecoded(out.specs[i], options, store);
        for (std::size_t leg = 0; leg < plan.legsPerTrace; ++leg)
            plan.runLeg(i, leg, *dec);
    }
}

/**
 * Parallel path: every (trace, leg) is an independent pool job. The
 * decoded stream for leg (i, *) is produced by a per-trace job (store
 * lookup or generation, then one decode) and shared read-only by that
 * trace's legs via shared_ptr; builds run at most `window` traces
 * ahead of the harvest cursor so memory stays bounded on large suites.
 */
void
runParallel(const LegPlan &plan, const SweepRun &out,
            const SuiteOptions &options, workload::TraceStore &store,
            util::ThreadPool &pool, const RunHooks &hooks,
            TaskThrottle *throttle, unsigned lease)
{
    const std::size_t num_traces = out.specs.size();
    // By default the build window follows the lease, not the pool: a
    // run leasing 2 of 16 shared workers must not decode 32 traces
    // ahead.
    const std::size_t window =
        hooks.decodeWindow != 0
            ? hooks.decodeWindow
            : std::max<std::size_t>(2 * static_cast<std::size_t>(lease),
                                    4);

    std::vector<std::future<DecodedPtr>> builds(num_traces);
    std::vector<char> elided(num_traces, 0);
    std::vector<std::vector<std::future<void>>> legs(num_traces);

    std::size_t next_build = 0;
    const auto pump = [&](std::size_t upto) {
        for (; next_build < std::min(upto, num_traces); ++next_build) {
            // Stop opening new builds once cancelled: queued leg jobs
            // drain as no-ops and the harvest loop below ends at the
            // first unscheduled build.
            if (hooks.cancelled && hooks.cancelled())
                return;
            if (plan.elide && plan.elide(next_build)) {
                elided[next_build] = 1;
                continue;
            }
            const workload::TraceSpec &spec = out.specs[next_build];
            builds[next_build] = submitLeased(
                pool, throttle, [&spec, &options, &store]() {
                    return buildDecoded(spec, options, store);
                });
        }
    };

    pump(window);
    for (std::size_t i = 0; i < num_traces; ++i) {
        if (elided[i]) {
            pump(i + 1 + window);
            continue;
        }
        if (!builds[i].valid())
            break;  // cancelled before this trace's build was scheduled
        const DecodedPtr dec = builds[i].get();  // rethrows build errors
        builds[i] = {};
        legs[i].reserve(plan.legsPerTrace);
        for (std::size_t leg = 0; leg < plan.legsPerTrace; ++leg)
            legs[i].push_back(submitLeased(
                pool, throttle, [&plan, i, leg, dec]() {
                    plan.runLeg(i, leg, *dec);
                }));
        // Keep at most `window` traces with outstanding legs before
        // opening new builds, then harvest (and rethrow from) the
        // oldest trace's legs.
        pump(i + 1 + window);
        if (i + 1 >= window)
            for (std::future<void> &f : legs[i + 1 - window])
                if (f.valid())
                    f.get();
    }
    // Harvest (and rethrow from) every leg not already collected; legs
    // of elided or unscheduled traces are simply absent.
    for (std::vector<std::future<void>> &trace_legs : legs)
        for (std::future<void> &f : trace_legs)
            if (f.valid())
                f.get();
}

/** Run @p plan over out.specs on the path options and hooks select,
 *  then record the sweep's wall time and trace-store traffic. */
void
runPlan(SweepRun &out, const LegPlan &plan, const SuiteOptions &options,
        const RunHooks &hooks)
{
    workload::TraceStore store(options.traceCacheDir);
    const unsigned jobs =
        options.jobs ? options.jobs : util::ThreadPool::hardwareJobs();

    const auto start = std::chrono::steady_clock::now();
    if (hooks.pool) {
        // Shared pool: options.jobs is this run's thread lease, and a
        // throttle keeps at most that many of its tasks in flight so
        // concurrent runs on the same pool share the budget fairly.
        const unsigned lease =
            std::min(std::max(jobs, 1u), hooks.pool->size());
        TaskThrottle throttle(lease);
        runParallel(plan, out, options, store, *hooks.pool, hooks,
                    &throttle, lease);
    } else if (jobs <= 1 || out.specs.size() * plan.legsPerTrace <= 1) {
        runSerial(plan, out, options, store, hooks);
    } else {
        // Destroyed before the caller's result slots, so no job
        // outlives the state it references even on exception unwind.
        util::ThreadPool pool(jobs);
        runParallel(plan, out, options, store, pool, hooks, nullptr,
                    pool.size());
    }
    out.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    out.traceStore = store.stats();
    out.traceStoreEnabled = store.enabled();
}

} // anonymous namespace

SuiteResults
runSuite(const SuiteOptions &options, const ProgressFn &progress,
         const RunHooks &hooks)
{
    SuiteResults out;
    TELEMETRY_SPAN("sweep",
                   std::to_string(options.numTraces) + " traces x " +
                       std::to_string(options.policies.size()) +
                       " policies");
    out.specs = workload::makeSuite(options.numTraces, options.baseSeed);

    SweepSink sink(out, options, progress, hooks);
    LegPlan plan;
    plan.legsPerTrace = options.policies.size();
    plan.elide = [&sink](std::size_t i) { return sink.elide(i); };
    plan.runLeg = [&sink, &options](std::size_t i, std::size_t leg,
                                    const trace::DecodedTrace &dec) {
        sink.runLeg(i, options.policies[leg], dec);
    };
    runPlan(out, plan, options, hooks);
    return out;
}

SweepRun
runSuiteLegs(const SuiteOptions &options, std::size_t legs_per_trace,
             const LegFn &leg, const ProgressFn &progress)
{
    SweepRun out;
    TELEMETRY_SPAN("sweep", std::to_string(options.numTraces) +
                                " traces x " +
                                std::to_string(legs_per_trace) + " legs");
    out.specs = workload::makeSuite(options.numTraces, options.baseSeed);

    const std::size_t total = out.specs.size() * legs_per_trace;
    std::mutex progress_mutex;
    std::size_t done = 0;
    LegPlan plan;
    plan.legsPerTrace = legs_per_trace;
    plan.runLeg = [&](std::size_t i, std::size_t n,
                      const trace::DecodedTrace &dec) {
        {
            TELEMETRY_SPAN("simulate", out.specs[i].name + " / leg " +
                                           std::to_string(n));
            leg(i, n, dec);
        }
        sweepMetrics().legs.add();
        if (!progress)
            return;
        std::lock_guard<std::mutex> lock(progress_mutex);
        progress(++done, total, out.specs[i].name);
    };
    runPlan(out, plan, options, {});
    return out;
}

} // namespace ghrp::core
