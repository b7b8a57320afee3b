#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload,
checks every simulated counter, and prints the metrics.

    python3 perfbench/run.py --workload fig03_warm --seed 42 --seconds 28 --trace 0

Workloads (see perfbench/README.md for why each exists):
    fig03_warm       two in-process runSuite cells, paper configuration
    served_campaign  the fig03_warm grid through one ghrp-served daemon
    miss_heavy       the same grid at 8KB 4-way I-cache / 512x4 BTB (run
                     by hand; not in BENCHMARK.json)

--trace 0 measures the end-to-end metrics; --trace 1 runs the separate
layer-traced run and prints the per-layer metrics. Every line before the
last is human-readable; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every check passed.

--smoke shrinks the grid to a few short traces (for the self-test);
--corrupt-leg N perturbs one leg the system under test reports, which
must make the run fail.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_REPORT = os.path.join("reports", "seed", "fig03_icache_scurve.json")
POLICIES = ["LRU", "Random", "SRRIP", "SDBP", "GHRP"]
REPLAY_POLICIES = ["LRU", "Random", "SRRIP"]
PAPER_ICACHE_PCT = -18.1  # GHRP vs LRU, ratio of suite-mean MPKI
PAPER_BTB_PCT = -29.9
SETUP_REPS = 3

WORKLOADS = {
    "fig03_warm": {"config": "paper", "served": False},
    "miss_heavy": {"config": "small", "served": False},
    "served_campaign": {"config": "paper", "served": True},
}

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("leg_ms_p50", "ms"),
    ("leg_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
]


def per_layer_units():
    """Every per-layer metric name with its unit, in print order."""
    units = [
        ("workload.build_s", "s"),
        ("workload.traces_built", "count"),
        ("workload.persisted_mb", "MB"),
        ("trace.acquire_decoded_s", "s"),
        ("trace.decode_ns_per_record", "ns"),
        ("trace.decoded_mb", "MB"),
        ("trace.store_hit_ratio", "ratio"),
        ("branch.resolve_s", "s"),
        ("branch.resolve_ns_per_cond", "ns"),
        ("branch.sidecar_load_s", "s"),
        ("branch.sidecar_hit_ratio", "ratio"),
    ]
    units += [("frontend.sim_s." + p, "s") for p in POLICIES]
    units += [("frontend.sim_ns_per_instr." + p, "ns") for p in POLICIES]
    units += [("predictor.overhead_ns_per_instr." + p, "ns")
              for p in ("SDBP", "GHRP")]
    units += [("predictor.dead_eviction_ratio." + p, "ratio")
              for p in ("SDBP", "GHRP")]
    units += [("predictor.bypass_ratio.GHRP", "ratio")]
    units += [("cache.icache_misses." + p, "count") for p in POLICIES]
    units += [("cache.btb_misses." + p, "count") for p in POLICIES]
    units += [("cache.replay_ns_per_access." + p, "ns")
              for p in REPLAY_POLICIES]
    units += [
        ("branch.btb_replay_ns_per_access", "ns"),
        ("util.pool_task_wait_ms_p50", "ms"),
        ("util.pool_task_wait_ms_p95", "ms"),
        ("util.pool_busy_ratio", "ratio"),
        ("report.build_s", "s"),
        ("report.write_s", "s"),
        ("report.merge_s", "s"),
        ("report.mb", "MB"),
        ("service.ping_ms_p50", "ms"),
        ("service.ping_ms_p95", "ms"),
        ("service.job_wait_s", "s"),
        ("service.job_s", "s"),
        ("service.journal_records", "count"),
        ("service.journal_mb", "MB"),
        ("service.decodes_per_trace", "ratio"),
        ("service.shard_resubmits", "count"),
        ("bench.tracing_overhead_pct", "%"),
    ]
    return units


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    """Exit without a result line: the benchmark could not run."""
    log("perfbench: " + msg)
    sys.exit(2)


# ------------------------------------------------------------------ build

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and build perfbench + ghrp-served; return the bin dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "runner.hh")):
        fail_setup("simulator sources not found next to perfbench/")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
            fail_setup("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs], cwd=ROOT,
                      stdout=sys.stderr).returncode:
        fail_setup("build failed")
    return bdir


# --------------------------------------------------------------- children

class Runner:
    """Runs perfbench subcommands from the checkout root, one at a time,
    and the daemon they talk to."""

    def __init__(self, bdir, work, grid):
        self.bin = os.path.join(bdir, "perfbench")
        self.served_bin = os.path.join(bdir, "ghrp-served")
        self.work = work
        self.grid = grid
        self.count = 0
        self.child = None
        self.daemon = None

    def run(self, command, *extra, grid=True):
        """Run one subcommand; return (result JSON, wall s)."""
        self.count += 1
        out = os.path.join(self.work, "%s-%d.json" % (command, self.count))
        cmd = [self.bin, command, "--out", out]
        cmd += [str(x) for x in (self.grid if grid else []) + list(extra)]
        start = time.perf_counter()
        proc = self.child = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr)
        proc.wait()
        wall = time.perf_counter() - start
        log("step %s: %.2f s" % (command, wall))
        self.child = None
        if proc.returncode != 0:
            raise RuntimeError("%s exited with %d" % (command, proc.returncode))
        with open(out) as f:
            result = json.load(f)
        os.unlink(out)
        return result, wall

    def setup(self, store, served, jobs):
        """Bring the empty @store to warm, plus on @served start a daemon
        on it; return the seconds until it is ready."""
        _, wall = self.run("setup", "--store", store)
        if served:
            wall += self.start_daemon(store, jobs)
        return wall

    def start_daemon(self, store, jobs):
        """Start ghrp-served on @store; return seconds until it answers."""
        self.stop_daemon()
        ddir = os.path.join(self.work, "daemon-%d" % (self.count + 1))
        os.makedirs(ddir)
        self.socket = os.path.join(ddir, "d.sock")
        start = time.perf_counter()
        self.daemon = subprocess.Popen(
            [self.served_bin, "--socket", self.socket, "--journal-dir",
             os.path.join(ddir, "journal"), "--trace-cache", store,
             "--total-threads", str(jobs), "--log-level", "warn"],
            cwd=ROOT, stdout=sys.stderr)
        self.run("ping", "--daemon", self.socket, grid=False)
        return time.perf_counter() - start

    def close(self):
        """Stop whatever still runs: an interrupted step, the daemon."""
        if self.child is not None:
            self.child.kill()
            self.child.wait()
            self.child = None
        self.stop_daemon()

    def stop_daemon(self):
        """SIGTERM the daemon and wait for it to end."""
        if self.daemon is None:
            return
        daemon, self.daemon = self.daemon, None
        daemon.terminate()
        daemon.wait()


# -------------------------------------------------------------- statistics

def percentile(values, q):
    """Linear-interpolated percentile q (an integer in 1..99)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def hist_delta(before, after, name):
    """Bucket counts of telemetry histogram @name between two snapshots."""
    def buckets(snap):
        h = snap.get("histograms", {}).get(name, {})
        return {b["bucket"]: b["count"] for b in h.get("buckets", [])}, \
            h.get("sumSeconds", 0.0)
    b0, s0 = buckets(before)
    b1, s1 = buckets(after)
    return {k: v - b0.get(k, 0) for k, v in b1.items() if v - b0.get(k, 0)}, \
        s1 - s0


def hist_quantile_ms(buckets, q):
    """Upper bound (ms) of the log2 bucket holding quantile q."""
    total = sum(buckets.values())
    if total == 0:
        return 0.0
    seen = 0
    for index in sorted(buckets):
        seen += buckets[index]
        if seen >= q * total:
            return (1 << index) * 1e-9 * 1e3
    return 0.0


def mpki(leg, which):
    measured = leg["instr"][2]
    return leg[which][2] * 1000.0 / measured if measured else 0.0


def gap_to_paper(legs):
    """(I-cache, BTB) gap in pp: GHRP's change vs LRU as a ratio of
    suite-mean MPKI, minus the paper's change."""
    out = []
    for which, paper in (("icache", PAPER_ICACHE_PCT), ("btb", PAPER_BTB_PCT)):
        mean = {}
        for policy in ("LRU", "GHRP"):
            series = [mpki(l, which) for l in legs if l["policy"] == policy]
            mean[policy] = statistics.fmean(series)
        change = (mean["GHRP"] / mean["LRU"] - 1.0) * 100.0
        out.append(change - paper)
    return out


# --------------------------------------------------------- correctness gate

def leg_key(leg):
    return (leg["seed"], leg["trace"], leg["policy"])


def counters(leg):
    return (leg["instr"], leg["icache"], leg["btb"], leg["branch"])


def compare_legs(name, got, want, problems):
    """Keys of legs missing from, extra to, or different between @got
    and @want."""
    got_map = {leg_key(l): counters(l) for l in got}
    want_map = {leg_key(l): counters(l) for l in want}
    bad = set()
    for key in sorted(set(got_map) | set(want_map)):
        if key not in got_map:
            problems.append("%s: missing leg %s" % (name, key))
        elif key not in want_map:
            problems.append("%s: unexpected leg %s" % (name, key))
        elif got_map[key] != want_map[key]:
            problems.append("%s: counters differ on %s" % (name, key))
        else:
            continue
        bad.add(key)
    return bad


def invariant_failures(legs, problems):
    """Keys of legs whose hits + misses != accesses."""
    bad = set()
    for leg in legs:
        for which in ("icache", "btb"):
            acc, hits, misses = leg[which][:3]
            if hits + misses != acc:
                bad.add(leg_key(leg))
                problems.append("hits + misses != accesses (%s) on %s"
                                % (which, leg_key(leg)))
    return bad


def seed_report_legs(seed):
    """Legs of the committed seed report as records, when its cell is in
    the grid (seed 42, paper configuration, default traces)."""
    path = os.path.join(ROOT, SEED_REPORT)
    with open(path) as f:
        report = json.load(f)
    opts = report["options"]
    if opts["baseSeed"] != seed:
        return []
    out = []
    for leg in report["legs"]:
        def cs(c):
            return [c["accesses"], c["hits"], c["misses"], c["bypasses"],
                    c["evictions"], c["deadEvictions"]]
        b = leg["branch"]
        i = leg["instructions"]
        out.append({
            "seed": seed, "trace": leg["trace"], "policy": leg["policy"],
            "instr": [i["total"], i["warmup"], i["measured"]],
            "icache": cs(leg["icache"]), "btb": cs(leg["btb"]),
            "branch": [b["condBranches"], b["condMispredicts"],
                       b["btbTargetMismatches"], b["rasReturns"],
                       b["rasMispredicts"], b["indirectBranches"],
                       b["indirectMispredicts"]],
        })
    return out


def gate(campaign, reference, args, default_grid, problems):
    """Failed legs of the timed campaign against every reference."""
    legs = campaign["legs"]
    reps = max(1, len(campaign["walls"]))
    bad = compare_legs("vs independent pipeline", legs, reference, problems)
    bad |= invariant_failures(legs, problems)
    if default_grid and WORKLOADS[args.workload]["config"] == "paper":
        committed = seed_report_legs(args.seed)
        if committed:
            mine = [l for l in legs if l["seed"] == args.seed]
            bad |= compare_legs("vs " + SEED_REPORT, mine, committed, problems)
            log("checked %d legs against %s" % (len(committed), SEED_REPORT))
    failed = len(bad) * reps + campaign["rep_mismatches"]
    if campaign["rep_mismatches"]:
        problems.append("%d legs changed between repetitions"
                        % campaign["rep_mismatches"])
    resubmits = campaign.get("resubmits", 0)
    if resubmits:
        problems.append("%d shard resubmits" % resubmits)
    return failed + resubmits, max(len(legs), len(reference)) * reps


# ---------------------------------------------------------------- metrics

def end_to_end(campaign, setup):
    # The mean, not the median: a run holds two to five campaigns, and
    # served campaigns swing between about 9 and 13 s from one to the
    # next, so the median of so few jumps between the two.
    wall = statistics.fmean(campaign["walls"])
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "sim_minstr_per_s": campaign["instructions"] / wall / 1e6,
        "leg_ms_p50": percentile(campaign["leg_ms"], 50),
        "leg_ms_p95": percentile(campaign["leg_ms"], 95),
        # The first campaign of a fresh process: the same work in every
        # run. The daemon grows from one campaign to the next by an
        # amount that depends on shard scheduling (README.md).
        "peak_rss_mb": campaign["rss_mb"][0],
    }


def per_layer(traced, campaign, served):
    """Per-layer metrics of a traced run; @campaign is the untraced
    in-process campaign, @served the served one (None when no daemon
    ran, and then every service.* metric reads 0)."""
    spans = traced["spans"]
    traces = traced["traces"]
    legs = traced["legs"]

    def span_s(name):
        return spans.get(name, {}).get("seconds", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    n = len(traces)
    m = {
        "workload.build_s": span_s("workload.acquire"),
        "workload.traces_built": traced["traces_built"],
        "workload.persisted_mb":
            sum(t["persisted_bytes"] for t in traces) / 1e6,
        "trace.acquire_decoded_s": span_s("trace.acquire_decoded"),
        "trace.decode_ns_per_record": ratio(
            span_s("trace.acquire_decoded") * 1e9,
            sum(t["records"] for t in traces)),
        "trace.decoded_mb": sum(t["decoded_bytes"] for t in traces) / 1e6,
        "trace.store_hit_ratio": ratio(traced["store_hits"], n),
        "branch.resolve_s": span_s("branch.resolve"),
        "branch.resolve_ns_per_cond": ratio(
            span_s("branch.resolve") * 1e9,
            sum(t["cond_branches"] for t in traces)),
        "branch.sidecar_load_s": span_s("branch.sidecar_load"),
        "branch.sidecar_hit_ratio":
            ratio(sum(1 for t in traces if t["sidecar_hit"]), n),
    }
    ns = {}
    for p in POLICIES:
        mine = [l for l in legs if l["policy"] == p]
        sim = span_s("frontend.sim." + p)
        ns[p] = ratio(sim * 1e9, sum(l["instr"][0] for l in mine))
        m["frontend.sim_s." + p] = sim
        m["frontend.sim_ns_per_instr." + p] = ns[p]
        m["cache.icache_misses." + p] = sum(l["icache"][2] for l in mine)
        m["cache.btb_misses." + p] = sum(l["btb"][2] for l in mine)
        if p in ("SDBP", "GHRP"):
            m["predictor.overhead_ns_per_instr." + p] = ns[p] - ns["SRRIP"]
            m["predictor.dead_eviction_ratio." + p] = ratio(
                sum(l["icache"][5] + l["btb"][5] for l in mine),
                sum(l["icache"][4] + l["btb"][4] for l in mine))
        if p == "GHRP":
            m["predictor.bypass_ratio.GHRP"] = ratio(
                sum(l["icache"][3] + l["btb"][3] for l in mine),
                sum(l["icache"][2] + l["btb"][2] for l in mine))
    for key, name in [("icache." + p, "cache.replay_ns_per_access." + p)
                      for p in REPLAY_POLICIES] + \
            [("btb.LRU", "branch.btb_replay_ns_per_access")]:
        m[name] = ratio(sum(t["replay"][key]["seconds"] for t in traces) * 1e9,
                        sum(t["replay"][key]["accesses"] for t in traces))

    waits, _ = hist_delta(traced["pool_before"], traced["pool_after"],
                          "pool.task_wait_seconds")
    _, busy = hist_delta(traced["pool_before"], traced["pool_after"],
                         "pool.task_run_seconds")
    m["util.pool_task_wait_ms_p50"] = hist_quantile_ms(waits, 0.50)
    m["util.pool_task_wait_ms_p95"] = hist_quantile_ms(waits, 0.95)
    m["util.pool_busy_ratio"] = ratio(
        busy, traced["pipeline_wall_s"] * traced["pool_threads"])
    m["report.build_s"] = span_s("report.build")
    m["report.write_s"] = span_s("report.write")
    m["report.merge_s"] = span_s("report.merge")
    m["report.mb"] = traced["report"]["bytes"] / 1e6

    service = dict.fromkeys(
        ["service.ping_ms_p50", "service.ping_ms_p95", "service.job_wait_s",
         "service.job_s", "service.journal_records", "service.journal_mb",
         "service.decodes_per_trace", "service.shard_resubmits"], 0)
    if served is not None:
        dm = served["daemon_metrics"]
        hists = dm.get("histograms", {})
        ctrs = dm.get("counters", {})
        reps = len(served["walls"])

        def hist_mean(name):
            h = hists.get(name, {})
            return ratio(h.get("sumSeconds", 0.0), h.get("count", 0))
        service.update({
            "service.ping_ms_p50": percentile(served["ping_ms"], 50),
            "service.ping_ms_p95": percentile(served["ping_ms"], 95),
            "service.job_wait_s": hist_mean("service.job_wait_seconds"),
            "service.job_s": hist_mean("service.job_seconds"),
            "service.journal_records":
                ratio(ctrs.get("service.journal_records", 0), reps),
            "service.journal_mb":
                ratio(ctrs.get("service.journal_bytes", 0) / 1e6, reps),
            "service.decodes_per_trace":
                ratio(ctrs.get("trace_store.hits", 0), reps * n),
            "service.shard_resubmits": served["resubmits"],
        })
    m.update(service)
    wall = statistics.median(campaign["walls"])
    m["bench.tracing_overhead_pct"] = \
        (traced["pipeline_wall_s"] - wall) / wall * 100.0
    return m


def traced_checks(traced, problems):
    """Checks only the traced run can make: sidecar read-back, shard
    merge, and the cache-layer replay against the front-end's legs."""
    bad = 0
    for t in traced["traces"]:
        if not t["sidecar_matched"]:
            bad += 1
            problems.append("sidecar differs from fresh resolution: %s/%s"
                            % (t["seed"], t["trace"]))
    if traced["report"]["merge_mismatches"]:
        bad += traced["report"]["merge_mismatches"]
        problems.append("shard merge changed %d legs"
                        % traced["report"]["merge_mismatches"])
    by_key = {leg_key(l): l for l in traced["legs"]}
    # LRU and SRRIP I-cache legs and the LRU BTB are self-contained, so
    # a bare replay of the same stream must reproduce them exactly.
    pairs = [("icache.LRU", "LRU", "icache"), ("icache.SRRIP", "SRRIP", "icache"),
             ("btb.LRU", "LRU", "btb")]
    for t in traced["traces"]:
        for rkey, policy, which in pairs:
            leg = by_key.get((t["seed"], t["trace"], policy))
            if leg is None or leg[which] != t["replay"][rkey]["stats"]:
                bad += 1
                problems.append("replay %s differs from the %s leg on %s"
                                % (rkey, policy, t["trace"]))
    return bad


# -------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grid: 4 traces of 200k instructions per cell")
    ap.add_argument("--corrupt-leg", type=int, default=-1,
                    help="self-test: perturb one reported leg")
    args = ap.parse_args()

    # SIGTERM unwinds like an error, so the cleanup below still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    bdir = build()
    jobs = min(4, os.cpu_count() or 1)
    wl = WORKLOADS[args.workload]
    grid = ["--config", wl["config"], "--seed", args.seed, "--jobs", jobs]
    if args.smoke:
        grid += ["--traces", 4, "--instructions", 200000]
    default_grid = not args.smoke
    work = os.path.join(os.path.dirname(bdir), "perfbench-work",
                        "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(bdir, os.path.relpath(work, ROOT), grid)
    loop = ["--seconds", args.seconds]
    corrupt = ["--corrupt-leg", args.corrupt_leg] if args.corrupt_leg >= 0 else []
    problems = []
    try:
        if args.trace == 0:
            # The first set-up warms the store the campaign runs on; the
            # others run after timing, so only one set-up's write-back
            # precedes it.
            store = os.path.join(runner.work, "store")
            setup = [runner.setup(store, wl["served"], jobs)]
            # Let the set-up's dirty pages reach the disk before timing,
            # so write-back does not compete with the campaign.
            os.sync()
            if wl["served"]:
                campaign, _ = runner.run(
                    "served", "--daemon", runner.socket, "--pings", 0,
                    "--rss-pid", runner.daemon.pid, *loop, *corrupt)
                runner.stop_daemon()
            else:
                campaign, _ = runner.run("campaign", "--store", store,
                                         *loop, *corrupt)
            reference, _ = runner.run("reference", "--store", store)
            shutil.rmtree(os.path.join(ROOT, store))
            for rep in range(1, SETUP_REPS):
                again = os.path.join(runner.work, "store-%d" % rep)
                setup.append(runner.setup(again, wl["served"], jobs))
                runner.stop_daemon()
                shutil.rmtree(os.path.join(ROOT, again))
            failed, attempted = gate(campaign, reference["legs"], args,
                                     default_grid, problems)
            metrics = end_to_end(campaign, setup)
            units = END_TO_END
            extra = [("error_rate", failed / attempted, "ratio")]
            if wl["config"] == "paper":
                ic, btb = gap_to_paper(campaign["legs"])
                extra += [("icache_gap_to_paper_pp", ic, "pp"),
                          ("btb_gap_to_paper_pp", btb, "pp")]
            samples = len(campaign["leg_ms"])
            log("legs per campaign %d, leg-time samples %d, campaign walls %s"
                % (len(campaign["legs"]), samples,
                   " ".join("%.3f" % w for w in campaign["walls"])))
            log("campaign peak RSS MB %s"
                % " ".join("%.0f" % m for m in campaign["rss_mb"]))
            log("set-up walls %s" % " ".join("%.3f" % w for w in setup))
        else:
            store = os.path.join(runner.work, "store")
            traced, _ = runner.run("traced", "--store", store,
                                   "--work-dir", runner.work)
            # On served_campaign two loops share the run's seconds.
            if wl["served"]:
                loop = ["--seconds", args.seconds / 2]
            campaign, _ = runner.run("campaign", "--store", store,
                                     *loop, *corrupt)
            failed, attempted = gate(campaign, traced["legs"], args,
                                     default_grid, problems)
            served = None
            if wl["served"]:
                runner.start_daemon(store, jobs)
                served, _ = runner.run(
                    "served", "--daemon", runner.socket, *loop, *corrupt)
                runner.stop_daemon()
                more_failed, more_attempted = gate(
                    served, traced["legs"], args, default_grid, problems)
                failed += more_failed
                attempted += more_attempted
            failed += traced_checks(traced, problems)
            metrics = per_layer(traced, campaign, served)
            units = per_layer_units()
            extra = [("error_rate", failed / attempted, "ratio")]
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems[:20]:
        log("MISMATCH " + problem)
    for name, unit in units:
        print("%-40s %16.6f %s" % (name, metrics[name], unit))
    for name, value, unit in extra:
        print("%-40s %16.6f %s" % (name, value, unit))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
