#!/usr/bin/env python3
"""Self-test of the benchmark itself, on a tiny grid (about a minute
after the build):

  1. every workload, untraced and traced, prints every metric that
     BENCHMARK.json names, each with its unit, and passes its gate;
  2. a deliberately corrupted leg raises error_rate and fails the
     command, on an in-process and on the served workload, so the gate
     cannot pass vacuously;
  3. a directory holding only BENCHMARK.json and perfbench/ (no
     simulator sources) fails fast without printing a result.

    python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT, timeout=600):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def check(cond, what, failures):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def printed_metrics(stdout):
    """{name: unit} of the human-readable metric lines."""
    out = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3:
            out[parts[0]] = parts[2]
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    smoke = ["--seed", "42", "--seconds", "0", "--smoke"]

    for wl in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out, err = run(["--workload", wl, "--trace", str(trace)]
                                 + smoke)
            what = "%s --trace %d" % (wl, trace)
            check(code == 0, what + " exits 0", failures)
            if code != 0:
                sys.stderr.write(err[-2000:])
                continue
            result = json.loads(out.splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, what + " reports every metric with its unit",
                  failures)
            lines = printed_metrics(out)
            check(all(lines.get(n) == u for n, u in want.items()),
                  what + " prints every metric with its unit", failures)
            check(result["correct"] and result["failed"] == 0
                  and lines.get("error_rate") == "ratio"
                  and float(out.split("error_rate")[1].split()[0]) == 0.0,
                  what + " passes its gate with error_rate 0", failures)

    for wl in ("fig03_warm", "served_campaign"):
        code, out, _ = run(["--workload", wl, "--trace", "0",
                            "--corrupt-leg", "5"] + smoke)
        what = "%s with a corrupted leg" % wl
        check(code != 0, what + " fails the command", failures)
        last = json.loads(out.splitlines()[-1]) if out.strip() else {}
        check(last.get("correct") is False and last.get("failed", 0) > 0,
              what + " reports failed legs", failures)
        rate = [l.split()[1] for l in out.splitlines()
                if l.startswith("error_rate")]
        check(bool(rate) and float(rate[0]) > 0,
              what + " raises error_rate", failures)

    scratch = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="perfbench-bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out, _ = run(["--workload", "fig03_warm", "--trace", "0"]
                           + smoke, cwd=bare, timeout=180)
        check(code != 0 and not out.strip(),
              "a checkout without sources fails without a result", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
