#!/usr/bin/env python3
"""Builds and runs the repo benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fs_durable|par_jobs --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form builds the HiStar library and the perfbench driver from
source (into $CARGO_TARGET_DIR, default .bench_build), runs one workload and
passes the driver's report through; its last line is the JSON result. The
second form checks the benchmark itself: the watchdog must catch an
injected stalled job, and fs_durable's count metrics must repeat exactly
for one seed across two processes. RATIONALE.md describes the workloads
and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170
STALL_EXIT = 3  # kStallExit in bench.h


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "kernel", "kernel.h")):
        fail("no HiStar sources under " + os.path.join(ROOT, "src"))
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def run_driver(binary, args):
    try:
        return subprocess.run([binary] + args + ["--out", OUT], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % RUN_TIMEOUT_S)


def last_json(stdout):
    """The driver's result line, or None when the last line is not one (a
    stall ends the driver after its watchdog lines)."""
    lines = stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return res if isinstance(res, dict) else None


def repeatable_counts(stdout):
    """The fs_durable counts the driver names as repeatable, with their values."""
    res = last_json(stdout)
    for line in stdout.splitlines():
        if line.startswith("repeatable counts:") and res is not None:
            names = line.split(":", 1)[1].split(";", 1)[0].split()
            return {k: res["metrics"][k]["value"] for k in names}
    return None


def check_against_benchmark_json(res, trace):
    """The metrics printed must be exactly those BENCHMARK.json lists, with its
    units; returns a list of differences."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    diffs = ["%s: BENCHMARK.json %s, printed %s" % (k, want.get(k), got.get(k))
             for k in sorted(set(want) | set(got)) if want.get(k) != got.get(k)]
    return diffs


def selftest(binary):
    ok = True
    # 1. Watchdog: a job that sleeps past its deadline must end the run.
    dump = os.path.join(OUT, "watchdog_selftest.jsonl")
    if os.path.exists(dump):
        os.remove(dump)
    p = run_driver(binary, ["--selftest-watchdog"])
    sys.stdout.write(p.stdout)
    fired = (p.returncode == STALL_EXIT and "watchdog: stall" in p.stdout
             and os.path.isfile(dump) and "histar-trace-dump" in open(dump).readline())
    print("selftest watchdog: %s (exit %d)" % ("PASS" if fired else "FAIL", p.returncode))
    ok &= fired
    # 2. fs_durable's count metrics repeat exactly for one seed, across two
    #    processes (the driver also checks this across its traced rounds).
    runs = []
    for _ in range(2):
        p = run_driver(binary, ["--workload", "fs_durable", "--seed", "7", "--seconds", "1",
                                "--trace", "1"])
        counts = repeatable_counts(p.stdout)
        if p.returncode != 0 or not counts:
            sys.stdout.write(p.stdout)
            runs = None
            break
        runs.append(counts)
    same = runs is not None and runs[0] == runs[1]
    print("selftest repeatable counts: %s %s" % ("PASS" if same else "FAIL",
                                                 runs[0] if runs else ""))
    ok &= same
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["fs_durable", "par_jobs"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")
    binary = build()
    os.makedirs(OUT, exist_ok=True)
    if a.selftest:
        return selftest(binary)
    p = run_driver(binary, ["--workload", a.workload, "--seed", str(a.seed),
                            "--seconds", str(a.seconds), "--trace", str(a.trace)])
    res = last_json(p.stdout)
    if res is None:
        sys.stdout.write(p.stdout)
        print("perfbench: driver printed no result (exit %d)" % p.returncode, file=sys.stderr)
        return p.returncode or 1
    diffs = check_against_benchmark_json(res, a.trace)
    # The result stays the last line of standard output.
    lines = p.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    for d in diffs:
        print("FAILED: metric differs from BENCHMARK.json: " + d)
    if diffs:
        res["correct"] = False
        lines[-1] = json.dumps(res)
    print(lines[-1])
    sys.stdout.flush()
    return p.returncode or (1 if diffs else 0)


if __name__ == "__main__":
    sys.exit(main())
