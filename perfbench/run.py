#!/usr/bin/env python3
"""Host-time benchmark of the driverlet replay stack.

Usage (from the repository root):

    python3 perfbench/run.py --workload storage_rw|store_100k|fleet_mixed \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (CMake, into .bench_build/perfbench), generates the seeded
inputs in one process, runs the workload in another, checks its outputs and
prints its metrics; the last stdout line is one JSON object. --trace 1 runs the
traced profile instead: all three workloads in turn, each in its own process,
reporting every per-layer metric. Exits nonzero on any output mismatch.
See perfbench/README.md for the metrics and workloads.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("storage_rw", "store_100k", "fleet_mixed")

END_TO_END = {
    "op_p50_us": "us",
    "op_p99_us": "us",
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "core.integrity.fold_us_p50": "us",
    "core.integrity.fold_share": "ratio",
    "core.replayer.invoke_us_p50": "us",
    "core.replayer.events_per_op": "count",
    "core.replayer.attempts_per_op": "count",
    "core.replayer.resets_per_op": "count",
    "core.store.select_us_p50": "us",
    "core.store.select_us_p99": "us",
    "core.store.cold_select_us_p50": "us",
    "core.store.candidates_per_select": "count",
    "core.store.index_probe_share": "ratio",
    "core.store.hydrations": "count",
    "core.store.register_s": "s",
    "tee.service.self_us_p50": "us",
    "tee.service.world_switches_per_op": "count",
    "tee.attest.quote_us_p50": "us",
    "tee.fleet.batch_wait_us_p50": "us",
    "tee.fleet.batch_wait_us_p99": "us",
    "tee.fleet.stolen_share": "ratio",
    "tee.fleet.busy_rejects_per_kcmd": "1/kcmd",
    "soc.testbed_ms": "ms",
    "dev.vc4.frame_synth_us": "us",
    "obs.armed_overhead": "ratio",
    "bench.trace_overhead.storage_rw": "ratio",
    "bench.trace_overhead.store_100k": "ratio",
    "bench.trace_overhead.fleet_mixed": "ratio",
}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no repository sources beside perfbench/ (expected src/); nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    log = sys.stderr
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=log, stderr=log, timeout=300)
        subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench"],
                       check=True, stdout=log, stderr=log, timeout=840)


def child_env():
    env = dict(os.environ)
    env.pop("DLT_TRACE", None)  # would arm telemetry in every untraced run
    return env


def run_child(args, timeout):
    """Runs the binary; echoes its figures and returns its JSON result line."""
    p = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                       timeout=timeout, env=child_env())
    lines = p.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        die("%s %s printed no result (exit %d)" % (args[0], " ".join(args[1:3]), p.returncode))
    if p.returncode != 0 and result.get("correct", False):
        die("%s exited %d" % (" ".join(args[:3]), p.returncode))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds <= 0:
        die("--seconds must be positive")

    build()
    workdir = os.path.join(BUILD, "runs", "%s-%d-%d" % (a.workload, a.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        # The traced profile covers every layer, so it runs every workload.
        workloads = WORKLOADS if a.trace else (a.workload,)
        seconds = a.seconds / 2 if a.trace else a.seconds
        results = []
        for w in workloads:
            common = ["--workload", w, "--seed", str(a.seed), "--dir", workdir]
            gen = subprocess.run([BINARY, "gen"] + common, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=170, env=child_env())
            if gen.returncode != 0:
                die("input generation for %s failed" % w)
            results.append(run_child(
                ["run"] + common + ["--seconds", str(seconds), "--trace", str(a.trace)],
                timeout=150))
        if a.trace:
            spans = os.path.join(BUILD, "spans")
            os.makedirs(spans, exist_ok=True)
            for w in workloads:
                src = os.path.join(workdir, "spans-%s.csv" % w)
                if os.path.isfile(src):
                    shutil.move(src, os.path.join(spans, "%s-seed%d.csv" % (w, a.seed)))
            print("spans written to %s" % os.path.relpath(spans, ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if a.trace else END_TO_END
    values = {}
    for r in results:
        values.update(r["metrics"])
    missing = [m for m in units if m not in values]
    if missing:
        die("metrics missing from the run: " + ", ".join(missing))
    out = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
