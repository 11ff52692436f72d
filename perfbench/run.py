#!/usr/bin/env python3
"""Repo benchmark: host cost and simulated results of three SMART workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (CMake, Release + LTO) into .bench_build/perfbench on
first use, then runs the `smartbench` binary, one process per repetition.

--trace 0 measures the end-to-end metrics. It runs the workload's fixed
virtual span once per sub-seed (SUBSEEDS, derived from --seed), then
repeats the first sub-seed until --seconds of wall time are used (at
least MIN_REPS repetitions, at least one repeat), then set-up-only
processes until MIN_SETUPS set-up samples exist. Host metrics are medians
over all repetitions; simulated metrics are medians over the sub-seeds,
and every repeat must reproduce the first sub-seed's results exactly.

--trace 1 measures the per-layer metrics: one untraced repetition, one
with span recording on (the traced pass), and for the workload listed in
WIRE_SHARDS one repetition on the sharded engine (the wire.* metrics).

Every workload's end-to-end metrics run on the single-threaded engine:
on a shared 4-core host the sharded engine's wall time spread by tens of
percent between back-to-back runs (see perfbench/README.md).

Every repetition verifies the app host-side after draining. The last line
of stdout is one JSON object: correct, attempted, failed, metrics. Exits
non-zero on any correctness violation.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "smartbench")

WORKLOADS = ("race_write_skew", "ford_smallbank", "sherman_read_scaleout")
MIN_REPS = 3
MIN_SETUPS = 11
# Simulated runs per measured run. RACE's CAS-contention tail (p99.9)
# varies most from seed to seed (IQR 16% of the median over 48 seeds),
# so its simulated metrics are medians over seven workload seeds.
SUBSEEDS = {"race_write_skew": 7, "ford_smallbank": 1,
            "sherman_read_scaleout": 1}
# Sampling stride of the traced pass: keeps every workload's span pool
# under its 1 Mi-record cap (at most ~0.71 Mi records, ford_smallbank),
# so no sampled op loses spans.
SPAN_EVERY = 16
REP_TIMEOUT_S = 60
# Shard count of the wire pass; other workloads never touch the wire layer.
WIRE_SHARDS = {"sherman_read_scaleout": 2}

# name, unit, block of the smartbench output it comes from
END_TO_END = [
    ("run_s", "s", "host"),
    ("setup_s", "s", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("sim_mops", "Mop/s", "sim"),
    ("sim_p50_us", "us", "sim"),
    ("sim_p999_us", "us", "sim"),
    ("ops_ok_frac", "frac", "sim"),
]

APP_ONLY = ("race.update_exhausted", "ford.aborts_per_txn",
            "sherman.spec_hit_frac")

SPAN_STAGES = ("gate_wait", "credit_wait", "doorbell_wait", "wqe_fetch",
               "dma", "pcie", "link", "mtt_fetch", "atomic", "cqe_poll",
               "backoff_sleep", "unattributed")

PER_LAYER = [
    ("harness.testbed_s", "s"),
    ("harness.load_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_op", "events/op"),
    ("sim.ns_per_event", "ns"),
    ("sim.peak_queue_depth", "count"),
    ("sim.heap_insert_frac", "frac"),
    ("wire.max_shard_event_frac", "frac"),
    ("wire.sys_s", "s"),
    ("wire.cpu_per_wall", "ratio"),
    ("wire.shard_speedup", "ratio"),
    ("rnic.wrs_per_op", "WRs/op"),
    ("rnic.wqe_miss_per_wr", "misses/WR"),
    ("rnic.mtt_miss_per_wr", "misses/WR"),
    ("rnic.dram_bytes_per_wr", "B/WR"),
    ("rnic.doorbell_wait_ns_per_wr", "ns/WR"),
    ("memblade.max_blade_wr_frac", "frac"),
    ("verbs.wrs_per_doorbell", "WRs/doorbell"),
    ("verbs.wr_errors", "count"),
    ("smart.cas_fail_frac", "frac"),
    ("smart.retries_per_op", "retries/op"),
    ("smart.coro_cmax", "coroutines"),
    ("smart.tmax_cycles", "cycles"),
    ("smart.credit_cmax", "credits"),
    ("race.update_exhausted", "count"),
    ("ford.aborts_per_txn", "aborts/txn"),
    ("sherman.spec_hit_frac", "frac"),
    ("app.rdma_ops_per_op", "verbs/op"),
    ("app.ops_measured", "count"),
    ("app.ops_failed_frac", "frac"),
] + [(f"span.{s}.{k}", u) for s in SPAN_STAGES
     for k, u in (("share", "frac"), ("p99_ns", "ns"))] + [
    ("span.coverage_ratio", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.perturbed", "flag"),
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "smartbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850).returncode != 0:
                fail("build failed: " + " ".join(cmd))


def rep(workload, seed, *extra):
    """One smartbench process; returns its parsed JSON (errors included)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), *extra]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"smartbench timed out after {REP_TIMEOUT_S} s: {' '.join(cmd)}")
    if p.returncode not in (0, 1) or not p.stdout.strip():
        sys.stderr.write(p.stderr)
        fail(f"smartbench exited {p.returncode}: {' '.join(cmd)}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def digest_and_sim(r):
    return r["digest"], r["sim"]


def subseed(seed, i):
    """Workload seed of sub-run i; distinct for every (seed, i < 16)."""
    return (seed * 16 + i) % 2**64


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    errors = []
    t0 = time.monotonic()
    seeds = [subseed(args.seed, i) for i in range(SUBSEEDS[args.workload])]
    base = rep(args.workload, seeds[0])
    reps = [base]
    metrics = {}

    if args.trace == 0:
        runs = [base] + [rep(args.workload, s) for s in seeds[1:]]
        reps = list(runs)
        while True:
            again = rep(args.workload, seeds[0])
            reps.append(again)
            if digest_and_sim(again) != digest_and_sim(base):
                errors.append("simulated results differ between "
                              "repetitions at one seed")
            if (len(reps) >= MIN_REPS and
                    time.monotonic() - t0 >= args.seconds):
                break
        setups = [r["host"]["setup_s"] for r in reps]
        while len(setups) < MIN_SETUPS:
            setups.append(rep(args.workload, seeds[0],
                              "--setup-only")["host"]["setup_s"])
        value = {k: statistics.median(r["host"][k] for r in reps)
                 for k in ("run_s", "peak_rss_mb")}
        value["setup_s"] = statistics.median(setups)
        for name, unit, src in END_TO_END:
            if src == "sim":
                value[name] = statistics.median(r["sim"][name] for r in runs)
            metrics[name] = {"value": value[name], "unit": unit}
        attempted = sum(r["sim"]["attempted"] for r in runs)
        failed = sum(r["sim"]["failed"] for r in runs)
    else:
        traced = rep(args.workload, seeds[0], "--spans", str(SPAN_EVERY))
        reps.append(traced)
        h = base["host"]
        # App-specific counters read 0 on the other apps' workloads.
        layer = dict.fromkeys(APP_ONLY, 0)
        layer.update(base["sim"])
        layer.update(traced["spans"])
        layer["app.ops_failed_frac"] = base["sim"]["ops_failed_frac"]
        layer["harness.testbed_s"] = h["testbed_s"]
        layer["harness.load_s"] = h["load_s"]
        layer["sim.ns_per_event"] = h["ns_per_event"]
        wire = h
        shards = WIRE_SHARDS.get(args.workload, 1)
        if shards > 1:
            sharded = rep(args.workload, seeds[0], "--shards", str(shards))
            reps.append(sharded)
            wire = sharded["host"]
            layer["wire.max_shard_event_frac"] = \
                sharded["sim"]["wire.max_shard_event_frac"]
            if sharded["digest"] != base["digest"]:
                errors.append(f"1-shard and {shards}-shard snapshots differ")
        layer["wire.sys_s"] = wire["sys_s"]
        layer["wire.cpu_per_wall"] = wire["cpu_per_wall"]
        layer["wire.shard_speedup"] = h["run_s"] / wire["run_s"]
        layer["trace.overhead"] = traced["host"]["run_s"] / h["run_s"]
        layer["trace.perturbed"] = int(
            digest_and_sim(traced) != digest_and_sim(base))
        for name, unit in PER_LAYER:
            metrics[name] = {"value": layer[name], "unit": unit}
        attempted = base["sim"]["attempted"]
        failed = base["sim"]["failed"]

    for r in reps:
        errors.extend(r["errors"])
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"digest {base['digest']} ({args.workload}, workload seed "
          f"{seeds[0]})")
    for e in errors:
        print(f"VIOLATION: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
