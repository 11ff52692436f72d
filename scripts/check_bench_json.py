#!/usr/bin/env python3
"""Validate and compare smart-bench-report/v1 JSON files emitted by `--json`.

Usage:
    check_bench_json.py REPORT.json
    check_bench_json.py --run BENCH_BINARY [ARGS...]
    check_bench_json.py --same-runs OLD.json NEW.json
    check_bench_json.py --baseline REPORT.json > BASELINE.json
    check_bench_json.py --shard-scaling REPORT.json
    check_bench_json.py --cache-overhead NOCACHE.json CACHED.json

This script is the one home of every bench threshold: the benches only
emit data (and exit 0 unless the report cannot be written), and the
per-bench validators below gate it.

With --run, executes the bench with --quick --trace --json into a temp
directory and validates the report it writes. Exits 0 when the report is
valid, 1 with a diagnostic otherwise. Used both as a ctest and for
eyeballing reports by hand.

With --same-runs, checks that two reports of one bench simulated the
same thing: every table cell (host wall-clock columns aside), the run
labels and at_ns, a sha256 digest of each run's metrics, timeseries and
spans, and perf.events_processed. Either side may be a full report or a
baseline (the slim form --baseline prints, committed in bench/baselines).
This is the regression gate and the byte-identity gate: e.g. a change
that claims no model change must simulate, sample and attribute exactly
what its parent did. Each difference is named: a table cell, a metric
or a series point, and, per mismatching run, app.ops and p99 old -> new.

With --shard-scaling, gates the 4-shard wall-clock speedup of a
kernel_stress report, only on hosts with enough cores to show it.

With --cache-overhead, gates a cached run of a bench against the
no-cache report of the same bench: per run label, app.ops must keep
CACHE_MIN_OPS_RATIO and p99 stay under CACHE_MAX_P99_RATIO.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SCHEMA = "smart-bench-report/v1"
BASELINE_SCHEMA = "smart-bench-baseline/v1"

# DES-kernel microbenches drive the event queue directly: they have no
# SMART threads or controller, so the thread-metrics / controller-timeline
# requirements below do not apply to them. The perf block still does.
KERNEL_BENCHES = {"kernel_stress"}

# Adaptive-controller series (Algorithm 1's C_max, the §4.3 t_max) that
# some run's timeseries block must carry for >= CTRL_MIN_WINDOWS windows.
CTRL_SERIES = ("smart.ctrl.credit_cmax", "smart.ctrl.tmax_cycles")
CTRL_MIN_WINDOWS = 5


def fail(msg):
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check(cond, msg):
    if not cond:
        fail(msg)


def validate(report):
    check(isinstance(report, dict), "top level must be an object")
    check(report.get("schema") == SCHEMA,
          f"schema must be {SCHEMA!r}, got {report.get('schema')!r}")
    for key, typ in (("bench", str), ("quick", bool), ("seed", int),
                     ("tables", list), ("runs", list), ("notes", list)):
        check(key in report, f"missing top-level key {key!r}")
        check(isinstance(report[key], typ),
              f"{key!r} must be {typ.__name__}")

    validate_perf(report)

    for t in report["tables"]:
        check(isinstance(t.get("name"), str), "table missing name")
        header = t.get("header")
        rows = t.get("rows")
        check(isinstance(header, list) and header,
              f"table {t.get('name')}: empty header")
        for row in rows:
            check(len(row) == len(header),
                  f"table {t['name']}: row width {len(row)} != "
                  f"header width {len(header)}")

    saw_thread_metrics = False
    saw_ctrl_timeline = False
    for run in report["runs"]:
        check(isinstance(run.get("label"), str), "run missing label")
        check(isinstance(run.get("at_ns"), int), "run missing at_ns")
        metrics = run.get("metrics")
        check(isinstance(metrics, list) and metrics,
              f"run {run['label']}: empty metrics")
        names = set()
        for m in metrics:
            check(isinstance(m.get("name"), str) and
                  m.get("kind") in ("counter", "gauge", "histogram"),
                  f"run {run['label']}: malformed metric entry {m!r}")
            names.add(m["name"])
            if m["name"].startswith("smart.thread."):
                check("thread" in m.get("labels", {}),
                      f"{m['name']} must carry a thread label")
            if m["name"].startswith("smart.cache."):
                labels = m.get("labels", {})
                check("blade" in labels and "policy" in labels,
                      f"{m['name']} must carry blade + policy labels")
            if m["name"].startswith("smart.tenant."):
                check("tenant" in m.get("labels", {}),
                      f"{m['name']} must carry a tenant label")
        if {"smart.thread.doorbell_wait_ns",
                "smart.thread.wqe_refetches"} <= names:
            saw_thread_metrics = True

        spans = run.get("spans")
        if spans is not None:
            validate_spans(run["label"], spans)

        ts = run.get("timeseries")
        if ts is not None:
            validate_timeseries(run["label"], ts)
            points = {s["name"]: len(s["points"]) for s in ts["series"]}
            if all(points.get(name, 0) >= CTRL_MIN_WINDOWS
                   for name in CTRL_SERIES):
                saw_ctrl_timeline = True

    if report["bench"] not in KERNEL_BENCHES:
        check(saw_thread_metrics,
              "no run carries per-thread doorbell_wait_ns + wqe_refetches")
        check(saw_ctrl_timeline,
              f"no run has a C_max + t_max timeseries with >= "
              f"{CTRL_MIN_WINDOWS} windows (run with --trace)")
    gate = BENCH_VALIDATORS.get(report["bench"])
    if gate is not None:
        gate(report)
    print(f"check_bench_json: OK: {report['bench']} "
          f"({len(report['tables'])} tables, {len(report['runs'])} runs)")


def validate_spans(label, spans):
    """Span attribution blocks (--trace-spans) must be self-consistent."""
    check(isinstance(spans, dict),
          f"run {label}: spans block must be an object")
    for key in ("sample_every", "records", "dropped", "open", "coverage",
                "stages"):
        check(key in spans, f"run {label}: spans block missing {key!r}")
    check(spans["sample_every"] >= 1,
          f"run {label}: spans.sample_every must be >= 1")
    cov = spans["coverage"]
    check(isinstance(cov, dict), f"run {label}: spans.coverage malformed")
    for key in ("op_total_ns", "attributed_ns", "ratio"):
        check(key in cov, f"run {label}: spans.coverage missing {key!r}")
    if cov["op_total_ns"] > 0:
        check(cov["ratio"] >= 0.95,
              f"run {label}: attribution covers only {cov['ratio']:.3f} "
              f"of measured op time (need >= 0.95)")
        check(cov["ratio"] <= 1.0 + 1e-9,
              f"run {label}: attribution ratio {cov['ratio']} > 1")
    stages = spans["stages"]
    check(isinstance(stages, list),
          f"run {label}: spans.stages must be a list")
    attributed = 0
    for st in stages:
        for key in ("stage", "thread", "overlap", "count", "total_ns",
                    "p50_ns", "p99_ns", "p999_ns", "share"):
            check(key in st,
                  f"run {label}: stage entry missing {key!r}: {st!r}")
        check(st["count"] > 0,
              f"run {label}: stage {st['stage']} has zero count")
        check(st["p50_ns"] <= st["p99_ns"] <= st["p999_ns"],
              f"run {label}: stage {st['stage']} percentiles not "
              f"monotone: {st['p50_ns']}/{st['p99_ns']}/{st['p999_ns']}")
        if not st["overlap"]:
            attributed += st["total_ns"]
    if cov["op_total_ns"] > 0:
        check(attributed == cov["attributed_ns"],
              f"run {label}: non-overlap stage totals {attributed} != "
              f"coverage.attributed_ns {cov['attributed_ns']}")


TS_ANNOTATION_KINDS = {"fault", "membership", "degradation", "cache", "slo"}


def validate_timeseries(label, ts):
    """Windowed time-series blocks (--ts-window) must be self-consistent:
    a positive window, a strictly increasing sample axis, every series'
    points anchored at a valid start window, and annotations in
    deterministic (time, kind, target, detail) order."""
    check(isinstance(ts, dict),
          f"run {label}: timeseries block must be an object")
    for key in ("window_ns", "t_ns", "series", "annotations"):
        check(key in ts, f"run {label}: timeseries block missing {key!r}")
    check(isinstance(ts["window_ns"], int) and ts["window_ns"] > 0,
          f"run {label}: timeseries.window_ns must be a positive int")
    t_ns = ts["t_ns"]
    check(isinstance(t_ns, list) and t_ns,
          f"run {label}: timeseries.t_ns must be a non-empty list")
    check(all(b > a for a, b in zip(t_ns, t_ns[1:])),
          f"run {label}: timeseries.t_ns not strictly increasing")
    check(isinstance(ts["series"], list) and ts["series"],
          f"run {label}: timeseries.series must be a non-empty list")
    for s in ts["series"]:
        name = s.get("name")
        check(isinstance(name, str) and name,
              f"run {label}: timeseries series missing name: {s!r}")
        kind = s.get("kind")
        check(kind in ("counter", "gauge", "histogram"),
              f"run {label}: series {name}: bad kind {kind!r}")
        check(isinstance(s.get("labels"), dict),
              f"run {label}: series {name}: labels must be an object")
        start = s.get("start")
        points = s.get("points")
        check(isinstance(start, int) and 0 <= start < len(t_ns),
              f"run {label}: series {name}: start {start!r} out of range")
        check(isinstance(points, list),
              f"run {label}: series {name}: points must be a list")
        check(start + len(points) == len(t_ns),
              f"run {label}: series {name}: start {start} + "
              f"{len(points)} points != {len(t_ns)} samples")
        if kind == "histogram":
            for p in points:
                check(isinstance(p, dict),
                      f"run {label}: series {name}: histogram point "
                      f"must be an object: {p!r}")
                for key in ("count", "mean", "min", "max",
                            "p50", "p99", "p999"):
                    check(key in p,
                          f"run {label}: series {name}: histogram point "
                          f"missing {key!r}")
                if p["count"] > 0:
                    check(p["min"] <= p["p50"] <= p["p99"] <= p["p999"]
                          <= p["max"],
                          f"run {label}: series {name}: windowed "
                          f"percentiles not ordered: {p!r}")
    anns = ts["annotations"]
    check(isinstance(anns, list),
          f"run {label}: timeseries.annotations must be a list")
    prev = None
    for a in anns:
        for key in ("t_ns", "kind", "target", "detail"):
            check(key in a,
                  f"run {label}: annotation missing {key!r}: {a!r}")
        check(a["kind"] in TS_ANNOTATION_KINDS,
              f"run {label}: unknown annotation kind {a['kind']!r}")
        key = (a["t_ns"], a["kind"], a["target"], a["detail"])
        check(prev is None or key >= prev,
              f"run {label}: annotations out of deterministic order "
              f"at {a!r}")
        prev = key


def series_points(ts, name, label_filter=None):
    """Per-window values of every matching series, summed element-wise
    and left-padded with zeros to the full t_ns axis."""
    total = [0.0] * len(ts["t_ns"])
    for s in ts["series"]:
        if s["name"] != name:
            continue
        if label_filter and any(s["labels"].get(k) != v
                                for k, v in label_filter.items()):
            continue
        for i, v in enumerate(s["points"]):
            total[s["start"] + i] += float(v)
    return total


def annotation_times(ts, kind, detail_prefix=""):
    return [a["t_ns"] for a in ts["annotations"]
            if a["kind"] == kind and a["detail"].startswith(detail_prefix)]


def check_windowed_recovery(label, ts, counter_name, event_ns,
                            k_windows=8, band=0.9, label_filter=None):
    """Time-series recovery gate: per-window deltas of @counter_name must
    re-enter @band x their pre-event steady state within @k_windows
    windows of the event at @event_ns."""
    t_ns = ts["t_ns"]
    rate = series_points(ts, counter_name, label_filter)
    check(any(v > 0 for v in rate),
          f"{label}: no {counter_name} samples to gate recovery on")
    event_w = next((i for i, t in enumerate(t_ns) if t >= event_ns),
                   len(t_ns) - 1)
    pre = [v for i, v in enumerate(rate) if i < event_w and v > 0]
    check(pre, f"{label}: no pre-event windows before {event_ns} ns")
    pre_mean = sum(pre) / len(pre)
    horizon = rate[event_w + 1:event_w + 1 + k_windows]
    check(any(v >= band * pre_mean for v in horizon),
          f"{label}: windowed throughput never re-entered the "
          f"{band:.0%} band within {k_windows} windows of the event at "
          f"{event_ns} ns (pre mean {pre_mean:.1f}, "
          f"post {[round(v, 1) for v in horizon]})")


def validate_perf(report):
    """Every report must carry a sane wall-clock perf block."""
    perf = report.get("perf")
    check(isinstance(perf, dict), "missing or malformed perf block")
    for key in ("wall_ms", "events_processed", "events_per_sec",
                "peak_queue_depth", "ring_inserts", "heap_inserts",
                "host_cores"):
        check(key in perf, f"perf block missing {key!r}")
        check(isinstance(perf[key], (int, float)),
              f"perf.{key} must be numeric, got {perf[key]!r}")
    check(perf["wall_ms"] > 0, f"perf.wall_ms {perf['wall_ms']} must be > 0")
    check(perf["events_processed"] > 0,
          "perf.events_processed must be > 0 (did the simulation run?)")
    check(perf["events_per_sec"] > 0,
          f"perf.events_per_sec {perf['events_per_sec']} must be > 0")
    check(perf["peak_queue_depth"] >= 1,
          f"perf.peak_queue_depth {perf['peak_queue_depth']} must be >= 1")
    check(perf["host_cores"] >= 1,
          f"perf.host_cores {perf['host_cores']} must be >= 1")


# kernel_stress workloads whose steady-state window must not allocate.
ALLOC_FREE_WORKLOADS = ("resume_storm", "timer_wheel", "bucket_collide",
                        "spawn_churn", "span_storm_off", "span_storm_on")


def validate_kernel_stress(report):
    """The DES kernel's acceptance gates: the alloc-free workloads made
    zero heap allocations in their steady-state window; the span tracer
    never perturbs the simulation (span_storm_off/on replay resume_storm's
    event count, and recording produced spans); and the shard-scaling
    sweep is deterministic — every shard count replays the single-shard
    simulation exactly (identical event and wire-delivery totals).
    Wall-clock speedup is gated separately by --shard-scaling, and only
    on hosts with enough cores to demonstrate it."""
    tables = {t["name"]: t for t in report["tables"]}

    ks = tables.get("kernel_stress")
    check(ks is not None, "kernel_stress report missing workload table")
    cols = {name: i for i, name in enumerate(ks["header"])}
    for col in ("workload", "events", "allocs"):
        check(col in cols, f"kernel_stress missing column {col!r}")
    allocs = {row[cols["workload"]]: int(row[cols["allocs"]])
              for row in ks["rows"]}
    for name in ALLOC_FREE_WORKLOADS:
        check(name in allocs, f"kernel_stress missing workload {name!r}")
        check(allocs[name] == 0,
              f"{name} made {allocs[name]} heap allocations in its "
              "steady-state window (must be 0)")

    sg = tables.get("kernel_stress_span_gates")
    check(sg is not None, "kernel_stress report missing span_gates table")
    cols = {name: i for i, name in enumerate(sg["header"])}
    for col in ("span_records", "off_events_match", "on_events_match"):
        check(col in cols, f"kernel_stress_span_gates missing column {col!r}")
    row = sg["rows"][0]
    check(row[cols["off_events_match"]] == "yes",
          "span_storm_off's event count differs from resume_storm's "
          "(the disabled span tracer perturbed the simulation)")
    check(row[cols["on_events_match"]] == "yes",
          "span_storm_on's event count differs from span_storm_off's "
          "(span recording perturbed the simulation)")
    check(int(row[cols["span_records"]]) > 0,
          "span_storm_on recorded no spans")
    ss = tables.get("kernel_stress_shard_scaling")
    check(ss is not None,
          "kernel_stress report missing shard_scaling table")
    cols = {name: i for i, name in enumerate(ss["header"])}
    for col in ("shards", "events", "delivered", "wall_ms",
                "events_per_sec", "speedup_vs_1"):
        check(col in cols, f"shard_scaling missing column {col!r}")
    counts = [int(row[cols["shards"]]) for row in ss["rows"]]
    check(counts == [1, 2, 4, 8],
          f"shard_scaling rows must sweep 1/2/4/8 shards, got {counts}")
    events = {int(row[cols["events"]]) for row in ss["rows"]}
    delivered = {int(row[cols["delivered"]]) for row in ss["rows"]}
    check(len(events) == 1,
          f"shard_scaling event totals differ across shard counts: "
          f"{sorted(events)} (sharding changed the simulation)")
    check(len(delivered) == 1,
          f"shard_scaling delivery totals differ across shard counts: "
          f"{sorted(delivered)}")
    check(events.pop() > 0, "shard_scaling processed no events")
    check(delivered.pop() > 0, "shard_scaling delivered no wire messages")


def validate_fault_storm(report):
    """Fault benches must report the degradation shape, not just survive."""
    tables = {t["name"]: t for t in report["tables"]}

    phases = tables.get("fault_storm_phases")
    check(phases is not None, "fault_storm report missing phases table")
    cols = {name: i for i, name in enumerate(phases["header"])}
    for col in ("phase", "ops", "mops", "failed_ops"):
        check(col in cols, f"fault_storm_phases missing column {col!r}")
    seen = [row[cols["phase"]] for row in phases["rows"]]
    check(seen == ["pre", "during", "post"],
          f"fault_storm_phases rows must be pre/during/post, got {seen}")
    for row in phases["rows"]:
        check(float(row[cols["mops"]]) > 0,
              f"phase {row[cols['phase']]}: zero throughput")

    degr = tables.get("fault_storm_degradation")
    check(degr is not None,
          "fault_storm report missing degradation table")
    cols = {name: i for i, name in enumerate(degr["header"])}
    for col in ("pre_mops", "during_mops", "post_mops", "post_over_pre"):
        check(col in cols,
              f"fault_storm_degradation missing column {col!r}")
    check(len(degr["rows"]) == 1,
          "fault_storm_degradation must have exactly one row")
    row = degr["rows"][0]
    ratio = float(row[cols["post_over_pre"]])
    check(ratio >= 0.9,
          f"post-recovery throughput ratio {ratio} < 0.9")
    check(float(row[cols["during_mops"]]) > 0,
          "throughput collapsed to zero during the fault")

    # Scenario 2: membership churn (periodic drain/rejoin cycles).
    cphases = tables.get("fault_storm_churn_phases")
    check(cphases is not None,
          "fault_storm report missing churn phases table")
    cols = {name: i for i, name in enumerate(cphases["header"])}
    for col in ("phase", "mops", "failed_ops"):
        check(col in cols,
              f"fault_storm_churn_phases missing column {col!r}")
    seen = [row[cols["phase"]] for row in cphases["rows"]]
    check(seen == ["pre", "churn", "post"],
          f"churn phases must be pre/churn/post, got {seen}")
    for row in cphases["rows"]:
        check(float(row[cols["mops"]]) > 0,
              f"churn phase {row[cols['phase']]}: zero throughput")
        check(int(row[cols["failed_ops"]]) == 0,
              f"churn phase {row[cols['phase']]}: "
              f"{row[cols['failed_ops']]} failed ops (want 0)")

    csum = tables.get("fault_storm_churn_summary")
    check(csum is not None,
          "fault_storm report missing churn summary table")
    cols = {name: i for i, name in enumerate(csum["header"])}
    for col in ("post_over_pre", "drains", "joins", "migrated_parts",
                "failed_ops"):
        check(col in cols,
              f"fault_storm_churn_summary missing column {col!r}")
    row = csum["rows"][0]
    check(float(row[cols["post_over_pre"]]) >= 0.9,
          f"churn post/pre ratio {row[cols['post_over_pre']]} < 0.9")
    check(int(row[cols["drains"]]) >= 2,
          f"churn ran only {row[cols['drains']]} drains (want >= 2)")
    check(int(row[cols["joins"]]) >= 1,
          f"churn ran only {row[cols['joins']]} rejoins (want >= 1)")
    check(int(row[cols["migrated_parts"]]) > 0,
          "churn migrated no partitions")
    check(int(row[cols["failed_ops"]]) == 0,
          f"churn surfaced {row[cols['failed_ops']]} failed ops")


def validate_elasticity(report):
    """Drain + join + crash must be invisible to the application."""
    tables = {t["name"]: t for t in report["tables"]}

    phases = tables.get("elasticity_phases")
    check(phases is not None, "elasticity report missing phases table")
    cols = {name: i for i, name in enumerate(phases["header"])}
    for col in ("phase", "mops"):
        check(col in cols, f"elasticity_phases missing column {col!r}")
    seen = [row[cols["phase"]] for row in phases["rows"]]
    check(seen == ["pre", "drain", "join", "crash", "post"],
          f"elasticity phases must be pre/drain/join/crash/post, got {seen}")
    for row in phases["rows"]:
        check(float(row[cols["mops"]]) > 0,
              f"elasticity phase {row[cols['phase']]}: zero throughput")

    tl = tables.get("elasticity_timeline")
    check(tl is not None, "elasticity report missing timeline table")
    check(len(tl["rows"]) >= 30,
          f"elasticity timeline has {len(tl['rows'])} buckets (want >= 30)")

    mt = tables.get("elasticity_membership")
    check(mt is not None, "elasticity report missing membership table")
    cols = {name: i for i, name in enumerate(mt["header"])}
    for col in ("migrated_parts", "joins", "drains", "failovers", "epoch"):
        check(col in cols, f"elasticity_membership missing column {col!r}")
    row = mt["rows"][0]
    check(int(row[cols["migrated_parts"]]) > 0, "no partitions migrated")
    check(int(row[cols["joins"]]) >= 1, "no blade joined")
    check(int(row[cols["drains"]]) >= 1, "no blade drained")
    check(int(row[cols["failovers"]]) >= 1, "no failover ran")
    check(int(row[cols["epoch"]]) > 0, "cluster epoch never advanced")

    degr = tables.get("elasticity_degradation")
    check(degr is not None, "elasticity report missing degradation table")
    cols = {name: i for i, name in enumerate(degr["header"])}
    for col in ("pre_mops", "post_mops", "post_over_pre", "failed_ops",
                "fenced_retries"):
        check(col in cols, f"elasticity_degradation missing column {col!r}")
    row = degr["rows"][0]
    check(int(row[cols["failed_ops"]]) == 0,
          f"elasticity surfaced {row[cols['failed_ops']]} failed ops")
    ratio = float(row[cols["post_over_pre"]])
    check(ratio >= 0.9, f"elasticity post/pre ratio {ratio} < 0.9")

    # Windowed recovery gate (runs with --ts-window): throughput must
    # re-enter the 90% band within 8 windows of the drain annotation —
    # a time-resolved gate the end-of-run ratio above cannot express.
    for run in report["runs"]:
        ts = run.get("timeseries")
        if ts is None:
            continue
        drains = annotation_times(ts, "membership", "drain epoch=")
        check(drains,
              f"run {run['label']}: no drain membership annotation")
        # The quick run's worker depth never crosses the 48/96 overload
        # watermarks, so "degradation" is legitimately absent here (the
        # open_loop knee + churn union covers the >= 3-kind requirement).
        kinds = {a["kind"] for a in ts["annotations"]}
        check({"fault", "membership"} <= kinds,
              f"run {run['label']}: annotation kinds {sorted(kinds)} "
              "must include fault + membership")
        check_windowed_recovery(f"elasticity run {run['label']}", ts,
                                "app.ops", drains[0])


def validate_open_loop(report):
    """Knee curves must be well-formed: a monotone offered-load axis,
    p99 non-decreasing (5% tolerance) up to the knee, ordered
    percentiles, and a per-tenant SLO block with violation fractions
    in [0, 1]."""
    tables = {t["name"]: t for t in report["tables"]}

    for app in ("ht", "bt"):
        sweep = tables.get(f"open_loop_{app}")
        check(sweep is not None,
              f"open_loop report missing open_loop_{app} table")
        cols = {name: i for i, name in enumerate(sweep["header"])}
        for col in ("offered_x", "offered_mops", "completed_mops",
                    "p50_ns", "p99_ns", "p999_ns", "rejected", "ladder"):
            check(col in cols, f"open_loop_{app} missing column {col!r}")
        rows = sweep["rows"]
        check(len(rows) >= 3, f"open_loop_{app} has {len(rows)} points "
              "(want >= 3 for a curve)")

        xs = [float(r[cols["offered_x"]]) for r in rows]
        check(all(b > a for a, b in zip(xs, xs[1:])),
              f"open_loop_{app}: offered-load axis not "
              f"strictly increasing: {xs}")
        for r in rows:
            p50 = int(r[cols["p50_ns"]])
            p99 = int(r[cols["p99_ns"]])
            p999 = int(r[cols["p999_ns"]])
            check(0 < p50 <= p99 <= p999,
                  f"open_loop_{app} @ {r[cols['offered_x']]}x: "
                  f"percentiles not ordered: {p50}/{p99}/{p999}")

        p99s = [int(r[cols["p99_ns"]]) for r in rows]
        knee = len(p99s) - 1
        for i, v in enumerate(p99s):
            if v > 3 * p99s[0]:
                knee = i
                break
        for i in range(1, knee + 1):
            check(p99s[i] >= 0.95 * p99s[i - 1],
                  f"open_loop_{app}: p99 dips below the knee at "
                  f"{xs[i]}x ({p99s[i]} < {p99s[i - 1]})")

        top = rows[-1]
        check(int(top[cols["rejected"]]) > 0 or int(top[cols["ladder"]]) > 0,
              f"open_loop_{app}: the {xs[-1]}x point neither sheds nor "
              "engages the degradation ladder")

    kt = tables.get("open_loop_knee")
    check(kt is not None, "open_loop report missing open_loop_knee table")
    cols = {name: i for i, name in enumerate(kt["header"])}
    for col in ("app", "capacity_mops", "knee_x", "overload_x"):
        check(col in cols, f"open_loop_knee missing column {col!r}")
    apps = {row[cols["app"]] for row in kt["rows"]}
    check(apps == {"ht", "bt"},
          f"open_loop_knee must cover ht + bt, got {sorted(apps)}")
    for row in kt["rows"]:
        check(float(row[cols["capacity_mops"]]) > 0,
              f"open_loop_knee {row[cols['app']]}: zero capacity")
        check(float(row[cols["knee_x"]]) > 0,
              f"open_loop_knee {row[cols['app']]}: no knee found")

    slo = report.get("slo")
    check(isinstance(slo, dict) and slo,
          "open_loop report missing the top-level slo block")
    for point, tenants in slo.items():
        check(isinstance(tenants, dict) and tenants,
              f"slo[{point!r}] must be a non-empty object")
        for tenant, block in tenants.items():
            for key in ("target_p99_ns", "violation_fraction",
                        "offered", "completed"):
                check(key in block,
                      f"slo[{point!r}][{tenant!r}] missing {key!r}")
            vf = block["violation_fraction"]
            check(isinstance(vf, (int, float)) and 0.0 <= vf <= 1.0,
                  f"slo[{point!r}][{tenant!r}]: violation_fraction "
                  f"{vf!r} not in [0, 1]")

    saw_tenant_metrics = False
    for run in report["runs"]:
        names = {m["name"] for m in run.get("metrics", [])}
        if {"smart.tenant.offered", "smart.tenant.latency_ns"} <= names:
            saw_tenant_metrics = True
    check(saw_tenant_metrics,
          "no run carries smart.tenant.offered + smart.tenant.latency_ns")

    churn = tables.get("open_loop_churn")
    if churn is not None:
        cols = {name: i for i, name in enumerate(churn["header"])}
        check("failed_ops" in cols, "open_loop_churn missing column "
              "'failed_ops'")
        for row in churn["rows"]:
            check(int(row[cols["failed_ops"]]) == 0,
                  f"open_loop churn: {row[cols['failed_ops']]} ops "
                  f"surfaced as failed by the end of phase {row[0]} "
                  "(want 0)")

    # ---- time-series gates (runs with --ts-window) ----
    ts_runs = {run["label"]: run["timeseries"]
               for run in report["runs"] if run.get("timeseries")}
    if ts_runs:
        for label, ts in ts_runs.items():
            ts_names = {s["name"] for s in ts["series"]}
            for name in ("smart.tenant.admitted", "smart.tenant.completed",
                         "smart.tenant.violation_fraction",
                         "smart.slo.burn_rate"):
                check(name in ts_names,
                      f"run {label}: timeseries missing {name} series")

        # Union of annotation kinds across runs: overload arms emit
        # degradation, churn adds fault + membership. The >= 3-kind
        # requirement therefore only applies to --churn reports.
        kinds = {a["kind"] for ts in ts_runs.values()
                 for a in ts["annotations"]}
        if "open_loop_churn" in tables:
            check({"fault", "membership"} <= kinds and len(kinds) >= 3,
                  f"annotation kinds {sorted(kinds)} must include fault "
                  "+ membership and span >= 3 kinds (--churn run)")

        # Burn-rate enter events must fire where the measured violation
        # fraction is unambiguously above the fast-enter threshold.
        for label, ts in ts_runs.items():
            tenants = slo.get(label)
            if not tenants:
                continue
            worst = max((b["violation_fraction"] for b in tenants.values()
                         if b["target_p99_ns"] > 0), default=0.0)
            if worst >= 0.05:
                check(annotation_times(ts, "slo", "burn-enter"),
                      f"run {label}: violation fraction {worst:.3f} but "
                      "no burn-enter annotation fired")

        # Windowed churn recovery gate: completed-request rate re-enters
        # the 90% band within 8 windows of the drain annotation.
        if "open_loop_churn" in tables:
            churn_ts = {label: ts for label, ts in ts_runs.items()
                        if label.startswith("churn/")}
            check(churn_ts, "churn table present but no churn run "
                  "carries a timeseries block")
            for label, ts in churn_ts.items():
                drains = annotation_times(ts, "membership", "drain epoch=")
                check(drains,
                      f"run {label}: no drain membership annotation")
                check_windowed_recovery(
                    f"open_loop run {label}", ts, "smart.tenant.completed",
                    drains[0])


def validate_cache_crossover(report):
    """The cache tier must show the paper-shaped crossover, not just run.

    Gates (per ISSUE 6 acceptance): at theta >= 0.9 the cached arm must
    deliver >= 2x no-cache ops/s at >= 80% hit ratio; at theta == 0 the
    cached arm must never fall below 0.95x no-cache (cache overhead on a
    thrashing workload stays bounded) and the pool must actually evict
    (otherwise the theta=0 bound is vacuous because everything fit).
    """
    tables = {t["name"]: t for t in report["tables"]}

    cx = tables.get("cache_crossover")
    check(cx is not None, "cache_crossover report missing crossover table")
    cols = {name: i for i, name in enumerate(cx["header"])}
    for col in ("theta", "nocache_mops", "cached_mops", "speedup",
                "hit_ratio", "evictions"):
        check(col in cols, f"cache_crossover missing column {col!r}")
    check(len(cx["rows"]) >= 2, "cache_crossover needs >= 2 theta rows")
    saw_skewed = False
    for row in cx["rows"]:
        theta = float(row[cols["theta"]])
        speedup = float(row[cols["speedup"]])
        hit = float(row[cols["hit_ratio"]])
        if theta >= 0.9:
            saw_skewed = True
            check(speedup >= 2.0,
                  f"theta {theta}: cached speedup {speedup} < 2.0")
            check(hit >= 0.8,
                  f"theta {theta}: hit ratio {hit} < 0.8")
        if theta == 0.0:
            check(speedup >= 0.95,
                  f"theta 0: cached {speedup}x no-cache regresses > 5%")
            check(int(row[cols["evictions"]]) > 0,
                  "theta 0: no evictions — pool fits the uniform working "
                  "set, so the overhead bound is vacuous")
    check(saw_skewed, "cache_crossover has no theta >= 0.9 row")

    shift = tables.get("cache_skew_shift")
    check(shift is not None,
          "cache_crossover report missing cache_skew_shift table")
    cols = {name: i for i, name in enumerate(shift["header"])}
    for col in ("run", "mops", "hit_ratio"):
        check(col in cols, f"cache_skew_shift missing column {col!r}")
    seen = [row[cols["run"]] for row in shift["rows"]]
    check(seen == ["steady", "shifted"],
          f"cache_skew_shift rows must be steady/shifted, got {seen}")
    for row in shift["rows"]:
        check(float(row[cols["mops"]]) > 0,
              f"skew-shift run {row[cols['run']]}: zero throughput")
        check(float(row[cols["hit_ratio"]]) >= 0.8,
              f"skew-shift run {row[cols['run']]}: hit ratio "
              f"{row[cols['hit_ratio']]} < 0.8 — pool did not re-converge")

    cached_hits = 0
    for run in report["runs"]:
        for m in run.get("metrics", []):
            if m.get("name") == "smart.cache.hits":
                cached_hits += int(m.get("value", 0))
    check(cached_hits > 0,
          "no run carries a non-zero smart.cache.hits counter")


BENCH_VALIDATORS = {
    "kernel_stress": validate_kernel_stress,
    "fault_storm": validate_fault_storm,
    "cache_crossover": validate_cache_crossover,
    "elasticity": validate_elasticity,
    "open_loop": validate_open_loop,
}


# Table columns that time the host, not the simulation: --same-runs
# skips them.
HOST_COLUMNS = {"wall_ms", "events_per_sec", "speedup_vs_1",
                "disabled_overhead_pct"}

# kernel_stress's 4-shard wall-clock speedup floor. A host with fewer
# cores cannot demonstrate parallel speedup, so there it is not gated.
SPEEDUP_FLOOR = 1.6
SPEEDUP_MIN_CORES = 4

# A cached run against the no-cache run of the same bench and seed, per
# label. Sub-line reads amplify to full line fills on a miss and
# same-line fills serialize, so a thrashing cache is dearer than bypass;
# these bound how much dearer.
CACHE_MIN_OPS_RATIO = 0.90
CACHE_MAX_P99_RATIO = 3.0


def load(path):
    report = json.loads(Path(path).read_text())
    check(report.get("schema") in (SCHEMA, BASELINE_SCHEMA),
          f"{path}: schema must be {SCHEMA!r} or {BASELINE_SCHEMA!r}")
    return report


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def run_digest(run):
    """sha256 of everything a run carries besides its label and at_ns
    (metrics, timeseries, spans); a baseline run stores it."""
    if "digest" in run:
        return run["digest"]
    body = {k: v for k, v in run.items() if k not in ("label", "at_ns")}
    return hashlib.sha256(canonical(body).encode()).hexdigest()


def app_stats(run):
    """(sum of app.ops, worst app.op_latency_ns p99) of one run."""
    if "digest" in run:
        return run["app_ops"], run["p99_ns"]
    ops = p99 = 0
    for m in run["metrics"]:
        if m["name"] == "app.ops":
            ops += int(m["value"])
        elif m["name"] == "app.op_latency_ns" and m["value"]["count"] > 0:
            p99 = max(p99, int(m["value"]["p99"]))
    return ops, p99


def to_baseline(report):
    """The slim form bench/baselines commits: the tables in full, and per
    run its digest plus the app aggregates printed on a mismatch."""
    out = {"schema": BASELINE_SCHEMA}
    out.update((k, report[k]) for k in ("bench", "quick", "seed", "notes",
                                         "tables"))
    out["runs"] = []
    for run in report["runs"]:
        ops, p99 = app_stats(run)
        out["runs"].append({"label": run["label"], "at_ns": run["at_ns"],
                            "digest": run_digest(run), "app_ops": ops,
                            "p99_ns": p99})
    out["perf"] = {"events_processed": report["perf"]["events_processed"]}
    return out


def by_key(entries):
    """Metric or series entries keyed by (name, labels)."""
    return {(e["name"], canonical(e["labels"])): e for e in entries}


def first_difference(ra, rb):
    """Where two runs with different digests first differ: a metric, a
    series point, an annotation or another key. A baseline run keeps
    only its digest, so against one the digest is all there is to say."""
    if "digest" in ra or "digest" in rb:
        return "digest differs"
    ma, mb = by_key(ra["metrics"]), by_key(rb["metrics"])
    for key in {**ma, **mb}:
        if ma.get(key) != mb.get(key):
            va, vb = (m["value"] if m else "absent"
                      for m in (ma.get(key), mb.get(key)))
            return f"metric {key[0]} {key[1]}: {va} -> {vb}"
    ta, tb = ra.get("timeseries"), rb.get("timeseries")
    if ta != tb:
        if ta is None or tb is None:
            return "timeseries present on one side only"
        if (ta["window_ns"], ta["t_ns"]) != (tb["window_ns"], tb["t_ns"]):
            return "timeseries sample axes differ"
        sa, sb = by_key(ta["series"]), by_key(tb["series"])
        for key in {**sa, **sb}:
            if key not in sa or key not in sb:
                return f"series {key[0]} {key[1]} present on one side only"
            pa, pb = ([None] * s["start"] + s["points"]
                      for s in (sa[key], sb[key]))
            for t, x, y in zip(ta["t_ns"], pa, pb):
                if x != y:
                    return (f"series {key[0]} {key[1]} at t_ns {t}: "
                            f"{x} -> {y}")
        for x, y in zip(ta["annotations"], tb["annotations"]):
            if x != y:
                return f"annotation {x} -> {y}"
        return "timeseries differs"
    for key in sorted(set(ra) | set(rb)):
        if key not in ("label", "at_ns") and ra.get(key) != rb.get(key):
            return f"{key} differs"
    return "digest differs"


def diff_reports(a, b):
    """Every difference the --same-runs gate finds between report @a (old)
    and report @b (new), each a full report or a baseline: the first
    differing cell of each table (host columns aside), the run labels and
    at_ns, each run's digest, and perf.events_processed."""
    out = [f"{key} {a[key]!r} -> {b[key]!r}"
           for key in ("bench", "quick", "seed") if a[key] != b[key]]
    names = [t["name"] for t in a["tables"]]
    if names != [t["name"] for t in b["tables"]]:
        out.append(f"tables {names} -> {[t['name'] for t in b['tables']]}")
    for ta, tb in zip(a["tables"], b["tables"]):
        if ta["header"] != tb["header"] or len(ta["rows"]) != len(tb["rows"]):
            out.append(f"table {ta['name']}: header or row count differs")
            continue
        out += [f"table {ta['name']} row {i} ({ra[0]}) column {col}: "
                f"{x} -> {y}"
                for i, (ra, rb) in enumerate(zip(ta["rows"], tb["rows"]))
                for col, x, y in zip(ta["header"], ra, rb)
                if x != y and col not in HOST_COLUMNS][:1]
    runs = [[(r["label"], r["at_ns"]) for r in rep["runs"]] for rep in (a, b)]
    if runs[0] != runs[1]:
        out.append(f"runs (label, at_ns) {runs[0]} -> {runs[1]}")
    else:
        for ra, rb in zip(a["runs"], b["runs"]):
            if run_digest(ra) == run_digest(rb):
                continue
            (ops_a, p99_a), (ops_b, p99_b) = app_stats(ra), app_stats(rb)
            out.append(f"run {ra['label']}: {first_difference(ra, rb)}; "
                       f"app.ops {ops_a} -> {ops_b}, p99 {p99_a} -> "
                       f"{p99_b} ns")
    ev_a, ev_b = (r["perf"]["events_processed"] for r in (a, b))
    if ev_a != ev_b:
        out.append(f"perf.events_processed {ev_a} -> {ev_b}")
    return out


def shard_scaling(report):
    """Wall-clock gate of kernel_stress's shard sweep: the 4-shard speedup
    must reach SPEEDUP_FLOOR, on hosts with SPEEDUP_MIN_CORES or more.
    The sweep's determinism is validate_kernel_stress's gate."""
    ss = next((t for t in report["tables"]
               if t["name"] == "kernel_stress_shard_scaling"), None)
    check(ss is not None, "report has no kernel_stress_shard_scaling table")
    cols = {name: i for i, name in enumerate(ss["header"])}
    row4 = next((r for r in ss["rows"] if int(r[cols["shards"]]) == 4), None)
    check(row4 is not None, "shard_scaling table has no 4-shard row")
    speedup = float(row4[cols["speedup_vs_1"]])
    cores = int(report["perf"]["host_cores"])
    if cores < SPEEDUP_MIN_CORES:
        print(f"check_bench_json: 4-shard speedup {speedup:.2f}x not gated "
              f"on a {cores}-core host (need {SPEEDUP_MIN_CORES})")
        return
    check(speedup >= SPEEDUP_FLOOR,
          f"4-shard speedup {speedup:.2f}x < {SPEEDUP_FLOOR:.2f}x floor on "
          f"a {cores}-core host")
    print(f"check_bench_json: OK: 4-shard speedup {speedup:.2f}x >= "
          f"{SPEEDUP_FLOOR:.2f}x ({cores} cores)")


def cache_overhead(nocache, cached):
    """Per run label, the cached run keeps CACHE_MIN_OPS_RATIO of the
    no-cache app.ops and stays within CACHE_MAX_P99_RATIO of its p99."""
    stats = {run["label"]: app_stats(run) for run in cached["runs"]}
    for run in nocache["runs"]:
        label = run["label"]
        check(label in stats, f"run {label!r} missing from the cached report")
        (ops, p99), (c_ops, c_p99) = app_stats(run), stats[label]
        check(c_ops >= CACHE_MIN_OPS_RATIO * ops,
              f"run {label!r}: cached app.ops {c_ops} < "
              f"{CACHE_MIN_OPS_RATIO} x no-cache {ops}")
        check(c_p99 <= CACHE_MAX_P99_RATIO * p99,
              f"run {label!r}: cached p99 {c_p99} ns > "
              f"{CACHE_MAX_P99_RATIO} x no-cache {p99} ns")
    print(f"check_bench_json: OK: cache overhead within bounds on "
          f"{len(nocache['runs'])} runs")


def main(argv):
    if len(argv) == 3 and argv[0] == "--same-runs":
        problems = diff_reports(load(argv[1]), load(argv[2]))
        for p in problems:
            print(f"check_bench_json: {p}", file=sys.stderr)
        check(not problems, f"{argv[2]} differs from {argv[1]} in "
              f"{len(problems)} place(s)")
        print(f"check_bench_json: OK: {argv[2]} simulated what {argv[1]} "
              "did")
    elif len(argv) == 2 and argv[0] == "--baseline":
        print(json.dumps(to_baseline(load(argv[1])), indent=1))
    elif len(argv) == 2 and argv[0] == "--shard-scaling":
        shard_scaling(load(argv[1]))
    elif len(argv) == 3 and argv[0] == "--cache-overhead":
        cache_overhead(load(argv[1]), load(argv[2]))
    elif len(argv) >= 2 and argv[0] == "--run":
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "report.json"
            cmd = argv[1:] + ["--quick", "--trace", "--json", str(out),
                              "--out-dir", tmp]
            proc = subprocess.run(cmd)
            check(proc.returncode == 0,
                  f"bench exited with {proc.returncode}")
            check(out.exists(), f"bench did not write {out}")
            validate(json.loads(out.read_text()))
    elif len(argv) == 1 and not argv[0].startswith("-"):
        validate(json.loads(Path(argv[0]).read_text()))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
