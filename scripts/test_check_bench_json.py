#!/usr/bin/env python3
"""Self-test for the bench gates in check_bench_json.py.

Usage:
    test_check_bench_json.py [BASELINE_DIR]

Each committed baseline (default: bench/baselines) must be in the slim
--baseline form, pass its bench's validator and pass --same-runs against
itself, and every mutated copy below must be rejected. The validator
must reject a table cell pushed past its threshold. --same-runs must
reject a +-1 change in one metric, one timeseries point, one table cell
or perf.events_processed of a small full report, checked both against
its --baseline form and against itself, and a changed spans block; it
must accept a changed host wall-clock cell. --cache-overhead and
--shard-scaling must hold their bounds exactly. Exits 0 when every
expectation holds, 1 otherwise.
"""

import contextlib
import copy
import functools
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_bench_json as cbj  # noqa: E402

# (baseline file, table, row key (first cell) or None for row 0, column,
#  mutated cell value)
MUTATIONS = [
    ("BENCH_kernel_stress.json", "kernel_stress", "resume_storm",
     "allocs", "1"),
    ("BENCH_kernel_stress.json", "kernel_stress_span_gates", None,
     "off_events_match", "NO"),
    ("BENCH_elasticity.json", "elasticity_degradation", None,
     "failed_ops", "1"),
    ("BENCH_elasticity.json", "elasticity_degradation", None,
     "post_over_pre", "0.5"),
]

# (what, path to one number of small_report(), text the --same-runs
#  diagnostic between two full reports must name)
DRIFTS = [
    ("a smart.thread.* counter", ("runs", 0, "metrics", 2, "value"),
     "smart.thread.doorbell_wait_ns"),
    ("a timeseries point",
     ("runs", 1, "timeseries", "series", 0, "points", 1),
     "smart.ctrl.credit_cmax"),
    ("a table cell", ("tables", 0, "rows", 1, 2), "column SMART-HT_kops"),
    ("perf.events_processed", ("perf", "events_processed"),
     "events_processed"),
]

OK = True


def expect(got, want, what):
    global OK
    if got == want:
        print(f"test_check_bench_json: OK: {what}")
    else:
        print(f"test_check_bench_json: FAIL: {what}", file=sys.stderr)
        OK = False


def exits(gate, *args):
    """True when @gate(*args) fails through check_bench_json.fail()."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            gate(*args)
        except SystemExit:
            return True
    return False


def rejects(report):
    """True when the bench's validator rejects @report."""
    return exits(cbj.BENCH_VALIDATORS[report["bench"]], report)


def mutate(report, table, row_key, column, value):
    out = copy.deepcopy(report)
    t = next(t for t in out["tables"] if t["name"] == table)
    col = t["header"].index(column)
    row = t["rows"][0] if row_key is None else next(
        r for r in t["rows"] if r[0] == row_key)
    row[col] = value
    return out


def bumped(report, path, delta):
    """A copy of @report with the number (or numeric cell) at @path moved
    by @delta."""
    out = copy.deepcopy(report)
    *head, last = path
    obj = functools.reduce(lambda o, k: o[k], head, out)
    v = obj[last]
    obj[last] = str(int(v) + delta) if isinstance(v, str) else v + delta
    return out


def small_report():
    """A two-run fig07-shaped full report: one table, app and per-thread
    metrics, and a controller timeseries born one window late."""
    def run(label, ops):
        return {"label": label, "at_ns": 2_000_000, "metrics": [
            {"name": "app.ops", "labels": {"blade": "cb0"},
             "kind": "counter", "value": ops},
            {"name": "app.op_latency_ns", "labels": {"blade": "cb0"},
             "kind": "histogram", "value": {"count": ops, "p99": 4000}},
            {"name": "smart.thread.doorbell_wait_ns",
             "labels": {"thread": "0"}, "kind": "counter",
             "value": 7 * ops}],
            "timeseries": {
                "window_ns": 500_000,
                "t_ns": [500_000, 1_000_000, 1_500_000],
                "series": [{"name": "smart.ctrl.credit_cmax",
                            "labels": {"thread": "0"}, "kind": "gauge",
                            "start": 1, "points": [8, 16]}],
                "annotations": []}}
    return {"schema": cbj.SCHEMA, "bench": "fig07_hashtable", "quick": True,
            "seed": 7, "notes": [],
            "tables": [{"name": "fig07_scaleup_write-heavy",
                        "header": ["threads", "RACE_kops", "SMART-HT_kops"],
                        "rows": [["8", "2810", "3020"],
                                 ["96", "1100", "5700"]]}],
            "runs": [run("RACE/write-heavy", 1200),
                     run("SMART-HT/write-heavy", 2500)],
            "perf": {"events_processed": 123456}}


def check_same_runs(base_dir):
    for path in sorted(base_dir.glob("BENCH_*.json")):
        report = json.loads(path.read_text())
        expect(cbj.to_baseline(report) == report
               and not cbj.diff_reports(report, copy.deepcopy(report)),
               True, f"{path.name} is a slim baseline and accepts itself")

    full = small_report()
    slim = cbj.to_baseline(full)
    expect(cbj.diff_reports(slim, full), [],
           "a full report matches its --baseline form")
    for what, path, named in DRIFTS:
        for delta in (-1, 1):
            drifted = bumped(full, path, delta)
            expect(bool(cbj.diff_reports(slim, drifted)), True,
                   f"baseline rejects {what} {delta:+d}")
            problems = cbj.diff_reports(full, drifted)
            expect(len(problems) == 1 and named in problems[0], True,
                   f"full report rejects {what} {delta:+d}, naming {named}")

    spans = copy.deepcopy(full)
    spans["runs"][0]["spans"] = {"records": 1, "dropped": 0}
    other = bumped(spans, ("runs", 0, "spans", "records"), 1)
    expect(bool(cbj.diff_reports(spans, other)), True,
           "--same-runs rejects differing spans")

    kernel = json.loads((base_dir / "BENCH_kernel_stress.json").read_text())
    expect(cbj.diff_reports(kernel, mutate(
        kernel, "kernel_stress", None, "wall_ms", "1.5")), [],
        "kernel_stress accepts a changed wall_ms cell")
    for delta in (-1, 1):
        expect(bool(cbj.diff_reports(kernel, bumped(
            kernel, ("tables", 0, "rows", 0, 1), delta))), True,
            f"kernel_stress rejects events {delta:+d}")


def check_single_report_gates(base_dir):
    full = small_report()
    ops = ("runs", 0, "metrics", 0, "value")
    p99 = ("runs", 0, "metrics", 1, "value", "p99")
    for what, path, delta, want in (("app.ops", ops, -120, False),
                                    ("app.ops", ops, -121, True),
                                    ("p99", p99, 8000, False),
                                    ("p99", p99, 8001, True)):
        expect(exits(cbj.cache_overhead, full, bumped(full, path, delta)),
               want, f"--cache-overhead {'rejects' if want else 'accepts'} "
               f"{what} {delta:+d}")

    kernel = json.loads((base_dir / "BENCH_kernel_stress.json").read_text())
    for speedup, cores, want in (("1.60", 4, False), ("1.59", 4, True),
                                 ("0.50", 3, False)):
        report = mutate(kernel, "kernel_stress_shard_scaling", "4",
                        "speedup_vs_1", speedup)
        report["perf"]["host_cores"] = cores
        expect(exits(cbj.shard_scaling, report), want,
               f"--shard-scaling {'rejects' if want else 'accepts'} "
               f"{speedup}x on {cores} cores")


def main(argv):
    base_dir = Path(argv[0]) if argv else (
        Path(__file__).resolve().parent.parent / "bench" / "baselines")
    for name in sorted({m[0] for m in MUTATIONS}):
        expect(rejects(json.loads((base_dir / name).read_text())), False,
               f"validator accepts unmutated {name}")
    for name, table, row_key, column, value in MUTATIONS:
        report = json.loads((base_dir / name).read_text())
        expect(rejects(mutate(report, table, row_key, column, value)), True,
               f"validator rejects {name}: {table}[{row_key or 0}].{column} "
               f"= {value!r}")
    check_same_runs(base_dir)
    check_single_report_gates(base_dir)
    return 0 if OK else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
