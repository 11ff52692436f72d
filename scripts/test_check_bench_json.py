#!/usr/bin/env python3
"""Self-test for the bench gates in check_bench_json.py.

Usage:
    test_check_bench_json.py [BASELINE_DIR]

Each committed baseline (default: bench/baselines) must pass its bench's
validator, and every mutated copy below, with one gated value pushed
past its threshold, must be rejected. This shows that a gate which moved
out of a bench's exit code into the validator really holds. The
--same-runs gate must accept a report against itself and reject a copy
whose spans block differs. compare_bench.py at zero tolerance (the CI
regression gate) must accept every baseline against itself and reject
a run whose app.ops is one lower or whose p99 is one higher, and a
kernel report whose perf.events_processed is one off. Exits 0 when every
expectation holds, 1 otherwise.
"""

import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_bench_json  # noqa: E402
import compare_bench  # noqa: E402

BASELINES = ["BENCH_elasticity.json", "BENCH_fig07_hashtable.json",
             "BENCH_fig10_dtx.json", "BENCH_fig12_btree.json",
             "BENCH_kernel_stress.json", "BENCH_open_loop.json"]

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


def rejects(report):
    """True when the bench's validator rejects @report."""
    try:
        check_bench_json.BENCH_VALIDATORS[report["bench"]](report)
    except SystemExit:
        return True
    return False


def same_runs_rejects(a, b):
    """True when --same-runs rejects report @a against report @b."""
    with tempfile.TemporaryDirectory() as tmp:
        pa, pb = Path(tmp) / "a.json", Path(tmp) / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        try:
            check_bench_json.same_runs(pa, pb)
        except SystemExit:
            return True
    return False


def exact_compare_rejects(base, cur):
    """True when compare_bench at zero tolerance rejects @cur vs @base."""
    compare_bench.FAIL.clear()
    compare_bench.WARN.clear()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        compare_bench.compare(base, cur, p99_tol=0.0, tput_tol=0.0)
    return bool(compare_bench.FAIL)


def app_metric(run, name, key):
    """The @name metric of @run with the largest @key(value)."""
    return max((m for m in run["metrics"] if m["name"] == name), key=key)


def check_exact_compare(base_dir):
    """The zero-tolerance gate passes on identity and fails on +-1."""
    ok = True

    def expect(rejected, want, what):
        nonlocal ok
        if rejected == want:
            print(f"test_check_bench_json: OK: compare_bench --tput-tol 0 "
                  f"--p99-tol 0 {'rejects' if want else 'accepts'} {what}")
        else:
            print(f"test_check_bench_json: FAIL: compare_bench --tput-tol 0 "
                  f"--p99-tol 0 {'accepts' if want else 'rejects'} {what}",
                  file=sys.stderr)
            ok = False

    reports = {n: json.loads((base_dir / n).read_text()) for n in BASELINES}
    for name, report in reports.items():
        expect(exact_compare_rejects(report, copy.deepcopy(report)), False,
               f"{name} against itself")

    fig07 = reports["BENCH_fig07_hashtable.json"]
    fewer = copy.deepcopy(fig07)
    app_metric(fewer["runs"][0], "app.ops", lambda v: v["value"])["value"] -= 1
    expect(exact_compare_rejects(fig07, fewer), True,
           "a fig07 run with app.ops - 1")
    slower = copy.deepcopy(fig07)
    app_metric(slower["runs"][0], "app.op_latency_ns",
               lambda v: v["value"]["p99"])["value"]["p99"] += 1
    expect(exact_compare_rejects(fig07, slower), True,
           "a fig07 run with p99 + 1")

    kernel = reports["BENCH_kernel_stress.json"]
    for delta in (-1, 1):
        off = copy.deepcopy(kernel)
        off["perf"]["events_processed"] += delta
        expect(exact_compare_rejects(kernel, off), True,
               f"kernel_stress with perf.events_processed {delta:+d}")
    return ok


def mutate(report, table, row_key, column, value):
    out = copy.deepcopy(report)
    t = next(t for t in out["tables"] if t["name"] == table)
    col = t["header"].index(column)
    row = t["rows"][0] if row_key is None else next(
        r for r in t["rows"] if r[0] == row_key)
    row[col] = value
    return out


def main(argv):
    base_dir = Path(argv[0]) if argv else (
        Path(__file__).resolve().parent.parent / "bench" / "baselines")
    ok = True
    for name in sorted({m[0] for m in MUTATIONS}):
        if rejects(json.loads((base_dir / name).read_text())):
            print(f"test_check_bench_json: FAIL: unmutated {name} is "
                  "rejected", file=sys.stderr)
            ok = False
    for name, table, row_key, column, value in MUTATIONS:
        report = json.loads((base_dir / name).read_text())
        what = f"{name}: {table}[{row_key or 0}].{column} = {value!r}"
        if rejects(mutate(report, table, row_key, column, value)):
            print(f"test_check_bench_json: OK: rejected {what}")
        else:
            print(f"test_check_bench_json: FAIL: accepted {what}",
                  file=sys.stderr)
            ok = False
    report = json.loads((base_dir / "BENCH_fig10_dtx.json").read_text())
    report["runs"][0]["spans"] = {"records": 1, "dropped": 0}
    other = copy.deepcopy(report)
    other["runs"][0]["spans"]["records"] = 2
    if same_runs_rejects(report, copy.deepcopy(report)):
        print("test_check_bench_json: FAIL: --same-runs rejected identical "
              "reports", file=sys.stderr)
        ok = False
    elif not same_runs_rejects(report, other):
        print("test_check_bench_json: FAIL: --same-runs accepted differing "
              "spans", file=sys.stderr)
        ok = False
    else:
        print("test_check_bench_json: OK: --same-runs gates spans")
    ok = check_exact_compare(base_dir) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
