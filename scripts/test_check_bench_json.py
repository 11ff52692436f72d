#!/usr/bin/env python3
"""Self-test for the bench gates in check_bench_json.py.

Usage:
    test_check_bench_json.py [BASELINE_DIR]

Each committed baseline (default: bench/baselines) must pass its bench's
validator, and every mutated copy below, with one gated value pushed
past its threshold, must be rejected. This shows that a gate which moved
out of a bench's exit code into the validator really holds. The
--same-runs gate must accept a report against itself and reject a copy
whose spans block differs. Exits 0 when every expectation holds, 1
otherwise.
"""

import copy
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_bench_json  # noqa: E402

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
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
