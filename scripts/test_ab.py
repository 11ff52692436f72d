#!/usr/bin/env python3
"""Self-test for the statistics helper of ab.py on fixed inputs.

Usage:
    test_ab.py

Exits 0 when every expectation holds, 1 otherwise.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab  # noqa: E402


def main():
    failures = []

    def expect(name, got, want, tol=1e-12):
        if isinstance(want, float) and abs(got - want) <= tol:
            return
        if got != want:
            failures.append(f"{name}: got {got!r}, want {want!r}")

    # Ten pairs, the change faster in nine; ratios c/p sorted are
    # 0.7 0.72 0.75 0.75 0.76 0.78 0.8 0.8 0.9 1.05, median 0.77.
    parent = [2.0, 2.5, 2.2, 2.4, 2.0, 2.5, 2.0, 2.0, 2.0, 2.0]
    change = [1.4, 1.8, 1.76, 1.8, 2.1, 1.95, 1.6, 1.52, 1.8, 1.5]
    s = ab.summarize(parent, change)
    expect("median_ratio", s["median_ratio"], 0.77)
    expect("won", s["won"], 9)
    expect("pairs", s["pairs"], 10)
    expect("parent_median", s["parent_median"], 2.0)
    expect("change_median", s["change_median"], 1.78)
    # Inclusive quartiles of the parent: sorted 2.0 x6, 2.2, 2.4, 2.5 x2.
    expect("parent_q1", s["parent_q1"], 2.0)
    expect("parent_q3", s["parent_q3"], 2.35)

    # A tie is not a win; one pair has no spread.
    s = ab.summarize([3.0], [3.0])
    expect("tie won", s["won"], 0)
    expect("tie ratio", s["median_ratio"], 1.0)
    expect("one-pair q1", s["parent_q1"], 3.0)
    expect("one-pair q3", s["parent_q3"], 3.0)

    for bad in (([], []), ([1.0], [1.0, 2.0])):
        try:
            ab.summarize(*bad)
            failures.append(f"summarize{bad} did not raise")
        except ValueError:
            pass

    for f in failures:
        print("FAIL:", f)
    print("ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
