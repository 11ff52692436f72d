#!/usr/bin/env python3
"""A/B host-time comparison of a parent revision against the working tree.

Usage (from anywhere inside a checkout):

    python3 scripts/ab.py PARENT_REV [--pairs N] [--seed N]
                          [--workload NAME ...] [--cores A,B]
                          [--build-dir DIR]

Builds perfbench's `smartbench` (Release + LTO) twice into a reused
build directory (default .ab_build/ at the repository root): once from
`git archive PARENT_REV`, once from the working tree. The parent is
rebuilt from scratch whenever PARENT_REV names another commit. For each
workload it then runs N pairs, the parent and the change at the same
time, each pinned to its own core, and swaps the cores every pair so a
slow core cannot favour one side.

Prints, per workload, the median `run_s` of each side, the median of the
per-pair ratios change/parent, the pairs the change won, the parent's
[q1, q3], and the median `peak_rss_mb` and `setup_s` of each side. Exits
1 when any pair's digest, `sim.events` or simulated end-to-end metric
differs between the sides (the change altered the simulation), 2 on a
usage or build error, 0 otherwise.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("race_write_skew", "ford_smallbank", "sherman_read_scaleout")
# Simulated fields that must be identical between the two sides.
SIM_FIELDS = ("attempted", "failed", "sim_mops", "sim_p50_us",
              "sim_p999_us", "ops_ok_frac", "sim.events")


def quartiles(xs):
    """Return (q1, median, q3) of @p xs (inclusive method)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[1], q[2]


def summarize(parent, change):
    """Pairwise statistics of two equally long lists of run times.

    Returns a dict: parent/change medians, the median of the per-pair
    ratios change/parent, the number of pairs the change won (strictly
    lower), the pair count, and the parent's q1 and q3.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need equally many parent and change runs")
    ratios = [c / p for p, c in zip(parent, change)]
    q1, med, q3 = quartiles(parent)
    return {
        "parent_median": med,
        "change_median": statistics.median(change),
        "median_ratio": statistics.median(ratios),
        "won": sum(1 for p, c in zip(parent, change) if c < p),
        "pairs": len(parent),
        "parent_q1": q1,
        "parent_q3": q3,
    }


def die(msg):
    print(f"ab.py: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, **kw):
    res = subprocess.run(cmd, **kw)
    if res.returncode != 0:
        die(f"failed ({res.returncode}): {' '.join(cmd)}")
    return res


def build(src, build_dir):
    """Configure (once) and build perfbench from @p src into @p build_dir."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", os.path.join(src, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=subprocess.DEVNULL)
    run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 2)],
        stdout=subprocess.DEVNULL)
    return os.path.join(build_dir, "smartbench")


def export_parent(rev, dest, build_dir):
    """Extract @p rev into @p dest unless that commit is already there.

    A new commit also empties @p build_dir: git archive stamps every file
    with the commit time, older than the objects a previous parent left,
    so an incremental build would keep the previous parent's binary.
    """
    sha = run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
              capture_output=True, text=True).stdout.strip()
    stamp = os.path.join(dest, ".ab_rev")
    if os.path.exists(stamp) and open(stamp).read().strip() == sha:
        return sha
    shutil.rmtree(dest, ignore_errors=True)
    shutil.rmtree(build_dir, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                               stdout=subprocess.PIPE)
    run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    if archive.wait() != 0:
        die(f"git archive {rev} failed")
    with open(stamp, "w") as f:
        f.write(sha + "\n")
    return sha


def pinned(core):
    return lambda: os.sched_setaffinity(0, {core})


def run_pair(bins, cores, workload, seed):
    """Run both binaries at once, bins[i] pinned to cores[i]."""
    procs = [subprocess.Popen([b, "--workload", workload, "--seed", str(seed)],
                              stdout=subprocess.PIPE, text=True,
                              preexec_fn=pinned(c))
             for b, c in zip(bins, cores)]
    out = []
    for p in procs:
        stdout, _ = p.communicate()
        if p.returncode != 0:
            die(f"smartbench exited {p.returncode} on {workload}")
        out.append(json.loads(stdout.strip().splitlines()[-1]))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_rev")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=16)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--cores", default="0,1",
                    help="two CPU ids, swapped every pair (default 0,1)")
    ap.add_argument("--build-dir", default=os.path.join(ROOT, ".ab_build"))
    args = ap.parse_args()
    cores = [int(c) for c in args.cores.split(",")]
    if len(cores) != 2 or cores[0] == cores[1] or args.pairs < 1:
        ap.error("--cores needs two distinct ids and --pairs at least 1")

    parent_src = os.path.join(args.build_dir, "parent-src")
    parent_build = os.path.join(args.build_dir, "parent")
    sha = export_parent(args.parent_rev, parent_src, parent_build)
    parent_bin = build(parent_src, parent_build)
    change_bin = build(ROOT, os.path.join(args.build_dir, "change"))
    print(f"parent {sha[:12]} vs working tree, {args.pairs} concurrent "
          f"pinned pairs per workload, seed {args.seed}, cores {cores}")

    diverged = False
    for w in args.workload or WORKLOADS:
        rows = {"parent": [], "change": []}
        for i in range(args.pairs):
            pair_cores = cores if i % 2 == 0 else cores[::-1]
            p, c = run_pair([parent_bin, change_bin], pair_cores, w,
                            args.seed)
            rows["parent"].append(p)
            rows["change"].append(c)
            for f in SIM_FIELDS:
                if p["sim"][f] != c["sim"][f]:
                    print(f"{w} pair {i}: sim {f} differs: "
                          f"{p['sim'][f]} vs {c['sim'][f]}")
                    diverged = True
            if p["digest"] != c["digest"]:
                print(f"{w} pair {i}: digest differs: "
                      f"{p['digest']} vs {c['digest']}")
                diverged = True

        def host(side, key):
            return [r["host"][key] for r in rows[side]]

        s = summarize(host("parent", "run_s"), host("change", "run_s"))
        print(f"{w}: run_s {s['parent_median']:.3f} -> "
              f"{s['change_median']:.3f} s, median ratio "
              f"{s['median_ratio']:.3f}, change faster in "
              f"{s['won']}/{s['pairs']}, parent [q1, q3] "
              f"[{s['parent_q1']:.3f}, {s['parent_q3']:.3f}]")
        for key, unit in (("setup_s", "s"), ("peak_rss_mb", "MB")):
            print(f"{w}: {key} "
                  f"{statistics.median(host('parent', key)):.4f} -> "
                  f"{statistics.median(host('change', key)):.4f} {unit}")
        print(f"{w}: digest {rows['parent'][0]['digest']} -> "
              f"{rows['change'][0]['digest']}, sim.events "
              f"{rows['parent'][0]['sim']['sim.events']} -> "
              f"{rows['change'][0]['sim']['sim.events']}")
    return 1 if diverged else 0


if __name__ == "__main__":
    sys.exit(main())
