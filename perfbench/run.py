#!/usr/bin/env python3
"""The mfd benchmark: build, run one workload, or compare result files.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare BASE.jsonl NEW.jsonl

Run from the repository root.  A run builds perfbench/bench.exe with
dune (into $CARGO_TARGET_DIR, default _build), runs it, and passes its
output through: the last line is the result object.  Every run also
appends a record to perfbench/out/results.jsonl, and a traced run writes
its spans to perfbench/out/spans-WORKLOAD-seedN.json.  See README.md.
"""

import json
import os
import statistics
import subprocess
import sys


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: no mfd sources here; run from the repository root")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--profile", "release", "./perfbench/bench.exe"]
    try:
        code = subprocess.run(cmd, stdout=sys.stderr).returncode
    except OSError as e:
        sys.exit("run.py: cannot run dune: %s" % e)
    if code != 0:
        sys.exit("run.py: build failed")
    return os.path.join(build_dir, "default", "perfbench", "bench.exe")


def run(args):
    exe = build()
    try:
        code = subprocess.run([exe] + args, timeout=175).returncode
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark timed out")
    sys.exit(code)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0], xs[0])
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (q1, statistics.median(xs), q3)


def pct(a, b):
    return "" if a == 0 else "%+.1f%%" % (100.0 * (b - a) / a)


def compare(base_path, new_path):
    base, new = load(base_path), load(new_path)
    workloads = sorted({r["workload"] for r in base + new})
    for w in workloads:
        print("== %s" % w)
        for trace, section, title in ((0, "end_to_end", "end-to-end: median [q1, q3] over runs"),
                                      (1, "per_layer", "per-layer: median over traced runs")):
            a = [r for r in base if r["workload"] == w and r["trace"] == trace]
            b = [r for r in new if r["workload"] == w and r["trace"] == trace]
            if not a or not b:
                continue
            print("  %s (%d vs %d runs)" % (title, len(a), len(b)))
            for name in a[0][section]:
                xa = [r[section][name]["value"] for r in a if name in r[section]]
                xb = [r[section][name]["value"] for r in b if name in r[section]]
                if not xa or not xb:
                    continue
                unit = a[0][section][name]["unit"]
                qa, qb = quartiles(xa), quartiles(xb)
                if trace == 0:
                    print("    %-24s %12.4f [%.4f, %.4f] -> %12.4f [%.4f, %.4f] %-6s %s"
                          % (name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], unit,
                             pct(qa[1], qb[1])))
                elif qa[1] or qb[1]:  # skip layers idle on this workload
                    print("    %-24s %12.4f -> %12.4f  delta %+12.4f %-6s %s"
                          % (name, qa[1], qb[1], qb[1] - qa[1], unit, pct(qa[1], qb[1])))
            if trace == 1:
                print("  self time by span: median over traced runs")
                names = sorted({n for r in a + b for n in r.get("self_s", {})})
                for n in names:
                    sa = statistics.median([r["self_s"].get(n, 0.0) for r in a])
                    sb = statistics.median([r["self_s"].get(n, 0.0) for r in b])
                    print("    %-24s %12.4f -> %12.4f  delta %+10.4f s %s"
                          % (n, sa, sb, sb - sa, pct(sa, sb)))


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            sys.exit("usage: run.py compare BASE.jsonl NEW.jsonl")
        compare(argv[1], argv[2])
    else:
        run(argv)


if __name__ == "__main__":
    main()
