"""Alternating pairs of benchmark runs: a parent revision against the
working tree.

    python scripts/bench_pairs.py --parent HEAD --pairs 10 --seconds 20

The parent's committed files are exported with `git archive` into a
temporary directory, which is removed at the end; the change side is the
working tree.  Both sides run their own, unchanged perfbench/run.py.  Pair
i runs seed --seed + i on both sides, and the side that runs first
alternates from pair to pair.  Each run is reported on stderr as it ends.

For every workload and every end-to-end metric of BENCHMARK.json the
summary gives both medians, the parent's quartile spread, how many pairs
the change won (ties count for neither) and a verdict.  A metric's bound
is read as a fraction of the parent's median:

    worse       the change's median is worse than the parent's by more
                than the bound;
    better      the change won at least nine tenths of the pairs, and the
                medians differ by more than the parent's quartile spread;
    unresolved  the parent's quartile spread is wider than the bound, and
                not every run of the change reads better than every run
                of the parent;
    no move     otherwise.

Exits 1 if any run is not `correct`, 0 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def summarize(parent, change, better, bound):
    """The summary of one metric from the paired samples parent[i] and
    change[i]: both medians, the parent's quartile spread, the pairs the
    change won, and the verdict of the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = sign * np.asarray(parent, dtype=float), sign * np.asarray(change, dtype=float)
    p_med, c_med = float(np.median(p)), float(np.median(c))
    q1, q3 = np.percentile(p, [25, 75])
    spread, scale = float(q3 - q1), abs(p_med) or 1.0
    wins = int(np.sum(c < p))
    if c_med - p_med > bound * scale:
        verdict = "worse"
    elif wins >= 0.9 * len(p) and p_med - c_med > spread:
        verdict = "better"
    elif spread > bound * scale and not c.max() < p.min():
        verdict = "unresolved"
    else:
        verdict = "no move"
    return {
        "parent": sign * p_med, "change": sign * c_med, "spread": spread,
        "wins": wins, "pairs": len(p), "verdict": verdict,
    }


def export(rev, dest):
    """The committed files of rev, written under dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar.stdout, check=True)


def run_once(tree, workload, seed, seconds):
    """The JSON result of one benchmark run in tree, or {"correct": False}
    with the error when the run fails."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(
        cmd + ["--seconds", str(seconds)], cwd=tree, env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        return {"correct": False, "error": proc.stderr[-500:]}
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", default="HEAD", help="revision to compare against (default HEAD)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--workload", action="append", help="repeatable; default every workload")
    args = p.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    runs = {w: {"parent": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        export(args.parent, tmp)
        trees = {"parent": tmp, "change": str(ROOT)}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in workloads:
                for side in order:
                    res = run_once(trees[side], w, args.seed + i, args.seconds)
                    runs[w][side].append(res)
                    values = " ".join(
                        f"{m['name']}={res['metrics'][m['name']]['value']:.4g}"
                        for m in metrics if "metrics" in res
                    )
                    print(f"pair {i + 1} {w} {side}: correct={res['correct']} {values}", file=sys.stderr)

    print(f"{args.pairs} pairs per workload, {args.seconds:g} s per run, parent {args.parent}")
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<12} {'parent':>10} {'change':>10} {'parent IQR':>11} {'won':>6}  verdict")
        ok = [all(r["correct"] for r in pair) for pair in zip(runs[w]["parent"], runs[w]["change"])]
        for m in metrics:
            pairs = [
                (rp["metrics"][m["name"]]["value"], rc["metrics"][m["name"]]["value"])
                for rp, rc, good in zip(runs[w]["parent"], runs[w]["change"], ok) if good
            ]
            if not pairs:
                continue
            s = summarize(*zip(*pairs), m["better"], m["bound"])
            print(
                f"  {m['name']:<12} {s['parent']:>10.4g} {s['change']:>10.4g} {s['spread']:>11.3g} "
                f"{s['wins']:>3}/{s['pairs']:<2}  {s['verdict']}"
            )
    failed = [(w, side) for w in workloads for side in runs[w] for r in runs[w][side] if not r["correct"]]
    for w, side in failed:
        print(f"bench_pairs: a {side} run of {w} is not correct", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
