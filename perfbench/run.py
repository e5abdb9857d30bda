"""tandemq benchmark: one seeded workload, timed end to end or layer by layer.

    python3 perfbench/run.py --workload kt00-grid --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ./src (the
same path as PYTHONPATH=src).  The process is a closed loop with one
caller and no threads: each evaluation starts when the previous one has
returned.  The workload's fixed batch of evaluations repeats as often as
its nominal batch time fits in --seconds, so the sample count does not
depend on the machine's speed of the moment; a batch that would overrun
--seconds is not started (there is always one).

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
untraced and half with every layer wrapped (see tracer.py) and prints the
per-layer metrics.  Reference checks run after the timed region.  A report
with the environment, the inputs that were refused or failed, and the
accuracy figures is printed first; the last line of stdout is the JSON
result.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_library():
    if not (SRC / "tandemq" / "__init__.py").is_file():
        fail(f"no library source at {SRC / 'tandemq'}")
    sys.path.insert(0, str(SRC))
    import tandemq

    if Path(tandemq.__file__).resolve().parent != SRC / "tandemq":
        fail(f"imported tandemq from {tandemq.__file__}, not from {SRC}")
    return tandemq


def measure_setup():
    """Seconds from spawning a fresh interpreter until `import tandemq` has
    returned and the interpreter exited; one sample per spawn."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    samples = []
    for _ in range(SETUP_SPAWNS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import tandemq"], cwd=ROOT, env=env, capture_output=True, timeout=60
        )
        samples.append(perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"`import tandemq` failed in a fresh interpreter: {proc.stderr.decode()[-500:]}")
    return samples


def speed_probe():
    """Seconds for a fixed mix of interpreter and small-array numpy work that
    does not touch the library: the machine's speed of the moment, to tell a
    slow phase of a shared machine from a slower library."""
    import numpy as np

    a = np.arange(64.0)
    t0 = perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += float(np.cumsum(a)[i % 64]) + i * 0.5
    return perf_counter() - t0


def run_batch(workloads, name, evals, tracer=None, offset=0):
    """One pass over the evaluations: wall and per-evaluation seconds,
    statuses, outcomes and exception messages."""
    workloads.before_batch(name)
    gc.collect()  # start every batch from the same collector state
    results, times, status, messages = {}, [], [], {}
    start = perf_counter()
    for i, ev in enumerate(evals):
        if tracer is not None:
            tracer.eval_id = offset + i
        t0 = perf_counter()
        try:
            out = ev.call(results)
        except Exception as exc:  # every exception is an outcome to record, not a crash
            times.append(perf_counter() - t0)
            status.append("refused" if workloads.is_refusal(exc) else "error")
            messages[i] = f"{type(exc).__name__}: {exc}"
            continue
        times.append(perf_counter() - t0)
        finite = math.isfinite(out["value"]) and (
            out["abs_error"] is None or math.isfinite(out["abs_error"])
        )
        status.append("ok" if finite else "nonfinite")
        results[i] = out
    wall = perf_counter() - start
    if tracer is not None:
        tracer.eval_id = -1
    return dict(wall=wall, times=times, status=status, results=results, messages=messages)


def run_batches(workloads, name, evals, budget, tracer=None):
    """Up to the workload's nominal batch count for this budget, and never a
    batch that would overrun the budget (but always one)."""
    target = max(1, int(budget // workloads.NOMINAL_BATCH_S[name]))
    batches = []
    start = perf_counter()
    while True:
        b = run_batch(workloads, name, evals, tracer, offset=len(batches) * len(evals))
        batches.append(b)
        if len(batches) >= target or perf_counter() - start + b["wall"] > budget:
            return batches


def check_outcomes(evals, batches):
    """Reference checks on the first batch; later batches must repeat it
    exactly.  Returns per-eval verdicts and the accuracy summary."""
    first = batches[0]
    verdict = list(first["status"])
    accuracy, failures, roundoff_used, unchecked = {}, {}, {}, []
    max_abs_error = 0.0
    for i, ev in enumerate(evals):
        if verdict[i] != "ok":
            continue
        out = first["results"][i]
        if out["abs_error"] is not None:
            max_abs_error = max(max_abs_error, out["abs_error"])
        checks = ev.check(out, first["results"]) if ev.check else []
        if not checks:
            unchecked.append(ev.label)
        for check_name, ok, diff, excess in checks:
            entry = accuracy.setdefault(check_name, {"checked": 0, "max_abs_diff": 0.0})
            entry["checked"] += 1
            if diff is not None:
                entry["max_abs_diff"] = max(entry["max_abs_diff"], diff)
            if excess > 0:
                roundoff_used.setdefault(i, []).append(f"{check_name}: |diff| exceeds the bounds by {excess:.3g}")
            if not ok:
                verdict[i] = "wrong"
                failures.setdefault(i, []).append(f"{check_name}: |diff| = {diff!r}, outcome {out}")
    for b in batches[1:]:
        for i in range(len(evals)):
            if b["status"][i] != first["status"][i] or b["results"].get(i) != first["results"].get(i):
                verdict[i] = "nondeterministic"
                failures.setdefault(i, []).append("outcome differs between batches")
    summary = {
        "max_abs_error": max_abs_error,
        "checks": accuracy,
        "outside_certified_bounds": {evals[i].label: v for i, v in roundoff_used.items()},
        "no_reference": unchecked,
    }
    return verdict, failures, summary


def per_eval_times(evals, batches):
    """Per evaluation, the median of its times over the batches."""
    return [statistics.median(b["times"][i] for b in batches) for i in range(len(evals))]


def batch_time(evals, batches):
    """Time to finish one batch: the sum of the per-evaluation medians, so
    a slow spell in one batch does not move it."""
    return math.fsum(per_eval_times(evals, batches))


def tail_rank(n):
    """Index (ascending) of the highest order statistic with at least ten
    samples above it, and its percentile."""
    k = max(0, n - 11)
    return k, 100.0 * (n - 10) / n if n > 10 else 100.0


def environment(tandemq, args):
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "import_path": "PYTHONPATH=src",
        "tandemq": str(Path(tandemq.__file__).resolve().relative_to(ROOT)),
        "note": "timings are specific to this machine",
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="a few evaluations per workload (smoke test)")
    args = p.parse_args(argv)

    tandemq = import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer as layers
    import workloads

    if args.workload not in workloads.BUILDERS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.BUILDERS)}")
    result, report = run(workloads, layers, args, tandemq)
    print(json.dumps(report, indent=1, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


def run(workloads, layers, args, tandemq):
    setup = measure_setup() if not args.trace else []
    evals = workloads.build(args.workload, args.seed, tiny=args.tiny)

    # warm-up: first call of each route, untimed (lazy imports, first-use tables)
    warm = [ev for ev in evals if ev.warm]
    run_batch(workloads, args.workload, warm)

    budget = args.seconds / 2 if args.trace else args.seconds
    probe = [speed_probe()]
    batches = run_batches(workloads, args.workload, evals, budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced, tracer = [], None
    if args.trace:
        tracer = layers.Tracer()
        with tracer.installed():
            traced = run_batches(workloads, args.workload, evals, budget, tracer)

    probe.append(speed_probe())
    verdict, failures, accuracy = check_outcomes(evals, batches + traced)
    n_batches = len(batches) + len(traced)
    attempted = len(evals) * n_batches
    solved_each = sum(v == "ok" for v in verdict)
    refused = [i for i, v in enumerate(verdict) if v == "refused"]
    failed_idx = [i for i, v in enumerate(verdict) if v not in ("ok", "refused")]

    # every timed call of a solved evaluation is one latency sample; the
    # median is taken over per-evaluation medians, which a slow or fast
    # spell in one batch does not move
    ranked = sorted(b["times"][i] for b in batches for i, v in enumerate(verdict) if v == "ok")
    k, pct = tail_rank(len(ranked))
    per_eval = per_eval_times(evals, batches)
    p50 = statistics.median(t for t, v in zip(per_eval, verdict) if v == "ok")
    failed = len(failed_idx) * n_batches

    groups = {}
    for ev, t in zip(evals, per_eval):
        groups.setdefault(ev.group, []).append(t)
    report = {
        "workload": args.workload,
        "eval_s_by_group": {g: {"n": len(v), "min": min(v), "median": statistics.median(v), "max": max(v)} for g, v in groups.items()},
        "environment": environment(tandemq, args),
        "loop": "closed, one caller, one process, no threads; simulate runs with jobs=None",
        "speed_probe_s": probe,
        "batch": {
            "evaluations": len(evals),
            "walls_s": [b["wall"] for b in batches],
            "traced_walls_s": [b["wall"] for b in traced],
            "untraced_batches": len(batches),
            "traced_batches": len(traced),
            "eval_s_tail_percentile": pct,
            "eval_s_samples": len(ranked),
        },
        "attempted": attempted,
        "solved": solved_each * n_batches,
        "refused": len(refused) * n_batches,
        "failed": failed,
        "fail_frac": 1.0 - solved_each / len(evals),
        "refused_inputs": [f"{evals[i].label} -> {batches[0]['messages'].get(i)}" for i in refused],
        "failed_inputs": [
            f"{evals[i].label} -> {batches[0]['messages'].get(i) or failures.get(i)}" for i in failed_idx
        ],
        "accuracy": accuracy,
    }
    if args.workload == "oracles":
        report["matrix_cache"] = "simulator._MATRIX_CACHE is cleared before every batch (cold, as per CLI process)"

    if args.trace:
        metrics = layers.per_layer(tracer, evals, traced)
        overhead = batch_time(evals, traced) - batch_time(evals, batches)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        report["per_layer_by_group"] = layers.by_group(tracer, evals)
        report["patch_targets_missing"] = tracer.missing
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": math.fsum(per_eval), "unit": "s"},
            "eval_s_p50": {"value": p50, "unit": "s"},
            "eval_s_tail": {"value": ranked[k], "unit": "s"},
            "solved_frac": {"value": solved_each / len(evals), "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        report["setup_samples_s"] = setup
    result = {"correct": not failed_idx, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


if __name__ == "__main__":
    sys.exit(main())
