"""Calibrate the Monte Carlo simulator against the exact kernels.

Runs the twelve simulate cases of the benchmark's oracles workload (six
queue transitions, six non-crossing probabilities) at the base rates,
once per seed, and prints each estimate's z = (estimate - exact) / SE,
SE = half_width_95 / 1.96.  The exact values come from kt00_direct or
kt_general and noncrossing_prob.  A calibrated simulator gives a mean z
near 0, a mean z^2 near 1 and, over 72 z values, a max |z| below 4.
Exits 1 when max |z| reaches 5: for 72 normal z values the chance of
that is about 4e-5.

usage: python3 scripts/sim_calibration.py --seeds 6 --blocks 4
"""

import argparse
import sys

from tandemq import kernels, queueprobs, simulator

MAX_Z = 5.0

QUEUE = (
    ((1.0, 2.0, 4.0), (0, 0), (0, 0), 1.0),
    ((1.0, 2.0, 4.0), (1, 0), (0, 1), 0.5),
    ((1.5, 2.0, 3.0), (0, 1), (0, 0), 1.0),
    ((1.0, 1.5, 2.5), (1, 1), (1, 0), 0.8),
    ((1.0, 2.0, 3.0, 5.0), (0, 0, 0), (0, 0, 0), 0.5),
    ((1.0, 2.5, 3.0, 4.0), (0, 0, 0), (0, 0, 0), 1.0),
)
NONCROSS = (
    ((3.0, 2.0, 1.0), (2, 1, 0), 1.0),
    ((2.0, 1.0), (1, 0), 1.0),
    ((1.0, 2.0, 3.0), (3, 1, 0), 0.5),
    ((1.0, 2.0, 3.0, 4.0), (3, 2, 1, 0), 0.5),
    ((2.0, 2.0, 1.0), (2, 1, 0), 0.8),
    ((1.0, 3.0), (2, 0), 0.7),
)


def cases():
    """(label, exact value, estimate(cfg)) of each case."""
    for rates, q, q2, t in QUEUE:
        if any(q) or any(q2):
            exact = queueprobs.kt_general(q, q2, t, rates, tol=1e-10).value
        else:
            exact = queueprobs.kt00_direct(t, rates, tol=1e-10).value
        yield (f"kt rates={rates} q={q} q2={q2} t={t}", rates, t, exact,
               lambda cfg, q=q, q2=q2: simulator.simulate_queue_prob(q, q2, cfg=cfg))
    for rates, x, t in NONCROSS:
        exact = kernels.noncrossing_prob(x, t, rates, tol=1e-10).value
        yield (f"noncross rates={rates} x={x} t={t}", rates, t, exact,
               lambda cfg, x=x: simulator.simulate_noncrossing(x, cfg=cfg))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=6, help="estimates per case, seeds 1..K")
    ap.add_argument("--blocks", type=int, default=4, help="blocks of replications per estimate")
    args = ap.parse_args(argv)
    if args.seeds < 1 or args.blocks < 1:
        ap.error("--seeds and --blocks must be at least 1")

    reps = args.blocks * simulator.BLOCK
    zs = []
    for i, (label, rates, t, exact, estimate) in enumerate(cases()):
        row = []
        for s in range(1, args.seeds + 1):
            cfg = simulator.SimConfig(rates=rates, horizon=t, seed=1000 * s + i, replications=reps)
            est = estimate(cfg)
            row.append((est.mean - exact) / (est.half_width_95 / 1.96))
        zs += row
        print(f"{label:<55} exact {exact:.6f}  z " + " ".join(f"{z:+.2f}" for z in row))
    n = len(zs)
    worst = max(map(abs, zs))
    print(f"\n{n} estimates of {reps} replications: mean z {sum(zs) / n:+.3f}, "
          f"mean z^2 {sum(z * z for z in zs) / n:.3f}, max |z| {worst:.2f}")
    if worst >= MAX_Z:
        print(f"sim_calibration: max |z| {worst:.2f} reaches {MAX_Z}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
