"""Cross-check the determinantal formulas against two independent routes.

For each time point the table shows the empty-to-empty probability from
the direct arrangement sum, the stationary-corrected sum, the
departure-kernel sum that `tandemq kt00` and `tandemq kt` both use,
uniformization of the truncated generator, and a Monte Carlo estimate
with a 95% half-width.  Disagreement beyond the printed bounds means a bug.

usage: python3 scripts/crosscheck_grid.py --rates 1,2,4 --t 0.25,0.5,1,2,4 --reps 200000
"""

import argparse
import sys

from tandemq import queueprobs, simulator
from tandemq.rates import RateVector


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rates", default="1,2,4")
    ap.add_argument("--t", default="0.25,0.5,1,2,4")
    ap.add_argument("--reps", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    nu = RateVector.loads(args.rates)
    n = nu.n_stations
    zero = (0,) * n
    ts = [float(s) for s in args.t.split(",") if s.strip()]

    print(f"rates {tuple(float(v) for v in nu)}   pi0 {float(queueprobs.stationary_empty_prob(nu)):.10f}")
    print(f"{'t':>6} {'direct':>14} {'stationary':>14} {'departure-sum':>14} {'uniformized':>14}"
          f" {'simulated':>14} {'+/-':>9}")
    worst = 0.0
    for t in ts:
        a = queueprobs.kt00_direct(t, nu, tol=1e-10)
        b = queueprobs.kt00_stationary(t, nu, tol=1e-10)
        g = queueprobs.kt_general(zero, zero, t, nu, tol=1e-10)
        u = simulator.uniformization_kt(zero, zero, t, nu, tol=1e-9)
        cfg = simulator.SimConfig(rates=nu.values, horizon=t, seed=args.seed,
                                  replications=args.reps)
        est = simulator.simulate_queue_prob(zero, zero, cfg=cfg)
        values = (a.value, b.value, g.value, u.value)
        spread = max(values) - min(values)
        worst = max(worst, spread)
        print(f"{t:6.2f} {a.value:14.10f} {b.value:14.10f} {g.value:14.10f} {u.value:14.10f}"
              f" {est.mean:14.10f} {est.half_width_95:9.1e}")
        if abs(est.mean - b.value) > max(3 * est.half_width_95 / 1.96, 1e-12):
            print(f"       simulation off by more than 3 sigma at t={t:g}", file=sys.stderr)
            return 1
    print(f"\nlargest spread across deterministic routes: {worst:.2e}")
    return 0 if worst < 1e-6 else 1


if __name__ == "__main__":
    sys.exit(main())
