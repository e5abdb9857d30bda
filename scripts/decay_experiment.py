"""Trace the approach to stationarity and fit the decay rate.

Computes gap(t) = kt00(t) - pi0 on a geometric-ish time grid, prints a
table with the certified error bound and the local log-slope between
consecutive points, then fits the tail and compares against the analytic
relaxation rate.  The local slope drifts down toward the analytic value
as t grows; the ratio column shows gap(t) against the full leading term
(prefactor times the ordered-survival probability), which tends to 1.

usage: python3 scripts/decay_experiment.py --rates 1,4,2,3 --t-min 40 --t-max 160
"""

import argparse
import math
import sys

from tandemq import asymptotics, queueprobs
from tandemq.errors import PreconditionError
from tandemq.kernels import noncrossing_prob
from tandemq.rates import RateVector


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rates", default="1,4,2,3")
    ap.add_argument("--t-min", type=float, default=40.0)
    ap.add_argument("--t-max", type=float, default=160.0)
    ap.add_argument("--points", type=int, default=9)
    ap.add_argument("--precision", choices=("double", "high"), default="double")
    args = ap.parse_args(argv)

    nu = RateVector.loads(args.rates)
    nu.require_stable()
    theta = asymptotics.relaxation_rate(nu)
    pref, sigma = asymptotics.dominant_prefactor(nu)
    print(f"rates          {tuple(float(v) for v in nu)}")
    print(f"analytic rate  {theta:.10f}   relaxation time {1 / theta:.6f}")
    print(f"bottleneck     station {asymptotics.bottleneck_station(nu)}")
    print(f"leading term   {pref:g} * P_survival with arrangement {sigma}")
    print()

    step = (args.t_max - args.t_min) / max(args.points - 1, 1)
    ts = [args.t_min + k * step for k in range(args.points)]
    series = []
    print(f"{'t':>8} {'gap':>14} {'bound':>10} {'slope':>9} {'ratio':>9}")
    prev = None
    for t in ts:
        kv = queueprobs.kt00_gap_relative(t, nu, precision=args.precision)
        if kv.value <= 10 * kv.abs_error:
            print(f"{t:8.1f} {'-':>14}   below certification floor")
            continue
        gap = float(kv.value)
        slope = ""
        if prev is not None:
            slope = f"{math.log(prev[1] / gap) / (t - prev[0]):9.5f}"
        surv = noncrossing_prob((0,) * len(nu), t, sigma,
                                tol=1e-4 * gap, precision=args.precision)
        ratio = gap / (pref * float(surv.value))
        print(f"{t:8.1f} {gap:14.6e} {float(kv.abs_error):10.1e} {slope:>9} {ratio:9.6f}")
        series.append((t, gap))
        prev = (t, gap)

    try:
        fitted, window, n = asymptotics.fit_decay_rate(series, floor=0.0)
    except PreconditionError as exc:
        print(f"\nnot enough certified points for a fit: {exc}", file=sys.stderr)
        return 1
    print()
    print(f"fitted rate    {fitted:.6f} over t in [{window[0]:g}, {window[1]:g}] ({n} points)")
    print(f"analytic rate  {theta:.6f}   relative offset {(fitted - theta) / theta:+.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
