"""Command line interface.

Subcommands: kt00, kt, relaxation, verify, simulate.  kt00 and kt take
one route for every rate vector and every N: queueprobs.kt_general, the
departure-kernel sum (kt00 between empty states); the closed forms of
queueprobs serve verify as oracles.  Numbers are serialized with 17
significant digits so reruns are byte-identical; tables go to stdout as
RFC-4180 CSV (default) or JSON, diagnostics to stderr.  Exit codes: 0
success, 2 usage or precondition, 3 requested tolerance not achieved, 4
verification failure.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys

from . import asymptotics, queueprobs, simulator
from . import verify as verify_mod
from .errors import PreconditionError, ToleranceNotAchieved
from .kernels import noncrossing_prob
from .rates import RateVector

PRECISION_ENV = "TANDEMQ_PRECISION"
PRECISIONS = ("double", "high")


def _fmt(x):
    return "%.17g" % float(x)


def _to_json(obj):
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(json.dumps(str(k)) + ": " + _to_json(v) for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_rows(rows, header, fmt, out=None):
    """rows: list of dicts with keys = header, values already formatted
    for CSV (strings) or native (json)."""
    out = out or sys.stdout
    if fmt == "json":
        out.write(_to_json([{k: r[k] for k in header} for r in rows]) + "\n")
    else:
        w = csv.writer(out)
        w.writerow(header)
        for r in rows:
            w.writerow([r[k] if isinstance(r[k], str) else _fmt_cell(r[k]) for k in header])


def _fmt_cell(v):
    if isinstance(v, float):
        return _fmt(v)
    if isinstance(v, (list, tuple)):
        return " ".join(str(x) for x in v)
    return str(v)


def _parse_t_grid(values):
    out = []
    for chunk in values:
        for part in str(chunk).split(","):
            part = part.strip()
            if part:
                try:
                    out.append(float(part))
                except ValueError as exc:
                    raise PreconditionError(f"cannot parse --t {part!r}") from exc
    if not out:
        raise PreconditionError("at least one --t value is required")
    if not all(0 <= t < math.inf for t in out):
        raise PreconditionError("t must be finite and nonnegative")
    return out


def _parse_int_vector(text, flag):
    try:
        return tuple(int(p) for p in str(text).split(",") if p.strip())
    except ValueError as exc:
        raise PreconditionError(f"cannot parse {flag} {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _kt_rows(args, nu, q, q2):
    """One row per --t value, all from queueprobs.kt_general.  The route
    column is named method in kt00 tables and path in kt tables."""
    rows = []
    for t in _parse_t_grid(args.t):
        kv = queueprobs.kt_general(q, q2, t, nu, tol=args.tol, precision=args.precision)
        rows.append(
            {
                "q": q,
                "q2": q2,
                "t": t,
                "value": float(kv.value),
                "abs_error": float(kv.abs_error),
                "method": "departure-sum",
                "path": "departure-sum",
            }
        )
    return rows


def cmd_kt00(args):
    nu = RateVector.loads(args.rates)
    zero = (0,) * nu.n_stations
    rows = _kt_rows(args, nu, zero, zero)
    _emit_rows(rows, ("t", "value", "abs_error", "method"), args.format)
    return 0


def cmd_kt(args):
    nu = RateVector.loads(args.rates)
    n = nu.n_stations
    q = _parse_int_vector(args.q, "--q")
    q2 = _parse_int_vector(args.q2, "--q2")
    if len(q) != n or len(q2) != n:
        raise PreconditionError(f"--q and --q2 must have {n} entries for these rates")
    rows = _kt_rows(args, nu, q, q2)
    _emit_rows(rows, ("q", "q2", "t", "value", "abs_error", "path"), args.format)
    return 0


def cmd_relaxation(args):
    nu = RateVector.loads(args.rates)
    nu.require_stable()
    nu.require_distinct(hint="the decay constants need pairwise distinct rates")
    rate = asymptotics.relaxation_rate(nu)
    pref, arrangement = asymptotics.dominant_prefactor(nu)
    report = {
        "rates": [float(v) for v in nu],
        "analytic_rate": rate,
        "relaxation_time": asymptotics.relaxation_time(nu),
        "bottleneck_station": asymptotics.bottleneck_station(nu),
        "dominant_arrangement": [float(v) for v in arrangement],
        "prefactor": pref,
    }
    if args.t:
        ts = sorted(_parse_t_grid(args.t))
        series = []
        for t in ts:
            kv = queueprobs.kt00_gap_relative(t, nu, precision=args.precision)
            if kv.value > 10 * kv.abs_error:
                series.append((t, float(kv.value)))
        rep = asymptotics.decay_report(nu, series, floor=0.0)
        t_big, gap_big = series[-1]
        denom = pref * noncrossing_prob(
            (0,) * len(nu), t_big, arrangement, tol=1e-4 * gap_big, precision=args.precision
        ).value
        report.update(
            {
                "fitted_rate": rep.fitted_rate,
                "fit_window": [rep.fit_window[0], rep.fit_window[1]],
                "fit_points": rep.n_points,
                "ratio_t": t_big,
                "ratio_to_leading_term": float(gap_big / denom),
            }
        )
    sys.stdout.write(_to_json(report) + "\n")
    return 0


def cmd_verify(args):
    results = verify_mod.run_suite(args.suite, args.budget)
    if args.format == "json":
        payload = [
            {
                "name": r.name,
                "passed": r.passed,
                "residual": r.residual,
                "detail": r.detail,
                "budget": args.budget,
            }
            for r in results
        ]
        sys.stdout.write(_to_json(payload) + "\n")
    else:
        for r in results:
            sys.stdout.write(r.line() + "\n")
    failed = [r.name for r in results if not r.passed]
    print(
        f"tandemq: verify suite={args.suite} budget={args.budget}: "
        f"{len(results) - len(failed)}/{len(results)} passed",
        file=sys.stderr,
    )
    return 4 if failed else 0


def cmd_simulate(args):
    rates = RateVector.loads(args.rates)
    ts = _parse_t_grid(args.t)
    if len(ts) != 1:
        raise PreconditionError("simulate takes a single --t")
    if args.target == "kt":
        if args.q is None or args.q2 is None:
            raise PreconditionError("simulate kt needs --q and --q2")
        cfg = simulator.SimConfig(
            rates=rates.values, horizon=ts[0], seed=args.seed, replications=args.reps
        )
        q = _parse_int_vector(args.q, "--q")
        q2 = _parse_int_vector(args.q2, "--q2")
        est = simulator.simulate_queue_prob(q, q2, cfg=cfg, jobs=args.jobs)
    else:
        if args.x is None:
            raise PreconditionError("simulate noncross needs --x")
        x = _parse_int_vector(args.x, "--x")
        cfg = simulator.SimConfig(
            rates=tuple(float(v) for v in rates), horizon=ts[0], seed=args.seed,
            replications=args.reps,
        )
        est = simulator.simulate_noncrossing(x, cfg=cfg, jobs=args.jobs)
    rows = [
        {
            "estimate": est.mean,
            "half_width_95": est.half_width_95,
            "reps": est.replications,
            "seed": args.seed,
        }
    ]
    _emit_rows(rows, ("estimate", "half_width_95", "reps", "seed"), args.format)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sp, tol_default=None):
    sp.add_argument("--rates", required=True, help="comma-separated rates: arrival,service1,...")
    # no default here: main reads the environment on every call (_resolve_precision)
    sp.add_argument(
        "--precision",
        choices=PRECISIONS,
        help=f"arithmetic mode (default: env {PRECISION_ENV}, else double)",
    )
    if tol_default is not None:
        sp.add_argument("--tol", type=float, default=tol_default, help="absolute error target")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.cache
def build_parser():
    """The parser of every subcommand, built once per process."""
    p = argparse.ArgumentParser(
        prog="tandemq",
        description="Exact transient probabilities for tandem queueing networks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("kt00", help="empty-to-empty transition probability")
    _add_common(s, 1e-10)
    s.add_argument("--t", action="append", required=True, help="time point(s), repeatable or comma list")
    s.set_defaults(func=cmd_kt00)

    s = sub.add_parser("kt", help="general queue-vector transition probability")
    _add_common(s, 1e-8)
    s.add_argument("--t", action="append", required=True)
    s.add_argument("--q", required=True, help="initial queue lengths, comma separated")
    s.add_argument("--q2", required=True, help="final queue lengths, comma separated")
    s.set_defaults(func=cmd_kt)

    s = sub.add_parser("relaxation", help="relaxation time and decay diagnostics (JSON)")
    _add_common(s)
    s.add_argument("--t", action="append", help="optional time grid for a decay-rate fit")
    s.set_defaults(func=cmd_relaxation)

    s = sub.add_parser("verify", help="run named self-check suites")
    s.add_argument("suite", nargs="?", choices=verify_mod.SUITES, default="all")
    s.add_argument("--budget", choices=verify_mod.BUDGETS, default="fast")
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("simulate", help="Monte Carlo estimates")
    s.add_argument("target", choices=("kt", "noncross"))
    s.add_argument("--rates", required=True)
    s.add_argument("--t", action="append", required=True)
    s.add_argument("--q", help="initial queue lengths (target kt)")
    s.add_argument("--q2", help="final queue lengths (target kt)")
    s.add_argument("--x", help="starting chamber point (target noncross)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--reps", type=int, required=True)
    s.add_argument("--jobs", type=int, default=None)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.set_defaults(func=cmd_simulate)
    return p


def _resolve_precision(args):
    """Fills in --precision from the environment, default "double"."""
    if "precision" in vars(args) and args.precision is None:
        args.precision = os.environ.get(PRECISION_ENV, "double")
        if args.precision not in PRECISIONS:
            raise PreconditionError(
                f"{PRECISION_ENV}={args.precision!r} is not a precision; "
                f"use one of {', '.join(PRECISIONS)}"
            )


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _resolve_precision(args)
        return args.func(args)
    except ToleranceNotAchieved as exc:
        print(f"tandemq: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"tandemq: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
