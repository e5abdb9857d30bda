"""Large-t behavior: decay rates, relaxation time, dominant term.

The gap between the empty-system probability and its equilibrium value
decays exponentially.  The exact rate is the smallest chamber infimum
of the Poisson large-deviation rate function over the unstable
arrangements of the rates, and it reduces to the single bottleneck
station: 1/relaxation_time = nu_0 + numin - 2 sqrt(nu_0 numin) with
numin the smallest service rate.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .rates import as_rates


def rate_function(x, nu):
    """sum_k [x_k log(x_k/nu_k) - x_k + nu_k], the exponential cost for
    the Poisson counters to run at mean rates x instead of nu.  Returns
    inf outside the nonnegative orthant; 0 log 0 = 0."""
    nu = as_rates(nu)
    fl = nu.as_floats()
    if len(x) != len(fl):
        raise PreconditionError("x must have one coordinate per rate")
    total = 0.0
    for xk, rk in zip(x, fl):
        if xk < 0:
            return math.inf
        total += rk - xk
        if xk > 0:
            # logs taken separately: xk/rk can underflow for subnormal xk
            total += xk * (math.log(xk) - math.log(rk))
    return total


def _pav_decreasing_geometric(lam):
    """Minimize sum_k [v_k log(v_k/lam_k) - v_k + lam_k] over
    nonincreasing v, by pooling adjacent violators; a pooled block takes
    the geometric mean of its rates (the stationarity point of the
    block's cost).  Returns (infimum, argmin)."""
    # blocks hold (sum of rates, sum of log rates, count)
    blocks = []
    for r in lam:
        blocks.append([r, math.log(r), 1])
        while len(blocks) >= 2:
            s2, l2, c2 = blocks[-1]
            s1, l1, c1 = blocks[-2]
            # violation when the later block's fitted value exceeds the earlier
            if l2 / c2 > l1 / c1 - 1e-15:
                blocks[-2:] = [[s1 + s2, l1 + l2, c1 + c2]]
            else:
                break
    value = 0.0
    argmin = []
    for s, l, c in blocks:
        g = math.exp(l / c)
        value += s - c * g
        argmin.extend([g] * c)
    return value, tuple(argmin)


def chamber_infimum(nu):
    """min over arrangements sigma with the arrival rate not last of
    inf { I_{sigma(nu)}(x) : x_0 >= ... >= x_N }.

    This is the exact decay rate of the equilibrium gap of kt00.
    Returns (value, argmin) with argmin the optimal mean-rate vector of
    the minimizing arrangement."""
    nu = as_rates(nu)
    fl = nu.as_floats()
    n1 = len(fl)
    best = None
    for sigma in itertools.permutations(range(n1)):
        if sigma[n1 - 1] == 0:
            continue
        val, arg = _pav_decreasing_geometric([fl[k] for k in sigma])
        if best is None or val < best[0]:
            best = (val, arg)
    return best


def bottleneck_station(nu):
    """1-based index of the station with the smallest service rate."""
    nu = as_rates(nu)
    services = nu.as_floats()[1:]
    return 1 + min(range(len(services)), key=lambda k: services[k])


def relaxation_rate(nu):
    """nu_0 + numin - 2 sqrt(nu_0 numin), the exponential decay rate of
    |kt00(t) - stationary value|.  Needs a stable system."""
    nu = as_rates(nu)
    nu.require_stable()
    fl = nu.as_floats()
    numin = min(fl[1:])
    return fl[0] + numin - 2.0 * math.sqrt(fl[0] * numin)


def relaxation_time(nu):
    """Reciprocal of relaxation_rate; equals the relaxation time of a
    single-station queue with the bottleneck's rates."""
    return 1.0 / relaxation_rate(nu)


def dominant_prefactor(nu):
    """(prefactor, arrangement) of the leading large-t term:

        kt00(t) - stationary value ~ prefactor * P^{arrangement}(no crossing by t),

    where the arrangement lists the service rates in decreasing order,
    then the arrival rate, then the bottleneck rate, and the prefactor
    is rho_min / prod_{i<j} (1 - nu_(i)/nu_(j)) over ordered service
    rates.  Needs stability and all rates distinct."""
    nu = as_rates(nu)
    nu.require_stable()
    nu.require_distinct(service_only=False)
    fl = nu.as_floats()
    srt = sorted(fl[1:])
    pref = fl[0] / srt[0]
    for i in range(len(srt)):
        for j in range(i + 1, len(srt)):
            pref /= 1.0 - srt[i] / srt[j]
    arrangement = tuple(reversed(srt[1:])) + (fl[0], srt[0])
    return pref, arrangement


@dataclass(frozen=True)
class DecayReport:
    """Result of fitting the exponential decay of a gap series."""

    analytic_rate: float
    fitted_rate: float
    fit_window: tuple
    n_points: int
    prefactor: float
    dominant_arrangement: tuple


def fit_decay_rate(series, floor=1e-11):
    """Least-squares slope of log(gap) against t over an automatically
    selected window.

    series is a list of (t, gap) pairs with gap > 0, increasing in t.
    The window keeps the largest contiguous run with floor <= gap <=
    0.1 * first gap (skipping the pre-asymptotic head and the
    noise-dominated tail).  Returns (rate, (t_lo, t_hi), n_points)."""
    pts = [(float(t), float(g)) for t, g in series]
    if not pts or any(g <= 0 for _, g in pts):
        raise PreconditionError("gap series must be nonempty and positive")
    if sorted(t for t, _ in pts) != [t for t, _ in pts]:
        raise PreconditionError("gap series must be increasing in t")
    head = 0.1 * pts[0][1]
    runs, cur = [], []
    for t, g in pts:
        if floor <= g <= head:
            cur.append((t, g))
        else:
            if cur:
                runs.append(cur)
            cur = []
    if cur:
        runs.append(cur)
    best = max(runs, key=len, default=[])
    if len(best) < 4:
        raise PreconditionError(
            f"need at least 4 fit points with gap in [{floor:g}, {head:g}]; got {len(best)}"
        )
    ts = np.array([t for t, _ in best])
    ys = np.log(np.array([g for _, g in best]))
    slope = np.polyfit(ts, ys, 1)[0]
    return -float(slope), (float(ts[0]), float(ts[-1])), len(best)


def decay_report(nu, series, floor=1e-11):
    """Bundle the analytic decay constants with a slope fit of the
    measured gap series into one record."""
    nu = as_rates(nu)
    fitted, window, used = fit_decay_rate(series, floor=floor)
    pref, arrangement = dominant_prefactor(nu)
    return DecayReport(
        analytic_rate=relaxation_rate(nu),
        fitted_rate=fitted,
        fit_window=window,
        n_points=used,
        prefactor=pref,
        dominant_arrangement=arrangement,
    )
