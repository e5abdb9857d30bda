"""Floating / high-precision numeric kit.

All lattice truncations in this package are certified by Poisson tail
bounds, and every truncation picks the smallest cap whose tail meets
its budget through one search, poisson_log_cap.  It runs in double log
space in both modes, since tails only feed the float abs_error.  Pmf
tables come in float64 or mpmath arithmetic.  The "high" precision mode
works at HIGH_DPS decimal digits; it exists for very deep tails
(transition probabilities far below 1e-12) where float64 round-off in
signed sums would start to matter.  The decorator
`evaluation` is the only place that enters mpmath's context; the
Numerics methods assume they run inside it.
"""

import contextlib
import functools
import inspect
import math
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np
from scipy import special
from scipy.special import cython_special

from .errors import PreconditionError, ToleranceNotAchieved

HIGH_DPS = 50

# Hard ceilings for truncation growth; beyond these we give up and report
# the bound that was achieved instead of looping forever.
MAX_CAP = 20000
MAX_BOX_POINTS = 5_000_000


class KernelValue(NamedTuple):
    """Value (a float in double precision, an mpmath.mpf in high) and a
    certified float bound abs_error on its truncation error; in double
    precision it excludes round-off (use "high" where cancellation matters)."""

    value: float
    abs_error: float


class Numerics:
    """Backend selector: precision is "double" or "high"."""

    def __init__(self, precision="double"):
        if precision not in ("double", "high"):
            raise ValueError(f"unknown precision {precision!r}")
        self.precision = precision
        self.high = precision == "high"
        self.dtype = object if self.high else float

    def scalar(self, x):
        if not self.high:
            return float(x)
        if isinstance(x, float):
            # decimal round-trip: 0.1 becomes the mpf closest to "0.1"
            return mpmath.mpf(str(x))
        if isinstance(x, Fraction):
            return mpmath.mpf(x.numerator) / x.denominator
        return mpmath.mpf(x)

    def exp(self, x):
        """Elementwise exp of a scalar or an array."""
        if self.high:
            return np.frompyfunc(mpmath.exp, 1, 1)(x)
        return np.exp(x)

    def log(self, x):
        """Elementwise natural log of a scalar or an array (log 0 = -inf)."""
        if self.high:
            return np.frompyfunc(mpmath.log, 1, 1)(x)
        with np.errstate(divide="ignore"):
            return np.log(x)

    def poisson_logpmf_table(self, mu, lo, hi):
        """log pmf of Poisson(mu) on integers lo..hi inclusive (-inf for k < 0)."""
        if self.high:
            return self.log(self.poisson_pmf_table(mu, lo, hi))
        ks = np.arange(lo, hi + 1)
        out = np.full(len(ks), -np.inf)
        mask = ks >= 0
        out[mask] = special.xlogy(ks[mask], float(mu)) - special.gammaln(ks[mask] + 1) - float(mu)
        return out

    def poisson_pmf_table(self, mu, lo, hi):
        """pmf of Poisson(mu) on integers lo..hi inclusive (0 for k < 0)."""
        if not self.high:
            return np.exp(self.poisson_logpmf_table(mu, lo, hi))
        ks = np.arange(lo, hi + 1)
        mu = mpmath.mpf(mu)
        out = np.empty(len(ks), dtype=object)
        out[:] = mpmath.mpf(0)
        if hi < 0:
            return out
        # run the recurrence p_k = p_{k-1} * mu / k from k = 0
        p = mpmath.e ** (-mu)
        k = 0
        while k <= hi:
            if k >= lo:
                out[k - lo] = p
            k += 1
            p = p * mu / k
        return out


def evaluation(fn):
    """Gives fn, which takes a keyword-only Numerics nm, a keyword-only
    precision="double"|"high" in its place.  In high precision fn runs in
    mpmath.workdps(HIGH_DPS) whatever the caller's context; the value comes
    back as a float or an mpf (in a KernelValue too, with a float abs_error)."""
    sig = inspect.signature(fn)
    params = [p for p in sig.parameters.values() if p.name != "nm"]
    params.append(inspect.Parameter("precision", inspect.Parameter.KEYWORD_ONLY, default="double"))

    @functools.wraps(fn)
    def evaluate(*args, precision="double", **kwargs):
        nm = Numerics(precision)
        with mpmath.workdps(HIGH_DPS) if nm.high else contextlib.nullcontext():
            out = fn(*args, nm=nm, **kwargs)
            if isinstance(out, KernelValue):
                return KernelValue(nm.scalar(out.value), float(out.abs_error))
            return nm.scalar(out)

    evaluate.__signature__ = sig.replace(parameters=params)
    return evaluate


def check_time(t):
    """Raises PreconditionError, naming t, unless 0 <= t < inf; the
    evaluations call it before they build any table."""
    if not 0 <= t < math.inf:
        raise PreconditionError(f"t must be finite and nonnegative, got {t!r}")


def poisson_cap(mu, tol):
    """Smallest cap with P(Poisson(mu) > cap) below tol > 0, and that
    tail as a float."""
    if not 0 < tol < math.inf:
        raise PreconditionError(f"tol must be positive and finite, got {tol!r}")
    cap, log_tail = poisson_log_cap(mu, math.log(tol))
    return cap, math.exp(log_tail)


def poisson_log_cap(mu, log_budget, what="Poisson cap"):
    """Smallest m >= 0 with log P(Poisson(mu) > m) below log_budget, and
    that log tail: the one truncation search of the package.  The tail
    must clear the budget by a relative 1e-9, which covers the round-off
    of gammainc.  Bisects between -1 (tail 1) and the Bernstein cap
    mu + c sqrt(mu) + c^2, c^2 = -2 log_budget, whose tail is below the
    budget.  Raises PreconditionError for a non-finite or negative mu or
    a non-finite budget, ToleranceNotAchieved for an m past MAX_CAP."""
    mu = float(mu)
    if not (0 <= mu < math.inf and math.isfinite(log_budget)):
        raise PreconditionError(f"no Poisson cut for mean {mu!r} and log budget {log_budget!r}")
    if mu == 0:
        return 0, -math.inf
    goal = log_budget + math.log1p(-1e-9)
    c2 = max(0.0, -2.0 * goal)
    lo, hi = -1, min(MAX_CAP, math.ceil(mu + math.sqrt(c2 * mu) + c2))
    hi_log = _log_poisson_sf(mu, hi)
    if not hi_log < goal:
        raise ToleranceNotAchieved.from_logs(log_budget, hi_log, f"{what} exceeded {MAX_CAP}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mid_log = _log_poisson_sf(mu, mid)
        if mid_log < goal:
            hi, hi_log = mid, mid_log
        else:
            lo = mid
    return hi, hi_log


def _log_poisson_sf(mu, m):
    """log P(Poisson(mu) > m) for m >= 0, from gammainc down to 1e-300
    and, where gammainc underflows, from the pmf ratios past m+1, which
    are below mu/(m+2)."""
    # a scalar call here costs a fifth of the ufunc's; a search makes a dozen
    sf = cython_special.gammainc(m + 1, mu)
    if sf > 1e-300:
        return math.log(sf)
    return (m + 1) * math.log(mu) - math.lgamma(m + 2) - mu - math.log1p(-mu / (m + 2))


def polynomial_absorb_constant(degree, delta, shift=0):
    """max over m >= 0 of binom(m + shift + degree, degree) * (1+delta)^-m.

    Lets a polynomial factor binom(m+s+d, d) be absorbed into a slightly
    larger geometric tilt: binom(m+s+d, d) <= K * (1+delta)^m.
    """
    best = val = float(math.comb(shift + degree, degree))
    m = 0
    while True:
        m += 1
        val = val * (m + shift + degree) / (m + shift) / (1.0 + delta)
        if val > best:
            best = val
        elif m > degree / delta + 4:
            return best

