"""Floating / high-precision numeric kit.

All lattice truncations in this package are certified by Poisson tail
bounds, so the helpers here revolve around Poisson pmf tables and tail
probabilities, in either float64 or mpmath arithmetic.  The "high"
precision mode works at HIGH_DPS decimal digits; it exists for very
deep tails (transition probabilities far below 1e-12) where float64
round-off in signed sums would start to matter.  The decorator
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

from .errors import ToleranceNotAchieved

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

    def poisson_sf(self, mu, m):
        """P(Poisson(mu) > m)."""
        if m < 0:
            return self.scalar(1)
        if not self.high:
            # regularized lower incomplete gamma; exact identity, no loops
            return float(special.gammainc(m + 1, float(mu)))
        return mpmath.gammainc(m + 1, 0, mpmath.mpf(mu), regularized=True)


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


def poisson_cap(mu, tol, nm=None):
    """Smallest cap of the form ceil(mu + c*sqrt(mu) + c^2) whose upper
    Poisson tail is below tol.  Returns (cap, tail)."""
    nm = nm or Numerics()
    mu_f = float(mu)
    c = 1.0
    while True:
        cap = math.ceil(mu_f + c * math.sqrt(mu_f) + c * c)
        tail = nm.poisson_sf(mu, cap)
        if tail < tol:
            return cap, tail
        if cap > MAX_CAP:
            raise ToleranceNotAchieved(tol, float(tail), f"Poisson cap exceeded {MAX_CAP}")
        c += 1.0


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

