"""Floating / high-precision numeric kit.

All lattice truncations in this package are certified by Poisson tail
bounds, so the helpers here revolve around Poisson pmf tables and tail
probabilities, in either float64 or mpmath arithmetic.  The "high"
precision mode uses 50 decimal digits by default; it exists for very
deep tails (transition probabilities far below 1e-12) where float64
round-off in signed sums would start to matter.
"""

import contextlib
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy import special

from .errors import ToleranceNotAchieved

HIGH_DPS = 50

# Hard ceilings for truncation growth; beyond these we give up and report
# the bound that was achieved instead of looping forever.
MAX_CAP = 20000
MAX_BOX_POINTS = 5_000_000


class Numerics:
    """Backend selector: precision is "double" or "high"."""

    def __init__(self, precision="double", dps=HIGH_DPS):
        if precision not in ("double", "high"):
            raise ValueError(f"unknown precision {precision!r}")
        self.precision = precision
        self.dps = dps if precision == "high" else None

    @property
    def high(self):
        return self.precision == "high"

    def scalar(self, x):
        if self.high:
            with mpmath.workdps(self.dps):
                if isinstance(x, float):
                    # decimal round-trip: 0.1 becomes the mpf closest to "0.1"
                    return mpmath.mpf(str(x))
                if isinstance(x, Fraction):
                    return mpmath.mpf(x.numerator) / x.denominator
                return mpmath.mpf(x)
        return float(x)

    def arithmetic(self):
        """Context in which mpmath arithmetic runs at this precision;
        a no-op in double precision."""
        return mpmath.workdps(self.dps) if self.high else contextlib.nullcontext()

    def exp(self, x):
        """Elementwise exp of a scalar or an array."""
        if self.high:
            with mpmath.workdps(self.dps):
                return np.frompyfunc(mpmath.exp, 1, 1)(x)
        return np.exp(x)

    def log(self, x):
        """Elementwise natural log of a scalar or an array (log 0 = -inf)."""
        if self.high:
            with mpmath.workdps(self.dps):
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
        with mpmath.workdps(self.dps):
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
        with mpmath.workdps(self.dps):
            mu = mpmath.mpf(mu)
            return mpmath.gammainc(m + 1, 0, mu, regularized=True)


def poisson_cap(mu, tol, numerics=None):
    """Smallest cap of the form ceil(mu + c*sqrt(mu) + c^2) whose upper
    Poisson tail is below tol.  Returns (cap, tail)."""
    nm = numerics or Numerics()
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

