"""Floating / high-precision numeric kit.

All lattice truncations in this package are certified by Poisson tail
bounds, and every truncation picks the smallest cap whose tail meets
its budget through one downward walk, poisson_log_cap (series with
polynomial and geometric factors after one tilt, poisson_tilt).  It sums pmf
terms in double precision, in units of the budget, in both modes, since
tails only feed the float abs_error.  Pmf tables come in float64, mpmath
or decimal arithmetic, the float ones from Loader's saddle-point form, so
this module imports no scipy.  The "high" precision mode works at
HIGH_DPS decimal digits; it exists for very deep tails (transition
probabilities far below 1e-12) where float64 round-off in signed sums
would start to matter.  In it the survival sums
(lattice.survival_probability), which only add and multiply, run on the
C decimal module, and the exp/log-bound kernels on mpmath; the first
high-precision Numerics imports mpmath.  The decorator `evaluation` is
the only place that enters the mpmath and decimal contexts; the Numerics
methods assume they run inside them.
"""

import bisect
import contextlib
import decimal
import functools
import inspect
import math
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, ToleranceNotAchieved
from .rates import positive_finite

HIGH_DPS = 50

# Hard ceilings for truncation growth; beyond these we give up and report
# the bound that was achieved instead of looping forever.
MAX_CAP = 20000
MAX_BOX_POINTS = 5_000_000

# Stirling's error log n! - (n + 1/2) log n + n - log(2 pi)/2 for
# n = 0..15 (0 unused), and its series past 15
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_STIRLING_SERIES = (1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)

# log k! - k log k + k = stirlerr(k) + log(2 pi k)/2 for k = 0..len-1, and
# a bound on its error in units of 2^-53.  A cache of a pure function of
# k: it only grows (by doubling) and is never written in place.
_stirling = (np.zeros(1), np.zeros(1))


def _stirling_terms(hi):
    global _stirling
    n = len(_stirling[0])
    if hi >= n:
        k = np.arange(n, max(hi + 1, 2 * n), dtype=float)
        series = np.polyval(_STIRLING_SERIES, 1.0 / (k * k)) / k
        log2pik = np.log(2 * math.pi * k)
        c = np.where(k <= 15, _STIRLERR[np.minimum(k, 15).astype(int)], series) + 0.5 * log2pik
        _stirling = tuple(np.concatenate(p) for p in zip(_stirling, (c, c + 2 * log2pik + 1.2)))
        for table in _stirling:
            table.flags.writeable = False
    return _stirling


def poisson_logpmf(mu, lo, hi):
    """log pmf of Poisson(mu), mu > 0 a float or a column of them (one
    row each), at the integers lo..hi, 0 <= lo (poisson_logpmf_error
    bounds its error).

    Loader's form (Fast and accurate computation of binomial
    probabilities, 2000): -(log k! - k log k + k) - bd0 with
    bd0 = k log(k/mu) + mu - k >= 0, here k log1p(d/mu) - d, d = k - mu.
    Near the mode it loses a few u sqrt(mu), u = 2^-53, where
    k log mu - log k! - mu loses u (k |log mu| + log k! + mu)."""
    c = _stirling_terms(hi)[0][lo : hi + 1]
    k = np.arange(lo, hi + 1, dtype=float)
    d = k - mu
    x = d / mu
    if lo == 0 <= hi:
        x[..., 0] = 0.0
    return -(c + k * np.log1p(x) - d)


def poisson_logpmf_error(mu, lo, hi, values):
    """A bound in units of u = 2^-53 on the error of poisson_logpmf's
    values.  log k! - k log k + k = stirlerr(k) + log(2 pi k)/2, stirlerr
    from a table up to 15 and five terms of its series past it, is off
    by u (c + 2 log(2 pi k) + 1.2); bd0 by u (5k |log(k/mu)| + 3|d| +
    bd0), with np.log and np.log1p within 4u; the sum adds u |log pmf|."""
    c, c_err = (table[lo : hi + 1] for table in _stirling_terms(hi))
    d = np.arange(lo, hi + 1) - mu
    bd0 = -values - c
    return c_err + 2 * abs(values) + 5 * abs(bd0 + d) + 3 * abs(d) + bd0


class KernelValue(NamedTuple):
    """Value (a float in double precision, an mpmath.mpf in high) and a
    certified float bound abs_error on its error.  The bounds of
    kt_general and simulator.uniformization_kt cover truncation and float
    round-off; those of the closed forms (kt00_direct, kt00_gap,
    kt00_stationary), noncrossing_prob and mm1_kt cover truncation only,
    and their double-precision round-off is left out (use "high" where
    cancellation matters)."""

    value: float
    abs_error: float


class Numerics:
    """Backend selector: precision is "double" or "high"."""

    def __init__(self, precision="double"):
        if precision not in ("double", "high"):
            raise PreconditionError(f"unknown precision {precision!r}")
        self.precision = precision
        self.high = precision == "high"
        self.dtype = object if self.high else float
        # relative round-off of one operation, exp and log included
        self.unit = 10.0**-HIGH_DPS if self.high else 2.0**-53
        self.mp = None
        if self.high:
            import mpmath

            self.mp = mpmath

    def scalar(self, x):
        """x as a float, or in high precision an mpf."""
        if not self.high:
            return float(x)
        if isinstance(x, (float, Decimal)):
            # decimal round-trip: 0.1 becomes the mpf closest to "0.1"
            return self.mp.mpf(str(x))
        if isinstance(x, Fraction):
            return self.mp.mpf(x.numerator) / x.denominator
        return self.mp.mpf(x)

    def quotient(self, num, den):
        """num / den for ints, rounded once: as a float (Python's int
        division is correctly rounded), or in high precision an mpf."""
        if self.high:
            return self.mp.mpf(num) / den
        return num / den

    def sum_scalar(self, x):
        """x as an element of the survival sums: a float, or in high
        precision a Decimal of the current decimal context."""
        if not self.high:
            return float(x)
        if isinstance(x, Fraction):
            return Decimal(x.numerator) / x.denominator
        # floats by the same round-trip as scalar; unary plus rounds
        return +Decimal(str(x))

    def exp(self, x):
        """Elementwise exp of a scalar or an array."""
        if self.high:
            return np.frompyfunc(self.mp.exp, 1, 1)(x)
        return np.exp(x)

    def log(self, x):
        """Elementwise natural log of a scalar or an array (log 0 = -inf)."""
        if self.high:
            return np.frompyfunc(self.mp.log, 1, 1)(x)
        with np.errstate(divide="ignore"):
            return np.log(x)

    def log_suffix_sum(self, x):
        """log sum_{m >= n} exp(x_m) for each n along the last axis: in
        double a reversed np.logaddexp.accumulate, in high exp, cumsum and
        log (mpf cannot overflow)."""
        if self.high:
            return self.log(np.cumsum(self.exp(x[..., ::-1]), axis=-1)[..., ::-1])
        return np.logaddexp.accumulate(x[..., ::-1], axis=-1)[..., ::-1]

    def poisson_logpmf_table(self, mu, lo, hi):
        """log pmf of Poisson(mu) on integers lo..hi inclusive (-inf for
        k < 0), with log 0! = 0 at mu = 0 (poisson_logpmf).  For 1-D
        arrays mu and hi, one row per mean over lo..max(hi), -inf past the
        row's own hi; in high precision mu and hi must be such arrays."""
        if self.high:
            out = np.full((len(mu), max(0, max(hi) - lo + 1)), -np.inf, dtype=object)
            for row, m, h in zip(out, mu, hi):
                row[: h - lo + 1] = self.log(self.poisson_pmf_table(m, lo, h))
            return out
        start = max(lo, 0)
        if np.ndim(mu):
            top = max(hi)
            out = np.full((len(mu), max(0, top - lo + 1)), -np.inf)
            if top >= start:
                # at mu = 0 Loader's form gives log 0! = 0 and -inf past it
                with np.errstate(divide="ignore", invalid="ignore"):
                    out[:, start - lo :] = poisson_logpmf(np.asarray(mu, dtype=float)[:, None], start, top)
                out[np.arange(lo, top + 1) > np.asarray(hi)[:, None]] = -np.inf
            return out
        out = np.full(max(0, hi - lo + 1), -np.inf)
        mu = float(mu)
        if mu > 0 and hi >= start:
            out[start - lo :] = poisson_logpmf(mu, start, hi)
        elif start == 0 <= hi:
            out[-lo] = 0.0
        return out

    def poisson_logpmf_error(self, mu, lo, hi, table):
        """A float bound on the error of each value of
        poisson_logpmf_table(mu, lo, hi), given as table, in units of
        self.unit (0 where the table is -inf).  In high precision the table
        is the log of the pmf recurrence, which loses about one unit per
        step and one per |log pmf|.  Rows as in poisson_logpmf_table."""
        flat = np.minimum(abs(np.asarray(table, dtype=float)), 1e300)
        top = max(hi) if np.ndim(mu) else hi
        if self.high:
            return 2.0 * np.maximum(np.arange(lo, top + 1), 0) + flat + 4
        m = np.asarray(mu, dtype=float)[..., None]
        err = np.zeros(flat.shape)
        start = max(lo, 0)
        if top >= start:
            values = table[..., start - lo :]
            err[..., start - lo :] = poisson_logpmf_error(m, start, top, values)
            err[table == -np.inf] = 0.0
        return err

    def poisson_pmf_table(self, mu, lo, hi):
        """pmf of Poisson(mu) on integers lo..hi inclusive (0 for k < 0).
        In high precision mu is an mpf or a Decimal, and the table holds
        values of its type."""
        if not self.high:
            return np.exp(self.poisson_logpmf_table(mu, lo, hi))
        if isinstance(mu, Decimal):
            p = (-mu).exp()
        else:
            mu = self.mp.mpf(mu)
            p = self.mp.e ** (-mu)
        out = np.empty(max(0, hi - lo + 1), dtype=object)
        out[:] = 0 * mu
        # run the recurrence p_k = p_{k-1} * mu / k from k = 0
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
    mpmath.workdps(HIGH_DPS) and in a decimal context of HIGH_DPS + 5
    digits and unbounded exponents, whatever the caller's contexts, both
    read at call time; the value comes back as a float or an mpf (in a
    KernelValue too, with a float abs_error), a Decimal converted."""
    sig = inspect.signature(fn)
    params = [p for p in sig.parameters.values() if p.name != "nm"]
    params.append(inspect.Parameter("precision", inspect.Parameter.KEYWORD_ONLY, default="double"))

    @functools.wraps(fn)
    def evaluate(*args, precision="double", **kwargs):
        nm = Numerics(precision)
        with contextlib.ExitStack() as stack:
            if nm.high:
                stack.enter_context(nm.mp.workdps(HIGH_DPS))
                stack.enter_context(decimal.localcontext(_decimal_context()))
            out = fn(*args, nm=nm, **kwargs)
            if isinstance(out, KernelValue):
                return KernelValue(nm.scalar(out.value), float(out.abs_error))
            return nm.scalar(out)

    evaluate.__signature__ = sig.replace(parameters=params)
    return evaluate


def _decimal_context():
    """The decimal context of the high-precision survival sums: a few
    guard digits over HIGH_DPS, no exponent limit, the default traps."""
    return decimal.Context(
        prec=HIGH_DPS + 5,
        rounding=decimal.ROUND_HALF_EVEN,
        Emin=decimal.MIN_EMIN,
        Emax=decimal.MAX_EMAX,
        traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
    )


def check_time(t):
    """Raises PreconditionError, naming t, unless t is 0 or a positive
    finite real; the evaluations call it before they build any table."""
    if not (t == 0 or positive_finite(t)):
        raise PreconditionError(f"t must be finite and nonnegative, got {t!r}")


def check_tol(tol, name="tol"):
    """Raises PreconditionError, naming the caller's tolerance, unless it
    is a positive finite real; each public evaluation checks tol once."""
    if not positive_finite(tol):
        raise PreconditionError(f"{name} must be positive and finite, got {tol!r}")


def poisson_cap(mu, tol):
    """Smallest cap with P(Poisson(mu) > cap) below tol > 0, and that
    tail as a float."""
    check_tol(tol)
    try:
        cap, log_tail = poisson_log_cap(mu, math.log(tol))
    except ToleranceNotAchieved as err:
        raise err.restated(tol, 1.0) from None
    return cap, math.exp(log_tail)


def poisson_log_cap(mu, log_budget, what="Poisson cap"):
    """Smallest m >= 0 with log P(Poisson(mu) > m) below log_budget, and
    an upper bound on that log tail: the one truncation search of the
    package, also for budgets far below the float range (e^-7034).

    One walk goes down from Bernstein's cap k = mu + sqrt(c2 mu) + c2/3,
    c2 = 46 - 2 log budget, where the tail is e^-23 below the budget
    (Boucheron, Lugosi and Massart 2013, ch. 2), or from the last k below
    it whose pmf is within e^700 of the budget (by bisection).  Past
    k >= mu - 1 each pmf term is at most mu/(k+2) times the one before,
    so P(X > k) <= pmf(k+1)/(1 - mu/(k+2)); from that seed the walk adds
    pmf(k) one k at a time, in units of the budget, down to the first
    tail that reaches it.  The tail must clear the budget by a relative
    1e-9, which covers the round-off of the log pmf terms (a few ulp of
    terms below 4e5) and of the walk; the returned log tail includes that
    round-off.  Raises PreconditionError for a non-finite or negative mu
    or a non-finite budget, ToleranceNotAchieved for an m past MAX_CAP."""
    mu = float(mu)
    if not (0 <= mu < math.inf and math.isfinite(log_budget)):
        raise PreconditionError(f"no Poisson cut for mean {mu!r} and log budget {log_budget!r}")
    if mu == 0:
        return 0, -math.inf
    if mu >= MAX_CAP + 2:
        # P(X > MAX_CAP) >= P(X >= floor(mu)) >= 1/2: the median is >= mu - log 2
        raise ToleranceNotAchieved.from_logs(log_budget, 0.0, f"{what} exceeded {MAX_CAP}")
    log_mu = math.log(mu)

    def log_pmf(j):
        return j * log_mu - math.lgamma(j + 1.0) - mu

    goal = log_budget + math.log1p(-1e-9)
    if goal >= 0:  # every tail is below 1
        return 0, math.log(-math.expm1(-mu))
    c2 = 46.0 - 2.0 * goal
    top = math.ceil(mu + math.sqrt(c2 * mu) + c2 / 3)
    if log_pmf(top) < goal - 700:
        # bisect for the last k whose pmf is within e^700 of the budget: the
        # pmf falls from the mode on, and at the mode it is within that
        mode = math.floor(mu)
        top = mode - 1 + bisect.bisect(range(mode, top), False, key=lambda j: log_pmf(j) < goal - 700)
    log_tail = log_pmf(top + 1) - math.log1p(-mu / (top + 2))
    # in units of the budget: t = P(X > k) and p = pmf(k)
    t, p = math.exp(log_tail - goal), math.exp(log_pmf(top) - goal)
    m = 0
    for j in range(top, 0, -1):
        if t + p >= 1.0:
            m = j
            break
        t += p
        p = p * j / mu
    if m > MAX_CAP:
        # t may overflow at MAX_CAP: carry z = P(X > j)/pmf(j), z_(j-1) = (z_j + 1) mu/j
        z = t / p
        for j in range(m, MAX_CAP, -1):
            z = (z + 1.0) * mu / j
        log_tail = math.log(z) + log_pmf(MAX_CAP) + _log_roundoff(MAX_CAP, log_mu, mu, top - MAX_CAP)
        raise ToleranceNotAchieved.from_logs(log_budget, log_tail, f"{what} exceeded {MAX_CAP}")
    if m < top:
        # past the seed, t >= pmf(top) >= e^-700 in units of the budget
        log_tail = math.log(t) + goal
    # a tail is at most 1
    return m, min(0.0, log_tail + _log_roundoff(m + 1, log_mu, mu, top - m))


def _log_roundoff(k, log_mu, mu, steps):
    """Bound on the relative round-off of a tail from pmf(k) and a walk
    of the given steps: a few ulp of each part of log pmf(k), log k! from
    math.lgamma being within 4 ulp, and one ulp per step."""
    return 2.0**-50 * (abs(k * log_mu) + math.lgamma(k + 1.0) + mu + steps + 4)


def poisson_tilt(mu, ratio, degree, shift=0):
    """The one tilt of a Poisson series with a polynomial and a geometric
    factor: (g, log_mass) with, for every M >= -1,

        sum_{m>M} binom(m+s+d, d) r^m pois(mu, m) <= e^log_mass P(Poisson(mu g) > M),

    r = ratio, d = degree, s = shift.  Proof: with delta = min(1, d/(mu
    r)) (0 if d = 0) and K the largest binom(m+s+d, d) (1+delta)^-m,
    binom(m+s+d, d) r^m <= K g^m for g = max(1, (1+delta) r), and pois(mu,
    m) g^m = e^(mu(g-1)) pois(mu g, m): log_mass = log K + mu(g-1).  The
    term ratio (m+s+d+1)/((m+s+1)(1+delta)) is at least 1 exactly while
    m+s+1 <= d/delta, so K sits at m* = max(0, floor(d/delta) - s),
    floored exactly.  log K = sum_i log1p((m*+s)/i) - m* log1p(delta), i =
    1..d: each part is within 4u of its size (u = 2^-53) and fsum within u
    of the sum, so 2^-50 times the sizes keeps it above the exact value.
    A ratio or a tilted mean mu g past the float range raises
    ToleranceNotAchieved with an infinite achieved bound, for the caller
    to restate against its tolerance."""
    delta = degree / max(mu * ratio, degree) if degree else 0.0
    g = max(1.0, (1.0 + delta) * ratio)
    if not (ratio < math.inf and mu * g < math.inf):
        detail = f"tilted Poisson mean {mu!r} * {g!r} past the float range"
        raise ToleranceNotAchieved.from_logs(-math.inf, math.inf, detail)
    m = max(0, degree // Fraction(delta) - shift) if degree else 0
    parts = [math.log1p((m + shift) / i) for i in range(1, degree + 1)] + [-m * math.log1p(delta)]
    return g, math.fsum(parts) + 2.0**-50 * sum(map(abs, parts)) + mu * (g - 1.0)
