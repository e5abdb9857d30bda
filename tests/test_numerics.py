"""The one truncation search: poisson_cap returns the smallest cap whose
Poisson tail is below the request, certified against 50-digit tails; and
the log k! table and log pmf tables it shares with the kernels."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from tandemq.errors import PreconditionError, ToleranceNotAchieved
from tandemq.numerics import (
    MAX_CAP, Numerics, poisson_cap, poisson_log_cap, poisson_logpmf, poisson_logpmf_error,
    poisson_tilt,
)


def _log_tail(mu, m):
    """log P(Poisson(mu) > m) at 50 digits."""
    if m < 0:
        return mpmath.mpf(0)
    if mu == 0:
        return -mpmath.inf
    with mpmath.workdps(50):
        return mpmath.log(mpmath.gammainc(m + 1, 0, mpmath.mpf(mu), regularized=True))


def _check_smallest(mu, log_tol):
    try:
        cap, log_tail = poisson_log_cap(mu, log_tol)
    except ToleranceNotAchieved as exc:
        # a refusal is right only if MAX_CAP leaves too much, and it names
        # a finite upper bound on what MAX_CAP leaves, tight to 1e-9 (past
        # MAX_CAP + 1 the mean itself refuses, naming 1)
        exact = _log_tail(mu, MAX_CAP)
        assert exact >= log_tol and math.isfinite(exc.logs[1])
        tight = exact - 1e-12 <= exc.logs[1] <= exact + 1e-9
        assert tight or (mu >= MAX_CAP + 2 and exc.logs[1] == 0.0)
        assert str(exc).endswith(f"(Poisson cap exceeded {MAX_CAP})")
        return
    # the smallest cap whose tail clears the budget by the relative 1e-9
    # margin (at mean and tol 1e-300, P(X > 0) misses it by 5e-301)
    exact = _log_tail(mu, cap)
    assert exact < log_tol + math.log1p(-1e-9) <= _log_tail(mu, cap - 1) or (mu == 0 and cap == 0)
    # the returned tail is an upper bound, below the budget, and tight
    assert exact <= log_tail + 1e-12 and log_tail < log_tol
    assert log_tail <= exact + 1e-9 or mu == 0


# tiny means, where the pmf leaves the float range in units of the
# budget at Bernstein's start, and means on both sides of MAX_CAP
MUS = [0.0, 1e-300, 1e-10, 0.5, 30.0, 300.0, 5000.0, 19000.0, 19999.0, 20001.0]


# the weak tolerances e^-0.01 and e^-0.5 put caps below the mean, so the
# walk passes the mode
@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("tol", [1e-8, 1e-13, 1e-300, math.exp(-0.01), math.exp(-0.5)])
def test_poisson_cap_is_smallest(mu, tol):
    _check_smallest(mu, math.log(tol))
    try:
        cap, log_tail = poisson_log_cap(mu, math.log(tol))
    except ToleranceNotAchieved:
        with pytest.raises(ToleranceNotAchieved):
            poisson_cap(mu, tol)
        return
    assert poisson_cap(mu, tol) == (cap, math.exp(log_tail))


@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("log_tol", [-3000.0, -7000.0])
def test_poisson_cap_is_smallest_below_float_range(mu, log_tol):
    _check_smallest(mu, log_tol)


# (mean, log budget, cap or None for a refusal) as an upward doubling and
# galloping descent found them, one or more per regime
PINNED = [
    (1e-300, -700.0, 1), (1e-300, -7000.0, 10), (1e-200, -0.01, 0), (1e-200, -3000.0, 6),
    (1e-30, -23.0, 0), (1e-10, -0.5, 0), (2.4e-10, -23.0, 1), (1e-05, -40.0, 3),
    (0.5, -0.01, 0), (0.5, -100.0, 30), (1.0, -1.0, 1), (2.0, -5.0, 6),
    (30.0, -0.5, 28), (60.0, -23.0, 115), (60.0, -7000.0, 2529), (250.0, -40.0, 397),
    (250.0, -700.0, 1042), (1000.0, -0.01, 927), (1000.0, -100.0, 1470), (5000.0, -5.0, 5176),
    (5000.0, -3000.0, 11399), (19000.0, -0.5, 18963), (19000.0, -23.0, 19883),
    (19000.0, -100.0, None), (19000.0, -3000.0, None), (19999.0, -0.01, 19670),
    (19999.0, -1.0, None), (20001.0, -0.01, 19672), (20001.0, -0.5, 19963),
    (20001.0, -5.0, None), (20001.0, -23.0, None), (20002.0, -0.01, None),
]


@pytest.mark.parametrize("mu, log_tol, cap", PINNED)
def test_poisson_log_cap_pinned(mu, log_tol, cap):
    if cap is None:
        with pytest.raises(ToleranceNotAchieved, match=f"Poisson cap exceeded {MAX_CAP}"):
            poisson_log_cap(mu, log_tol)
    else:
        assert poisson_log_cap(mu, log_tol)[0] == cap


def test_poisson_log_cap_budgets_above_one():
    # every tail is below 1: cap 0 and the tail P(X > 0) = 1 - e^-mu
    for mu in (1e-300, 0.5, 100.0):
        for log_tol in (5.0, 1000.0):
            cap, log_tail = poisson_log_cap(mu, log_tol)
            assert cap == 0 and abs(log_tail - float(_log_tail(mu, 0))) <= 1e-12


def test_poisson_cap_reference_point():
    # stepping in whole units of c returned 83, with a tail of 5.2e-16
    assert poisson_cap(30.0, 5e-10)[0] == 69


def test_poisson_cap_limit():
    with pytest.raises(ToleranceNotAchieved, match=f"Poisson cap exceeded {MAX_CAP}"):
        poisson_cap(float(MAX_CAP), 1e-10)
    with pytest.raises(ToleranceNotAchieved, match=f"h-series cut exceeded {MAX_CAP}"):
        poisson_log_cap(float(MAX_CAP), -20.0, "h-series cut")
    # a mean past the cap: at least half the mass lies above it
    with pytest.raises(ToleranceNotAchieved, match=f"Poisson cap exceeded {MAX_CAP}") as exc:
        poisson_cap(3.0 * MAX_CAP, 1e-10)
    assert exc.value.achieved == 1.0


@pytest.mark.parametrize("tol", [1e-9, 1e-10])
def test_poisson_cap_refusal_names_tol(tol):
    # not exp(log tol), which is 1.0000000000000007e-09 for 1e-9
    with pytest.raises(ToleranceNotAchieved) as exc:
        poisson_cap(60000.0, tol)
    assert exc.value.requested == tol and exc.value.achieved == 1.0


@pytest.mark.parametrize("mu, tol", [(math.nan, 1e-8), (math.inf, 1e-8), (-1.0, 1e-8),
                                     (1.0, 0.0), (1.0, -1e-8), (1.0, math.nan), (1.0, math.inf)])
def test_poisson_cap_rejects_bad_input(mu, tol):
    with pytest.raises(PreconditionError):
        poisson_cap(mu, tol)


def test_poisson_logpmf_within_its_bound():
    # the bound holds from tiny means to large ones, over the head, the
    # mode and the tail, and the error stays within 128 units of
    # |log pmf|, where k log mu - log k! - mu lost 14000 at mean 4000
    u = 2.0**-53
    with mpmath.workdps(40):
        for mu in (1e-3, 0.3, 2.5, 20.0, 80.0, 300.0, 4000.0, 15000.0):
            s = math.sqrt(mu)
            for lo in {0, 30, int(mu - 3 * s), int(mu + 3 * s), int(mu + 12 * s + 60)}:
                lo = max(lo, 0)
                got = poisson_logpmf(mu, lo, lo + 40)
                bound = poisson_logpmf_error(mu, lo, lo + 40, got)
                log_mu = mpmath.log(mu)
                for k, v, b in zip(range(lo, lo + 41), got, bound):
                    exact = k * log_mu - mpmath.loggamma(k + 1) - mu
                    err = abs(float(v - exact)) / u
                    assert err <= b
                    assert err <= 128 * max(abs(float(exact)), 1.0)


def test_poisson_logpmf_table_edges():
    nm = Numerics()
    # mean 0: all mass at 0, and nothing below 0
    assert nm.poisson_logpmf_table(0.0, -2, 3).tolist() == [-math.inf, -math.inf, 0.0] + [-math.inf] * 3
    assert nm.poisson_pmf_table(0.0, 0, 1).tolist() == [1.0, 0.0]
    assert nm.poisson_logpmf_table(2.5, -4, -1).tolist() == [-math.inf] * 4
    assert len(nm.poisson_logpmf_table(2.5, 3, 2)) == 0
    got = nm.poisson_logpmf_table(2.5, -3, 60)
    assert got[:3].tolist() == [-math.inf] * 3
    with mpmath.workdps(50):
        mu = mpmath.mpf(2.5)
        exact = [k * mpmath.log(mu) - mpmath.loggamma(k + 1) - mu for k in range(61)]
    for v, e in zip(got[3:], exact):
        assert abs(v - e) <= 8 * math.ulp(max(abs(float(e)), 1.0))


def _exact_log_absorb(m, delta, degree, shift):
    """log binom(m+s+d, d) (1+delta)^-m at 40 digits, delta the float."""
    with mpmath.workdps(40):
        return mpmath.log(math.comb(m + shift + degree, degree)) - m * mpmath.log1p(mpmath.mpf(delta))


@pytest.mark.parametrize("degree", range(13))
def test_poisson_tilt_absorb_constant_is_the_exact_maximum(degree):
    # the closed form against binom(m+s+d, d) (1+delta)^-m at m*, m* +- 1
    # and 0: at least each of them, and within 1e-12 of the one at m*
    for target in (1e-6, 1e-5, 1e-3, 0.07, 0.3, 1.0):
        for shift in (0, 1, 3, 7, 20):
            mu = degree / target if degree else 1.0
            g, log_mass = poisson_tilt(mu, 1.0, degree, shift)
            # r = 1 makes delta = min(1, d/mu) and g = 1 + delta
            delta = degree / max(mu, degree) if degree else 0.0
            assert g == 1.0 + delta
            log_absorb = log_mass - mu * (g - 1.0)
            if degree == 0:
                assert log_absorb == 0.0
                continue
            top = max(0, math.floor(Fraction(degree) / Fraction(delta)) - shift)
            exact = {m: _exact_log_absorb(m, delta, degree, shift) for m in {0, max(0, top - 1), top, top + 1}}
            # where d/delta is an integer, m* - 1 ties with m*
            assert max(exact.values()) - exact[top] < 1e-35
            assert all(log_absorb >= want for want in exact.values())
            assert log_absorb - exact[top] <= 1e-12


@pytest.mark.parametrize(
    "mu, ratio, degree, shift, cut",
    [(3.0, 1.0, 2, 0, 5), (40.0, 0.5, 3, 4, 30), (0.2, 7.0, 1, 9, 3), (12.0, 2.0, 0, 0, 30), (5.0, 3.0, 4, 1, 0)],
)
def test_poisson_tilt_bounds_the_series_tail(mu, ratio, degree, shift, cut):
    # sum_{m>M} binom(m+s+d, d) r^m pois(mu, m) <= e^log_mass P(Poisson(mu g) > M)
    g, log_mass = poisson_tilt(mu, ratio, degree, shift)
    assert g >= max(1.0, ratio)
    with mpmath.workdps(40):
        tail = mpmath.nsum(
            lambda m: math.comb(int(m) + shift + degree, degree) * mpmath.mpf(ratio) ** m
            * mpmath.exp(m * mpmath.log(mu) - mu - mpmath.loggamma(m + 1)),
            [cut + 1, mpmath.inf],
        )
        assert mpmath.log(tail) <= log_mass + _log_tail(mu * g, cut)


@pytest.mark.parametrize(
    "mu, ratio, degree", [(1e-300, math.inf, 0), (1.0, math.inf, 2), (1e300, 1e10, 1), (0.0, math.inf, 3)]
)
def test_poisson_tilt_past_the_float_range_refuses(mu, ratio, degree):
    with pytest.raises(ToleranceNotAchieved, match="past the float range") as info:
        poisson_tilt(mu, ratio, degree)
    assert info.value.logs[1] == math.inf
