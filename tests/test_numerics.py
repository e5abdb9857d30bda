"""The one truncation search: poisson_cap returns the smallest cap whose
Poisson tail is below the request, certified against 50-digit tails."""

import math

import mpmath
import pytest

from tandemq.errors import PreconditionError, ToleranceNotAchieved
from tandemq.numerics import MAX_CAP, poisson_cap, poisson_log_cap


def _tail(mu, m):
    """P(Poisson(mu) > m) at 50 digits."""
    if m < 0:
        return mpmath.mpf(1)
    with mpmath.workdps(50):
        return mpmath.gammainc(m + 1, 0, mpmath.mpf(mu), regularized=True)


@pytest.mark.parametrize("mu", [0.0, 0.5, 30.0, 300.0])
@pytest.mark.parametrize("tol", [1e-8, 1e-13, 1e-300])
def test_poisson_cap_is_smallest(mu, tol):
    cap, tail = poisson_cap(mu, tol)
    exact = _tail(mu, cap)
    assert exact < tol <= _tail(mu, cap - 1) or (mu == 0 and cap == 0)
    # the returned tail is an upper bound (below 1e-300, the deep-tail one)
    assert exact <= tail * (1 + 1e-12) and tail < tol


def test_poisson_cap_reference_point():
    # stepping in whole units of c returned 83, with a tail of 5.2e-16
    assert poisson_cap(30.0, 5e-10)[0] == 69


def test_poisson_cap_limit():
    with pytest.raises(ToleranceNotAchieved, match=f"Poisson cap exceeded {MAX_CAP}"):
        poisson_cap(float(MAX_CAP), 1e-10)
    with pytest.raises(ToleranceNotAchieved, match=f"h-series cut exceeded {MAX_CAP}"):
        poisson_log_cap(float(MAX_CAP), -20.0, "h-series cut")


@pytest.mark.parametrize("mu, tol", [(math.nan, 1e-8), (math.inf, 1e-8), (-1.0, 1e-8),
                                     (1.0, 0.0), (1.0, -1e-8), (1.0, math.nan), (1.0, math.inf)])
def test_poisson_cap_rejects_bad_input(mu, tol):
    with pytest.raises(PreconditionError):
        poisson_cap(mu, tol)
