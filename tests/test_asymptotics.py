"""Decay-rate layer: the Poisson rate function, the chamber infimum and
its closed form, the dominant-term prefactor, and the slope fit."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemq.asymptotics import (
    bottleneck_station,
    chamber_infimum,
    decay_report,
    dominant_prefactor,
    fit_decay_rate,
    rate_function,
    relaxation_rate,
    relaxation_time,
)
from tandemq.errors import PreconditionError
from tandemq.kernels import noncrossing_prob
from tandemq.queueprobs import kt_general, stationary_empty_prob

RATE_122 = 3.0 - 2.0 * math.sqrt(2.0)  # nu0=1, numin=2


def test_rate_function_anchors():
    assert rate_function((1.0, 2.0, 4.0), (1, 2, 4)) == pytest.approx(0.0, abs=1e-15)
    assert rate_function((0.0, 0.0), (1, 3)) == pytest.approx(4.0)
    assert rate_function((1.0, -0.5), (1, 2)) == math.inf


def test_rate_function_rejects_length_mismatch():
    with pytest.raises(PreconditionError):
        rate_function((1.0,), (1, 2))


positive = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)


@given(
    st.tuples(positive, positive, positive),
    st.tuples(positive, positive, positive),
)
@settings(deadline=None, max_examples=200)
def test_rate_function_convex(x, y):
    nu = (1, 2, 4)
    mid = tuple((a + b) / 2.0 for a, b in zip(x, y))
    lhs = rate_function(mid, nu)
    rhs = (rate_function(x, nu) + rate_function(y, nu)) / 2.0
    assert lhs <= rhs + 1e-10


def test_chamber_infimum_two_node():
    val, arg = chamber_infimum((1, 4))
    assert val == pytest.approx(1.0, abs=1e-12)
    assert arg == pytest.approx((2.0, 2.0))


def test_chamber_infimum_reference_case():
    val, arg = chamber_infimum((1, 4, 2, 3))
    assert val == pytest.approx(RATE_122, abs=1e-12)
    # minimizing arrangement pins the tail pair at sqrt(nu0 numin)
    s = math.sqrt(2.0)
    assert arg == pytest.approx((4.0, 3.0, s, s), abs=1e-12)


def test_chamber_infimum_is_lower_bound():
    # the reported infimum never exceeds the rate function at random
    # chamber points of any arrangement keeping the arrival rate off the
    # last slot (the admissible set the infimum ranges over)
    rng = random.Random(2)
    nu = (1, 4, 2, 3)
    best, _ = chamber_infimum(nu)
    sigmas = [s for s in itertools.permutations(range(4)) if s[-1] != 0]
    for _ in range(500):
        sigma = rng.choice(sigmas)
        gaps = [rng.uniform(0, 3) for _ in range(4)]
        x = []
        acc = 0.0
        for g in reversed(gaps):
            acc += g
            x.append(acc)
        x = tuple(reversed(x))
        val = rate_function(x, tuple(nu[k] for k in sigma))
        assert best <= val + 1e-12


def test_relaxation_values():
    assert relaxation_rate((1, 4, 2, 3)) == pytest.approx(RATE_122, abs=1e-15)
    assert relaxation_time((1, 4, 2, 3)) == pytest.approx(1.0 / RATE_122, abs=1e-9)
    # second displayed form: 1/(numin (1 - sqrt(rho))^2)
    assert relaxation_time((1, 4)) == pytest.approx(1.0 / (4 * (1 - 0.5) ** 2))
    assert relaxation_time((1, 3, 2, 5)) == relaxation_time((1, 5, 2, 3))


def test_relaxation_needs_stability():
    with pytest.raises(PreconditionError, match="unstable"):
        relaxation_rate((2, 1))


def test_bottleneck_station_index():
    assert bottleneck_station((1, 4, 2, 3)) == 2
    assert bottleneck_station((1, 2, 4)) == 1


def test_bottleneck_reduction():
    nu = (1, 4, 2, 3)
    two_node = (1, min(nu[1:]))
    assert relaxation_time(nu) == pytest.approx(relaxation_time(two_node), rel=1e-15)
    val, _ = chamber_infimum(nu)
    assert val == pytest.approx(relaxation_rate(nu), abs=1e-12)


def test_dominant_prefactor_cases():
    pref, arr = dominant_prefactor((1, 2))
    assert pref == pytest.approx(0.5)
    assert arr == (1.0, 2.0)
    pref, arr = dominant_prefactor((1, 2, 4))
    assert pref == pytest.approx(1.0)
    assert arr == (4.0, 1.0, 2.0)
    pref, arr = dominant_prefactor((1, 4, 2, 3))
    assert pref == pytest.approx(12.0, rel=1e-12)
    assert arr == (4.0, 3.0, 1.0, 2.0)


def test_dominant_prefactor_preconditions():
    with pytest.raises(PreconditionError, match="unstable"):
        dominant_prefactor((2, 1, 5))
    with pytest.raises(PreconditionError, match="rates not distinct"):
        dominant_prefactor((1, 2, 2))


def test_fit_decay_rate_exact_synthetic():
    rate, window, used = fit_decay_rate(
        [(t, 3.0 * math.exp(-0.7 * t)) for t in range(2, 30, 2)], floor=0.0
    )
    assert rate == pytest.approx(0.7, rel=1e-12)
    assert used >= 4
    # the head rule drops points with gap above 0.1x the initial gap
    assert window[0] > 2


def test_fit_decay_rate_floor_error():
    series = [(t, 1e-14 * math.exp(-t)) for t in range(1, 10)]
    with pytest.raises(PreconditionError, match="1e-11"):
        fit_decay_rate(series)


def test_fit_decay_rate_input_validation():
    with pytest.raises(PreconditionError):
        fit_decay_rate([(1.0, 0.5), (2.0, 0.0)])
    with pytest.raises(PreconditionError):
        fit_decay_rate([(2.0, 0.5), (1.0, 0.4)])


def test_decay_report_bundles():
    series = [(float(t), 2.0 * math.exp(-RATE_122 * t)) for t in range(10, 90, 5)]
    rep = decay_report((1, 4, 2, 3), series, floor=0.0)
    assert rep.analytic_rate == pytest.approx(RATE_122)
    assert rep.fitted_rate == pytest.approx(RATE_122, rel=1e-10)
    assert rep.prefactor == pytest.approx(12.0, rel=1e-12)
    assert rep.dominant_arrangement == (4.0, 3.0, 1.0, 2.0)
    assert rep.n_points >= 4


# ---------------------------------------------------------------------------
# the relaxation theorem where the closed forms cannot go, on the
# kt_general route: six stations, and gaps from non-empty states

# bottleneck 1.6 at station 3 of 6
SIX_STATIONS = (1, 3, 2.5, 1.6, 4, 3.5, 2.2)


@pytest.mark.parametrize("t", [100.0, 160.0])
def test_dominant_term_ratio_six_stations(t):
    zero = (0,) * 6
    kv = kt_general(zero, zero, t, SIX_STATIONS, tol=1e-12)
    gap = kv.value - float(stationary_empty_prob(SIX_STATIONS))
    assert gap > 1e3 * kv.abs_error
    pref, arrangement = dominant_prefactor(SIX_STATIONS)
    p = noncrossing_prob((0,) * 7, t, arrangement, tol=1e-4 * gap, precision="high")
    assert 0.9 <= gap / (pref * float(p.value)) <= 1.1


@pytest.mark.parametrize("q, q2", [((0, 0, 0), (1, 0, 2)), ((3, 0, 1), (1, 1, 0)), ((2, 1, 0), (0, 0, 0))])
def test_relaxation_rate_from_non_empty_states(q, q2):
    # the gap to Jackson's product form decays at the relaxation rate
    # from every state; the power b of t is fitted, not fixed at 3/2
    nu = (1, 3, 1.6, 2.2)
    pi = math.prod((1 - nu[0] / s) * (nu[0] / s) ** k for s, k in zip(nu[1:], q2))
    ts = np.arange(100.0, 161.0, 10.0)
    gaps = []
    for t in ts:
        kv = kt_general(q, q2, float(t), nu, tol=1e-12)
        gaps.append(kv.value - pi)
        assert abs(gaps[-1]) > 1e2 * kv.abs_error
    fit = np.column_stack([np.ones_like(ts), -ts, -np.log(ts)])
    (_, rate, _), *_ = np.linalg.lstsq(fit, np.log(np.abs(gaps)), rcond=None)
    assert rate == pytest.approx(relaxation_rate(nu), rel=0.10)
