"""Queue-probability layer: the two permutation expansions of the
empty-system probability against each other and against uniformization,
the general completion-count sum (including equal, coincident and
unstable rates), the Bessel closed form, and the harmonic weight."""

import math
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from tandemq import lattice, queueprobs
from tandemq.asymptotics import decay_report, fit_decay_rate
from tandemq.errors import PreconditionError, ToleranceNotAchieved
from tandemq.kernels import noncrossing_prob
from tandemq.queueprobs import (
    chamber_harmonic,
    kt00_direct,
    kt00_gap,
    kt00_gap_relative,
    kt00_stationary,
    kt_general,
    mm1_kt,
    stationary_empty_prob,
)
from tandemq.simulator import SimConfig, simulate_noncrossing, simulate_queue_prob, uniformization_kt
from tandemq.symfunc import schur


def test_stationary_empty_prob_values():
    assert stationary_empty_prob((1, 2, 4)) == Fraction(3, 8)
    assert stationary_empty_prob((1, 2)) == Fraction(1, 2)
    assert float(stationary_empty_prob((1, 10**6))) == pytest.approx(1.0, abs=2e-6)


def test_stationary_empty_prob_unstable():
    with pytest.raises(PreconditionError, match="unstable"):
        stationary_empty_prob((2, 1, 5))


def test_chamber_harmonic_values():
    assert chamber_harmonic((2, 1)) == Fraction(1, 2)
    assert chamber_harmonic((2, 1), (1, 0)) == Fraction(3, 4)
    lam = (Fraction(5), Fraction(3), Fraction(2))
    want = (1 - Fraction(3, 5)) * (1 - Fraction(2, 5)) * (1 - Fraction(2, 3))
    assert chamber_harmonic(lam) == want


def test_chamber_harmonic_schur_form():
    # omega_lam(x) = omega_lam(0) * prod lam_k^(-x_k) * s_x(lam)
    rng = random.Random(23)
    for _ in range(10):
        n1 = rng.randint(2, 4)
        lam = []
        while len(lam) < n1:
            c = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            if c not in lam:
                lam.append(c)
        lam = tuple(lam)
        x = tuple(sorted((rng.randint(0, 4) for _ in range(n1)), reverse=True))
        scale = chamber_harmonic(lam)
        for k in range(n1):
            scale *= lam[k] ** -x[k]
        assert chamber_harmonic(lam, x) == scale * schur(x, lam)


def test_kt00_time_zero_and_t_limits():
    assert kt00_direct(0.0, (1, 2, 4)) == (1.0, 0.0)
    short = kt00_direct(1e-3, (1, 2)).value
    assert abs(short - 1.0) <= 5e-3
    late = kt00_stationary(80.0, (1, 2), tol=1e-12)
    assert abs(late.value - 0.5) <= 1e-8


def test_kt00_two_forms_agree():
    for nu, t in [((1, 2), 0.5), ((1, 2), 2.0), ((1, 2, 4), 1.0), ((1, 1.5, 3), 1.0)]:
        a = kt00_direct(t, nu, tol=1e-10)
        b = kt00_stationary(t, nu, tol=1e-10)
        assert abs(a.value - b.value) <= a.abs_error + b.abs_error + 1e-12
        assert -a.abs_error <= a.value <= 1 + a.abs_error


def test_kt00_symmetric_in_service_rates():
    a = kt00_direct(1.0, (1, 2, 3), tol=1e-12).value
    b = kt00_direct(1.0, (1, 3, 2), tol=1e-12).value
    assert abs(a - b) <= 1e-12 * a


def test_kt00_needs_distinct_rates():
    with pytest.raises(PreconditionError, match="rates not distinct"):
        kt00_direct(1.0, (1, 2, 2))
    with pytest.raises(PreconditionError, match="rates not distinct"):
        kt00_stationary(1.0, (1, 2, 3, 2 + 1e-9))
    with pytest.raises(PreconditionError, match="unstable"):
        kt00_stationary(1.0, (3, 2, 5))


def test_kt00_vs_uniformization():
    got = kt00_direct(1.0, (1, 2), tol=1e-10)
    want = uniformization_kt((0,), (0,), 1.0, (1, 2), 60, tol=1e-10)
    assert abs(got.value - want.value) <= got.abs_error + want.abs_error + 1e-10


def test_kt00_matches_mm1():
    got = kt00_stationary(2.0, (1, 2), tol=1e-12).value
    want = mm1_kt(0, 0, 2.0, (1, 2)).value
    assert abs(got - want) <= 1e-10


def test_kt00_gap_relative_certifies():
    kv = kt00_gap_relative(30.0, (1, 4, 2, 3), rel_tol=1e-4)
    assert kv.value > 0
    assert kv.abs_error <= 1e-4 * kv.value
    ref = kt00_gap(30.0, (1, 4, 2, 3), tol=1e-3 * kv.value)
    assert abs(kv.value - ref.value) <= 2e-3 * kv.value


def _count_gap_passes(monkeypatch):
    passes = []
    inner = queueprobs.kt00_gap

    def counted(t, nu, tol=1e-10, *, precision="double"):
        passes.append(tol)
        return inner(t, nu, tol, precision=precision)

    monkeypatch.setattr(queueprobs, "kt00_gap", counted)
    return passes


@pytest.mark.parametrize(
    "nu, t, precision",
    [(nu, t, "double") for nu in ((1, 2, 4), (1, 3.2, 2.2), (0.978, 3.908, 2.037, 2.963))
     for t in (70.0, 150.0, 290.0)]
    + [((1, 2, 4), 30.4, "high"), ((1, 4, 2, 3), 29.6, "high")],
)
def test_kt00_gap_relative_one_pass_from_the_envelope(monkeypatch, nu, t, precision):
    # the relaxation-theorem envelope sets a first tol that already
    # certifies rel_tol; a first tol of 1e-12 needs a retry on all of the
    # double inputs but (1, 2, 4) at t = 70
    passes = _count_gap_passes(monkeypatch)
    kv = kt00_gap_relative(t, nu, precision=precision)
    assert len(passes) == 1
    assert kv.value > 0 and kv.abs_error <= 1e-4 * kv.value


def test_kt00_gap_relative_retries_past_a_useless_envelope(monkeypatch):
    nu, t = (1, 4, 2, 3), 290.0
    want = kt00_gap_relative(t, nu)
    # with g = 0 the first tol is clamped to 1e-12, far above the gap
    monkeypatch.setattr(queueprobs, "relaxation_rate", lambda nu: 0.0)
    passes = _count_gap_passes(monkeypatch)
    kv = kt00_gap_relative(t, nu)
    assert passes[0] == 1e-12 and len(passes) > 1
    assert kv.value > 0 and kv.abs_error <= 1e-4 * kv.value
    assert abs(kv.value - want.value) <= kv.abs_error + want.abs_error


@pytest.mark.parametrize("precision", ["double", "high"])
def test_kt00_gap_relative_stops_at_the_tolerance_floor(monkeypatch, precision):
    # the envelope clamps the first tol to 1e-300, and a retry at the same
    # tol would repeat the pass: one pass, returned as it came
    want = kt00_gap(300.0, (0.2, 5, 6), tol=1e-300, precision=precision)
    passes = _count_gap_passes(monkeypatch)
    kv = kt00_gap_relative(300.0, (0.2, 5, 6), precision=precision)
    assert passes == [1e-300]
    assert kv == want


@pytest.mark.parametrize(
    "nu, precision",
    [((1, 2, 4), "bogus"), ((2, 1, 4), "double"), ((1, 2, 2), "double"), ((1, 2, 2 + 1e-9), "high")],
    ids=["precision", "unstable", "coincident", "near-coincident"],
)
def test_kt00_gap_relative_errors_are_kt00_gaps(nu, precision):
    with pytest.raises(PreconditionError) as want:
        kt00_gap(50.0, nu, precision=precision)
    with pytest.raises(PreconditionError) as got:
        kt00_gap_relative(50.0, nu, precision=precision)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_arrangement_weight_cache_hits_are_fresh_values():
    lattice._arrangement_weights.cache_clear()
    cold = kt00_gap(90.0, (1, 4, 2, 3), tol=1e-20)
    warm = kt00_gap(90.0, (1, 4, 2, 3), tol=1e-20)
    info = lattice._arrangement_weights.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert warm == cold
    every = frozenset(range(4))
    key = (
        tuple(Fraction(v) for v in (1, 4, 2, 3)),
        (every,) * 3 + (every - {0},),
        every,
        -stationary_empty_prob((1, 4, 2, 3)),
    )
    cached = lattice._arrangement_weights(*key)
    assert lattice._arrangement_weights.cache_info().hits == 2
    assert cached == lattice._arrangement_weights.__wrapped__(*key)


def test_kt00_closed_forms_high_against_double():
    nu = (1, 4, 2, 3)
    for form in (kt00_direct, kt00_gap):
        lo = form(5.0, nu, tol=1e-12)
        hi = form(5.0, nu, tol=1e-30, precision="high")
        assert abs(lo.value - float(hi.value)) <= lo.abs_error + hi.abs_error + 1e-12
    # with int rates the exact weights were float quotients, which put
    # the two forms 5.8e-17 apart in high precision
    direct = kt00_direct(5.0, nu, tol=1e-30, precision="high")
    stationary = kt00_stationary(5.0, nu, tol=1e-30, precision="high")
    assert abs(direct.value - stationary.value) <= direct.abs_error + stationary.abs_error


def test_kt00_gap_five_stations():
    # 600 arrangements of 720 column orders each, summed term by term,
    # missed this reference by 4.85e-12 of round-off and took about 20 s
    nu = (1, 3, 2.5, 1.6, 4, 3.5)
    start = time.perf_counter()
    gap = kt00_gap(20.0, nu, tol=1e-14)
    elapsed = time.perf_counter() - start
    ref = kt_general((0,) * 5, (0,) * 5, 20.0, nu, tol=1e-12)
    diff = abs(gap.value - (ref.value - stationary_empty_prob(nu)))
    assert diff <= gap.abs_error + ref.abs_error + 1e-12
    assert elapsed < 2.0


def test_kt_general_matches_kt00():
    a = kt_general((0, 0), (0, 0), 1.0, (1, 2, 4), tol=1e-9)
    b = kt00_direct(1.0, (1, 2, 4), tol=1e-9)
    assert abs(a.value - b.value) <= a.abs_error + b.abs_error + 1e-9


def test_kt_general_matches_mm1():
    a = kt_general((1,), (0,), 1.0, (1, 2), tol=1e-10)
    b = mm1_kt(1, 0, 1.0, (1, 2))
    assert abs(a.value - b.value) <= a.abs_error + b.abs_error + 1e-10


def test_kt_general_vs_uniformization():
    a = kt_general((1, 0), (0, 1), 1.0, (1, 2, 4), tol=1e-9)
    b = uniformization_kt((1, 0), (0, 1), 1.0, (1, 2, 4), 40, tol=1e-9)
    assert abs(a.value - b.value) <= a.abs_error + b.abs_error + 1e-8


def test_kt_general_time_zero():
    assert kt_general((2, 1), (2, 1), 0.0, (1, 2, 3)) == (1.0, 0.0)
    assert kt_general((1, 0), (0, 1), 0.0, (1, 2, 3)) == (0.0, 0.0)


@pytest.mark.parametrize(
    "nu, t",
    [
        ((1, 2, 4), 30.0), ((1, 2, 3, 5), 5.0), ((1, 2, 3, 5), 20.0),
        ((1, 2, 4), 2000.0), ((1, 1.8, 2.6, 3.5), 1000.0),
    ],
)
def test_kt_general_matches_stationary_form(nu, t):
    # inputs the weight-kernel sandwich refused (weighted box point limit),
    # and large t, where the h-series run thousands of terms
    zero = (0,) * (len(nu) - 1)
    a = kt_general(zero, zero, t, nu, tol=1e-9)
    b = kt00_stationary(t, nu, tol=1e-12)
    assert isinstance(a.value, float)
    assert abs(a.value - b.value) <= a.abs_error + b.abs_error + 1e-12


def test_kt_general_large_t_product_form():
    # row-scaled elimination flushed entries more than e^-745 below their
    # row maximum to 0 and returned 0; the relaxation factor at t=700 is
    # below e^-80, so the value is the product form (1/2)(3/4)(1/4)
    a = kt_general((1, 0), (0, 1), 700.0, (1, 2, 4))
    assert abs(a.value - 3 / 32) <= a.abs_error + 1e-12


def test_kt_general_refuses_cancelling_determinants():
    # a service rate below an earlier one: at large t the determinants
    # cancel far beyond double round-off, and the call must say so
    with pytest.raises(ToleranceNotAchieved, match="cancellation"):
        kt_general((1, 0, 0), (0, 0, 0), 60.0, (1, 1.5, 4, 2), tol=1e-9)
    # between empty states the services are sorted first
    a = kt_general((0, 0, 0), (0, 0, 0), 60.0, (1, 1.5, 4, 2), tol=1e-9)
    b = kt00_stationary(60.0, (1, 1.5, 4, 2), tol=1e-12)
    assert abs(a.value - b.value) <= a.abs_error + b.abs_error + 1e-12


def test_kt_general_refusal_with_sorted_rates_names_the_round_off():
    # sorted services cancel nothing; the refusal names the certified
    # round-off that passes what tol leaves, and high precision solves it
    with pytest.raises(ToleranceNotAchieved) as err:
        kt_general((0, 0), (0, 0), 300.0, (1, 2, 4), tol=1e-12)
    msg = str(err.value)
    assert "cancellation" not in msg
    assert "certified round-off" in msg and "exceeds what tol leaves" in msg
    hi = kt_general((0, 0), (0, 0), 300.0, (1, 2, 4), tol=1e-12, precision="high")
    assert abs(float(hi.value) - 0.375) <= hi.abs_error


@pytest.mark.parametrize("t, cap", [(40.0, 38), (160.0, 42)])
def test_kt_general_unsorted_services_match_uniformization(t, cap):
    # a service rate below an earlier one: the elimination of the
    # determinants refused at t = 40 and returned 8.06e-06 at t = 160
    nu = (1, 3, 1.6, 2.2)
    a = kt_general((1, 0, 0), (0, 0, 0), t, nu, tol=1e-8)
    b = uniformization_kt((1, 0, 0), (0, 0, 0), t, nu, cap, tol=1e-6)
    assert abs(a.value - b.value) <= a.abs_error + b.abs_error


@pytest.mark.parametrize("nu, t", [((0.5, 1.5, 3, 2), 60.0), ((1, 1.5, 4, 2), 20.0)])
def test_kt_general_agrees_or_names_the_cancellation(nu, t):
    ref = uniformization_kt((1, 0, 0), (0, 0, 0), t, nu, 30, tol=1e-6)
    try:
        a = kt_general((1, 0, 0), (0, 0, 0), t, nu, tol=1e-8)
    except ToleranceNotAchieved as err:
        assert "cancellation" in str(err)
        return
    assert abs(a.value - ref.value) <= a.abs_error + ref.abs_error


@pytest.mark.parametrize("q, q2", [((1, 0), (0, 1)), ((0, 0), (0, 0)), ((2, 1), (1, 1))])
@pytest.mark.parametrize("c", [1e-200, 1e-100, 1e-20])
def test_kt_general_tiny_rates_match_tiny_time(q, q2, c):
    # kt depends on the rates and t only through nu t; the e-window
    # coefficients of rates below 1e-155 once overflowed
    nu = (1, 2, 4)
    rates = kt_general(q, q2, 1.0, tuple(c * v for v in nu))
    time = kt_general(q, q2, c, nu)
    assert abs(rates.value - time.value) <= rates.abs_error + time.abs_error


def test_kt_general_high_precision_agrees():
    lo = kt_general((1, 0), (0, 1), 1.0, (1, 2, 4), tol=1e-10)
    hi = kt_general((1, 0), (0, 1), 1.0, (1, 2, 4), tol=1e-10, precision="high")
    assert abs(float(hi.value) - lo.value) <= lo.abs_error + hi.abs_error + 1e-12


def test_equal_rates_path():
    a = kt_general((1, 0), (0, 0), 1.0, (1, 1, 1), tol=1e-9)
    b = uniformization_kt((1, 0), (0, 0), 1.0, (1, 1, 1), 40, tol=1e-9)
    assert abs(a.value - b.value) <= a.abs_error + b.abs_error + 1e-8
    assert kt_general((0, 0), (0, 0), 0.0, (1, 1, 1)) == (1.0, 0.0)


def test_equal_rates_decays_at_criticality():
    # rho = 1: no stationary atom at the empty state, values drift to 0
    vals = [
        kt_general((0, 0), (0, 0), t, (1, 1, 1), tol=1e-9).value
        for t in (2.0, 6.0, 12.0)
    ]
    assert vals[0] > vals[1] > vals[2] > 0


def test_mm1_row_stochastic():
    for q in (0, 3):
        total = sum(mm1_kt(q, q2, 1.0, (1, 2)).value for q2 in range(40))
        assert abs(total - 1.0) <= 1e-12


def test_mm1_vs_uniformization_point():
    got = mm1_kt(0, 0, 1.0, (1, 2)).value
    want = uniformization_kt((0,), (0,), 1.0, (1, 2), 60, tol=1e-12).value
    assert abs(got - want) <= 1e-10


def test_mm1_allows_critical_load():
    kv = mm1_kt(1, 2, 1.0, (2, 2))
    assert 0.0 <= kv.value <= 1.0


def test_mm1_rejects_bad_args():
    with pytest.raises(PreconditionError):
        mm1_kt(-1, 0, 1.0, (1, 2))
    with pytest.raises(PreconditionError):
        mm1_kt(0, 0, 1.0, (1, 2, 3))


def test_nan_time_is_a_precondition_error():
    from tandemq.kernels import departure_kernel, killed_poisson_kernel, noncrossing_prob

    calls = [
        lambda: kt_general((0, 0), (0, 0), math.nan, (1, 2, 3)),
        lambda: kt00_gap(math.nan, (1, 2, 3)),
        lambda: noncrossing_prob((1, 0), math.nan, (1, 2)),
        lambda: uniformization_kt((0,), (0,), math.nan, (1, 2), 10),
        # neither cuts a Poisson sum: mm1_kt looped forever, the kernel returned nan
        lambda: mm1_kt(0, 0, math.nan, (1, 2)),
        lambda: mm1_kt(0, 0, math.inf, (1, 2)),
        lambda: killed_poisson_kernel((1, 0), (2, 1), math.nan, (1, 2)),
        # this built a pmf table first: a numpy RuntimeWarning, then an
        # error about a Poisson cut for mean nan
        lambda: departure_kernel((1, 0), (2, 1), math.nan, (1, 2)),
        lambda: departure_kernel((1, 0), (2, 1), math.inf, (1, 2)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(PreconditionError, match="t must be finite"):
                call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: kt_general((0, 0), (0, 0), 30000.0, (1, 2, 3), tol=1e-9),
        lambda: kt00_direct(30000.0, (1, 2, 3), tol=1e-9),
        lambda: kt00_gap(30000.0, (1, 2, 3), tol=1e-9),
        lambda: noncrossing_prob((1, 0), 30000.0, (1, 2), tol=1e-9),
        lambda: uniformization_kt((0,), (0,), 30000.0, (1, 2), 10, tol=1e-9),
    ],
    ids=["kt_general", "kt00_direct", "kt00_gap", "noncrossing_prob", "uniformization_kt"],
)
def test_tail_refusals_name_the_caller_tol(call):
    # each Poisson mean passes the cap limit; the refusal used to name the
    # share of tol given to that one tail (tol/4, tol/9, ...)
    with pytest.raises(ToleranceNotAchieved, match="Poisson cap exceeded") as info:
        call()
    err = info.value
    assert err.requested == 1e-9
    assert str(err).startswith("requested tolerance 1e-09, ")
    # the tail itself, or the arrangement mass times it: at least 1 here
    assert err.achieved >= 1.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: kt00_gap(1.0, (1, 2), precision="bogus"),
        lambda: fit_decay_rate([]),
        lambda: decay_report((1, 2, 3), []),
        lambda: noncrossing_prob((1, 0), 1.0, (1, math.inf)),
        lambda: simulate_queue_prob((0,), (0,), SimConfig((1, math.inf), 1.0, 1, 10)),
        lambda: kt_general((0,), (0,), 1.0, (1, math.inf)),
        lambda: kt00_gap(1.0, (1, math.nan)),
        lambda: kt00_gap_relative(50.0, (1, 2, 4), rel_tol=0),
        lambda: kt00_gap_relative(50.0, (1, 2, 4), rel_tol=math.nan),
    ],
    ids=["precision", "fit-empty", "report-empty", "noncrossing-inf", "simulate-inf",
         "kt-inf", "kt00-gap-nan", "rel-tol-0", "rel-tol-nan"],
)
def test_bad_public_input_is_a_precondition_error(call):
    # these raised ValueError, IndexError or OverflowError, warned and
    # named a nan budget, or returned without meeting rel_tol
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError):
            call()


# each call with a valid state of its kind: a queue vector or a chamber point
STATE_CALLS = {
    "kt_general": (lambda q: kt_general(q, (0, 0), 0.5, (1, 2, 3)), (2, 1)),
    "noncrossing_prob": (lambda x: noncrossing_prob(x, 0.5, (3, 2, 1)), (2, 1, 0)),
    "uniformization_kt": (lambda q: uniformization_kt(q, (0, 0), 0.5, (1, 2, 3), 20), (2, 1)),
    "simulate_queue_prob": (
        lambda q: simulate_queue_prob(q, (0, 0), SimConfig((1, 2, 3), 0.5, 1, 10)),
        (2, 1),
    ),
    "simulate_noncrossing": (lambda x: simulate_noncrossing(x, SimConfig((3, 2, 1), 0.5, 1, 10)), (2, 1, 0)),
}


@pytest.mark.parametrize("name", sorted(STATE_CALLS))
@pytest.mark.parametrize("bad", [0.5, 2.5, math.nan, math.inf, -math.inf, "2", None])
def test_non_integral_state_entries_are_refused(name, bad):
    # int() truncated 2.5 to 2 and parsed "2", so a different state was
    # evaluated without a word
    call, state = STATE_CALLS[name]
    with pytest.raises(PreconditionError, match="must be integers"):
        call((bad,) + state[1:])


@pytest.mark.parametrize("name", sorted(STATE_CALLS))
def test_integral_state_entries_of_any_type_agree(name):
    call, state = STATE_CALLS[name]
    want = call(state)
    for kind in (np.int64, float, np.float64):
        assert call(tuple(kind(v) for v in state)) == want
