"""Kernel layer: the killed and departure kernels against hand-expanded
determinants, closed forms and brute lattice sums, the weight-kernel
pair (exact inverse property), the lattice enumeration, and the
certified truncation contracts."""

import itertools
import json
import math
import pathlib
import random
from fractions import Fraction

import mpmath
import pytest

from tandemq import linalg
from tandemq.errors import PreconditionError, ToleranceNotAchieved
from tandemq.kernels import (
    chamber_to_departure,
    chamber_to_queue,
    departure_kernel,
    departure_kernel_stack,
    departure_kernel_via_intertwining,
    departure_to_chamber,
    departure_to_chamber_support,
    killed_poisson_kernel,
    noncrossing_prob,
    queue_to_chamber_support,
    queue_to_departures,
)
from tandemq.lattice import count_ordered_points, grow_weighted_box, ordered_points
from tandemq.numerics import HIGH_DPS, Numerics, poisson_cap
from tandemq.rates import as_rates


def chamber_points(lo, hi, n):
    for z in itertools.product(range(hi, lo - 1, -1), repeat=n):
        if all(z[i] >= z[i + 1] for i in range(n - 1)):
            yield z


# ---------------------------------------------------------------------------
# lattice enumeration


def test_ordered_points_match_filtered_product():
    rng = random.Random(11)
    # one coordinate, two empty boxes, and hi not monotone
    boxes = [([2], [5]), ([3, 0], [1, 4]), ([0, 0], [-2, 3]), ([0, 0, 0], [1, 4, 2]), ([1, 0, 0], [3, 3, 0])]
    for _ in range(30):
        n = rng.randint(1, 4)
        lo = [rng.randint(-2, 3) for _ in range(n)]
        boxes.append((lo, [v + rng.randint(-3, 4) for v in lo]))
    for lo, hi in boxes:
        want = [
            z
            for z in itertools.product(*(range(h, l - 1, -1) for l, h in zip(lo, hi)))
            if all(z[k] >= z[k + 1] for k in range(len(z) - 1))
        ]
        pts = ordered_points(lo, hi)
        assert pts.shape == (len(want), len(lo))
        assert list(map(tuple, pts.tolist())) == want
        assert count_ordered_points(lo, hi) == len(pts)


# ---------------------------------------------------------------------------
# killed Poisson kernel


def taylor(n, t):
    return Fraction(t) ** n / math.factorial(n) if n >= 0 else 0


def brute_killed(z, z2, t, nu):
    n1 = len(nu)
    mat = [
        [taylor(z2[a] - z[b] - a + b, Fraction(t)) for b in range(n1)]
        for a in range(n1)
    ]
    out = linalg.det(mat)
    for k in range(n1):
        out *= Fraction(nu[k]) ** (z2[k] - z[k])
    return float(out) * math.exp(-sum(nu) * t)


def test_killed_kernel_at_origin():
    for nu, t in [((1, 2), 0.7), ((1, 2, 4), 1.3)]:
        got = killed_poisson_kernel((0,) * len(nu), (0,) * len(nu), t, nu)
        assert abs(got - math.exp(-sum(nu) * t)) <= 1e-14


def test_killed_kernel_hand_example():
    got = killed_poisson_kernel((0, 0), (1, 0), 1.0, (1, 1))
    assert abs(got - math.exp(-2.0)) <= 1e-14


def test_killed_kernel_no_decrease():
    assert killed_poisson_kernel((2, 1), (1, 1), 0.5, (1, 2)) == 0.0


def test_killed_kernel_matches_brute_determinant():
    rng = random.Random(3)
    for _ in range(25):
        n1 = rng.randint(2, 3)
        nu = tuple(rng.randint(1, 4) for _ in range(n1))
        z = tuple(sorted((rng.randint(0, 3) for _ in range(n1)), reverse=True))
        z2 = tuple(sorted((z[k] + rng.randint(0, 3) for k in range(n1)), reverse=True))
        t = rng.choice([0.25, 1.0, 2.0])
        got = killed_poisson_kernel(z, z2, t, nu)
        want = brute_killed(z, z2, t, nu)
        assert abs(got - want) <= 1e-13
        assert -1e-12 <= got <= 1.0 + 1e-12


def test_change_of_measure_relates_kernels():
    z, z2, t = (1, 0), (3, 1), 0.8
    # rates nu against lam: prod_k (nu_k/lam_k)^(z2_k - z_k) e^(-(nu_k - lam_k) t)
    nu, lam = (1, 2), (3, 5)
    factor = math.prod(
        (nu[k] / lam[k]) ** (z2[k] - z[k]) * math.exp(-(nu[k] - lam[k]) * t) for k in range(2)
    )
    base = killed_poisson_kernel(z, z2, t, nu)
    other = killed_poisson_kernel(z, z2, t, lam)
    assert abs(base - other * factor) <= 1e-12 * abs(base)


# ---------------------------------------------------------------------------
# departure kernel


def test_departure_kernel_short_time_diagonal():
    v = departure_kernel((1, 0), (1, 0), 1e-9, (1, 2))
    assert abs(v - 1.0) <= 1e-8


def test_departure_kernel_zero_below_start():
    assert abs(departure_kernel((2, 1), (1, 1), 1.0, (1, 2))) <= 1e-15


def test_departure_kernel_h_series_closed_form():
    # one arrival and no departure: nu_0 e^(-(nu_0 + nu_1) t) (e^(nu_1 t) - 1)/nu_1;
    # the h-series entry (0, 1) sums to (e^(nu_1 t) - 1 - nu_1 t)/nu_1^2
    for nu, t in [((1, 2), 1.0), ((3, 0.5), 2.5), ((0.7, 4), 0.3)]:
        got = departure_kernel((0, 0), (1, 0), t, nu)
        want = nu[0] * math.exp(-nu[0] * t) * -math.expm1(-nu[1] * t) / nu[1]
        assert abs(got - want) <= 1e-14 * want


def test_departure_kernel_row_sums_to_one():
    # counter k moves at most a Poisson(nu_k t) number of times
    nu, t, d = (1.0, 2.0), 1.0, (0, 0)
    caps, tail = [], 0.0
    for k, r in enumerate(nu):
        cap, tl = poisson_cap(r * t, 1e-12 / len(nu))
        caps.append(d[k] + cap)
        tail += tl
    total = sum(departure_kernel(d, d2, t, nu) for d2 in ordered_points(d, caps).tolist())
    assert abs(total - 1.0) <= tail + 1e-11


def test_departure_kernel_large_t_stays_a_probability():
    # rate powers and Taylor weights of this size overflow unless kept in log form
    for nu in ((1, 2, 3, 4), (1.0, 2.0, 3.0, 4.0)):
        v = departure_kernel((0, 0, 0, 0), (3, 3, 3, 3), 150, nu)
        assert isinstance(v, float)
        assert math.isfinite(v) and 0.0 <= v <= 1.0


def test_departure_kernel_refuses_its_round_off():
    # a service rate below an earlier one: the determinant cancels by
    # about 1e17 at t=60, and the double value (-2.66e12) used to be
    # returned without its certified round-off
    d, d2, nu = (1, 0, 0, 0), (50, 50, 50, 50), (1, 1.5, 4, 2)
    refusal = "certified round-off .*try precision='high'"
    with pytest.raises(ToleranceNotAchieved, match=refusal) as info:
        departure_kernel(d, d2, 60.0, nu)
    assert info.value.requested == 1e-12
    assert info.value.achieved > 1e17
    hi = departure_kernel(d, d2, 60.0, nu, precision="high")
    assert abs(hi - mpmath.mpf("0.004048039343486254")) < 1e-17


@pytest.mark.parametrize("precision", ["double", "high"])
def test_departure_kernel_cut_refusal_names_its_tolerance(precision):
    # at t=4000 the h-series cut passes MAX_CAP; the refusal names the
    # 1e-12 of the round-off refusal, not the internal cut budget
    with pytest.raises(ToleranceNotAchieved, match="h-series cut exceeded") as info:
        departure_kernel((0, 0, 0), (0, 0, 0), 4000.0, (1, 2, 4), precision=precision)
    assert info.value.requested == 1e-12
    assert info.value.logs[1] > math.log(1e-12)


def test_departure_stack_round_off_within_its_bound():
    # every double slice stays within its certified round-off of the
    # 50-digit one: cancelling determinants (a service rate below an
    # earlier one), and sorted rates at t=300, whose h-series run hundreds
    # of terms, with 40 slices around c = nu_0 t that hold most of the mass
    cases = [
        ((1, 0, 0), (0,) * 4, 30, 8.0, (1, 1.5, 4, 2)),
        ((2, 1, 0), (280,) * 4, 40, 300.0, (1, 2, 3, 4)),
    ]
    for q, d2, count, t, rates in cases:
        d = queue_to_departures(q)
        nu = as_rates(rates)
        lo, cut_lo, round_lo = departure_kernel_stack(d, d2, count, t, nu, 1e-12, Numerics())
        with mpmath.workdps(HIGH_DPS):
            hi, cut_hi, round_hi = departure_kernel_stack(
                d, d2, count, t, nu, 1e-12, Numerics("high")
            )
            gap = float(sum(abs(mpmath.mpf(float(a)) - b) for a, b in zip(lo, hi)))
        assert 0 < gap <= round_lo + round_hi + cut_lo + cut_hi
        assert round_hi < 1e-40
    # the t=300 slices: kt((2,1,0), 0) is close to pi(0) = 1/4
    assert min(lo) > 1e-3 and sum(lo) > 0.7 / 4


# departure_kernel_stack outputs of the per-entry model that the batched
# one replaced, with the kt_general arguments of: N=1; kt00 at N=2..4;
# unsorted rates (1,3,1.6,2.2), (1,0,2) -> (0,1,0) at t=20, whose first
# cuts miss the budget (one retry); slices with n < 0 left of the diagonal;
# coincident rates; and one 50-digit stack
STACK_PINS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "departure_stack_pins.json").read_text()
)


@pytest.mark.parametrize("pin", STACK_PINS, ids=[p["label"] for p in STACK_PINS])
def test_departure_stack_matches_its_pins(pin):
    nm = Numerics(pin["precision"])
    args = (pin["d"], pin["d2"], pin["count"], pin["t"], as_rates(pin["nu"]), pin["budget"], nm)
    with mpmath.workdps(HIGH_DPS):
        values, cut, roundoff = departure_kernel_stack(*args)
        pinned = [mpmath.mpf(v) for v in pin["values"]]
        gap = max(abs(mpmath.mpf(v) - w) for v, w in zip(values, pinned))
    pin_cut, pin_roundoff = float(pin["cut"]), float(pin["roundoff"])
    assert len(values) == len(pinned)
    assert gap <= roundoff + pin_roundoff
    assert abs(cut - pin_cut) <= 0.01 * pin_cut
    assert abs(roundoff - pin_roundoff) <= 0.01 * pin_roundoff


def test_departure_kernel_vs_intertwining_points():
    for d, d2, t, nu in [
        ((0, 0), (0, 0), 0.5, (1, 2)),
        ((0, 0), (3, 1), 1.0, (1, 2)),
        ((2, 1, 0), (3, 2, 1), 1.0, (1, 2, 3)),
        ((1, 1, 0), (4, 1, 0), 0.25, (3, 1, 2)),
    ]:
        direct = departure_kernel(d, d2, t, nu)
        kv = departure_kernel_via_intertwining(d, d2, t, nu, tol=1e-10)
        assert abs(direct - kv.value) <= kv.abs_error + 1e-9


def test_departure_kernel_via_intertwining_below_start():
    kv = departure_kernel_via_intertwining((2, 0), (1, 0), 1.0, (1, 2), tol=1e-10)
    assert abs(kv.value) <= kv.abs_error + 1e-10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [60.0, 20.0])
def test_departure_kernel_via_intertwining_large_t_is_finite(t):
    # the h tables over the rates (2, 3) pass the float range near r = 689
    # while 3^-687 underflows: the weight-kernel stack is built in log form
    d, d2, nu = (1, 0, 0), (2, 1, 0), (1, 2, 3)
    kv = departure_kernel_via_intertwining(d, d2, t, nu, tol=1e-9)
    assert math.isfinite(kv.value)
    assert abs(kv.value - departure_kernel(d, d2, t, nu)) <= 1e-9


@pytest.mark.parametrize(
    "d, d2, t, nu, limit",
    [
        ((1, 0), (2, 0), 5000.0, (1, 2), "weighted box cap exceeded"),
        ((1, 0, 0, 0), (2, 1, 1, 0), 30.0, (1, 2, 3, 4), "weighted box point limit"),
    ],
)
def test_departure_kernel_via_intertwining_refusals_name_tol(d, d2, t, nu, limit):
    with pytest.raises(ToleranceNotAchieved) as info:
        departure_kernel_via_intertwining(d, d2, t, nu, tol=1e-9)
    err = info.value
    assert limit in err.detail
    assert err.requested == 1e-9
    assert err.logs[1] > math.log(1e-9)


def test_weighted_box_span_limit_reports_a_bound_above_tol():
    # each cap is within MAX_CAP of its start, but the box spans more
    with pytest.raises(ToleranceNotAchieved) as info:
        grow_weighted_box([0], [15000], 4000.0, [1.0], 1e-9, [1.0], 0, 0, 1.0)
    err = info.value
    assert err.detail == "weighted box cap limit"
    assert err.requested == 1e-9
    assert err.logs[1] > math.log(1e-9)


def test_chapman_kolmogorov_exact_middle_sum():
    # phi_{t+s}(d,d2) = sum over the finite set d <= m <= d2 of
    # phi_t(d,m) phi_s(m,d2); exactly finite since departures never decrease
    d, d2, nu = (0, 0), (3, 1), (1.0, 2.0)
    t, s = 0.6, 0.9
    lhs = departure_kernel(d, d2, t + s, nu)
    mids = [
        m
        for m in chamber_points(0, max(d2), 2)
        if all(d[k] <= m[k] <= d2[k] for k in range(2))
    ]
    rhs = sum(departure_kernel(d, m, t, nu) * departure_kernel(m, d2, s, nu) for m in mids)
    assert abs(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# weight kernels


def test_chamber_to_departure_basics():
    nu = (Fraction(1), Fraction(2), Fraction(3))
    assert chamber_to_departure((0, 0, 0), (0, 0, 0), nu) == 1
    assert chamber_to_departure((2, 1, 1), (2, 1, 0), nu) == 0  # z_N != d_N


def test_chamber_to_departure_two_routes():
    rng = random.Random(19)
    for _ in range(20):
        n1 = rng.randint(2, 3)
        nu = tuple(Fraction(rng.randint(1, 7), rng.randint(1, 3)) for _ in range(n1))
        z = tuple(sorted((rng.randint(0, 4) for _ in range(n1)), reverse=True))
        d = tuple(sorted((rng.randint(0, 4) for _ in range(n1)), reverse=True))
        det = chamber_to_departure(z, d, nu, method="determinant")
        gt = chamber_to_departure(z, d, nu, method="gt_sum")
        assert det == gt


def test_departure_to_chamber_at_origin():
    nu = (Fraction(2), Fraction(5), Fraction(3))
    zero = (0, 0, 0)
    assert departure_to_chamber(zero, zero, nu) == 1
    supp = departure_to_chamber_support(zero, nu)
    assert supp == [(zero, 1)]


def test_queue_to_chamber_single_station_support():
    # one station, q jobs: two-point support, weights 1 and -nu1/nu0
    nu = (Fraction(1), Fraction(2))
    supp = dict(queue_to_chamber_support((2,), nu))
    assert set(supp) <= {(2, 0), (1, 0)}
    assert supp[(2, 0)] == 1
    assert supp[(1, 0)] == -Fraction(2, 1)  # -nu1/nu0 with nu0 = 1


def test_inverse_pair_small_sweep():
    """sum_z departure_to_chamber(d,z) chamber_to_departure(z,d2) = 1(d=d2),
    exactly in rationals."""
    nu = (Fraction(3), Fraction(7), Fraction(2))
    points = list(chamber_points(0, 3, 3))
    for d in points:
        supp = departure_to_chamber_support(d, nu)
        for d2 in points:
            total = sum(v * chamber_to_departure(z, d2, nu) for z, v in supp)
            assert total == (1 if d == d2 else 0)


def test_queue_inverse_pair():
    nu = (Fraction(2), Fraction(3), Fraction(5))
    queues = list(itertools.product(range(3), repeat=2))
    for q in queues:
        supp = queue_to_chamber_support(q, nu)
        for q2 in queues:
            total = sum(v * chamber_to_queue(z, q2, nu) for z, v in supp)
            assert total == (1 if q == q2 else 0)


def test_cauchy_binet_exact():
    """sum over strictly decreasing tuples of det[xi_a(u_b)] det[psi_b(u_a)]
    equals det of the inner-product matrix, exactly."""
    rng = random.Random(5)
    for _ in range(10):
        n1 = rng.randint(2, 3)
        m = 6
        xi = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n1)]
        psi = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n1)]
        lhs = 0
        for u in itertools.combinations(range(m - 1, -1, -1), n1):
            a_det = linalg.det([[xi[a][u[b]] for b in range(n1)] for a in range(n1)])
            b_det = linalg.det([[psi[b][u[a]] for b in range(n1)] for a in range(n1)])
            lhs += a_det * b_det
        rhs = linalg.det(
            [
                [sum(xi[a][u] * psi[b][u] for u in range(m)) for b in range(n1)]
                for a in range(n1)
            ]
        )
        assert lhs == rhs


# ---------------------------------------------------------------------------
# noncrossing probability and truncation contracts


def test_noncrossing_trivial_cases():
    assert noncrossing_prob((0, 0), 0.0, (1, 2)) == (1.0, 0.0)
    assert noncrossing_prob((5,), 100.0, (3,)) == (1.0, 0.0)


def test_noncrossing_one_counter_checks_rates():
    # the rate count and signs are checked before the one-counter answer
    with pytest.raises(PreconditionError):
        noncrossing_prob((0,), 1.0, (1, 2, 3))
    with pytest.raises(PreconditionError):
        noncrossing_prob((0,), 1.0, (-1,))


def test_noncrossing_vs_killed_kernel_sum():
    # survival = sum over end points of the killed kernel; independent
    # evaluation routes (per-point determinants vs the subset recursion),
    # up to N=4 and from starts off the staircase x_k = N - k
    cases = [
        ((0, 0), (1.0, 2.0), 1.0),
        ((2, 1, 0), (1.0, 2.0, 3.0), 0.5),
        ((4, 2, 1, 0), (1.0, 2.0, 3.0, 1.5), 0.25),
        ((3, 3, 1, 1, 0), (0.6, 1.5, 0.4, 1.2, 0.8), 0.15),
    ]
    for x, nu, t in cases:
        kv = noncrossing_prob(x, t, nu, tol=1e-12)
        caps = [x[k] + poisson_cap(nu[k] * t, 1e-13)[0] + 2 for k in range(len(x))]
        brute = sum(
            killed_poisson_kernel(x, z2, t, nu)
            for z2 in ordered_points(x, caps).tolist()
        )
        assert abs(kv.value - brute) <= kv.abs_error + 1e-10


def test_noncrossing_decreasing_in_t():
    vals = [noncrossing_prob((0, 0), t, (1, 2), tol=1e-12).value for t in (0.5, 1, 2, 4)]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


def test_noncrossing_rejects_bad_input():
    with pytest.raises(PreconditionError):
        noncrossing_prob((0, 1), 1.0, (1, 2))
    with pytest.raises(PreconditionError):
        noncrossing_prob((1, 0), -1.0, (1, 2))
    with pytest.raises(PreconditionError):
        noncrossing_prob((1, 0, 0), 1.0, (1, 2))


# ---------------------------------------------------------------------------
# departure-vector bookkeeping


def test_queue_departure_round_trip():
    assert queue_to_departures((1, 1)) == (2, 1, 0)
    base = queue_to_departures((2, 0, 3))
    lifted = queue_to_departures((2, 0, 3), completed=4)
    assert lifted == tuple(v + 4 for v in base)
    rng = random.Random(1)
    for _ in range(20):
        q = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 4)))
        d = queue_to_departures(q)
        assert tuple(d[k] - d[k + 1] for k in range(len(q))) == q


def test_queue_departure_rejects_negative():
    with pytest.raises(PreconditionError):
        queue_to_departures((1, -1))
