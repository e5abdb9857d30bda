"""The precision contract of the public evaluations: precision="high"
results do not depend on the caller's mpmath or decimal context, agree
with double precision within their bounds and with 70-digit references
within 1e-48, and double precision returns plain floats."""

import decimal

import mpmath
import pytest

from tandemq import (
    departure_kernel,
    departure_kernel_via_intertwining,
    killed_poisson_kernel,
    kt00_direct,
    kt00_gap,
    kt00_gap_relative,
    kt00_stationary,
    kt_general,
    mm1_kt,
    noncrossing_prob,
    numerics,
    uniformization_kt,
)

# name -> call taking the precision keyword; small N and t
EVALUATIONS = {
    "kt00_direct": lambda p: kt00_direct(1.0, (1, 2, 4), tol=1e-12, precision=p),
    "kt00_gap": lambda p: kt00_gap(1.5, (1, 4, 2), tol=1e-14, precision=p),
    "kt00_stationary": lambda p: kt00_stationary(1.0, (1, 2, 4), tol=1e-12, precision=p),
    "kt00_gap_relative": lambda p: kt00_gap_relative(2.0, (1, 4, 2), precision=p),
    "kt_general": lambda p: kt_general((1, 0), (0, 1), 1.0, (1, 2, 4), tol=1e-12, precision=p),
    "noncrossing_prob": lambda p: noncrossing_prob((1, 0), 1.0, (1, 2), tol=1e-14, precision=p),
    "departure_kernel": lambda p: departure_kernel((1, 0), (2, 1), 1.0, (1, 2), precision=p),
}


@pytest.mark.parametrize("name", sorted(EVALUATIONS))
def test_high_precision_ignores_caller_context(name):
    call = EVALUATIONS[name]
    with mpmath.workdps(15):
        low_ctx = call("high")
    with mpmath.workdps(80):
        high_ctx = call("high")
    assert low_ctx == high_ctx
    for prec in (5, 90):
        with decimal.localcontext(decimal.Context(prec=prec)):
            assert call("high") == low_ctx
    double = call("double")
    if isinstance(double, tuple):
        hi_val, hi_err = low_ctx
        assert isinstance(hi_val, mpmath.mpf) and type(hi_err) is float
        bound = double.abs_error + hi_err + 1e-12
        assert abs(double.value - float(hi_val)) <= bound
    else:
        assert isinstance(low_ctx, mpmath.mpf)
        assert abs(double - float(low_ctx)) <= 1e-12


def test_high_precision_matches_wider_reference(monkeypatch):
    # the same evaluation with every operation at 60 digits
    got = kt00_gap(60.0, (1, 4, 2), tol=1e-40, precision="high")
    monkeypatch.setattr(numerics, "HIGH_DPS", 60)
    with mpmath.workdps(60):
        ref = kt00_gap(60.0, (1, 4, 2), tol=1e-40, precision="high")
    assert abs(got.value - ref.value) <= 1e-40 * ref.value
    # the patched HIGH_DPS widened the sums, so the round-off differs
    assert got.value != ref.value


# Values recorded with numerics.HIGH_DPS = 70 inside mpmath.workdps(70),
# with the survival sums on mpmath, before they moved to decimal: at the
# same caps the default precision must reproduce them within 1e-48.
PINNED_70 = [
    (lambda: kt00_gap(60, (1, 4, 2), tol=1e-40, precision="high"),
     "5.301178045552081208418924301614271570493477597952945123554556605626113e-8"),
    (lambda: kt00_gap(7, (1, 4, 2, 3), tol=1e-30, precision="high"),
     "0.007439778852209196669242576447472784034376791884917406812335305986590142"),
    (lambda: kt00_direct(5, (1, 4, 2, 3), tol=1e-30, precision="high"),
     "0.2660052078372586137050200815608437817301380167795734554610092450022271"),
    (lambda: noncrossing_prob((3, 1, 0), 2, (1, 2, 3), tol=1e-30, precision="high"),
     "0.07791186058177343751729635271357417886402500709315380838959510880262104"),
]


@pytest.mark.parametrize("case", range(len(PINNED_70)))
def test_high_precision_matches_pinned_70_digits(case):
    call, want = PINNED_70[case]
    got = call().value
    assert isinstance(got, mpmath.mpf)
    with mpmath.workdps(80):
        ref = mpmath.mpf(want)
        assert abs(got - ref) <= 1e-48 * ref


def test_double_precision_returns_floats():
    values = [call("double") for call in EVALUATIONS.values()]
    values += [
        mm1_kt(1, 2, 1.0, (1, 2)),
        uniformization_kt((1, 0), (0, 1), 1.0, (1, 2, 4), 30, tol=1e-9),
        departure_kernel_via_intertwining((1, 0), (2, 1), 1.0, (1, 2), tol=1e-9),
        noncrossing_prob((0, 0), 0.0, (1, 2)),
        kt00_gap(0.0, (1, 2, 4)),
        kt_general((0, 0), (3, 0), 1e-3, (1, 2, 4)),
    ]
    for kv in values:
        if isinstance(kv, tuple):
            assert type(kv.value) is float and type(kv.abs_error) is float, kv
        else:
            assert type(kv) is float, kv
    for v in (
        killed_poisson_kernel((1, 0), (2, 1), 1.0, (1, 2)),
        departure_kernel((1, 0), (1, 0), 0.0, (1, 2)),
    ):
        assert type(v) is float, v
