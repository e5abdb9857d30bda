"""Symmetric-function layer: exact values against brute-force monomial
enumeration, the window conventions, GT patterns, and the two Schur
routes.  Everything here runs over Fractions; no float tolerances."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemq.errors import PreconditionError
from tandemq.symfunc import (
    GTPattern,
    complete_homogeneous,
    elementary,
    enumerate_gt,
    gt_weight,
    schur,
    window_e,
    window_h,
    window_h_table,
)


def brute_h(r, alpha):
    if r < 0:
        return 0
    return sum(
        Fraction(1) * a for comb in itertools.combinations_with_replacement(alpha, r)
        for a in [_prod(comb)]
    ) if r else 1


def brute_e(r, alpha):
    if r < 0 or r > len(alpha):
        return 0
    return sum(_prod(comb) for comb in itertools.combinations(alpha, r)) if r else 1


def _prod(vals):
    out = Fraction(1)
    for v in vals:
        out *= v
    return out


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def test_h_examples():
    assert complete_homogeneous(0, (5, 7)) == 1
    assert complete_homogeneous(-2, (1, 2, 3)) == 0
    assert complete_homogeneous(2, (1, 2)) == 7


def test_e_examples():
    assert elementary(2, (1, 2, 3)) == 11
    assert elementary(4, (1, 2, 3)) == 0
    assert elementary(0, ()) == 1


@given(st.integers(0, 6), st.lists(small_fractions, min_size=0, max_size=5))
@settings(deadline=None)
def test_h_matches_monomial_sum(r, alpha):
    assert complete_homogeneous(r, alpha) == brute_h(r, tuple(alpha))


@given(st.integers(0, 6), st.lists(small_fractions, min_size=0, max_size=5))
@settings(deadline=None)
def test_e_matches_monomial_sum(r, alpha):
    assert elementary(r, alpha) == brute_e(r, tuple(alpha))


def test_window_examples():
    assert window_h(1, 0, 2, (9, 2, 3)) == 5
    assert window_h(0, 1, 1, (9, 2, 3)) == 1
    assert window_h(2, 0, 1, (9, 2)) == 4
    assert window_e(2, 0, 2, (9, 2, 3)) == 6
    assert window_e(-1, 0, 2, (9, 2, 3)) == 0
    assert window_e(1, 2, 2, (1, 2, 3)) == 0


def test_window_is_restriction():
    alpha = (Fraction(3, 2), Fraction(5), Fraction(7, 3), Fraction(2))
    for i in range(4):
        for j in range(i, 4):
            sub = alpha[i + 1 : j + 1]
            for r in range(-1, 5):
                assert window_h(r, i, j, alpha) == brute_h(r, sub)
                assert window_e(r, i, j, alpha) == brute_e(r, sub)


def test_window_tables_agree_pointwise():
    alpha = (2, 3, 5, 7)
    ht = window_h_table(6, 1, 3, alpha)
    for r in range(7):
        assert ht[r] == window_h(r, 1, 3, alpha)


def test_window_index_order_violation():
    with pytest.raises(PreconditionError):
        window_h(0, 2, 1, (1, 2, 3))
    with pytest.raises(PreconditionError):
        window_e(0, 0, 5, (1, 2, 3))


@given(st.integers(1, 8), st.lists(small_fractions.filter(lambda x: x != 0), min_size=1, max_size=5))
@settings(deadline=None)
def test_alternating_eh_identity(n, alpha):
    # sum_r (-1)^r e_r h_{n-r} = 0 for every n >= 1
    total = sum(
        (-1) ** r * elementary(r, alpha) * complete_homogeneous(n - r, alpha)
        for r in range(n + 1)
    )
    assert total == 0


def test_window_convolution_identity():
    """sum_r (-1)^r e^(iN)_r h^(jN)_{n-r} collapses to a single window:
    h^(ji)_n when j <= i, (-1)^n e^(ij)_n when i <= j."""
    rng = random.Random(7)
    for _ in range(20):
        n1 = rng.randint(2, 5)
        alpha = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n1))
        last = n1 - 1
        for i in range(n1):
            for j in range(n1):
                for n in range(0, 9):
                    lhs = sum(
                        (-1) ** r
                        * window_e(r, i, last, alpha)
                        * window_h(n - r, j, last, alpha)
                        for r in range(n + 1)
                    )
                    if j <= i:
                        assert lhs == window_h(n, j, i, alpha)
                    if i <= j:
                        assert lhs == (-1) ** n * window_e(n, i, j, alpha)


# ---------------------------------------------------------------------------
# GT patterns


def brute_patterns(shape):
    """All triangular interlacing arrays with the given bottom row, by
    direct product enumeration; independent of the library recursion."""
    n = len(shape)
    lo, hi = min(shape), max(shape)
    rows_by_level = [
        [r for r in itertools.product(range(hi, lo - 1, -1), repeat=k + 1)
         if all(r[i] >= r[i + 1] for i in range(k))]
        for k in range(n)
    ]
    out = []
    for combo in itertools.product(*rows_by_level[:-1]):
        rows = list(combo) + [tuple(shape)]
        ok = all(
            rows[k][i + 1] <= rows[k - 1][i] <= rows[k][i]
            for k in range(1, n)
            for i in range(k)
        )
        if ok:
            out.append(tuple(rows))
    return set(out)


def test_enumerate_gt_counts():
    assert sum(1 for _ in enumerate_gt((1, 0))) == 2
    assert sum(1 for _ in enumerate_gt((2, 1, 0))) == 8


def test_enumerate_gt_matches_brute_force():
    for shape in [(1, 0), (2, 0), (2, 1, 0), (3, 1, 0), (2, 2, 1)]:
        got = {p.rows for p in enumerate_gt(shape)}
        assert got == brute_patterns(shape)


def test_enumerate_gt_ledge_filter():
    assert list(enumerate_gt((1, 1), ledge=(0, 1))) == []
    pats = list(enumerate_gt((2, 1, 0), ledge=(1, 1, 0)))
    assert pats and all(p.ledge == (1, 1, 0) for p in pats)
    full = {p.rows for p in enumerate_gt((2, 1, 0))}
    by_ledge = {
        p.rows
        for led in itertools.product(range(3), repeat=2)
        for p in enumerate_gt((2, 1, 0), ledge=led + (0,))
    }
    assert by_ledge == full


def test_gt_pattern_validation():
    GTPattern(((1,), (2, 0)))
    with pytest.raises(PreconditionError):
        GTPattern(((3,), (2, 0)))
    with pytest.raises(PreconditionError):
        GTPattern(((1, 1), (2, 0)))


def test_gt_weight_examples():
    a, b = Fraction(5, 3), Fraction(7, 2)
    zero = GTPattern(((0,), (0, 0)))
    assert gt_weight(zero, (a, b)) == 1
    top1 = GTPattern(((1,), (1, 0)))
    top0 = GTPattern(((0,), (1, 0)))
    assert gt_weight(top1, (a, b)) == a
    assert gt_weight(top0, (a, b)) == b


# ---------------------------------------------------------------------------
# Schur routes


def test_schur_examples():
    a, b = Fraction(2, 3), Fraction(5)
    assert schur((1, 0), (a, b)) == a + b
    assert schur((2, 1, 0), (1, 1, 1)) == 8
    assert schur((0, 0, 0, 0), (a, b, 1, 2)) == 1


def test_schur_two_routes_exact():
    rng = random.Random(11)
    for _ in range(15):
        n1 = rng.randint(2, 4)
        alpha = []
        while len(alpha) < n1:
            c = Fraction(rng.randint(1, 12), rng.randint(1, 5))
            if c not in alpha:
                alpha.append(c)
        shape = sorted((rng.randint(-3, 6) for _ in range(n1)), reverse=True)
        assert schur(shape, tuple(alpha), "gt_sum") == schur(shape, tuple(alpha), "determinant")


def test_schur_negative_base_is_shifted():
    alpha = (Fraction(3), Fraction(2), Fraction(7, 2))
    shape = (1, 0, -2)
    scale = _prod(alpha) ** -2
    assert schur(shape, alpha) == scale * schur((3, 2, 0), alpha)


@given(
    st.lists(st.integers(0, 4), min_size=2, max_size=4),
    st.data(),
)
@settings(deadline=None, max_examples=40)
def test_schur_symmetric(parts, data):
    shape = tuple(sorted(parts, reverse=True))
    alpha = tuple(
        data.draw(st.fractions(min_value=1, max_value=6, max_denominator=3))
        for _ in shape
    )
    base = schur(shape, alpha)
    for perm in itertools.permutations(alpha):
        assert schur(shape, perm) == base


def test_schur_counts_patterns_at_ones():
    for shape in [(1, 0), (2, 1, 0), (3, 1), (2, 2, 0)]:
        ones = (1,) * len(shape)
        assert schur(shape, ones) == sum(1 for _ in enumerate_gt(shape))


def test_schur_determinant_needs_distinct():
    with pytest.raises(PreconditionError, match="gt_sum"):
        schur((1, 0), (2, 2), "determinant")


def test_schur_rejects_bad_shape():
    with pytest.raises(PreconditionError):
        schur((0, 1), (1, 2))
    with pytest.raises(PreconditionError):
        schur((1, 0), (1, 2, 3))
