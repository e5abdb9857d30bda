"""Symmetric-function layer: exact values against brute-force monomial
enumeration, the window conventions, the Gelfand-Tsetlin pattern sum
against brute-force pattern enumeration, and schur against its
bialternant (queueprobs.chamber_harmonic).  Everything here runs over
Fractions; no float tolerances."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemq.errors import PreconditionError
from tandemq.queueprobs import chamber_harmonic
from tandemq.symfunc import (
    complete_homogeneous,
    elementary,
    gt_sum,
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
# Gelfand-Tsetlin pattern sums


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


def brute_gt_sum(shape, alpha, ledge=None):
    """The pattern sum, one brute-force pattern at a time."""
    total = Fraction(0)
    for rows in brute_patterns(shape):
        if ledge is not None and tuple(r[-1] for r in rows) != tuple(ledge):
            continue
        sums = [sum(r) for r in rows]
        w = Fraction(alpha[0]) ** sums[0]
        for k in range(1, len(rows)):
            w *= Fraction(alpha[k]) ** (sums[k] - sums[k - 1])
        total += w
    return total


GT_SHAPES = [(1, 0), (2, 0), (2, 1, 0), (3, 1, 0), (2, 2, 1), (1, -1, -2), (3, 3, 3), (2, 0, -1, -1)]


def test_brute_pattern_counts():
    assert len(brute_patterns((1, 0))) == 2
    assert len(brute_patterns((2, 1, 0))) == 8


def test_gt_sum_matches_brute_force():
    rng = random.Random(5)
    for shape in GT_SHAPES:
        alpha = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in shape)
        assert gt_sum(shape, alpha) == brute_gt_sum(shape, alpha)


def test_gt_sum_ledge_matches_brute_force():
    rng = random.Random(6)
    for shape in GT_SHAPES:
        alpha = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in shape)
        edges = {tuple(r[-1] for r in rows) for rows in brute_patterns(shape)}
        # every left edge that occurs, and one that does not
        edges.add((shape[0] + 1,) + tuple(shape[1:]))
        for ledge in edges:
            assert gt_sum(shape, alpha, ledge) == brute_gt_sum(shape, alpha, ledge)
        # the left edges partition the patterns
        assert sum(gt_sum(shape, alpha, e) for e in edges) == gt_sum(shape, alpha)


def test_gt_sum_examples():
    a, b = Fraction(5, 3), Fraction(7, 2)
    assert gt_sum((0, 0), (a, b)) == 1
    assert gt_sum((1, 0), (a, b), ledge=(1, 0)) == a
    assert gt_sum((1, 0), (a, b), ledge=(0, 0)) == b
    assert gt_sum((1, 1), (a, b), ledge=(0, 1)) == 0


def test_gt_sum_rejects_bad_input():
    with pytest.raises(PreconditionError):
        gt_sum((0, 1), (1, 2))
    with pytest.raises(PreconditionError):
        gt_sum((1, 0), (1, 2, 3))
    with pytest.raises(PreconditionError):
        gt_sum((1, 0), (1, 2), ledge=(0,))


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
        # the bialternant: omega(shape) prod_k alpha_k^shape_k / omega(0)
        ratio = chamber_harmonic(alpha, shape) / chamber_harmonic(alpha)
        assert schur(shape, alpha) == ratio * math.prod(a**k for a, k in zip(alpha, shape))


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
        assert schur(shape, ones) == len(brute_patterns(shape))


def test_schur_at_ones_is_weyl_dimension():
    # prod_{i<j} (shape_i - shape_j + j - i)/(j - i), Macdonald I.3
    shapes = [(1, 0), (2, 1, 0), (2, 2, 0), (3, 1), (2, 1, 1, 0), (4, 2, 0), (3, 2, 1, 0), (5, 3)]
    for shape in shapes + [(6, 4, 1, 0, 0)]:
        weyl = math.prod(
            Fraction(shape[i] - shape[j] + j - i, j - i)
            for i, j in itertools.combinations(range(len(shape)), 2)
        )
        assert schur(shape, (1,) * len(shape)) == weyl


def test_schur_rejects_bad_shape():
    with pytest.raises(PreconditionError):
        schur((0, 1), (1, 2))
    with pytest.raises(PreconditionError):
        schur((1, 0), (1, 2, 3))
