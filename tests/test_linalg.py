"""linalg.det against the Leibniz expansion: exact matrices through
Bareiss elimination (int in, int out), floats through partial
pivoting, with zero pivots that force row swaps."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from tandemq import linalg


def leibniz(mat):
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(mat[i][perm[i]] for i in range(n))
    return total


def random_matrix(rng, n, draw):
    mat = [[draw() for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.5:
        # a zero leading pivot: elimination must swap rows
        mat[0][0] = 0 * mat[0][0]
    if n > 2 and rng.random() < 0.3:
        # a zero column below the diagonal, or a repeated row
        for i in range(1, n):
            mat[i][1] = 0 * mat[i][1]
    if n > 1 and rng.random() < 0.2:
        mat[-1] = list(mat[0])
    return mat


def test_det_int_matrices_stay_int():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 5)
        mat = random_matrix(rng, n, lambda: rng.randint(-4, 4))
        got = linalg.det(mat)
        assert type(got) is int
        assert got == leibniz(mat)


def test_det_fraction_matrices_exact():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 5)
        mat = random_matrix(rng, n, lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
        if n > 1 and rng.random() < 0.3:
            # a row of ints beside rows of Fractions
            mat[0] = [int(x) for x in mat[0]]
        got = linalg.det(mat)
        assert isinstance(got, Fraction)
        assert got == leibniz(mat)


def test_det_float_matrices():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 5)
        mat = random_matrix(rng, n, lambda: rng.uniform(-3.0, 3.0))
        want = leibniz(mat)
        assert linalg.det(mat) == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_det_edge_cases():
    assert linalg.det([]) == 1
    assert linalg.det([[0, 1], [1, 0]]) == -1
    assert linalg.det([[0, 0], [1, 2]]) == 0
    assert linalg.det([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)
    with pytest.raises(ValueError):
        linalg.det([[1, 2]])
