"""Symmetric-function primitives: complete homogeneous and elementary
sums over index windows, Gelfand-Tsetlin patterns, and Schur evaluation
by two independent routes (pattern sum vs. ratio of alternants).

Everything here is generic over the scalar type: Fractions give exact
values, floats give the usual thing.  Conventions throughout:

    h_0 = e_0 = 1 on any alphabet (including the empty one),
    h_r = e_r = 0 for r < 0,
    e_r = 0 for r greater than the alphabet size.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import PreconditionError


def complete_homogeneous(r, alpha):
    """h_r(alpha): sum of all degree-r monomials in the given variables."""
    if r < 0:
        return 0
    table = _h_table(r, alpha)
    return table[r]


def elementary(r, alpha):
    """e_r(alpha): sum of squarefree degree-r monomials."""
    if r < 0 or r > len(alpha):
        return 0
    table = _e_table(r, alpha)
    return table[r]


def _h_table(rmax, alpha):
    # add one variable at a time: h_r <- h_r + a * h_{r-1} (new values)
    table = [1] + [0] * rmax
    for a in alpha:
        for r in range(1, rmax + 1):
            table[r] = table[r] + a * table[r - 1]
    return table


def _e_table(rmax, alpha):
    table = [1] + [0] * rmax
    for a in alpha:
        for r in range(min(rmax, len(alpha)), 0, -1):
            table[r] = table[r] + a * table[r - 1]
    return table


def window_h(r, i, j, alpha):
    """h_r over the window alpha[i+1..j] (empty when i == j)."""
    _check_window(i, j, alpha)
    if r < 0:
        return 0
    if i == j:
        return 1 if r == 0 else 0
    return complete_homogeneous(r, alpha[i + 1 : j + 1])


def window_e(r, i, j, alpha):
    """e_r over the window alpha[i+1..j] (empty when i == j)."""
    _check_window(i, j, alpha)
    if r < 0 or r > j - i:
        return 0
    if i == j:
        return 1 if r == 0 else 0
    return elementary(r, alpha[i + 1 : j + 1])


def window_h_table(rmax, i, j, alpha):
    """h_r over alpha[i+1..j] for r = 0..rmax, as a list."""
    _check_window(i, j, alpha)
    return _h_table(rmax, alpha[i + 1 : j + 1])


def _check_window(i, j, alpha):
    if not (0 <= i <= j <= len(alpha) - 1):
        raise PreconditionError(f"window ({i},{j}) out of range for {len(alpha)} variables")


def _pow(a, k):
    # int ** negative would silently go to float; promote to Fraction instead
    if k >= 0:
        return a**k
    if isinstance(a, int):
        a = Fraction(a)
    return a**k


# ---------------------------------------------------------------------------
# Gelfand-Tsetlin patterns


@dataclass(frozen=True)
class GTPattern:
    """Triangular array rows[0..N], row k holding k+1 weakly decreasing
    integers, with row k-1 interlacing row k:

        rows[k][i+1] <= rows[k-1][i] <= rows[k][i].

    rows[-1] is the shape; the tuple of final entries of each row is the
    left edge."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        for k, row in enumerate(rows):
            if len(row) != k + 1:
                raise PreconditionError(f"row {k} must have {k + 1} entries")
        for k in range(1, len(rows)):
            lo, hi = rows[k - 1], rows[k]
            for i in range(k):
                if not (hi[i + 1] <= lo[i] <= hi[i]):
                    raise PreconditionError(f"rows {k - 1},{k} do not interlace at {i}")

    @property
    def ledge(self):
        return tuple(row[-1] for row in self.rows)


def enumerate_gt(shape, ledge=None):
    """Yield every GTPattern with the given bottom row, optionally
    restricted to a prescribed left edge.  Streaming and duplicate-free;
    entry counts grow quickly with the shape, so callers should iterate.
    """
    shape = tuple(int(x) for x in shape)
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise PreconditionError(f"shape {shape} is not weakly decreasing")
    n = len(shape)
    if ledge is not None:
        ledge = tuple(int(x) for x in ledge)
        if len(ledge) != n:
            raise PreconditionError("left edge must have one entry per row")
        if ledge[-1] != shape[-1]:
            return

    def rec(stack):
        row = stack[-1]
        m = len(row) - 1
        if m == 0:
            yield GTPattern(tuple(reversed(stack)))
            return
        ranges = []
        feasible = True
        for i in range(m):
            lo, hi = row[i + 1], row[i]
            if ledge is not None and i == m - 1:
                want = ledge[m - 1]
                if not (lo <= want <= hi):
                    feasible = False
                    break
                lo = hi = want
            ranges.append(range(hi, lo - 1, -1))
        if not feasible:
            return
        for nxt in itertools.product(*ranges):
            yield from rec(stack + [nxt])

    yield from rec([shape])


def gt_weight(pattern, alpha):
    """Monomial weight of a pattern: alpha_0^{row-0 sum} times
    alpha_k^{(row k sum) - (row k-1 sum)} for k >= 1."""
    rows = pattern.rows
    if len(alpha) != len(rows):
        raise PreconditionError("need one variable per row")
    sums = [sum(r) for r in rows]
    w = _pow(alpha[0], sums[0])
    for k in range(1, len(rows)):
        w = w * _pow(alpha[k], sums[k] - sums[k - 1])
    return w


# ---------------------------------------------------------------------------
# Schur evaluation


class SchurEvaluator:
    """Evaluates Schur sums for one fixed alphabet, caching subshapes.

    The pattern sum is computed level by level through the interlacing
    recursion: the value at a shape equals the sum over rows interlacing
    it of the value one level down, times the new variable raised to the
    difference of row sums.  This visits exactly the monomials of the
    pattern sum, grouped by common prefixes.
    """

    def __init__(self, alpha):
        self.alpha = tuple(alpha)
        self._memo = {}

    def value(self, shape):
        shape = tuple(int(x) for x in shape)
        if len(shape) != len(self.alpha):
            raise PreconditionError("shape length must match alphabet size")
        if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
            raise PreconditionError(f"shape {shape} is not weakly decreasing")
        base = shape[-1]
        if base != 0:
            # factor the rectangular part so the recursion sees partitions
            shifted = tuple(x - base for x in shape)
            scale = 1
            for a in self.alpha:
                scale = scale * _pow(a, base)
            return scale * self._val(shifted)
        return self._val(shape)

    def _val(self, shape):
        memo = self._memo
        if shape in memo:
            return memo[shape]
        m = len(shape) - 1
        if m == 0:
            out = self.alpha[0] ** shape[0]
        else:
            a = self.alpha[m]
            total = sum(shape)
            out = 0
            for mu in _interlacing_rows(shape):
                out = out + self._val(mu) * a ** (total - sum(mu))
        memo[shape] = out
        return out


def _interlacing_rows(row):
    ranges = [range(row[i + 1], row[i] + 1) for i in range(len(row) - 1)]
    return itertools.product(*ranges)


def schur(shape, alpha, method="gt_sum"):
    """Schur evaluation s_shape(alpha).

    method "gt_sum" sums pattern weights (works for any rates, exact over
    Fractions); "determinant" uses the alternant ratio

        det[ alpha_j ** (shape_i - i + N) ] / prod_{i<j} (alpha_i - alpha_j)

    and requires pairwise distinct variables.  Shapes may have negative
    entries; the rectangular part is factored off first.
    """
    shape = tuple(int(x) for x in shape)
    alpha = tuple(alpha)
    if len(shape) != len(alpha):
        raise PreconditionError("shape length must match alphabet size")
    if method == "gt_sum":
        return SchurEvaluator(alpha).value(shape)
    if method != "determinant":
        raise PreconditionError(f"unknown method {method!r}")
    n = len(alpha)
    for i in range(n):
        for j in range(i + 1, n):
            if alpha[i] == alpha[j]:
                raise PreconditionError(
                    "determinant route needs distinct variables; use gt_sum"
                )
    base = shape[-1]
    scale = 1
    if base != 0:
        for a in alpha:
            scale = scale * _pow(a, base)
        shape = tuple(x - base for x in shape)
    mat = [[alpha[j] ** (shape[i] - i + n - 1) for j in range(n)] for i in range(n)]
    num = linalg.det(mat)
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            den = den * (alpha[i] - alpha[j])
    if isinstance(num, int):
        num = Fraction(num)
    return scale * (num / den)
