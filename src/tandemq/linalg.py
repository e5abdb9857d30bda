"""Small dense determinants over exact and inexact scalars.

Matrices here are tiny (at most (N+1) x (N+1) for N <= 6).  Exact
entries (int / Fraction) go through fraction-free Bareiss elimination,
so an int matrix gives an int; floats and mpmath values get Gaussian
elimination with partial pivoting.
"""

import math
from fractions import Fraction


def det(matrix):
    """Determinant of a square list-of-lists (or ndarray) of scalars."""
    n = len(matrix)
    if n == 0:
        return 1
    rows = [list(r) for r in matrix]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if all(isinstance(x, (int, Fraction)) for r in rows for x in r):
        return _bareiss(rows)
    sign = 1
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        if rows[p][k] == 0:
            return 0.0 * rows[k][k]
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        piv = rows[k][k]
        for i in range(k + 1, n):
            if rows[i][k] == 0:
                continue
            f = rows[i][k] / piv
            for j in range(k + 1, n):
                rows[i][j] = rows[i][j] - f * rows[k][j]
            rows[i][k] = 0 * rows[i][k]
    out = sign
    for k in range(n):
        out = out * rows[k][k]
    return out


def _bareiss(m):
    """Bareiss elimination on rows of ints and Fractions, in place: a row
    holding Fractions is first multiplied by the lcm of its denominators,
    every intermediate value stays an integer, and the result is divided
    back (a Fraction if any entry was one)."""
    n = len(m)
    scale = 1
    fractions = False
    for i, row in enumerate(m):
        if any(isinstance(x, Fraction) for x in row):
            den = math.lcm(*(x.denominator for x in row))
            m[i] = [x.numerator * (den // x.denominator) for x in row]
            scale *= den
            fractions = True
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            p = next((i for i in range(k + 1, n) if m[i][k]), None)
            if p is None:
                return Fraction(0) if fractions else 0
            m[k], m[p] = m[p], m[k]
            sign = -sign
        pk = m[k]
        for i in range(k + 1, n):
            mi = m[i]
            f = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pk[k] - f * pk[j]) // prev
            mi[k] = 0
        prev = pk[k]
    out = sign * m[n - 1][n - 1]
    return Fraction(out, scale) if fractions else out
