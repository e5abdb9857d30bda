"""Small dense determinants over exact and inexact scalars.

Matrices here are tiny (at most (N+1) x (N+1) for N <= 6), so plain
Gaussian elimination is all we need.  Exact entries (int / Fraction) get
exact division; floats and mpmath values get partial pivoting.
"""

from fractions import Fraction


def det(matrix):
    """Determinant of a square list-of-lists (or ndarray) of scalars."""
    n = len(matrix)
    if n == 0:
        return 1
    rows = [list(r) for r in matrix]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    exact = all(isinstance(x, (int, Fraction)) for r in rows for x in r)
    if exact:
        rows = [[Fraction(x) for x in r] for r in rows]
    sign = 1
    for k in range(n):
        # choose a pivot: first nonzero for exact types, largest |.| otherwise
        if exact:
            p = next((i for i in range(k, n) if rows[i][k] != 0), None)
        else:
            p = max(range(k, n), key=lambda i: abs(rows[i][k]))
            if rows[p][k] == 0:
                p = None
        if p is None:
            return Fraction(0) if exact else 0.0 * rows[k][k]
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


def det_int(matrix):
    """Determinant of a square list-of-lists of Python ints.

    Bareiss elimination: every intermediate value stays an integer, so
    this is much faster than the Fraction path when the exact identity
    sweeps evaluate hundreds of thousands of small determinants."""
    m = [list(r) for r in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            p = next((i for i in range(k + 1, n) if m[i][k]), None)
            if p is None:
                return 0
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
    return sign * m[n - 1][n - 1]

