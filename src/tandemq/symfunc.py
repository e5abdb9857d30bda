"""Symmetric-function primitives: complete homogeneous and elementary
sums over index windows, and the Gelfand-Tsetlin pattern sum gt_sum,
which is schur and the oracle of kernels.chamber_to_departure.  The
bialternant form of schur is queueprobs.chamber_harmonic; the verify
check schur-two-routes compares the two.

Everything here is generic over the scalar type: Fractions give exact
values, floats give the usual thing.  Conventions throughout:

    h_0 = e_0 = 1 on any alphabet (including the empty one),
    h_r = e_r = 0 for r < 0,
    e_r = 0 for r greater than the alphabet size.
"""

import functools
import itertools
from fractions import Fraction

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
    return complete_homogeneous(r, alpha[i + 1 : j + 1])


def window_e(r, i, j, alpha):
    """e_r over the window alpha[i+1..j] (empty when i == j)."""
    _check_window(i, j, alpha)
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
# Gelfand-Tsetlin pattern sums


def gt_sum(shape, alpha, ledge=None):
    """Sum over the Gelfand-Tsetlin patterns with bottom row shape of

        alpha_0^|row 0| prod_{k>=1} alpha_k^(|row k| - |row k-1|),

    a pattern being rows 0..N, row k holding k+1 integers, with row k-1
    interlacing row k: row_k[i+1] <= row_(k-1)[i] <= row_k[i].  With
    ledge, a pattern whose row m does not end in ledge[m] counts as 0.

    One memoized recursion: the sum at a row is the sum over the rows
    interlacing it of the sum one level down, times the row's variable
    raised to the difference of the row sums.  This visits exactly the
    monomials of the pattern sum, grouped by common prefixes.  Entries
    may be negative; exact over ints and Fractions."""
    shape = tuple(int(x) for x in shape)
    alpha = tuple(alpha)
    if len(shape) != len(alpha):
        raise PreconditionError("shape length must match alphabet size")
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise PreconditionError(f"shape {shape} is not weakly decreasing")
    if ledge is not None:
        ledge = tuple(int(x) for x in ledge)
        if len(ledge) != len(shape):
            raise PreconditionError("left edge must have one entry per row")

    @functools.lru_cache(maxsize=None)
    def rec(row):
        m = len(row) - 1
        if ledge is not None and row[-1] != ledge[m]:
            return 0
        if m == 0:
            return _pow(alpha[0], row[0])
        total = sum(row)
        out = 0
        for mu in itertools.product(*(range(row[i + 1], row[i] + 1) for i in range(m))):
            out = out + rec(mu) * _pow(alpha[m], total - sum(mu))
        return out

    return rec(shape)


def schur(shape, alpha):
    """Schur evaluation s_shape(alpha) as the pattern sum gt_sum(shape,
    alpha): any variables, coincident ones too, exact over Fractions;
    shapes may have negative entries.  Its bialternant form,

        s_shape(alpha) = omega_alpha(shape) prod_k alpha_k^shape_k / omega_alpha(0)

    with omega = queueprobs.chamber_harmonic, needs distinct variables."""
    return gt_sum(shape, alpha)
