"""Truncated sums over the ordered integer lattice.

Internal engines shared by the kernel and queue-probability modules:

* chain sums: sum over strictly decreasing integer chains of a product
  of per-level functions, by prefix sums (used for survival
  probabilities, where direct enumeration would be quadratic or worse);
* batched enumeration of weakly decreasing tuples inside a box, with
  determinant stacks evaluated in log-magnitude/sign form so that large
  kernel weights cannot overflow;
* box caps that certify a tail bound before any sum is taken.

Nothing in here is part of the public interface.
"""

import itertools
import math

import numpy as np

from .errors import ToleranceNotAchieved
from .numerics import MAX_BOX_POINTS, MAX_CAP, poisson_cap, poisson_log_cap, polynomial_absorb_constant


def ordered_tuples(lo, hi):
    """Yield weakly decreasing integer tuples z with lo[k] <= z[k] <= hi[k].

    lo and hi are per-coordinate bounds; the weak ordering constraint is
    applied on top of them.  Yields in lexicographic order.
    """
    n = len(lo)

    def rec(prefix, k):
        if k == n:
            yield tuple(prefix)
            return
        top = hi[k] if not prefix else min(hi[k], prefix[-1])
        for v in range(top, lo[k] - 1, -1):
            prefix.append(v)
            yield from rec(prefix, k + 1)
            prefix.pop()

    yield from rec([], 0)


def count_ordered_tuples(lo, hi):
    """Number of tuples ordered_tuples(lo, hi) would yield."""
    n = len(lo)
    span_lo = min(lo)
    span = max(hi) - span_lo + 1
    if span <= 0:
        return 0
    # counts[v] = number of valid suffixes starting with value v at level k
    counts = np.zeros(span, dtype=float)
    counts[lo[n - 1] - span_lo : hi[n - 1] - span_lo + 1] = 1.0
    for k in range(n - 2, -1, -1):
        suffix = np.cumsum(counts)
        counts = np.zeros(span)
        a, b = lo[k] - span_lo, hi[k] - span_lo
        counts[a : b + 1] = suffix[a : b + 1]
    return int(round(counts.sum()))


def chain_sum(tables, numerics):
    """sum over y_0 > y_1 > ... > y_m of prod_i tables[i][y_i].

    tables[i] is a 1-D array over a common integer grid.  Works for both
    float64 and object (mpmath) arrays.
    """
    arr = tables[-1]
    for i in range(len(tables) - 2, -1, -1):
        c = np.cumsum(arr)
        shifted = np.empty_like(c)
        shifted[0] = numerics.scalar(0)
        shifted[1:] = c[:-1]
        arr = tables[i] * shifted
    return arr.sum()


def survival_probability(x, t, nu, tol, nm):
    """P(independent Poisson particles started at x, with rates nu, keep
    their strict ordering x_0 - 0 > x_1 - 1 > ... throughout [0, t]).

    Returns (value, tail_bound, caps).  The determinant representation of
    the killed kernel is expanded over column assignments; each term is a
    chain sum weighted by kappa_tau = prod_i nu_i^(a_tau(i) - a_i) with
    a_j = x_j - j.  Truncation: coordinate i is capped at x_i +
    poisson_cap(nu_i t, tol/(N+1)), and the neglected mass is at most the
    (float) sum of those tails, which sits just below tol.
    """
    n1 = len(nu)
    mus = [nm.scalar(r) * nm.scalar(t) for r in nu]
    caps, tail = [], 0.0
    for i in range(n1):
        cap, tl = poisson_cap(mus[i], tol / n1)
        caps.append(x[i] + cap)
        tail += tl

    a = [x[j] - j for j in range(n1)]
    ylo, yhi = min(a), max(caps[i] - i for i in range(n1))
    mlo, mhi = ylo - max(a), yhi - min(a)

    pmf = [nm.poisson_pmf_table(mus[i], mlo, mhi) for i in range(n1)]
    grid = yhi - ylo + 1
    tables = [[None] * n1 for _ in range(n1)]
    for i in range(n1):
        top = caps[i] - i
        for j in range(n1):
            off = (ylo - a[j]) - mlo
            sl = pmf[i][off : off + grid]
            if top < yhi:
                sl = sl.copy()
                sl[top - ylo + 1 :] = nm.scalar(0)
            tables[i][j] = sl

    rate_scalars = [nm.scalar(r) for r in nu]
    total = nm.scalar(0)
    for tau in itertools.permutations(range(n1)):
        sgn = _perm_sign(tau)
        # constant from pulling the rate powers out of the determinant's
        # column permutation: prod_i nu_i^(a_tau(i) - a_i)
        kappa = nm.scalar(1)
        for i in range(n1):
            shift = a[tau[i]] - a[i]
            if shift:
                kappa = kappa * rate_scalars[i] ** shift
        total = total + sgn * kappa * chain_sum([tables[i][tau[i]] for i in range(n1)], nm)
    return total, tail, caps


def _perm_sign(tau):
    sgn, seen = 1, [False] * len(tau)
    for s in range(len(tau)):
        if seen[s]:
            continue
        ln = 0
        j = s
        while not seen[j]:
            seen[j] = True
            j = tau[j]
            ln += 1
        if ln % 2 == 0:
            sgn = -sgn
    return sgn


class DetStackAccumulator:
    """Accumulates sum over lattice points of products of determinant
    factors, each factor supplied as a row-scaled matrix stack.

    Each factor's determinant is computed after dividing every row by its
    max-abs entry; the log of the scale factors is added back, so values
    like kernel weights of size 1e200 never materialize.
    """

    @staticmethod
    def logdet(stack):
        """(sign, log|det|) per slice of a (m, n, n) float stack."""
        a = np.asarray(stack, dtype=float)
        scale = np.abs(a).max(axis=2)
        ok = scale > 0
        safe = np.where(ok, scale, 1.0)
        a = a / safe[:, :, None]
        if a.shape[1] == 1:
            d = a[:, 0, 0]
        else:
            d = np.linalg.det(a)
        # rows that were identically zero force det 0
        d = np.where(ok.all(axis=1), d, 0.0)
        sign = np.sign(d)
        with np.errstate(divide="ignore"):
            logmag = np.where(sign != 0, np.log(np.abs(np.where(sign != 0, d, 1.0))), -np.inf)
        logmag = logmag + np.where(ok, np.log(safe), 0.0).sum(axis=1)
        return sign, logmag

    @staticmethod
    def combine(parts):
        """Given [(sign, logmag), ...], return the per-point products."""
        sign = parts[0][0].copy()
        logmag = parts[0][1].copy()
        for s, lm in parts[1:]:
            sign = sign * s
            logmag = logmag + lm
        out = np.zeros_like(logmag)
        nz = sign != 0
        out[nz] = sign[nz] * np.exp(logmag[nz])
        return out


def grow_weighted_box(start_lo, start_hi, t, nu, tol, growth, poly_degree, poly_shift, scale):
    """Choose per-coordinate caps so that the out-of-box part of
    sum_z P(z) * W(z) is provably below tol, where P factors into
    independent Poisson(nu_k t) increments from starts in
    [start_lo, start_hi] and |W(z)| <= scale * prod_k binom(m_k +
    poly_shift + poly_degree, poly_degree) * growth_k^m_k with m_k the
    increment.

    The polynomial factor is absorbed into a slightly larger tilt, and
    the tilted tail is exact: sum_{m>M} pmf(mu,m) g^m =
    e^{mu(g-1)} P(Poisson(mu g) > M).  Coordinate k gets tol/(N+1),
    divided by scale and the tilted total mass of the other coordinates,
    and the smallest cap that meets it.  Returns (caps, bound).
    """
    n1 = len(nu)
    delta = 0.25
    absorb = polynomial_absorb_constant(poly_degree, delta, poly_shift)
    mus = [float(r) * float(t) for r in nu]
    gts = [max(1.0, g) * (1.0 + delta) for g in growth]
    # log of scale times the tilted total mass of every coordinate
    log_mass = math.log(scale) + sum(math.log(absorb) + mus[k] * (gts[k] - 1.0) for k in range(n1))
    caps, bound = [], 0.0
    for k in range(n1):
        m, log_sf = poisson_log_cap(mus[k] * gts[k], math.log(tol / n1) - log_mass, "weighted box cap")
        caps.append(start_hi[k] + m)
        bound += math.exp(log_mass + log_sf)
    if max(caps) - min(start_lo) > MAX_CAP:
        raise ToleranceNotAchieved(tol, bound, "weighted box cap limit")
    if count_ordered_tuples(start_lo, caps) > MAX_BOX_POINTS:
        raise ToleranceNotAchieved(tol, bound, "weighted box point limit")
    return caps, bound
