"""Truncated sums over the ordered integer lattice.

Internal engines shared by the kernel and queue-probability modules:

* survival sums: noncrossing probabilities, and signed sums of them
  over arrangements of the rates on the levels, as one subset recursion
  over the rates and determinant columns placed so far, each state one
  prefix-summed array over the truncation range; the exact arrangement
  weights are cached per rate vector, so a series over t computes its
  Fraction arithmetic once;
* the weakly decreasing integer points of a box, enumerated as one
  numpy array;
* box caps that certify a tail bound before any sum is taken.

Nothing in here is part of the public interface.
"""

import functools
import math
from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ToleranceNotAchieved
from .numerics import MAX_BOX_POINTS, MAX_CAP, poisson_cap, poisson_log_cap, poisson_tilt
from .rates import rate_ratio


def ordered_points(lo, hi):
    """The weakly decreasing integer points z with lo[k] <= z[k] <= hi[k],
    as an (m, n) int array in lexicographic order, largest first.

    Built one coordinate at a time: each point so far is repeated once
    per value its next coordinate can take, hi[k] (or the previous
    coordinate, if smaller) down to lo[k]."""
    pts = np.zeros((1, 0), dtype=np.int64)
    for k in range(len(lo)):
        tops = np.minimum(hi[k], pts[:, -1]) if k else np.full(1, hi[0], dtype=np.int64)
        counts = np.maximum(tops - lo[k] + 1, 0)
        rows = np.repeat(np.arange(len(pts)), counts)
        # position of each new point within its run of repeats
        steps = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        pts = np.column_stack((pts[rows], tops[rows] - steps))
    return pts


def count_ordered_points(lo, hi):
    """len(ordered_points(lo, hi)), without building the points."""
    n = len(lo)
    if any(lo[k] > hi[k] for k in range(n)):
        return 0
    span_lo = min(lo)
    span = max(hi) - span_lo + 1
    # counts[v] = number of valid suffixes starting with value v at level k
    counts = np.zeros(span, dtype=float)
    counts[lo[n - 1] - span_lo : hi[n - 1] - span_lo + 1] = 1.0
    for k in range(n - 2, -1, -1):
        suffix = np.cumsum(counts)
        counts = np.zeros(span)
        a, b = lo[k] - span_lo, hi[k] - span_lo
        counts[a : b + 1] = suffix[a : b + 1]
    return int(round(counts.sum()))


class Arrangements(NamedTuple):
    """Placements sigma of the rates on the levels 0..N: level i takes a
    rate sigma(i) from places[i], and sigma weighs scale / prod (1 -
    nu_sigma(j)/nu_sigma(i)) over the level pairs i < j whose two rates
    both lie in paired.  places holds frozensets, so that the weights
    can be cached on it."""

    places: tuple
    paired: frozenset = frozenset()
    scale: object = 1


def survival_probability(x, t, nu, tol, nm, arrangements=None):
    """sum_sigma weight_sigma P^sigma, P^sigma the probability that
    independent Poisson particles started at x, with rate nu_sigma(i) at
    level i, keep their strict ordering x_0 - 0 > x_1 - 1 > ... through
    [0, t].  arrangements=None keeps rate i at level i with weight 1.

    Returns (value, bound).  P^sigma is the Karlin-McGregor determinant
    summed over chains y_0 > ... > y_N; in its expansion over column
    orders tau, level i with rate r and column j contributes
    pmf(r t, y_i - a_j) r^(a_j - a_i), a_j = x_j - j.  The sign of tau,
    the rate powers and the weights all factor over the levels, so one
    subset recursion, from level N up to level 0, sums over sigma and tau
    at once.  Its state (R, S) holds the rates and columns placed below
    as one array over the y grid, with one prefix sum per state:
    C(2N+2, N+1) states for sums over every sigma, 2^(N+1) for one.

    Truncation: with M = sum_sigma |weight_sigma| (exact), rate r is cut
    at y_i <= x_i + poisson_cap(nu_r t, tol/(max(M, 1) (N+1))) - i, and
    the neglected mass is at most M times the (float) sum of those
    tails, which sits just below tol.  A cap past MAX_CAP refuses
    against tol, with max(M, 1) times that tail as the achieved bound.
    A rate power nu_r^(+-a_j) past the double range refuses with an
    infinite bound that names the rate ratio.

    The sums take only + - and *, on float64 arrays, or in high
    precision on object arrays of Decimal in the context that
    numerics.evaluation enters (which turns the Decimal value into an
    mpf): the rates, weights and t as nm.sum_scalar, the pmf columns by
    their recurrence.  Each mean nu_r t of a cut is the float of
    nm.scalar(nu_r) * nm.scalar(t) in both modes, so the caps, the grid
    and the bound do not depend on the arithmetic of the sums."""
    n1 = len(nu)
    places, paired, scale = arrangements or Arrangements(tuple(frozenset({i}) for i in range(n1)))
    weights, mass = _arrangement_weights(tuple(Fraction(v) for v in nu), places, paired, scale)
    rates = [nm.sum_scalar(r) for r in nu]
    a = [x[j] - j for j in range(n1)]
    share = max(mass, 1.0)
    try:
        # each weight with the rate power nu_r^-a_i of the level i it sits at
        factors = {
            (rs, r): nm.sum_scalar(w) * rates[r] ** -a[n1 - 1 - bin(rs).count("1")]
            for (rs, r), w in weights.items()
        }
        cuts = [poisson_cap(nm.scalar(r) * nm.scalar(t), tol / share / n1) for r in nu]
        caps, tail = [cap for cap, _ in cuts], sum(tl for _, tl in cuts)
        ylo = min(a)
        tops = [{r: x[i] + caps[r] - i - ylo + 1 for r in places[i]} for i in range(n1)]
        grid = max(n for top in tops for n in top.values())
        mlo = ylo - max(a)
        # cols[r][j][y - ylo] = pmf(nu_r t, y - a_j) nu_r^a_j
        cols = []
        for r in range(n1):
            pmf = nm.poisson_pmf_table(rates[r] * nm.sum_scalar(t), mlo, ylo + grid - 1 - min(a))
            cols.append([pmf[ylo - a[j] - mlo :][:grid] * rates[r] ** a[j] for j in range(n1)])
    except ToleranceNotAchieved as err:
        raise err.restated(tol, share) from None
    except OverflowError:
        detail = f"rate powers past the double range at rate ratio {rate_ratio(nu)}"
        raise ToleranceNotAchieved(tol, math.inf, detail) from None

    below = {(0, 0): np.ones(grid, dtype=nm.dtype)}
    for i in range(n1 - 1, -1, -1):
        level = defaultdict(lambda: np.zeros(grid, dtype=nm.dtype))
        for (rs, cs), h in below.items():
            for r in places[i]:
                if rs >> r & 1:
                    continue
                n = tops[i][r]
                fh = h[:n] * factors[rs, r]
                signed = (fh, -fh)
                for j in range(n1):
                    if not cs >> j & 1:
                        # sign(tau): one inversion per lower column placed below
                        odd = bin(cs & ((1 << j) - 1)).count("1") % 2
                        level[rs | 1 << r, cs | 1 << j][:n] += cols[r][j][:n] * signed[odd]
        # chains decrease strictly: level i - 1 sees the sums over y' < y,
        # and level i's arrays go as soon as their sums are taken
        for key, g in level.items():
            level[key] = np.concatenate((g[:1] * 0, np.cumsum(g)))
        below = level
    return sum(h[-1] for h in below.values()) * nm.sum_scalar(scale), mass * tail


@functools.lru_cache(maxsize=64)
def _arrangement_weights(vals, places, paired, scale):
    """The exact weight of placing rate r one level above the placed
    rates R, as {(R, r): w} over bitmasks R, and sum_sigma
    |weight_sigma| over the complete placements (a float), by one
    recursion over the rate sets.

    Cached on its exact (hashable) inputs: the Fraction rates, the
    places as frozensets, the paired set and the scale.  The returned
    mapping is shared between calls and must be read only."""
    weights, mass = {}, {0: abs(Fraction(scale))}
    for i in range(len(vals) - 1, -1, -1):
        nxt = defaultdict(Fraction)
        for rs, m in mass.items():
            for r in places[i]:
                if not rs >> r & 1:
                    w = Fraction(1)
                    for s in paired if r in paired else ():
                        if rs >> s & 1:
                            w /= 1 - vals[s] / vals[r]
                    weights[rs, r] = w
                    nxt[rs | 1 << r] += m * abs(w)
        mass = nxt
    return weights, float(sum(mass.values()))


def grow_weighted_box(start_lo, start_hi, t, nu, tol, growth, poly_degree, poly_shift, scale):
    """Choose per-coordinate caps so that the out-of-box part of
    sum_z P(z) * W(z) is provably below tol, where P factors into
    independent Poisson(nu_k t) increments from starts in
    [start_lo, start_hi] and |W(z)| <= scale * prod_k binom(m_k +
    poly_shift + poly_degree, poly_degree) * growth_k^m_k with m_k the
    increment.  Coordinate k takes the tilt (g_k, log_mass_k) of
    numerics.poisson_tilt, which also cuts the h-series of the departure
    kernel: its share is tol/(N+1) over scale and every e^log_mass_k, and
    its cap the smallest whose tail P(Poisson(nu_k t g_k) > cap) meets
    that share.  Returns (caps, bound).

    A refusal names tol.  Past MAX_CAP in one cap, or a tilted mean past
    the float range, it reports tol times the factor by which that tail
    misses its share; past the span or point limit, where nothing is
    summed, the whole sum's bound scale * mass.
    """
    n1 = len(nu)
    mus = [float(r) * float(t) for r in nu]
    caps, bound = [], 0.0
    try:
        tilts = [poisson_tilt(mus[k], growth[k], poly_degree, poly_shift) for k in range(n1)]
        log_mass = math.log(scale) + sum(lm for _, lm in tilts)
        for k, (g, _) in enumerate(tilts):
            m, log_sf = poisson_log_cap(mus[k] * g, math.log(tol / n1) - log_mass, "weighted box cap")
            caps.append(start_hi[k] + m)
            bound += math.exp(log_mass + log_sf)
    except ToleranceNotAchieved as err:
        raise err.restated(tol) from None
    if max(caps) - min(start_lo) > MAX_CAP:
        raise ToleranceNotAchieved.from_logs(math.log(tol), log_mass, "weighted box cap limit", tol)
    if count_ordered_points(start_lo, caps) > MAX_BOX_POINTS:
        raise ToleranceNotAchieved.from_logs(math.log(tol), log_mass, "weighted box point limit", tol)
    return caps, bound
