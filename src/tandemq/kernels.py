"""Determinantal transition kernels for tandem networks.

Three related Markov kernels live here, all on the ordered lattice
("chamber") of weakly decreasing integer tuples:

* the killed kernel of N+1 independent Poisson counters, which vanishes
  once the shifted coordinates z_k - k collide;
* the departure-count kernel of the tandem network (counter k records
  cumulative departures from station k, station 0 being arrivals), one
  (N+1)x(N+1) determinant of Poisson-pmf series per transition;
* the weight kernel pair linking them: chamber_to_departure and its left
  inverse departure_to_chamber, plus their queue-indexed forms.

Matrix index convention, used verbatim everywhere: rows i carry the
destination point, columns j the source point, both running 0..N.

The intertwining weights are polynomial in the rates and evaluate
exactly over ints/Fractions.  Time-dependent kernels are numeric
(float64, or under precision="high" mpmath, and decimal for the survival
sum of noncrossing_prob); every infinite sum is cut
with a certified bound.  departure_kernel evaluates its entry series
and determinants in sign and log|.| form (departure_kernel_stack).  The
weight-kernel sandwich at the end (departure_kernel_via_intertwining)
is the independent route that the verify suite checks departure_kernel
against: a lattice sum of products of two float determinants, taken in
numpy blocks with slogdet, that shares no code with
departure_kernel_stack.
"""

import math
from fractions import Fraction

import numpy as np

from . import lattice, linalg, symfunc
from .errors import PreconditionError, ToleranceNotAchieved
from .numerics import (
    HIGH_DPS, KernelValue, Numerics, check_time, evaluation, poisson_log_cap,
    polynomial_absorb_constant,
)
from .rates import as_rates
from .symfunc import _pow


def _check_chamber(x, name="z", n1=None):
    x = tuple(int(v) for v in x)
    for k in range(len(x) - 1):
        if x[k] < x[k + 1]:
            raise PreconditionError(f"{name}={x} is not weakly decreasing")
    if n1 is not None and len(x) != n1:
        raise PreconditionError("points must have one coordinate per rate")
    return x


def _check_queue(q, n_stations, name="q"):
    q = tuple(int(v) for v in q)
    if len(q) != n_stations:
        raise PreconditionError(f"{name} must have {n_stations} entries, got {len(q)}")
    if any(v < 0 for v in q):
        raise PreconditionError(f"{name}={q} has a negative queue length")
    return q


# ---------------------------------------------------------------------------
# killed Poisson kernel and the departure kernel


@evaluation
def killed_poisson_kernel(z, z2, t, nu, *, nm):
    """Transition probability of the ordered Poisson system:

        prod_k [nu_k^(z2_k - z_k) e^(-nu_k t)] det{ w_{z2_i - z_j - i + j}(t) }

    evaluated as a determinant of rescaled Poisson pmf values
    pois(nu_i t, (z2_i - i) - (z_j - j)) * (nu_i/nu_j)^(z_j - j), which
    keeps every matrix entry within a bounded factor of a probability."""
    nu = as_rates(nu)
    n1 = len(nu)
    z = _check_chamber(z, "z", n1)
    z2 = _check_chamber(z2, "z2", n1)
    check_time(t)
    shifts = [z[b] - b for b in range(n1)]
    mat = []
    for a in range(n1):
        # shifts decrease in b, so row a reads one pmf table upwards
        top = z2[a] - a
        mu = nm.scalar(nu[a]) * nm.scalar(t)
        pmf = nm.poisson_pmf_table(mu, top - shifts[0], top - shifts[-1])
        mat.append([
            pmf[shifts[0] - s] * (nm.scalar(nu[a]) / nm.scalar(nu[b])) ** s
            for b, s in enumerate(shifts)
        ])
    return linalg.det(mat)


@evaluation
def departure_kernel(d, d2, t, nu, *, nm):
    """Transition probability of the departure-count vector,

        prod_k [e^(-nu_k t) nu_k^(d2_k - d_k)] det{ sum_k c^(i,j)_k w_(n_ij + k)(t) },

    n_ij = d2_i - d_j - i + j and w_n(t) = t^n/n! (0 for n < 0), with
    c^(i,j)_k = (-1)^k e_k(nu_{j+1..i}) for j <= i, a finite sum over
    k <= i - j, and c^(i,j)_k = h_k(nu_{i+1..j}) for i < j, a series.
    The prefactor is folded into the entries so that every term is a
    Poisson pmf times bounded factors (see departure_kernel_stack).
    Exactly zero when d2_k < d_k for some k.  The series cuts change the
    value by at most 1e-18 (10^-(HIGH_DPS+2) in high precision)."""
    nu = as_rates(nu)
    n1 = len(nu)
    d = _check_chamber(d, "d", n1)
    d2 = _check_chamber(d2, "d2", n1)
    check_time(t)
    if t == 0:
        return 1 if d == d2 else 0
    values, _, _ = departure_kernel_stack(d, d2, 1, t, nu, _cut_budget(nm), nm)
    return values[0]


def departure_kernel_stack(d, d2, count, t, nu, budget, nm):
    """departure_kernel(d, d2 + c, t) for c = 0..count-1 (c is added to
    every coordinate of d2).  Returns (values, cut, roundoff): cut bounds
    the summed error of the series cuts and is at most budget; roundoff
    estimates the summed float round-off, which cut does not cover.
    t must be positive.

    With n = d2_a + c - d_b - a + b, entry (a, b) of slice c is

        (nu_a/nu_b)^(d_b - b) sum_k coef_k nu_a^-k pois(nu_a t, n + k),

    coef_k = 1 on the diagonal (k = 0 only), (-1)^k e_k(nu_{b+1..a}) for
    a > b (k <= a - b), and h_k(nu_{a+1..b}) for a < b, a series cut
    where its certified tail drops below e^lt (_h_cut).  A step in c moves
    n by one, so each entry is one log-space correlation over all c.
    The entries are kept as sign and log|.|, so no factor overflows.

    Entry errors E_ab change a determinant by at most
    perm(|A| + E) - perm(|A|) (_log_perm_diff), which carries the cuts.
    The first lt assumes permanents of unit size; a larger one misses
    the budget, and every cut is then lowered below the worst one by the
    measured excess.  The round-off estimate reruns the determinants
    with every entry moved by its estimated relative error, with a fixed
    pseudo-random sign, and takes N+1 times the summed change."""
    nu = as_rates(nu)
    n1 = len(nu)
    log_budget = math.log(budget)
    lt = log_budget - math.log(count * n1 * n1)
    for _ in range(3):
        shape = (count, n1, n1)
        sign = np.zeros(shape, dtype=int)
        logabs = np.empty(shape, dtype=nm.dtype)
        logcut = np.full((n1, n1), -np.inf)
        logrel = np.full((n1, n1), -np.inf)
        try:
            for a in range(n1):
                for b in range(n1):
                    n0 = d2[a] - d[b] - a + b
                    sign[:, a, b], logabs[:, a, b], logcut[a, b], logrel[a, b] = _entry_series(
                        a, b, d[b] - b, n0, count, t, nu, lt, nm
                    )
        except ToleranceNotAchieved as err:
            raise err.restated(budget) from None
        log_cut = _log_perm_diff(np.asarray(logabs, dtype=float), logcut)
        if log_cut <= log_budget:
            values = _stack_dets(sign, logabs, nm)
            signs = np.random.default_rng(0).choice((-1, 1), size=shape)
            moved = _stack_dets(sign, logabs + signs * np.exp(logrel), nm)
            roundoff = n1 * float(np.abs(np.asarray(moved - values, dtype=float)).sum())
            return values, math.exp(log_cut), roundoff
        lt = min(lt, logcut.max()) - (log_cut - log_budget) - math.log(2.0)
    raise ToleranceNotAchieved.from_logs(log_budget, log_cut, "h-series cut")


def _cut_budget(nm):
    return 10.0 ** -(HIGH_DPS + 2) if nm.high else 1e-18


def _entry_series(a, b, shift, n0, count, t, nu, lt, nm):
    """Sign and log|.| of (nu_a/nu_b)^shift sum_k coef_k nu_a^-k
    pois(nu_a t, n + k) for n = n0..n0+count-1 (coefficients as in
    departure_kernel_stack), the log of the bound on its cut, and the log
    of an estimate of its relative round-off."""
    vals = nu.values
    rate = nm.scalar(vals[a])
    lrate = nm.log(rate)
    mu = rate * nm.scalar(t)
    logcut = -math.inf
    if a == b:
        logc, sg = np.zeros(1, dtype=nm.dtype), np.ones(1, dtype=int)
    elif a > b:
        ks = range(a - b + 1)
        coefs = [nm.scalar(symfunc.window_e(k, b, a, vals)) for k in ks]
        logc = nm.log(np.array(coefs, dtype=nm.dtype)) - np.array(ks, dtype=nm.dtype) * lrate
        sg = np.array([(-1) ** k for k in ks])
    else:
        # h_k over the window rates scaled by their maximum is at most
        # binom(k+m-1, m-1), so the terms stay bounded
        numax = max(nm.scalar(v) for v in vals[a + 1 : b + 1])
        fl = nu.as_floats()
        cut, logcut = _h_cut(
            n0, fl[a] * float(t), float(numax) / fl[a], b - a - 1,
            shift * (math.log(fl[a]) - math.log(fl[b])), lt,
        )
        table = symfunc.window_h_table(cut, a, b, [nm.scalar(v) / numax for v in vals])
        ks = np.arange(cut + 1).astype(nm.dtype)
        logc = nm.log(np.array(table, dtype=nm.dtype)) + ks * (nm.log(numax) - lrate)
        sg = np.ones(cut + 1, dtype=int)
    hi = n0 + count + len(logc) - 2
    logpmf = nm.poisson_logpmf_table(mu, n0, hi)
    sign, logabs = _log_correlate(logpmf, count, logc, sg, nm)
    const = shift * (lrate - nm.log(nm.scalar(vals[b])))
    if shift:
        logabs = logabs + const
    # every exponent is a sum of parts no larger than mag, each rounded
    # once; the sum over k adds about one unit of round-off per term
    fmu = float(mu)
    mag = abs(max(hi, 0) * math.log(fmu)) + math.lgamma(max(hi, 0) + 1) + fmu
    mag += float(max(abs(v) for v in logc)) + abs(float(const))
    unit = 10.0**-HIGH_DPS if nm.high else 2.0**-53
    return sign, logabs, logcut, math.log(unit * (2 * mag + len(logc) + 4))


def _log_correlate(logpmf, count, logc, sg, nm):
    """Sign and log|.| of sum_k sg_k exp(logpmf[c + k] + logc_k) for
    c = 0..count-1, each sum shifted by its largest exponent; the
    (c, k) terms are formed about 2^20 at a time."""
    sign = np.zeros(count, dtype=int)
    logabs = np.empty(count, dtype=logpmf.dtype)
    ks = np.arange(len(logc))
    step = max(1, (1 << 20) // len(logc))
    for start in range(0, count, step):
        cs = np.arange(start, min(count, start + step))
        terms = logpmf[cs[:, None] + ks[None, :]] + logc[None, :]
        top = terms.max(axis=1)
        top = np.where(top == -np.inf, 0, top)
        total = (sg[None, :] * nm.exp(terms - top[:, None])).sum(axis=1)
        sign[cs] = (total > 0).astype(int) - (total < 0).astype(int)
        logabs[cs] = nm.log(abs(total)) + top
    return sign, logabs


def _h_cut(n0, mu, ratio, deg, log_f, lt):
    """Smallest series length K whose tail bound is below e^lt, and the
    log of that bound, for the entry e^log_f sum_{k>=0} hhat_k ratio^k
    pois(mu, n + k) with hhat_k <= binom(k+deg, deg) and n >= n0.

    binom(k+deg, deg) <= A (1+delta)^k (polynomial_absorb_constant); with
    G = max(1, (1+delta) ratio) the exact tilt identity
    pois(mu, j) G^j = e^{mu(G-1)} pois(mu G, j) bounds the tail past K by

        e^log_f A G^-n e^{mu(G-1)} P(Poisson(mu G) > n + K),

    which decreases in n, so the bound at n0 covers every n.  K is
    max(0, m - n0) for the smallest m that meets e^lt (poisson_log_cap)."""
    if deg == 0:
        delta, absorb = 0.0, 1.0
    else:
        delta = min(1.0, deg / (mu * ratio))
        absorb = polynomial_absorb_constant(deg, delta)
    g = max(1.0, (1.0 + delta) * ratio)
    base = log_f + math.log(absorb) - n0 * math.log(g) + mu * (g - 1.0)
    m, log_sf = poisson_log_cap(mu * g, lt - base, "h-series cut")
    return max(0, m - n0), base + log_sf


def _log_perm_diff(logabs, logerr):
    """log sum_c [perm(|A| + E) - perm(|A|)] over the slices c, for
    |A| = exp(logabs) and E = exp(logerr).

    Recursion over the column sets S used by the first |S| rows:
    P_S = sum_j P_{S-j} |A|_rj and, for G = perm(|A| + E) - P,
    G_S = sum_j (P_{S-j} E_rj + G_{S-j} (|A| + E)_rj).  Every term is
    nonnegative, so nothing cancels, and all of it runs in log space."""
    count, n1, _ = logabs.shape
    logerr = np.broadcast_to(logerr, logabs.shape)
    both = np.logaddexp(logabs, logerr)
    perm = {0: np.zeros(count)}
    diff = {0: np.full(count, -np.inf)}
    for cols in range(1, 1 << n1):
        r = bin(cols).count("1") - 1
        js = [j for j in range(n1) if cols >> j & 1]
        perm[cols] = np.logaddexp.reduce([perm[cols ^ 1 << j] + logabs[:, r, j] for j in js])
        diff[cols] = np.logaddexp.reduce(
            [perm[cols ^ 1 << j] + logerr[:, r, j] for j in js]
            + [diff[cols ^ 1 << j] + both[:, r, j] for j in js]
        )
    return float(np.logaddexp.reduce(diff[(1 << n1) - 1]))


def _stack_dets(sign, logabs, nm):
    """Determinants of the slices sign * exp(logabs), by Gaussian
    elimination with partial pivoting run on the whole stack at once.
    Every entry stays in sign and log|.| form: an update a - f b becomes
    top + log|s_a e^(l_a - top) - s_fb e^(l_fb - top)|, top the larger of
    the two logs, and only the log-determinant is exponentiated.  The
    entries of one slice can span e^-650 to e^1250 while its determinant
    is a probability, so no common scaling keeps them all representable."""
    count, n1, _ = logabs.shape
    sign, logabs = sign.copy(), logabs.copy()
    dsign = np.ones(count, dtype=int)
    logdet = np.zeros(count, dtype=logabs.dtype)
    slices = np.arange(count)
    for k in range(n1):
        p = k + np.argmax(logabs[:, k:, k], axis=1)
        for arr in (sign, logabs):
            rows = arr[slices, p].copy()
            arr[slices, p] = arr[:, k]
            arr[:, k] = rows
        dsign = dsign * np.where(p != k, -1, 1) * sign[:, k, k]
        logdet = logdet + logabs[:, k, k]
        if k + 1 == n1:
            break
        # entry (i, j) past k loses (a_ik / a_kk) a_kj
        lpiv = np.where(logabs[:, k, k] == -np.inf, 0, logabs[:, k, k])
        s2 = -(sign[:, k + 1 :, k] * sign[:, k, k, None])[:, :, None] * sign[:, None, k, k + 1 :]
        l2 = (logabs[:, k + 1 :, k] - lpiv[:, None])[:, :, None] + logabs[:, None, k, k + 1 :]
        l1 = logabs[:, k + 1 :, k + 1 :]
        top = np.maximum(l1, l2)
        top = np.where(top == -np.inf, 0, top)
        total = sign[:, k + 1 :, k + 1 :] * nm.exp(l1 - top) + s2 * nm.exp(l2 - top)
        sign[:, k + 1 :, k + 1 :] = (total > 0).astype(int) - (total < 0).astype(int)
        logabs[:, k + 1 :, k + 1 :] = nm.log(abs(total)) + top
    return dsign * nm.exp(logdet)


# ---------------------------------------------------------------------------
# intertwining weights


def chamber_to_departure(z, d, nu, method="determinant"):
    """Weight kernel from ordered Poisson states to departure vectors:

        prod_k nu_k^(d_k - z_k) * det{ h-window(j,N) at z_i - d_j - i + j }.

    Nonnegative; vanishes unless z_N = d_N.  Exact over exact rates.
    method="gt_sum" instead sums the interlacing-pattern weights with
    shape z and left edge d (same value; independent route)."""
    nu = as_rates(nu)
    n1 = len(nu)
    z = _check_chamber(z, "z", n1)
    d = _check_chamber(d, "d", n1)
    vals = nu.values
    if method == "gt_sum":
        total = 0
        for pat in symfunc.enumerate_gt(z, ledge=d):
            total = total + symfunc.gt_weight(pat, vals)
        scale = 1
        for k in range(n1):
            scale = scale * _pow(vals[k], -z[k])
        return scale * total
    if method != "determinant":
        raise PreconditionError(f"unknown method {method!r}")
    mat = [
        [symfunc.window_h(z[a] - d[b] - a + b, b, n1 - 1, vals) for b in range(n1)]
        for a in range(n1)
    ]
    out = linalg.det(mat)
    for k in range(n1):
        out = out * _pow(vals[k], d[k] - z[k])
    return out


def departure_to_chamber(d, z, nu):
    """Left inverse of chamber_to_departure:

        prod_k nu_k^(z_k - d_k) * det{ (-1)^(d_i - z_j - i + j) e-window(i,N) at d_i - z_j - i + j }.

    Exact over exact rates; support in z is finite for fixed d."""
    nu = as_rates(nu)
    n1 = len(nu)
    d = _check_chamber(d, "d", n1)
    z = _check_chamber(z, "z", n1)
    vals = nu.values
    mat = []
    for a in range(n1):
        row = []
        for b in range(n1):
            r = d[a] - z[b] - a + b
            e = symfunc.window_e(r, a, n1 - 1, vals)
            row.append(-e if r % 2 else e)
        mat.append(row)
    out = linalg.det(mat)
    for k in range(n1):
        out = out * _pow(vals[k], z[k] - d[k])
    return out


def departure_to_chamber_support(d, nu):
    """The finite set of chamber points z with departure_to_chamber(d, z)
    nonzero, as a list of (z, value) pairs.

    Nonzero entries of the e-window matrix force z_j into the window
    [d_N - N + j, max_i(d_i - i) + j]; within it, zeroness is decided by
    exact arithmetic (float rates are converted to exact rationals, so
    structural cancellation is detected reliably)."""
    nu = as_rates(nu)
    d = _check_chamber(d, "d")
    n1 = len(nu)
    exact = as_rates(tuple(v if isinstance(v, (int, Fraction)) else Fraction(v) for v in nu))
    hi_base = max(d[a] - a for a in range(n1))
    lo = [d[n1 - 1] - (n1 - 1) + j for j in range(n1)]
    hi = [hi_base + j for j in range(n1)]
    out = []
    for z in map(tuple, lattice.ordered_points(lo, hi).tolist()):
        val = departure_to_chamber(d, z, exact)
        if val != 0:
            out.append((z, val))
    return out


def queue_to_departures(q, completed=0):
    """Departure vector with the given queue contents and `completed`
    jobs already through the last station: entry k is completed plus the
    total content of stations k+1..N."""
    out = []
    acc = completed
    for v in reversed(q):
        if v < 0:
            raise PreconditionError("queue lengths must be nonnegative")
        out.append(acc)
        acc += v
    out.append(acc)
    return tuple(reversed(out))


def chamber_to_queue(z, q, nu):
    """Queue-indexed weight kernel: collapses the departure target to its
    queue contents.  Only the section with completed = z_N survives."""
    nu = as_rates(nu)
    z = _check_chamber(z, "z")
    q = _check_queue(q, nu.n_stations)
    return chamber_to_departure(z, queue_to_departures(q, completed=z[-1]), nu)


def queue_to_chamber(q, z, nu):
    """Left inverse of chamber_to_queue, anchored at completed = 0."""
    nu = as_rates(nu)
    q = _check_queue(q, nu.n_stations)
    return departure_to_chamber(queue_to_departures(q), z, nu)


def queue_to_chamber_support(q, nu):
    """Finite support of queue_to_chamber(q, .) as (z, value) pairs."""
    nu = as_rates(nu)
    q = _check_queue(q, nu.n_stations)
    return departure_to_chamber_support(queue_to_departures(q), nu)


# ---------------------------------------------------------------------------
# noncrossing probability


@evaluation
def noncrossing_prob(x, t, nu, tol=1e-9, *, nm):
    """P(the independent Poisson counters started at x in the chamber
    keep their order through time t), with certified truncation error.

    The killed-kernel determinant, summed over strictly decreasing
    chains, runs as one recursion over the column sets used by the
    levels below (lattice.survival_probability): 2^(N+1) states, each an
    array over the truncation range with one prefix sum."""
    rates = tuple(nu)
    x = _check_chamber(x, "x", len(rates))
    if not all(v > 0 for v in rates):
        raise PreconditionError(f"rates must be positive, got {rates}")
    check_time(t)
    if len(x) == 1 or t == 0:
        # one counter, or no time, leaves nothing to cross
        return KernelValue(1.0, 0.0)
    return KernelValue(*lattice.survival_probability(x, t, rates, tol, nm))


# ---------------------------------------------------------------------------
# departure kernel through the weight-kernel sandwich (verify oracle)


def departure_kernel_via_intertwining(d, d2, t, nu, tol=1e-8):
    """Evaluates the sandwich sum_z departure_to_chamber(d,z) *
    sum_{z'} killed_kernel(z,z') * chamber_to_departure(z',d2) on a
    certified box; agrees with departure_kernel up to tol.  This is the
    independent route the verify suite checks departure_kernel against.

    The z' sum is restricted to z' >= d2 coordinatewise with z'_N pinned
    to d2_N: outside that region the weight vanishes (as a cancelling
    alternating sum, so excluding it explicitly also avoids noise).
    Points with z' not above z contribute exactly zero through the pmf
    zero pattern and need no filtering."""
    nu = as_rates(nu)
    n1 = len(nu)
    d = _check_chamber(d, "d", n1)
    d2 = _check_chamber(d2, "d2", n1)
    check_time(t)
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    if t == 0:
        return KernelValue(1.0 if d == d2 else 0.0, 0.0)
    supp = departure_to_chamber_support(d, nu)
    value, bound = _sandwich_sum(supp, t, nu.as_floats(), tol, d2)
    return KernelValue(value, bound)


def _sandwich_sum(supp, t, fl, tol, tgt):
    """Weight-kernel sandwich sum towards the departure vector tgt, with
    z'_N = tgt_N pinned.

    Truncation bound.  Expanding both determinants over permutations,
    each term factors over the coordinates of z' as a Poisson pmf (with
    a bounded index shift drawn from the start support) times the
    envelope of the weight kernel.  Writing y_k = z'_k - s_k with the
    virtual start s_k = k + max_supp(z_b - b) (which dominates every pmf
    shift), the term is at most

        scale * prod_k pmf-factor_k * growth_k^{y_k} * binom(y_k + shift + deg, deg)

    so grow_weighted_box applies coordinatewise.  scale collects both
    Leibniz sums, the start weights, the pmf rescaling constants, the
    constant offsets of the growth envelope and the pinned coordinate's
    bounded h-window factor.
    """
    n1 = len(fl)
    numax = max(fl)
    numin = min(fl)

    zlo = [min(z[k] for z, _ in supp) for k in range(n1)]
    vmax = max(z[b] - b for z, _ in supp for b in range(n1))
    vstart = [k + vmax for k in range(n1)]
    # weight vanishes structurally outside z' >= tgt, z'_N = tgt_N
    lo = [max(tgt[k], zlo[k]) for k in range(n1)]
    growth = [numax / fl[k] for k in range(n1)]

    ratmax = numax / numin
    abs_pi = sum(
        abs(float(v)) * math.prod(ratmax ** abs(z[b] - b) for b in range(n1)) for z, v in supp
    )
    deg = max(0, n1 - 2)
    # binom degree offset: r_ab <= y_a + shift
    shift = max(0, vmax + 2 * n1 - min(tgt[b] - b for b in range(n1)))

    scale = float(math.factorial(n1)) ** 2 * abs_pi
    for k in range(n1):
        scale *= max(1.0, growth[k] ** (vstart[k] - tgt[k]))
    scale *= math.comb(shift + deg, deg)

    free = n1 - 1
    caps, bound = lattice.grow_weighted_box(
        lo[:free], vstart[:free], t, fl[:free], tol, growth[:free], deg, shift, scale
    )
    hi = list(caps) + [tgt[free]]
    lo[free] = tgt[free]
    if any(lo[k] > hi[k] for k in range(n1)):
        return 0.0, bound
    return _sandwich_batched(supp, t, fl, lo, hi, tgt), bound


def _sandwich_batched(supp, t, fl, lo, hi, tgt):
    """The sandwich sum over the chamber points Z of the box lo..hi, one
    block of points per leading coordinate.  Each matrix of both
    determinant stacks is one gather from a flat table, indexed by the
    increments y_a = Z_a - a; both stacks go through np.linalg.slogdet,
    and each point adds sL sC e^(mL + mC) times the start weight."""
    n1 = len(fl)
    idx = np.arange(n1)
    rates = np.asarray(fl)
    ylo = min(lo[a] - a for a in range(n1))
    yhi = max(hi[a] - a for a in range(n1))

    # pmf tables per row a over every increment y_a - (z_b - b); entry
    # (a, b) of the start z sits at flat index y_a + cols[a, b]
    shifts = [z[b] - b for z, _ in supp for b in range(n1)]
    mlo, mhi = ylo - max(shifts), yhi - min(shifts)
    nmd = Numerics()
    pmf = np.array([nmd.poisson_pmf_table(fl[a] * float(t), mlo, mhi) for a in range(n1)])
    starts = [
        (
            (idx * pmf.shape[1])[:, None] - np.array([z[b] - b for b in range(n1)]) - mlo,
            np.array([[(fl[a] / fl[b]) ** (z[b] - b) for b in range(n1)] for a in range(n1)]),
            float(pival),
        )
        for z, pival in supp
    ]

    # h-window tables h(b,N)_r per column b over every increment
    # r = y_a - (tgt_b - b), 0 for r < 0; entry (a, b) sits at y_a + hcols[b]
    tshift = np.array([tgt[b] - b for b in range(n1)])
    rlo, rhi = ylo - tshift.max(), yhi - tshift.min()
    pad = np.zeros(max(0, -rlo))
    htab = np.array([
        np.concatenate((pad, symfunc.window_h_table(rhi, b, n1 - 1, fl)))[max(0, rlo):]
        for b in range(n1)
    ])
    hcols = idx * htab.shape[1] - tshift - rlo
    colfac = rates ** tshift

    total = 0.0
    for lead in range(hi[0], lo[0] - 1, -1):
        y = (lattice.ordered_points([lead] + lo[1:], [lead] + hi[1:]) - idx)[:, :, None]
        # weight-kernel determinant stack (independent of the start z)
        L = htab.ravel()[y + hcols] * (rates[:, None] ** -y.astype(float) * colfac)
        sL, mL = np.linalg.slogdet(L)
        for cols, const, weight in starts:
            sC, mC = np.linalg.slogdet(pmf.ravel()[y + cols] * const)
            total += weight * (sL * sC * np.exp(mL + mC)).sum()
    return float(total)
