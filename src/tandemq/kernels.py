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
sum of noncrossing_prob); every infinite sum is cut with a certified
bound.  departure_kernel_stack builds all entries of all slices in one
batched pass: one pmf table, N levels of suffix sums for the h-window
entries, one array for the e-window ones.  The weight-kernel sandwich
(departure_kernel_via_intertwining), a lattice sum of products of two
float determinants with slogdet, shares no code with it: it is the
independent route the verify suite checks departure_kernel against.
"""

import functools
import math
import numbers
from fractions import Fraction

import numpy as np

from . import lattice, linalg, symfunc
from .errors import PreconditionError, ToleranceNotAchieved
from .numerics import (
    HIGH_DPS, MAX_BOX_POINTS, KernelValue, Numerics, check_time, check_tol, evaluation,
    poisson_log_cap, poisson_tilt,
)
from .rates import as_rates, positive_finite, rate_ratio
from .symfunc import _pow


def _integers(x, name):
    """x as a tuple of ints.  Accepts integers (numpy's too) and
    integral floats up to 2^53 in size, past which a float stands for
    many integers; raises PreconditionError on any other entry (0.5, nan,
    inf, 1e300, a string), which int() would truncate, parse or fail on."""
    x = tuple(x)
    for v in x:
        integral = isinstance(v, numbers.Integral) or (
            isinstance(v, numbers.Real) and abs(v) <= 2**53 and v == int(v)
        )
        if not integral:
            raise PreconditionError(f"{name} entries must be integers, got {v!r}")
    return tuple(int(v) for v in x)


def _check_chamber(x, name="z", n1=None):
    x = _integers(x, name)
    for k in range(len(x) - 1):
        if x[k] < x[k + 1]:
            raise PreconditionError(f"{name}={x} is not weakly decreasing")
    if n1 is not None and len(x) != n1:
        raise PreconditionError("points must have one coordinate per rate")
    return x


def _check_queue(q, n_stations, name="q"):
    q = _integers(q, name)
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
    value by at most 1e-18 (10^-(HIGH_DPS+2) in high precision).  When
    the cuts and the certified round-off of departure_kernel_stack
    exceed 1e-12 (a determinant that cancels, as at large t with a
    service rate below an earlier one), or a cut passes MAX_CAP, it
    raises ToleranceNotAchieved against that 1e-12."""
    nu = as_rates(nu)
    n1 = len(nu)
    d = _check_chamber(d, "d", n1)
    d2 = _check_chamber(d2, "d2", n1)
    check_time(t)
    if t == 0:
        return 1 if d == d2 else 0
    budget = 10.0 ** -(HIGH_DPS + 2) if nm.high else 1e-18
    try:
        values, cut, roundoff = departure_kernel_stack(d, d2, 1, t, nu, budget, nm)
    except ToleranceNotAchieved as err:
        raise err.restated(1e-12, 1.0) from None
    if cut + roundoff > 1e-12:
        detail = f"certified round-off {roundoff:.3g}; try precision='high'"
        raise ToleranceNotAchieved(1e-12, cut + roundoff, detail)
    return values[0]


def departure_kernel_stack(d, d2, count, t, nu, budget, nm):
    """departure_kernel(d, d2 + c, t) for c = 0..count-1 (c is added to
    every coordinate of d2).  Returns (values, cut, roundoff): cut bounds
    the summed error of the series cuts and is at most budget; roundoff
    bounds the summed float round-off of the entries and the
    determinants.  t must be positive.

    With n = d2_a + c - d_b - a + b, entry (a, b) of slice c is

        (nu_a/nu_b)^(d_b - b) sum_k coef_k nu_a^-k pois(nu_a t, n + k),

    coef_k = 1 on the diagonal (k = 0 only), (-1)^k e_k(nu_{b+1..a}) for a
    > b (k <= a - b, exact: _e_coefficients), and h_k(nu_{a+1..b}) for a <
    b, a series cut where its certified tail drops below e^lt
    (numerics.poisson_tilt).  _entry_stack forms all entries of all slices
    at once as (row, column, slice) arrays of sign and log|.|, so no
    factor overflows, and their round-off: the pmf's as its one table is
    built, each h level's in _h_levels, the e sums' and the prefactors'
    last.  One subset recursion (_det_perm_diff) gives the determinants and
    both bounds.  The first lt assumes permanents of unit size; a larger
    one misses the budget, and every cut is then lowered below the worst
    one by the measured excess.  The entry arrays span the queue contents
    of d and d2 and the count, over (N+1)^2 entries; past MAX_BOX_POINTS
    it raises PreconditionError, before numpy sees the ints."""
    nu = as_rates(nu)
    n1, log_budget = len(nu), math.log(budget)
    span = max(d) - min(d) + max(d2) - min(d2) + count
    if n1 * n1 * span > MAX_BOX_POINTS:
        raise PreconditionError(f"queue lengths this far apart need tables past {MAX_BOX_POINTS} entries")
    lt = log_budget - math.log(count * n1 * n1)
    logs, coefs = nm.log(np.array([nm.scalar(v) for v in nu], nm.dtype)), _e_coefficients(nu, nm)
    for _ in range(3):
        try:
            sign, logabs, logcut, logrnd = _entry_stack(d, d2, count, t, nu, logs, coefs, lt, nm)
        except ToleranceNotAchieved as err:
            raise err.restated(budget) from None
        values, log_cut, log_round = _det_perm_diff(sign, logabs, logcut, logrnd, nm)
        if log_cut <= log_budget:
            return values, math.exp(log_cut), math.exp(log_round) if log_round < 709 else math.inf
        lt = min(lt, logcut.max()) - (log_cut - log_budget) - math.log(2.0)
    raise ToleranceNotAchieved.from_logs(log_budget, log_cut, "h-series cut", budget)


def _entry_stack(d, d2, count, t, nu, logs, coefs, lt, nm):
    """Every entry (a, b) of every slice, given the logs of the rates and
    the e coefficients: sign, log|.| and the float log of the round-off
    bound as (count, N+1, N+1) views of (N+1, N+1, count) arrays, and the
    log of the cut bound as an (N+1, N+1) array.  Entry (a, b) of slice c
    sits at n = n0_ab + c, n0_ab = d2_a - d_b - a + b; row a of the pmf
    table at k = n0_aa - off + i, -inf past its own hi, one index past
    every entry's slices and cut: column off + i is index i = n - n0_aa,
    and each entry is exactly its series cut at a k >= its cut.  For a <
    b, h_k(x_{a+1..b}) <= binom(k+d, d) max(x)^k, d = b - a - 1, so with
    numerics.poisson_tilt the tail past n + K is at most e^log_mass g^-n
    P(Poisson(mu g) > n + K), which decreases in n >= n0_ab.
    For a <= b the entry is its prefactor times F_b(n) (_h_levels); for a
    > b, pois(mu, n') q_n, mu = nu_a t, n' = max(n, 0), q_n the sum over k
    of coef_k nu_a^-k pois(mu, n + k) / pois(mu, n'), each ratio a product
    of at most m = a - b factors mu / i, all pairs in one array.

    Round-off, relative, in units u = nm.unit.  F_a: the log pmf's
    (Numerics.poisson_logpmf_error) and |n - mu| for the rounding of mu.
    q_n: a term is off by (6m + 4) u at most, the sum adds m u per term,
    and log|q_n| adds u |log|q_n|| + 4u, below u (s |log s| + 1/e) + 4u
    |q_n| for s the sum of the |terms|; the pmf adds its bound and 2
    |log|.  The prefactor adds |log|, and its log is off by 3 |log| + 6
    |d_b - b| (|log nu_a| + |log nu_b|) at most."""
    fl, flogs, idx = nu.as_floats(), np.asarray(logs, dtype=float), np.arange(len(nu))
    n1, shift, slices = len(fl), np.array(d) - idx, np.arange(count)
    n0 = np.subtract.outer(np.array(d2) - idx, shift)  # growing in b
    cuts, logcut = np.zeros((n1, n1), dtype=int), np.full((n1, n1), -np.inf)
    for a in range(n1):
        mu = fl[a] * float(t)
        for b in range(a + 1, n1):
            g, log_mass = poisson_tilt(mu, max(fl[a + 1 : b + 1]) / fl[a], b - a - 1)
            base = shift[b] * (flogs[a] - flogs[b]) + log_mass - n0[a, b] * math.log(g)
            m, log_sf = poisson_log_cap(mu * g, lt - base, "h-series cut")
            cuts[a, b], logcut[a, b] = max(0, m - n0[a, b]), base + log_sf
    # left of the diagonal the entries start at max(n0, 0), and n0 + cut is below n0_aa
    diag = n0[idx, idx]
    off = np.maximum(diag - np.maximum(n0[:, 0], 0), 0).max()
    hi = np.maximum((n0 + cuts).max(axis=1), 0) + count - 1
    ks = (diag - off)[:, None] + np.arange(off + (hi - diag).max() + 1)  # k by row and column
    kmin, kmax = ks[:, 0].min(), hi.max()
    mus = np.array([nm.scalar(v) * nm.scalar(t) for v in nu.values], dtype=nm.dtype)
    fmus, logpmf = np.asarray(mus, dtype=float)[:, None], nm.poisson_logpmf_table(mus, kmin, hi)
    err = nm.poisson_logpmf_error(mus, kmin, hi, logpmf) + abs(np.arange(kmin, kmax + 1) - fmus)
    table, err = (x[idx[:, None], np.minimum(ks, kmax) - kmin] for x in (logpmf, err))
    table[ks > hi[:, None]] = -np.inf
    diff = np.subtract.outer(logs, logs)  # log nu_a - log nu_b
    const = shift * diff
    fconst, alogs = np.asarray(const, dtype=float), abs(flogs)
    cerr = 3 * abs(fconst) + 6 * abs(shift) * np.add.outer(alogs, alogs)
    lerr = np.add.outer(4 * alogs, 4 * alogs) + abs(np.asarray(diff, dtype=float))
    levels, rels = (np.empty((n1, n1, table.shape[1] - off), dtype=x) for x in (nm.dtype, float))
    levels[0], rels[0] = logf, rel = table[:, off:], err[:, off:]
    for j in range(1, n1):  # level j = b - a, over the rows a = 0..N-j
        logf, rel = _h_levels(logf[:-1], rel[:-1], np.diagonal(diff, -j), np.diagonal(lerr, j), nm)
        levels[j, : n1 - j], rels[j, : n1 - j] = logf, rel
    (ua, ub), (ea, eb) = np.nonzero(idx[:, None] <= idx), np.nonzero(idx[:, None] > idx)
    at = ((ub - ua)[:, None], ua[:, None], (n0 - diag[:, None])[ua, ub][:, None] + slices)
    value, r = levels[at], rels[at]
    flat = np.asarray(value, dtype=float)
    urnd = flat + np.log(r + np.minimum(abs(flat), 1e300) + cerr[ua, ub][:, None])
    ns = n0[ea, eb][:, None] + slices
    k = ns[:, :, None] + idx  # term k is the product of mu / i over max(n, 0) < i <= n + k
    quotients = mus[:, None] / np.arange(1, max(k.max(), 1) + 1)
    factors = np.where((k > 0) & (idx > 0), quotients[ea[:, None, None], np.maximum(k, 1) - 1], 1)
    terms = np.where(k >= 0, np.cumprod(factors, axis=2) * coefs[:, None, :], 0)
    q, s = terms.sum(axis=2), np.asarray(abs(terms), dtype=float).sum(axis=2)
    pos = (ea[:, None], np.maximum(ns, 0) - ks[ea, :1])
    lp = table[pos]
    flp = np.asarray(lp, dtype=float)
    mag = err[pos] + 2 * np.minimum(abs(flp), 1e300) + cerr[ea, eb][:, None]
    ernd = abs(np.asarray(q, dtype=float)) * (mag + 4) + 1
    ernd += s * ((7 * (ea - eb) + 4)[:, None] + abs(np.log(np.maximum(s, 1e-300))))
    sign, logabs, logrnd = (np.empty((n1, n1, count), dtype=x) for x in (int, nm.dtype, float))
    sign[ua, ub], sign[ea, eb] = flat > -np.inf, np.sign(q)
    logabs[ua, ub], logabs[ea, eb] = value, lp + nm.log(abs(q))
    logrnd[ua, ub], logrnd[ea, eb] = urnd, flp + np.log(ernd)
    logabs += const[:, :, None]
    logrnd = logrnd + fconst[:, :, None] + math.log(nm.unit)
    return sign.transpose(2, 0, 1), logabs.transpose(2, 0, 1), logcut, logrnd.transpose(2, 0, 1)


def _h_levels(logf, rel, step, lerr, nm):
    """Level b - a of _entry_stack's entries F_b(n) = sum_k h_k(x_{a+1..b})
    pois(mu, n + k), x_j = nu_j/nu_a, over its rows a: (log F_b, its
    bound) from (log F_{b-1}, rel), given log x_b and lerr.  h_k(S) =
    h_k(S - b) + x_b h_{k-1}(S) (Macdonald, Symmetric Functions and Hall
    Polynomials, I.2) gives F_a(n) = pois(mu, n) and F_b(n) = F_{b-1}(n) +
    x_b F_b(n + 1): with g_m = log F_{b-1}(m) + i_m log x_b, i = n - n0_aa,
    top = max g and A_n = e^acc_n = sum_{m >= n} e^(g_m - top), log F_b(n)
    = acc_n + top - i_n log x_b, whose relative round-off is, to first
    order, in units u,

        [sum_{m >= n} e^(g_m - top) (rel_m + |i_m log x_b| + |g_m| + |g_m - top| + 4)
         + sum_{m >= n} A_m (|acc_m| + 6 + lerr)] / A_n
        + |acc_n + top| + |i_n log x_b| + |log F_b(n)|.

    An error in the exponent of term m (rel_m, the product, sum, shift
    and exp) moves each A_n by e^(g_m - top) times it, and one in the step
    at m (np.logaddexp rounds a difference, an exp, a log1p below log 2
    and a sum; mpmath far less) by A_m times it.  log x_b is off by lerr =
    4 |log nu_a| + 4 |log nu_b| + |log x_b|, term m by (m - n) lerr after
    the shift back (the last line), and sum_{m >= n} (m - n) e^(g_m - top)
    = sum_{m > n} A_m.  Shifting by top keeps |acc| small where the mass
    is."""
    dist = np.arange(logf.shape[1]) * step[:, None]
    g = logf + dist
    fg = np.asarray(g, dtype=float)
    top = fg.max(axis=1, keepdims=True)
    acc = nm.log_suffix_sum(g - top)
    logf = acc + top - dist
    fg, facc, fdist = fg - top, np.asarray(acc, dtype=float), abs(np.asarray(dist, dtype=float))
    with np.errstate(invalid="ignore"):
        terms = fg + np.log(rel + fdist + abs(fg + top) + abs(fg) + 4)
        terms[fg == -np.inf] = -np.inf  # a pmf below 0 or past the row adds nothing
        terms = np.logaddexp(terms, facc + np.log(np.minimum(abs(facc), 1e300) + 6 + lerr[:, None]))
        rel = np.exp(np.logaddexp.accumulate(terms[:, ::-1], axis=1)[:, ::-1] - facc)
    return logf, rel + abs(facc + top) + fdist + abs(np.asarray(logf, dtype=float))


def _e_coefficients(nu, nm):
    """(-1)^k e_k(nu_{b+1..a}) nu_a^-k, k = 0..N (0 past a - b), per pair a > b in
    row-major order, exact over p = nu times a common denominator, then rounded once.
    A coefficient past the double range raises ToleranceNotAchieved with an
    infinite bound that names the rate ratio, for the caller to restate."""
    exact = [Fraction(v) for v in nu.values]
    den = math.lcm(*(f.denominator for f in exact))
    p = [f.numerator * (den // f.denominator) for f in exact]
    coefs = np.zeros((len(p) * (len(p) - 1) // 2, len(p)), dtype=nm.dtype)
    try:
        for a in range(1, len(p)):
            e, first = [1], a * (a - 1) // 2  # e times 1 - p_j z for j = a, a - 1, ..., b + 1
            for b in range(a - 1, -1, -1):
                e = [x - p[b + 1] * y for x, y in zip(e + [0], [0] + e)]
                coefs[first + b, : len(e)] = [nm.quotient(v, p[a] ** k) for k, v in enumerate(e)]
    except OverflowError:
        detail = f"e coefficients past the double range at rate ratio {rate_ratio(nu)}"
        raise ToleranceNotAchieved.from_logs(-math.inf, math.inf, detail) from None
    return coefs


@functools.lru_cache(maxsize=None)
def _column_sets(n1):
    """For k = 1..n1: the column sets S of size k as bitmasks, the
    columns j of each in increasing order, the sets S - j, and the
    Laplace signs (-1)^(number of columns of S above j)."""
    out = []
    for k in range(1, n1 + 1):
        sets = np.array([s for s in range(1 << n1) if bin(s).count("1") == k])
        cols = np.array([[j for j in range(n1) if s >> j & 1] for s in sets])
        signs = np.array([(-1) ** (k - 1 - p) for p in range(k)])
        out.append((sets, cols, sets[:, None] ^ (1 << cols), signs))
    return out


def _det_perm_diff(sign, logabs, logcut, logrnd, nm):
    """The determinants of the slices A = sign * exp(logabs), and the
    logs of two bounds summed over the slices: the error that the entry
    cuts C = exp(logcut) cause, and the round-off of the entries
    (R = exp(logrnd)) and of the determinants.

    One recursion over the column sets S used by the first |S| rows, each
    a vector over the slices.  With r = |S| - 1 and s_j = (-1)^(number of
    columns of S above j), Laplace along row r gives
    D_S = sum_j s_j A_rj D_{S-j}, and the permanent of |A| is
    P_S = sum_j |A_rj| P_{S-j}.  The value is carried as rho_S = D_S/P_S
    = sum_j s_j sign(A_rj) w_j rho_{S-j}, w_j = P_{S-j} |A_rj| / P_S, a
    convex combination: |rho| <= 1 and nothing overflows.  Alongside,
    G = perm(|A| + C) - perm(|A|) and H = perm(|A| + C + R) -
    perm(|A| + C) run in log space, G_S = sum_j (P_{S-j} C_rj +
    G_{S-j} (|A| + C)_rj) and H likewise over |A| + C; as
    |det(A + F) - det(A)| <= perm(|A| + |F|) - perm(|A|), G bounds the
    cuts' error and H the entries' round-off.

    Round-off of the recursion (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 3-4), one operation losing at most
    u = nm.unit (np.exp and np.log 4u).  With t_j = log P_{S-j} +
    log|A_rj| and top = max_j t_j, log P_S is top + log s, s = sum_j e_j,
    e_j = exp(t_j - top), and w_j = e_j / s.  Unrolled, rho_full sums
    sign(pi) prod_r w over the chains of sets, one per permutation pi,
    and the log of each product telescopes to sum_r log|A_r,pi(r)| -
    log P_full up to each level's roundings: u |t_j| (forming t_j),
    u |t_j - top|, 4u (exp), u (w = e/s), u |log P_S| + 4u ln k
    (top + log s), u (w rho) and (k - 1) u (the sum), k = |S|.  As
    sum_j w_j |t_j - log P_S| <= ln k (an entropy) and 0 <= log P_S - top
    <= ln k, their w-mean is below eps_S = u (2 |log P_S| + 7 ln k + k +
    5).  So E_S = sum_j w_j E_{S-j} + eps_S bounds the mean relative error
    of the Leibniz terms, whose absolute values sum to P_full, and the
    last step sign(rho) exp(log|rho| + log P_full) adds u (|log P_full| +
    7) (|rho log|rho|| <= 1/e): the determinant is off by at most
    P_full (E_full + u (|log P_full| + 7)).  The second-order terms, the
    sum of the computed w, and the error of the computed log P, which G
    and H use too, stay within a factor e^((2N+3) eta), eta = u (4M +
    5N + 11), M = (N + 1) (max |log|A|| + ln(N + 1)) bounding every |log|
    in the recursion, by which all bounds are raised.  Underflowing
    weights move rho by 2^-1074 each.  The bounds are float in both
    precisions; the value runs in nm.dtype."""
    count, n1, _ = logabs.shape
    size = 1 << n1
    unit = nm.unit
    # (row, column, slice) order, so that a level gathers whole rows
    la = np.ascontiguousarray(logabs.transpose(1, 2, 0))
    sg = np.ascontiguousarray(sign.transpose(1, 2, 0))
    fa = np.asarray(la, dtype=float)
    # channel 0 carries the cuts over |A|, channel 1 the entries'
    # round-off over |A| + C; then the two bases |A| + C and |A| + C + R
    chans = np.empty((4,) + fa.shape)
    chans[0] = logcut[:, :, None]
    chans[1] = logrnd.transpose(1, 2, 0)
    chans[2] = np.logaddexp(fa, chans[0])
    chans[3] = np.logaddexp(chans[2], chans[1])
    logp = np.empty((size, count), dtype=nm.dtype)
    rho = np.empty((size, count), dtype=nm.dtype)
    logp[0], rho[0] = 0, 1
    flogp = np.zeros((size, count))
    diff = np.full((2, size, count), -np.inf)
    err = np.zeros((size, count))
    for r, (sets, cols, prev, signs) in enumerate(_column_sets(n1)):
        k = len(signs)
        terms = logp[prev] + la[r][cols]
        top = np.asarray(terms, dtype=float).max(axis=1)
        top[top == -np.inf] = 0.0
        scaled = nm.exp(terms - top[:, None])
        total = scaled.sum(axis=1)
        logp[sets] = nm.log(total) + top
        flogp[sets] = logp[sets]
        weights = scaled / np.where(total == 0, 1, total)[:, None]
        rho[sets] = (weights * (sg[r][cols] * signs[:, None]) * rho[prev]).sum(axis=1)
        # a set with P_S = 0 has weight 0 in every later level
        lp = np.minimum(abs(flogp[sets]), 1e300)
        err[sets] = (np.asarray(weights, dtype=float) * err[prev]).sum(axis=1) + (
            2 * lp + (7 * math.log(k) + k + 5)
        )
        lp, g, ch = flogp[prev], diff[:, prev], chans[:, r][:, cols]
        terms = np.empty((2, len(sets), 2 * k, count))
        terms[0, :, :k] = lp + ch[0]
        terms[1, :, :k] = np.logaddexp(lp, g[0]) + ch[1]
        terms[:, :, k:] = g + ch[2:]
        diff[:, sets] = np.logaddexp.reduce(terms, axis=2)
    full = size - 1
    values = np.sign(rho[full]).astype(int) * nm.exp(nm.log(abs(rho[full])) + logp[full])
    lmax = np.where(fa > -np.inf, abs(fa), 0.0).max(axis=(0, 1))
    grow = (2 * n1 + 1) * unit * (4 * n1 * (lmax + math.log(n1)) + 5 * n1 + 6)
    lp = flogp[full]
    log_det = lp + np.log(unit * (err[full] + np.minimum(abs(lp), 1e300) + 7))
    log_cut = np.logaddexp.reduce(diff[0, full] + grow)
    log_round = np.logaddexp.reduce(np.logaddexp(diff[1, full], log_det) + grow)
    return values, float(log_cut), float(log_round)


# ---------------------------------------------------------------------------
# intertwining weights


def chamber_to_departure(z, d, nu):
    """Weight kernel from ordered Poisson states to departure vectors:

        prod_k nu_k^(d_k - z_k) * det{ h-window(j,N) at z_i - d_j - i + j }.

    Nonnegative; vanishes unless z_N = d_N.  Exact over exact rates.  It
    equals prod_k nu_k^(-z_k) times the pattern sum symfunc.gt_sum(z, nu,
    ledge=d) over the interlacing patterns with shape z and left edge d,
    the independent route that the verify check lambda-two-routes
    compares it with."""
    nu = as_rates(nu)
    n1 = len(nu)
    z = _check_chamber(z, "z", n1)
    d = _check_chamber(d, "d", n1)
    vals = nu.values
    if z[-1] != d[-1]:
        return 0
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
    zs = [z[b] - b for b in range(n1)]
    mat = [
        [(-1) ** (r % 2) * symfunc.window_e(r, a, n1 - 1, vals) for r in [d[a] - a - s for s in zs]]
        for a in range(n1)
    ]
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
    if any(v < 0 for v in q):
        raise PreconditionError("queue lengths must be nonnegative")
    return tuple(completed + sum(q[k:]) for k in range(len(q) + 1))


def chamber_to_queue(z, q, nu):
    """Queue-indexed weight kernel: collapses the departure target to its
    queue contents.  Only the section with completed = z_N survives."""
    nu = as_rates(nu)
    z = _check_chamber(z, "z")
    q = _check_queue(q, nu.n_stations)
    return chamber_to_departure(z, queue_to_departures(q, completed=z[-1]), nu)


def queue_to_chamber_support(q, nu):
    """The (z, value) pairs of the left inverse of chamber_to_queue,
    anchored at completed = 0."""
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
    if not all(map(positive_finite, rates)):
        raise PreconditionError(f"rates must be positive and finite, got {rates}")
    check_time(t)
    check_tol(tol)
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
    check_tol(tol)
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

    so grow_weighted_box applies coordinatewise, through the tilt that
    also cuts departure_kernel's h-series (numerics.poisson_tilt).  scale
    collects both Leibniz sums, the start weights, the pmf rescaling
    constants, the constant offsets of the growth envelope and the pinned
    coordinate's bounded h-window factor.
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
    and each point adds sL sC e^(mL + mC) times the start weight.  The
    weight-kernel stack is gathered as logs, so that neither its h
    tables nor its rate powers leave the float range at large t."""
    n1 = len(fl)
    idx = np.arange(n1)
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

    # log h-window tables log h(b,N)_r per column b over every increment
    # r = y_a - (tgt_b - b), -inf for r < 0; entry (a, b) sits at y_a +
    # hcols[b].  h_r of the window's rates over their largest is polynomial
    tshift = np.array([tgt[b] - b for b in range(n1)])
    rlo, rhi = ylo - tshift.max(), yhi - tshift.min()
    pad = np.full(max(0, -rlo), -np.inf)
    logs = np.log(fl)
    logh = []
    for b in range(n1):
        top = max(fl[b + 1 :], default=1.0)
        scaled = symfunc.window_h_table(rhi, b, n1 - 1, tuple(v / top for v in fl))
        with np.errstate(divide="ignore"):
            col = np.log(scaled) + np.arange(rhi + 1) * math.log(top)
        logh.append(np.concatenate((pad, col))[max(0, rlo) :])
    logh = np.array(logh)
    hcols = idx * logh.shape[1] - tshift - rlo
    colfac = tshift * logs

    total = 0.0
    for lead in range(hi[0], lo[0] - 1, -1):
        y = (lattice.ordered_points([lead] + lo[1:], [lead] + hi[1:]) - idx)[:, :, None]
        # weight-kernel determinant stack (independent of the start z),
        # each row over its largest entry (pairwise, as ndarray.max over a
        # last axis of N+1 entries costs about half a slogdet)
        logL = logh.ravel()[y + hcols] + (colfac - y * logs[:, None])
        rowmax = functools.reduce(np.maximum, np.moveaxis(logL, 2, 0))[:, :, None]
        rowmax[rowmax == -np.inf] = 0.0
        sL, mL = np.linalg.slogdet(np.exp(logL - rowmax))
        mL += rowmax.sum(axis=(1, 2))
        for cols, const, weight in starts:
            sC, mC = np.linalg.slogdet(pmf.ravel()[y + cols] * const)
            total += weight * (sL * sC * np.exp(mL + mC)).sum()
    return float(total)
