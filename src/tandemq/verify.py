"""Named self-check suites: exact identity sweeps, cross-checks against
independent oracles, and asymptotic invariants.

Each check returns a CheckResult and is addressable by name, so the CLI
prints one pass/fail line per invariant and the acceptance tests can
rerun individual checks at full budget.  budget="fast" shrinks the
grids; the detail string always records the grid actually used.

The exact identities run on the library's own code: both inverse
identities sweep the weight kernels of the kernels module
(_inverse_sweep), and every determinant is linalg.det.
"""

import itertools
import math
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import asymptotics, kernels, lattice, queueprobs, simulator, symfunc
from .errors import PreconditionError
from .linalg import det
from .numerics import poisson_cap

SUITES = ("identities", "oracles", "asymptotics", "all")
BUDGETS = ("fast", "full")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""
    # wall time of the check, recorded by run_suite and run_check; None
    # when a check function is called directly
    seconds: float | None = None

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {status} (residual={self.residual:.3g}; {self.detail})"


def _rand_fractions(rng, n, lo=1, hi=9):
    return tuple(Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(n))


def _rand_distinct_fractions(rng, n, lo=1, hi=9):
    while True:
        vals = _rand_fractions(rng, n, lo, hi)
        if len(set(vals)) == n:
            return vals


# ---------------------------------------------------------------------------
# identities


def check_eh_alternating(budget, rng):
    """sum_r (-1)^r e_r h_{n-r} = 0 over a common variable set, n >= 1."""
    trials = 10 if budget == "fast" else 25
    nmax = 8 if budget == "fast" else 12
    bad = 0
    for _ in range(trials):
        m = rng.randint(1, 5)
        alpha = (0,) + _rand_fractions(rng, m)
        for n in range(1, nmax + 1):
            s = sum(
                (-1) ** r * symfunc.window_e(r, 0, m, alpha) * symfunc.window_h(n - r, 0, m, alpha)
                for r in range(m + 1)
            )
            bad += s != 0
    return CheckResult(
        "eh-alternating: exact", bad == 0, float(bad), f"{trials} variable sets, n<={nmax}"
    )


def check_window_convolution(budget, rng):
    """sum_r (-1)^r e^(i,N)_r h^(j,N)_{n-r} collapses to a single window:
    h^(j,i)_n when j <= i and (-1)^n e^(i,j)_n when i <= j."""
    trials = 10 if budget == "fast" else 50
    nmax = 8 if budget == "fast" else 12
    n1max = 4 if budget == "fast" else 5
    bad = 0
    for _ in range(trials):
        n1 = rng.randint(2, n1max)
        N = n1 - 1
        alpha = _rand_fractions(rng, n1)
        for i in range(N + 1):
            for j in range(N + 1):
                for n in range(nmax + 1):
                    lhs = sum(
                        (-1) ** r
                        * symfunc.window_e(r, i, N, alpha)
                        * symfunc.window_h(n - r, j, N, alpha)
                        for r in range(N - i + 1)
                    )
                    if j <= i:
                        rhs = symfunc.window_h(n, j, i, alpha)
                    else:
                        rhs = (-1) ** n * symfunc.window_e(n, i, j, alpha)
                    bad += lhs != rhs
    return CheckResult(
        "window-convolution: exact",
        bad == 0,
        float(bad),
        f"{trials} rate vectors, all station pairs, n<={nmax}, N<={n1max - 1}",
    )


def check_schur_two_routes(budget, rng):
    """The GT-pattern sum schur and the bialternant agree exactly:
    s_shape(alpha) = omega_alpha(shape) prod_k alpha_k^shape_k /
    omega_alpha(0), omega = queueprobs.chamber_harmonic."""
    trials = 8 if budget == "fast" else 20
    bad = 0
    for _ in range(trials):
        n1 = rng.randint(2, 5)
        alpha = _rand_distinct_fractions(rng, n1)
        shape = tuple(sorted((rng.randint(0, 6) for _ in range(n1)), reverse=True))
        ratio = queueprobs.chamber_harmonic(alpha, shape) / queueprobs.chamber_harmonic(alpha)
        bad += symfunc.schur(shape, alpha) != ratio * math.prod(a**k for a, k in zip(alpha, shape))
    return CheckResult(
        "schur-two-routes: exact", bad == 0, float(bad), f"{trials} shapes z0<=6, N<=4"
    )


def check_schur_symmetry(budget, rng):
    trials = 6 if budget == "fast" else 15
    bad = 0
    for _ in range(trials):
        n1 = rng.randint(2, 4)
        alpha = _rand_fractions(rng, n1)
        shape = tuple(sorted((rng.randint(0, 5) for _ in range(n1)), reverse=True))
        base = symfunc.schur(shape, alpha)
        for perm in itertools.permutations(alpha):
            bad += symfunc.schur(shape, perm) != base
    return CheckResult(
        "schur-symmetry: exact", bad == 0, float(bad), f"{trials} shapes, all permutations"
    )


def check_gt_count(budget, rng):
    """The pattern count s_shape(1, ..., 1) equals Weyl's dimension
    formula prod_{i<j} (shape_i - shape_j + j - i)/(j - i) (Macdonald,
    Symmetric Functions and Hall Polynomials, I.3)."""
    shapes = [(1, 0), (2, 1, 0), (2, 2, 0), (3, 1), (2, 1, 1, 0)]
    if budget == "full":
        shapes += [(4, 2, 0), (3, 2, 1, 0), (5, 3)]
    bad = 0
    for shape in shapes:
        weyl = math.prod(
            Fraction(shape[i] - shape[j] + j - i, j - i)
            for i, j in itertools.combinations(range(len(shape)), 2)
        )
        ones = (Fraction(1),) * len(shape)
        bad += weyl != symfunc.schur(shape, ones)
    return CheckResult("gt-count: exact", bad == 0, float(bad), f"{len(shapes)} shapes")


def check_cauchy_binet(budget, rng):
    """det of a composed kernel equals the chamber sum of products of
    determinants, for random compactly supported integer kernels."""
    trials = 12 if budget == "fast" else 30
    bad = 0
    for _ in range(trials):
        n1 = rng.randint(2, 4)
        m = n1 + rng.randint(1, 3)
        xi = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n1)]
        psi = [[rng.randint(-5, 5) for _ in range(n1)] for _ in range(m)]
        prod = [
            [sum(xi[i][s] * psi[s][j] for s in range(m)) for j in range(n1)] for i in range(n1)
        ]
        rhs = det(prod)
        lhs = 0
        for sites in itertools.combinations(range(m), n1):
            a = det([[xi[i][s] for s in sites] for i in range(n1)])
            b = det([[psi[s][j] for j in range(n1)] for s in sites])
            lhs += a * b
        bad += lhs != rhs
    return CheckResult(
        "cauchy-binet: exact", bad == 0, float(bad), f"{trials} random kernels, N<=3"
    )


def _inverse_sweep(points, support, kernel):
    """Exact inverse identity sum_z support(p)[z] kernel(z, p2) = [p == p2]
    over every pair of points; returns (mismatches, pairs).  support(p)
    lists the (z, value) pairs of the left inverse, and each kernel value
    is computed once per (z, p2)."""
    cache = {}
    bad = 0
    for p in points:
        supp = support(p)
        for p2 in points:
            total = 0
            for z, pv in supp:
                v = cache.get((z, p2))
                if v is None:
                    v = cache[z, p2] = kernel(z, p2)
                if v:
                    total += pv * v
            bad += total != (p == p2)
    return bad, len(points) ** 2


def check_pi_lambda_inverse(budget, rng):
    cases = [(2, 5), (3, 4)] if budget == "fast" else [(2, 5), (3, 5), (4, 5)]
    bad = 0
    pairs = 0
    for n1, cap in cases:
        nu = tuple(rng.randint(1, 9) for _ in range(n1))
        ds = list(map(tuple, lattice.ordered_points([0] * n1, [cap] * n1).tolist()))
        b, p = _inverse_sweep(
            ds,
            lambda d: kernels.departure_to_chamber_support(d, nu),
            lambda z, d2: kernels.chamber_to_departure(z, d2, nu),
        )
        bad += b
        pairs += p
    detail = "entries<=%d, N<=%d, %d pairs" % (cases[-1][1], cases[-1][0] - 1, pairs)
    return CheckResult("pi-lambda-inverse: exact", bad == 0, float(bad), detail)


def check_queue_inverse(budget, rng):
    """Inverse identity on queue coordinates, rational rates."""
    caps = [(1, 4), (2, 4)] if budget == "fast" else [(1, 4), (2, 4), (3, 2)]
    bad = 0
    pairs = 0
    for n, cap in caps:
        nu = _rand_fractions(rng, n + 1)
        b, p = _inverse_sweep(
            list(itertools.product(range(cap + 1), repeat=n)),
            lambda q: kernels.queue_to_chamber_support(q, nu),
            lambda z, q2: kernels.chamber_to_queue(z, q2, nu),
        )
        bad += b
        pairs += p
    return CheckResult("queue-inverse: exact", bad == 0, float(bad), f"{pairs} queue pairs")


def check_lambda_two_routes(budget, rng):
    """The chamber-to-departure kernel, a determinant, and prod_k
    nu_k^(-z_k) times the GT-pattern sum symfunc.gt_sum(z, nu, ledge=d)
    agree exactly, including structural zeros."""
    trials = 60 if budget == "fast" else 300
    bad = 0
    for _ in range(trials):
        n1 = rng.randint(2, 4)
        nu = _rand_fractions(rng, n1)
        z = tuple(sorted((rng.randint(0, 6) for _ in range(n1)), reverse=True))
        d = tuple(sorted((rng.randint(0, 6) for _ in range(n1)), reverse=True))
        a = kernels.chamber_to_departure(z, d, nu)
        bad += a != symfunc.gt_sum(z, nu, ledge=d) * math.prod(v**-k for v, k in zip(nu, z))
    return CheckResult("lambda-two-routes: exact", bad == 0, float(bad), f"{trials} draws, N<=3")


# ---------------------------------------------------------------------------
# oracles


def _rand_departure_pair(rng, n1, spread=3):
    d = tuple(sorted((rng.randint(0, 3) for _ in range(n1)), reverse=True))
    while True:
        d2 = tuple(d[k] + rng.randint(0, spread) for k in range(n1))
        if all(d2[k] >= d2[k + 1] for k in range(n1 - 1)):
            return d, d2


def check_departure_two_routes(budget, rng):
    points = 24 if budget == "fast" else 200
    nmax = 2 if budget == "fast" else 3
    worst = 0.0
    bad = 0
    for i in range(points):
        n1 = rng.randint(2, nmax + 1)
        nu = tuple(rng.uniform(0.5, 5.0) for _ in range(n1))
        t = (0.25, 1.0, 4.0)[i % 3]
        d, d2 = _rand_departure_pair(rng, n1)
        direct = kernels.departure_kernel(d, d2, t, nu)
        via = kernels.departure_kernel_via_intertwining(d, d2, t, nu, tol=1e-9)
        diff = abs(direct - via.value)
        worst = max(worst, diff)
        bad += diff > 1e-8
        bad += not (-1e-9 <= via.value <= 1 + 1e-9)
    return CheckResult(
        "departure-two-routes: 1e-8", bad == 0, worst, f"{points} points, N<={nmax}, t in {{0.25,1,4}}"
    )


def check_intertwining_relation(budget, rng):
    """Composing the killed kernel with the weight kernel equals
    composing the weight kernel with the departure kernel."""
    trials = 4 if budget == "fast" else 10
    worst = 0.0
    for _ in range(trials):
        n1 = rng.randint(2, 3)
        nu = tuple(rng.uniform(0.5, 3.0) for _ in range(n1))
        t = rng.choice([0.25, 0.5, 1.0])
        x = tuple(sorted((rng.randint(0, 2) for _ in range(n1)), reverse=True))
        d = tuple(sorted((rng.randint(0, 2) for _ in range(n1)), reverse=True))
        # rhs: the weight kernel from x has unbounded support downward in
        # principle, but the departure kernel vanishes unless its source
        # is between 0 and its target, so the sum is exactly finite
        rhs = 0.0
        for y in lattice.ordered_points([0] * n1, [max(d)] * n1).tolist():
            lv = kernels.chamber_to_departure(x, y, nu)
            if lv:
                rhs += float(lv) * kernels.departure_kernel(y, d, t, nu)
        # lhs: truncate the killed kernel at per-coordinate Poisson caps
        caps = [x[k] + poisson_cap(nu[k] * t, 1e-13)[0] + 4 for k in range(n1)]
        lhs = 0.0
        for y in lattice.ordered_points(x, caps).tolist():
            kv = kernels.killed_poisson_kernel(x, y, t, nu)
            if kv:
                lhs += kv * float(kernels.chamber_to_departure(y, d, nu))
        worst = max(worst, abs(lhs - rhs))
    return CheckResult("intertwining-relation: 1e-8", worst <= 1e-8, worst, f"{trials} points, N<=2")


def check_harmonic_expectation(budget, rng):
    """The rate-ratio determinant is invariant under the killed kernel
    when the rates are arranged in decreasing order."""
    trials = 3 if budget == "fast" else 8
    worst = 0.0
    for _ in range(trials):
        n1 = rng.randint(2, 3)
        lam = tuple(sorted(_rand_distinct_fractions(rng, n1), reverse=True))
        t = rng.choice([0.25, 0.5])
        x = tuple(sorted((rng.randint(0, 2) for _ in range(n1)), reverse=True))
        fl = tuple(float(v) for v in lam)
        caps = [x[k] + poisson_cap(fl[k] * t, 1e-13)[0] + 4 for k in range(n1)]
        acc = 0.0
        for y in lattice.ordered_points(x, caps).tolist():
            kv = kernels.killed_poisson_kernel(x, y, t, fl)
            if kv:
                acc += kv * queueprobs.chamber_harmonic(fl, y)
        ref = queueprobs.chamber_harmonic(fl, x)
        worst = max(worst, abs(acc - ref) / abs(ref))
    return CheckResult("harmonic-expectation: 1e-8", worst <= 1e-8, worst, f"{trials} points, N<=2")


def check_chapman_kolmogorov(budget, rng):
    """Departure kernel at t+s equals the composition over the exactly
    finite set of intermediate departure vectors."""
    trials = 5 if budget == "fast" else 12
    worst = 0.0
    for _ in range(trials):
        n1 = rng.randint(2, 3)
        nu = tuple(rng.uniform(0.5, 3.0) for _ in range(n1))
        t, s = rng.choice([(0.25, 0.75), (0.5, 0.5), (1.0, 0.5)])
        d, d2 = _rand_departure_pair(rng, n1, spread=2)
        whole = kernels.departure_kernel(d, d2, t + s, nu)
        parts = 0.0
        for m in lattice.ordered_points([0] * n1, [max(d2)] * n1).tolist():
            if any(m[k] < d[k] or m[k] > d2[k] for k in range(n1)):
                continue
            parts += kernels.departure_kernel(d, m, t, nu) * kernels.departure_kernel(
                m, d2, s, nu
            )
        worst = max(worst, abs(whole - parts))
    return CheckResult("chapman-kolmogorov: 1e-10", worst <= 1e-10, worst, f"{trials} points, N<=2")


_KT00_POINTS = (
    ((1, 2), (0.5, 2.0)),
    ((1, 2, 4), (0.5, 2.0)),
    ((1, 1.5, 3), (1.0,)),
    ((1, 2, 3, 5), (1.0,)),
)


def check_kt00_two_forms(budget, rng):
    """Worst pairwise gap between kt_general and its closed-form oracles."""
    pts = _KT00_POINTS[:2] if budget == "fast" else _KT00_POINTS
    worst = 0.0
    npts = 0
    for nu, ts in pts:
        for t in ts:
            n = len(nu) - 1
            g = queueprobs.kt_general((0,) * n, (0,) * n, t, nu, tol=1e-9).value
            a = queueprobs.kt00_direct(t, nu, tol=1e-9).value
            b = queueprobs.kt00_stationary(t, nu, tol=1e-9).value
            worst = max(worst, abs(a - b), abs(g - a), abs(g - b))
            npts += 1
    return CheckResult("kt00-two-forms: 2e-8", worst <= 2e-8, worst, f"{npts} stable points")


def check_kt00_vs_uniformization(budget, rng):
    pts = _KT00_POINTS[:2] if budget == "fast" else _KT00_POINTS
    worst = 0.0
    npts = 0
    for nu, ts in pts:
        for t in ts:
            n = len(nu) - 1
            a = queueprobs.kt00_stationary(t, nu, tol=1e-9).value
            g = queueprobs.kt_general((0,) * n, (0,) * n, t, nu, tol=1e-9).value
            u = simulator.uniformization_kt((0,) * n, (0,) * n, t, nu, tol=1e-8).value
            worst = max(worst, abs(a - u), abs(g - u))
            npts += 1
    return CheckResult("kt00-vs-uniformization: 1e-6", worst <= 1e-6, worst, f"{npts} points")


def check_mm1_vs_uniformization(budget, rng):
    qmax = 3 if budget == "fast" else 5
    ts = (0.5, 1.0) if budget == "fast" else (0.5, 1.0, 5.0)
    worst = 0.0
    for t in ts:
        for q in range(qmax + 1):
            for q2 in range(qmax + 1):
                a = queueprobs.mm1_kt(q, q2, t, (1, 2))
                u = simulator.uniformization_kt((q,), (q2,), t, (1, 2), tol=1e-12)
                worst = max(worst, abs(a.value - u.value))
    return CheckResult(
        "mm1-vs-uniformization: 1e-10", worst <= 1e-10, worst, f"q,q2<={qmax}, t in {ts}"
    )


def check_mm1_noncrossing(budget, rng):
    """Single-station empty-to-empty probability equals the two-counter
    ordering probability with the service counter leading."""
    pairs = [((1, 2), 1.0), ((2, 3), 0.5)] if budget == "fast" else [
        ((1, 2), 1.0),
        ((2, 3), 0.5),
        ((1, 2), 4.0),
        ((3, 1), 0.7),
        ((2, 2), 1.5),
    ]
    worst = 0.0
    for nu, t in pairs:
        a = queueprobs.mm1_kt(0, 0, t, nu)
        b = kernels.noncrossing_prob((0, 0), t, (nu[1], nu[0]), tol=1e-11)
        worst = max(worst, abs(a.value - b.value))
    return CheckResult("mm1-noncrossing: 1e-9", worst <= 1e-9, worst, f"{len(pairs)} points")


def check_simulation_3sigma(budget, rng):
    reps = 200_000 if budget == "fast" else 1_000_000
    seed = rng.randrange(2**32)
    cfg = simulator.SimConfig(rates=(1, 2), horizon=1.0, seed=seed, replications=reps)
    est = simulator.simulate_queue_prob((0,), (0,), cfg=cfg)
    exact = queueprobs.mm1_kt(0, 0, 1.0, (1, 2)).value
    dev_q = abs(est.mean - exact) / (est.half_width_95 / 1.96)
    cfg2 = simulator.SimConfig(rates=(3, 2, 1), horizon=1.0, seed=seed + 1, replications=reps)
    est2 = simulator.simulate_noncrossing((2, 1, 0), cfg=cfg2)
    exact2 = kernels.noncrossing_prob((2, 1, 0), 1.0, (3, 2, 1), tol=1e-11).value
    dev_n = abs(est2.mean - exact2) / (est2.half_width_95 / 1.96)
    worst = max(dev_q, dev_n)
    return CheckResult(
        "simulation-3sigma", worst <= 3.0, worst, f"{reps} replications, worst deviation in sigmas"
    )


# ---------------------------------------------------------------------------
# asymptotics


def check_rate_function_convexity(budget, rng):
    trials = 200 if budget == "fast" else 1000
    worst = 0.0
    for _ in range(trials):
        n1 = rng.randint(2, 4)
        nu = tuple(rng.uniform(0.3, 5.0) for _ in range(n1))
        x = tuple(rng.uniform(0.0, 8.0) for _ in range(n1))
        y = tuple(rng.uniform(0.0, 8.0) for _ in range(n1))
        mid = tuple((a + b) / 2 for a, b in zip(x, y))
        gap = asymptotics.rate_function(mid, nu) - 0.5 * (
            asymptotics.rate_function(x, nu) + asymptotics.rate_function(y, nu)
        )
        worst = max(worst, gap)
    return CheckResult(
        "rate-function-convexity", worst <= 1e-10, worst, f"{trials} random midpoints"
    )


def check_chamber_infimum_lower_bound(budget, rng):
    trials = 2000 if budget == "fast" else 10000
    worst = -math.inf
    for _ in range(trials):
        n1 = rng.randint(2, 4)
        nu = tuple(rng.uniform(0.3, 5.0) for _ in range(n1))
        best, _ = asymptotics.chamber_infimum(nu)
        # random admissible arrangement and random chamber point
        while True:
            sigma = list(range(n1))
            rng.shuffle(sigma)
            if sigma[-1] != 0:
                break
        gaps = [rng.uniform(0.0, 3.0) for _ in range(n1)]
        x = tuple(sum(gaps[k:]) for k in range(n1))
        val = asymptotics.rate_function(x, tuple(nu[k] for k in sigma))
        worst = max(worst, best - val)
    return CheckResult(
        "chamber-infimum-lower-bound", worst <= 1e-12, worst, f"{trials} random chamber points"
    )


def check_chamber_infimum_vs_scipy(budget, rng):
    from scipy import optimize

    trials = 6 if budget == "fast" else 20
    worst = 0.0
    for _ in range(trials):
        n1 = rng.randint(2, 4)
        nu = tuple(rng.uniform(0.3, 5.0) for _ in range(n1))
        pav, _ = asymptotics.chamber_infimum(nu)
        best = math.inf
        for sigma in itertools.permutations(range(n1)):
            if sigma[-1] == 0:
                continue
            lam = np.array([nu[k] for k in sigma])

            def obj(g, lam=lam):
                x = np.maximum(np.cumsum(g[::-1])[::-1], 1e-300)
                logr = np.log(x / lam)
                # x_k sums g_j over j >= k, so d/dg_j = sum_{k <= j} log(x_k/lam_k)
                return float(np.sum(lam - x + x * logr)), np.cumsum(logr)

            for _start in range(3):
                g0 = np.abs(np.diff(np.append(lam, 0.0) * rng.uniform(0.5, 1.5)))
                res = optimize.minimize(
                    obj, np.maximum(g0, 1e-6), method="L-BFGS-B", jac=True,
                    bounds=[(0.0, None)] * n1, options={"ftol": 1e-14, "gtol": 1e-10},
                )
                best = min(best, float(res.fun))
        worst = max(worst, abs(best - pav))
    return CheckResult(
        "chamber-infimum-vs-scipy", worst <= 1e-6, worst, f"{trials} rate vectors, 3 restarts"
    )


def check_bottleneck_reduction(budget, rng):
    trials = 50 if budget == "fast" else 200
    worst = 0.0
    for _ in range(trials):
        n1 = rng.randint(2, 5)
        nu0 = rng.uniform(0.2, 1.0)
        services = tuple(rng.uniform(nu0 * 1.05, 5.0) for _ in range(n1 - 1))
        nu = (nu0,) + services
        a = asymptotics.relaxation_time(nu)
        b = asymptotics.relaxation_time((nu0, min(services)))
        worst = max(worst, abs(a - b) / a)
    return CheckResult("bottleneck-reduction", worst <= 1e-15, worst, f"{trials} stable vectors")


def check_relaxation_consistency(budget, rng):
    trials = 50 if budget == "fast" else 200
    worst = 0.0
    for _ in range(trials):
        n1 = rng.randint(2, 5)
        nu0 = rng.uniform(0.2, 1.0)
        nu = (nu0,) + tuple(rng.uniform(nu0 * 1.05, 5.0) for _ in range(n1 - 1))
        inf_val, _ = asymptotics.chamber_infimum(nu)
        rate = asymptotics.relaxation_rate(nu)
        worst = max(worst, abs(inf_val - rate) / rate)
        worst = max(worst, abs(rate * asymptotics.relaxation_time(nu) - 1.0))
    return CheckResult("relaxation-consistency", worst <= 1e-12, worst, f"{trials} stable vectors")


def check_decay_fit(budget, rng):
    trials = 10 if budget == "fast" else 30
    worst = 0.0
    for _ in range(trials):
        theta = rng.uniform(0.05, 0.5)
        pref = rng.uniform(0.5, 20.0)
        ts = [5.0 + 3.0 * k for k in range(20)]
        series = [(t, pref * math.exp(-theta * t)) for t in ts]
        fitted, _, _ = asymptotics.fit_decay_rate(series, floor=0.0)
        worst = max(worst, abs(fitted - theta) / theta)
    return CheckResult("decay-fit-synthetic", worst <= 1e-9, worst, f"{trials} synthetic series")


# ---------------------------------------------------------------------------
# suite runner

IDENTITY_CHECKS = (
    check_eh_alternating,
    check_window_convolution,
    check_schur_two_routes,
    check_schur_symmetry,
    check_gt_count,
    check_cauchy_binet,
    check_pi_lambda_inverse,
    check_queue_inverse,
    check_lambda_two_routes,
)

ORACLE_CHECKS = (
    check_departure_two_routes,
    check_intertwining_relation,
    check_harmonic_expectation,
    check_chapman_kolmogorov,
    check_kt00_two_forms,
    check_kt00_vs_uniformization,
    check_mm1_vs_uniformization,
    check_mm1_noncrossing,
    check_simulation_3sigma,
)

ASYMPTOTIC_CHECKS = (
    check_rate_function_convexity,
    check_chamber_infimum_lower_bound,
    check_chamber_infimum_vs_scipy,
    check_bottleneck_reduction,
    check_relaxation_consistency,
    check_decay_fit,
)


def run_suite(suite="all", budget="fast", seed=20260814):
    if suite not in SUITES:
        raise PreconditionError(f"unknown suite {suite!r}")
    if budget not in BUDGETS:
        raise PreconditionError(f"unknown budget {budget!r}")
    checks = []
    if suite in ("identities", "all"):
        checks += list(IDENTITY_CHECKS)
    if suite in ("oracles", "all"):
        checks += list(ORACLE_CHECKS)
    if suite in ("asymptotics", "all"):
        checks += list(ASYMPTOTIC_CHECKS)
    rng = random.Random(seed)
    return [_timed(fn, budget, rng) for fn in checks]


def run_check(fn, budget="full", seed=20260814):
    """Run a single named check at the given budget."""
    return _timed(fn, budget, random.Random(seed))


def _timed(fn, budget, rng):
    t0 = time.perf_counter()
    res = fn(budget, rng)
    return replace(res, seconds=time.perf_counter() - t0)
