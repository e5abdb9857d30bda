"""Transition probabilities of the queue-length vector.

The flagship quantity is the general kt as a finite sum of
departure-kernel determinants over the completion count (kt_general),
which serves every pair of states and every N.  The empty-to-empty
probability kt00 in two arrangement-sum forms and the classical
Bessel series for a single station are kept as oracles; the gap
kt00 - pi0 (kt00_gap) is the route of the relaxation diagnostics.  All
truncations carry certified error bounds, returned alongside the value.
"""

import math
from fractions import Fraction

from . import lattice
from .asymptotics import relaxation_rate
from .errors import PreconditionError, ToleranceNotAchieved
from .kernels import _check_queue, departure_kernel_stack, queue_to_departures
from .numerics import MAX_CAP, KernelValue, check_time, check_tol, evaluation, poisson_cap
from .rates import _div, as_rates, rate_ratio
from .symfunc import _pow

# kt00_gap_relative starts at rel_tol e^(-g t) (1+t)^(-3/2) times this
# margin: at N = 2..4 and t = 0.5..300 the measured gaps lie between 0.07
# and 0.85 times e^(-g t) (1+t)^(-3/2)
ENVELOPE_MARGIN = 1e-3


def stationary_empty_prob(nu):
    """prod_j (1 - nu_0/nu_j), the equilibrium probability of an empty
    system.  Exact over exact rates."""
    nu = as_rates(nu)
    nu.require_stable()
    out = 1
    for rho in nu.utilizations():
        out = out * (1 - rho)
    return out


def chamber_harmonic(lam, x=None):
    """omega_lam(x) = prod_k lam_k^(-x_k) det{ lam_j^(x_i - i + j) }.

    At x = 0 this is prod_{i<j} (1 - lam_j/lam_i); as a function of x it
    is harmonic for the killed ordered Poisson system with rates lam.
    Exact over exact rates."""
    lam = as_rates(lam)
    n1 = len(lam)
    vals = lam.values
    if x is None:
        out = 1
        for i in range(n1):
            for j in range(i + 1, n1):
                out = out * (1 - _div(vals[j], vals[i]))
        return out
    if len(x) != n1:
        raise PreconditionError("x must have one coordinate per rate")
    mat = [[_pow(vals[j], x[i] - i + j) for j in range(n1)] for i in range(n1)]
    from .linalg import det

    out = det(mat)
    for k in range(n1):
        out = out * _pow(vals[k], -x[k])
    return out


@evaluation
def kt00_direct(t, nu, tol=1e-10, *, nm):
    """Empty-to-empty transition probability as a sum of N! noncrossing
    probabilities over arrangements with the arrival rate last, summed
    by one subset recursion in C(2N+1, N) states, each an array over the
    truncation range (lattice.survival_probability).

    Needs distinct service rates only; no stability assumption."""
    nu = as_rates(nu)
    nu.require_distinct(service_only=True)
    check_time(t)
    check_tol(tol)
    if t == 0:
        return KernelValue(1.0, 0.0)
    every = frozenset(range(len(nu)))
    # the arrival rate sits last and stays out of the weights
    arrangements = lattice.Arrangements((every,) * nu.n_stations + (frozenset({0}),), every - {0})
    return KernelValue(*lattice.survival_probability((0,) * len(nu), t, nu, tol, nm, arrangements))


@evaluation
def kt00_gap(t, nu, tol=1e-10, *, nm):
    """kt00(t) - stationary_empty_prob, computed directly from the
    (N+1)! - N! complementary arrangements so no cancellation against
    the equilibrium value occurs.  One subset recursion sums them in at
    most C(2N+2, N+1) states, each an array over the truncation range
    (lattice.survival_probability).  Needs stability and all rates
    distinct."""
    nu = as_rates(nu)
    nu.require_stable()
    nu.require_distinct(service_only=False)
    check_time(t)
    check_tol(tol)
    if t == 0:
        return KernelValue(1 - nm.scalar(stationary_empty_prob(nu)), 0.0)
    every = frozenset(range(len(nu)))
    pi0 = stationary_empty_prob([Fraction(v) for v in nu])
    # a service rate sits last; sigma weighs -pi0 / prod_{i<j} (1 - nu_sigma(j)/nu_sigma(i))
    arrangements = lattice.Arrangements((every,) * nu.n_stations + (every - {0},), every, -pi0)
    return KernelValue(*lattice.survival_probability((0,) * len(nu), t, nu, tol, nm, arrangements))


def kt00_gap_relative(t, nu, rel_tol=1e-4, *, precision="double"):
    """kt00_gap with the truncation tolerance tightened until the
    certified bound drops below rel_tol times the value itself.

    A fixed absolute tolerance either wastes work or certifies nothing,
    since the gap decays like e^(-g t) t^(-3/2), g the relaxation rate
    (asymptotics.relaxation_rate).  The first tolerance is therefore
    rel_tol e^(-g t) (1+t)^(-3/2) ENVELOPE_MARGIN, taken in logs and
    clamped to [1e-300, 1e-12]; a tighter cut costs little, as the caps
    grow like sqrt(log(1/tol)), so one pass certifies the value.  Where
    the envelope is too loose, each retry re-targets the tolerance from
    the measured value, and the returned abs_error is the honest bound
    from the final pass.  A retry at the tolerance just used would repeat
    that pass, so the loop stops there (at the 1e-300 floor) and returns
    it.  A refusal of a pass is restated against rel_tol, with its
    achieved bound scaled by the factor that pass missed by."""
    check_tol(rel_tol, "rel_tol")
    check_time(t)
    g = relaxation_rate(nu)
    log_tol = math.log(rel_tol) + math.log(ENVELOPE_MARGIN) - g * t - 1.5 * math.log1p(t)
    tol = min(max(math.exp(log_tol), 1e-300), 1e-12)
    try:
        kv = kt00_gap(t, nu, tol=tol, precision=precision)
        for _ in range(8):
            target = abs(float(kv.value)) * rel_tol
            if kv.value > 0 and kv.abs_error <= target:
                break
            # value may itself be noise when the bound dominates; shrinking
            # the tolerance geometrically still terminates within the cap
            retry = max(min(tol * 1e-6, target) if target > 0 else tol * 1e-6, 1e-300)
            if retry == tol:
                break
            tol = retry
            kv = kt00_gap(t, nu, tol=tol, precision=precision)
    except ToleranceNotAchieved as err:
        raise err.restated(rel_tol) from None
    return kv


@evaluation
def kt00_stationary(t, nu, tol=1e-10, *, nm):
    """Empty-to-empty transition probability as equilibrium value plus
    exponentially small correction terms.

    Needs stability and all N+1 rates distinct; preferable to
    kt00_direct at large t, where the correction terms are tiny."""
    gap = kt00_gap(t, nu, tol, precision=nm.precision)
    return KernelValue(nm.scalar(stationary_empty_prob(nu)) + gap.value, gap.abs_error)


@evaluation
def kt_general(q, q2, t, nu, tol=1e-8, *, nm):
    """Transition probability of the queue-length vector between
    arbitrary states, as a finite sum over the number c of jobs that have
    left the last station by time t:

        kt(q, q2, t) = sum_c departure_kernel(pi(q), pi(q2, c), t),

    pi = queue_to_departures; all terms come from one
    departure_kernel_stack.  No rate assumptions beyond positivity:
    equal, coincident and unstable rates take the same route, and so do
    empty-to-empty (kt00) and single-station (N=1) transitions.  This is
    the route of both `tandemq kt00` and `tandemq kt`; kt00_direct,
    kt00_stationary and mm1_kt are its oracles.

    abs_error = tail + cut + roundoff <= tol.  tail: the arrival count
    is c + |q2| - |q|, so the terms past the last c hold at most
    P(Poisson(nu_0 t) > cap), the smallest cap that meets tol/4.  cut:
    the summed error of the h-series cuts inside the determinants, below
    tol/8 (when a truncation limit stops the tail or the cuts short, the
    refusal names tol and the bound on that part).  roundoff: the certified float round-off of the entries and
    the determinants (kernels._det_perm_diff).  When the three exceed
    tol the call raises ToleranceNotAchieved with their sum instead of
    returning a value; the message names a "determinant cancellation"
    when a service rate is below an earlier one, since the determinants
    then cancel at large t, and otherwise the round-off against what tol
    leaves after tail and cut.  Between empty states the service rates
    are sorted first, which leaves the value unchanged."""
    nu = as_rates(nu)
    q = _check_queue(q, nu.n_stations, "q")
    q2 = _check_queue(q2, nu.n_stations, "q2")
    check_time(t)
    check_tol(tol)
    if t == 0:
        return KernelValue(1.0 if q == q2 else 0.0, 0.0)
    if not any(q) and not any(q2):
        # from an empty start the departures from the last station do not
        # depend on the order of the stations (./M/1 interchangeability),
        # and with increasing service rates the determinants do not cancel
        nu = as_rates((nu[0],) + tuple(sorted(nu.services)))
    d = queue_to_departures(q)
    base = queue_to_departures(q2)
    # departures never decrease, so every term with c < first is zero
    first = max(d[k] - base[k] for k in range(len(d)))
    try:
        cap, tail = poisson_cap(nm.scalar(nu[0]) * nm.scalar(t), tol / 4)
        last = cap + sum(q) - sum(q2)
        if last < first:
            return KernelValue(0, tail)
        target, count = tuple(v + first for v in base), last - first + 1
        values, cut, roundoff = departure_kernel_stack(d, target, count, t, nu, tol / 8, nm)
    except ToleranceNotAchieved as err:
        # the tail or the cuts missed their share: the bound on that part
        raise err.restated(tol, 1.0) from None
    bound = tail + cut + roundoff
    if bound > tol:
        s = nu.services
        if any(b < a for a, b in zip(s, s[1:])):
            detail = f"determinant cancellation: certified round-off {roundoff:.3g}"
        else:
            detail = (
                f"certified round-off {roundoff:.3g} exceeds what tol leaves after "
                f"tail {tail:.3g} and cut {cut:.3g}"
            )
        raise ToleranceNotAchieved(tol, bound, detail + "; try precision='high'")
    return KernelValue(values.sum(), bound)


def mm1_kt(q, q2, t, nu, rel_tol=1e-15):
    """Single-station transition probability via the classical scaled
    Bessel series,

        e^{-(nu_0+nu_1) t} [ rho^((q2-q)/2) I_{q2-q}
                             + rho^((q2-q-1)/2) I_{q+q2+1}
                             + (1-rho) rho^q2 sum_{l>=q+q2+2} rho^(-l/2) I_l ],

    all Bessel arguments 2 sqrt(nu_0 nu_1) t.  Each term is one exp of a
    sum of logs; the series tail is cut by a geometric bound.  A scaled
    Bessel value below 1e-300 counts as 0 (and 1e-300 in abs_error) where
    the term stays below 1e-300; elsewhere it raises ToleranceNotAchieved.
    The terms fall only past l = max(x, (nu_1 - nu_0) t), so a series
    that would run past MAX_CAP terms raises ToleranceNotAchieved too; a
    rate ratio or mean past the double range raises PreconditionError."""
    from scipy.special import ive

    nu = as_rates(nu)
    if nu.n_stations != 1:
        raise PreconditionError("mm1_kt needs exactly one station")
    q, q2 = _check_queue((q, q2), 2, "(q, q2)")
    check_time(t)
    check_tol(rel_tol, "rel_tol")
    if t == 0:
        return KernelValue(1.0 if q == q2 else 0.0, 0.0)
    lam, mu = nu.as_floats()
    rho, lrho = lam / mu, math.log(lam) - math.log(mu)
    x = 2.0 * math.sqrt(lam * mu) * t
    if not (rho < math.inf and x < math.inf and (lam + mu) * t < math.inf):
        raise PreconditionError(f"rate ratio {rate_ratio(nu)} or mean past the double range")
    if lam != mu and max(x, (mu - lam) * t) > MAX_CAP:
        raise ToleranceNotAchieved(rel_tol, math.inf, f"Bessel series exceeded {MAX_CAP} terms")
    # e^{-(lam+mu)t} I_l(x) = ive(l, x) * e^{x - (lam+mu)t}, exponent <= 0
    ldamp = x - (lam + mu) * t
    err = 0.0

    def term(ell, power):
        # rho^power e^{-(lam+mu)t} I_ell(x)
        nonlocal err
        b = ive(ell, x)
        if b >= 1e-300:
            return math.exp(power * lrho + math.log(b) + ldamp)
        if power * lrho + ldamp > 0:
            raise ToleranceNotAchieved(rel_tol, math.inf, f"Bessel I_{ell}({x:g}) underflows")
        err += 1e-300 * max(1.0, abs(1.0 - rho))
        return 0.0

    out = term(q2 - q, (q2 - q) / 2.0) + term(q + q2 + 1, (q2 - q - 1) / 2.0)
    if lam != mu:
        acc = 0.0
        ell = q + q2 + 2
        while True:
            v = term(ell, q2 - ell / 2.0)
            acc += v
            # I_{l+1}(x)/I_l(x) <= x/(l + sqrt(l^2+x^2)), decreasing in l
            ratio = math.exp(-lrho / 2.0) * x / (ell + math.sqrt(ell * ell + x * x))
            ell += 1
            if ell > x and ratio < 1:
                tail = max(v, 1e-300) * ratio / (1 - ratio)
                if tail <= rel_tol * acc + 1e-300:
                    break
        out += (1.0 - rho) * acc
        err += abs(1.0 - rho) * tail
    return KernelValue(out, err)
