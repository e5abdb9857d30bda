"""Independent oracles: Monte Carlo simulation and uniformization.

Simulation uses uniformized thinning: a single Poisson event clock at
rate sum(nu) drives every replication, each event is attributed to one
station (or particle) by an independent categorical draw, and events
that find the station idle are null.  This is distribution-exact for
the Markov dynamics and vectorizes across replications.

Replications are processed in fixed blocks of 65536; block b draws its
randomness from a counter-based generator keyed by (seed, b), so serial
and parallel runs produce identical output and reruns are byte-stable.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, ToleranceNotAchieved
from .kernels import KernelValue, _check_chamber, _check_queue
from .numerics import Numerics, check_time, poisson_cap
from .rates import as_rates

BLOCK = 65536


@dataclass(frozen=True)
class SimConfig:
    # One rate per event source: the queue target reads (arrival,
    # services...), the noncrossing target one rate per counter.
    rates: tuple
    horizon: float
    seed: int
    replications: int

    def __post_init__(self):
        vals = tuple(self.rates)
        if not vals or any(not v > 0 for v in vals):
            raise PreconditionError("rates must be a nonempty positive sequence")
        object.__setattr__(self, "rates", vals)
        if self.replications < 1:
            raise PreconditionError("replications must be >= 1")
        if not 0 < self.horizon < math.inf:
            raise PreconditionError(f"horizon must be positive and finite, got {self.horizon!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise PreconditionError("seed must fit in 64 bits")


class Estimate(NamedTuple):
    mean: float
    half_width_95: float
    replications: int


def _block_rng(seed, block):
    return np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


def _station_draws(rng, fl, n_reps, t):
    """Event counts and per-event station labels for one block."""
    lam = float(sum(fl))
    counts = rng.poisson(lam * t, size=n_reps)
    kmax = int(counts.max(initial=0))
    cum = np.cumsum(fl) / lam
    cum[-1] = 1.0
    labels = np.searchsorted(cum, rng.random((n_reps, kmax)), side="right")
    return counts, labels


def _queue_block(args):
    fl, q, q2, t, seed, block = args
    rng = _block_rng(seed, block)
    counts, labels = _station_draws(rng, fl, BLOCK, t)
    n = len(q)
    state = np.tile(np.asarray(q, dtype=np.int64), (BLOCK, 1))
    for j in range(labels.shape[1]):
        act = j < counts
        s = labels[:, j]
        m = act & (s == 0)
        state[m, 0] += 1
        for k in range(1, n + 1):
            m = act & (s == k) & (state[:, k - 1] > 0)
            state[m, k - 1] -= 1
            if k < n:
                state[m, k] += 1
    return (state == np.asarray(q2, dtype=np.int64)).all(axis=1)


def _noncross_block(args):
    fl, x, t, seed, block = args
    rng = _block_rng(seed, block)
    counts, labels = _station_draws(rng, fl, BLOCK, t)
    n1 = len(x)
    state = np.tile(np.asarray(x, dtype=np.int64), (BLOCK, 1))
    alive = np.ones(BLOCK, dtype=bool)
    for j in range(labels.shape[1]):
        act = alive & (j < counts)
        s = labels[:, j]
        for k in range(n1):
            m = act & (s == k)
            if k >= 1:
                crossed = m & (state[:, k] == state[:, k - 1])
                alive[crossed] = False
                m &= ~crossed
            state[m, k] += 1
    return alive


def _run_blocks(worker, static_args, cfg, jobs=None):
    n_blocks = -(-cfg.replications // BLOCK)
    tasks = [static_args + (int(cfg.seed), b) for b in range(n_blocks)]
    if jobs is not None and jobs > 1 and n_blocks > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(worker, tasks))
    else:
        parts = [worker(a) for a in tasks]
    hits = np.concatenate(parts)[: cfg.replications]
    n = cfg.replications
    p = float(hits.sum()) / n
    var = p * (1.0 - p) * n / max(n - 1, 1)
    return Estimate(p, 1.96 * math.sqrt(var / n), n)


def simulate_queue_prob(q, q2, t=None, cfg=None, jobs=None):
    """Monte Carlo estimate of the queue-vector transition probability
    from q to q2 over time t (default cfg.horizon)."""
    if cfg is None:
        raise PreconditionError("cfg is required")
    nu = as_rates(cfg.rates)
    q = _check_queue(q, nu.n_stations, "q")
    q2 = _check_queue(q2, nu.n_stations, "q2")
    t = cfg.horizon if t is None else float(t)
    check_time(t)
    if t == 0:
        raise PreconditionError("t must be positive")
    return _run_blocks(_queue_block, (nu.as_floats(), q, q2, t), cfg, jobs)


def simulate_noncrossing(x, t=None, cfg=None, jobs=None):
    """Monte Carlo estimate of the probability that independent Poisson
    counters started at x keep their weak ordering through time t."""
    if cfg is None:
        raise PreconditionError("cfg is required")
    x = _check_chamber(x, "x")
    if len(x) != len(cfg.rates):
        raise PreconditionError("x must have one coordinate per rate")
    t = cfg.horizon if t is None else float(t)
    check_time(t)
    if t == 0:
        raise PreconditionError("t must be positive")
    if len(x) == 1:
        return Estimate(1.0, 0.0, cfg.replications)
    fl = tuple(float(v) for v in cfg.rates)
    return _run_blocks(_noncross_block, (fl, x, t), cfg, jobs)


# ---------------------------------------------------------------------------
# uniformization on a truncated queue-length chain


@dataclass
class CtmcTruncation:
    """Per-queue cap for the truncated state space; after a run,
    mass_leak_bound holds the probability of having hit the artificial
    boundary (an absorbing overflow state) by the horizon."""

    cap: int
    mass_leak_bound: float = 0.0


_MATRIX_CACHE = {}


def _uniformized_matrix(fl, n, cap):
    """CSR matrix of the uniformized jump chain on {0..cap}^n plus one
    absorbing overflow state, and the uniformization rate."""
    from scipy import sparse

    key = (fl, n, cap)
    if key in _MATRIX_CACHE:
        return _MATRIX_CACHE[key]
    size = (cap + 1) ** n
    overflow = size
    lam = float(sum(fl))
    idx = np.arange(size)
    coords = np.unravel_index(idx, (cap + 1,) * n)
    strides = [(cap + 1) ** (n - 1 - k) for k in range(n)]
    rows, cols, vals = [], [], []
    stay = np.zeros(size)

    def add(mask, target, p):
        rows.append(idx[mask])
        cols.append(target if np.ndim(target) else np.full(mask.sum(), target))
        vals.append(np.full(len(rows[-1]), p))

    # arrivals
    p0 = fl[0] / lam
    ok = coords[0] < cap
    add(ok, idx[ok] + strides[0], p0)
    add(~ok, overflow, p0)
    # service at station k: queue k-1 -> k (or out of the system)
    for k in range(1, n + 1):
        pk = fl[k] / lam
        busy = coords[k - 1] > 0
        stay[~busy] += pk
        if k < n:
            fits = busy & (coords[k] < cap)
            add(fits, idx[fits] - strides[k - 1] + strides[k], pk)
            add(busy & ~fits, overflow, pk)
        else:
            add(busy, idx[busy] - strides[n - 1], pk)
    rows.append(idx[stay > 0])
    cols.append(idx[stay > 0])
    vals.append(stay[stay > 0])
    rows.append(np.array([overflow]))
    cols.append(np.array([overflow]))
    vals.append(np.array([1.0]))
    P = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size + 1, size + 1),
    )
    _MATRIX_CACHE[key] = (P, lam)
    return P, lam


def uniformization_kt(q, q2, t, nu, trunc, tol=1e-8):
    """Transient queue-transition probability by uniformization on the
    truncated chain.

    The Poisson series over powers of the uniformized operator is cut
    at the 1 - tol/2 quantile; mass that reaches a capped coordinate is
    absorbed and counted, so abs_error = tol/2 + leak is a rigorous
    bound.  Raises when the leak alone exceeds tol/2 (grow the cap)."""
    nu = as_rates(nu)
    n = nu.n_stations
    if isinstance(trunc, int):
        trunc = CtmcTruncation(trunc)
    cap = int(trunc.cap)
    q = _check_queue(q, n, "q")
    q2 = _check_queue(q2, n, "q2")
    if max(q) > cap or max(q2) > cap:
        raise PreconditionError("queue entries must not exceed the truncation cap")
    check_time(t)
    fl = tuple(nu.as_floats())
    P, lam = _uniformized_matrix(fl, n, cap)
    mu = lam * float(t)
    n_terms, _ = poisson_cap(mu, tol / 2)
    weights = Numerics().poisson_pmf_table(mu, 0, n_terms)
    v = np.zeros(P.shape[0])
    v[np.ravel_multi_index(q, (cap + 1,) * n)] = 1.0
    target = np.ravel_multi_index(q2, (cap + 1,) * n)
    acc = 0.0
    leak = 0.0
    for w in weights:
        acc += w * v[target]
        leak += w * v[-1]
        v = v @ P
    trunc.mass_leak_bound = float(leak)
    if leak > tol / 2:
        raise ToleranceNotAchieved(tol, tol / 2 + leak, f"truncation cap {cap} leaks mass")
    return KernelValue(float(acc), tol / 2 + float(leak))
