"""Independent oracles: Monte Carlo simulation and uniformization.

Simulation uses uniformized thinning: a single Poisson event clock at
rate sum(nu) drives every replication, each event is attributed to one
station (or particle) by an independent categorical draw, and events
that find the station idle are null.  This is distribution-exact for
the Markov dynamics and vectorizes across replications.

Replications are processed in fixed blocks of 65536; block b draws its
randomness from two counter-based Philox streams keyed by (seed, b), so
serial and parallel runs produce identical output and reruns are
byte-stable.  Every draw inverts a CDF at a 53-bit uniform
U = ((byte << 45) | low) * 2**-53 with thresholds ceil(c * 2**53): U >= c
exactly when U * 2**53 >= ceil(c * 2**53).  byte is the next byte of the
byte stream, eight to a 64-bit word, low byte first; low, the next word
of the low stream (the same key from counter 2**255) shifted right by
19, is drawn only when byte is the top byte of a threshold, as any other
byte decides the draw alone (Knuth & Yao 1976).  The byte stream holds
first BLOCK samples, one event count per replication, then, replication
by replication, one per event, so the labels of replication i start
counts[0] + ... + counts[i-1] samples after the counts; the low stream
serves the ties of those samples in the same order.  The last block of a
run draws all BLOCK counts but the labels of its first replications
only, those that the run asks for; those replications are the same as
in a full block.

- the count is the number of k with F(k) <= U, F the float Poisson CDF
  of the mean mu = sum(nu) t (the cumulative sum of
  Numerics.poisson_pmf_table), cut at the k where the Poisson tail falls
  below COUNT_TAIL = 2**-60 (poisson_cap), with the threshold at the cut
  itself dropped so that every sample falls inside the table;
- the station is the number of cumulative rate fractions at or below U.

The Kolmogorov distance between the sampled counts and Poisson(mu) is
at most 2**-53 + (E + K + 2) 2**-53 + 2**-60, below 2e-11 for every mean
a block accepts (mu <= MAX_MEAN).  P(count <= k) is exactly
ceil(F(k) 2**53) 2**-53, within 2**-53 of the float CDF F(k) (1 where F
rounded to 1, and past the cut); F is within (E + K + 2) 2**-53 of the
true CDF, E bounding the error of the table's log pmf values in units of
2**-53 (Numerics.poisson_logpmf_error, below 1e5 at MAX_MEAN), one unit
for np.exp and K for the cumulative sum of the K <= 17520 terms; and past
the cut the true CDF is within the 2**-60 tail of 1.

Events are then replayed step by step over the replications sorted by
event count, most first, so step j touches only the prefix of
replications that have a j-th event; it gathers their labels of event j
from the packed table in that order.  The queue lengths or positions are
held in the narrowest integer type that every reachable state fits
(uint8 for small starts), since an entry moves by at most one per event.

Uniformization steps the law of the queue vector on the simplex {|q| <= M},
M grown until the mass that leaves it is negligible, as one numpy array:
every jump of a tandem chain is one scatter of ranks, so no matrix is built.
"""

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import lattice
from .errors import PreconditionError, ToleranceNotAchieved
from .kernels import KernelValue, _check_chamber, _check_queue
from .numerics import MAX_BOX_POINTS, Numerics, check_time, check_tol, poisson_cap
from .rates import as_rates, positive_finite

BLOCK = 65536
# The labels of a block's first n replications take one byte per event:
# at most BLOCK * MAX_EVENTS bytes (64 MB here).
MAX_EVENTS = 1024
# The largest mean event count of a replication: its count table, cut
# where the Poisson tail falls below COUNT_TAIL, stays within MAX_CAP.
MAX_MEAN = 16384
COUNT_TAIL = 2.0**-60
# the state columns take the first of these types that holds every state
# a block can reach
STATE_TYPES = (np.uint8, np.int16, np.int32, np.int64)


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
        if not vals or not all(positive_finite(v) for v in vals):
            raise PreconditionError("rates must be a nonempty sequence of positive finite values")
        object.__setattr__(self, "rates", vals)
        if not isinstance(self.replications, numbers.Integral) or self.replications < 1:
            raise PreconditionError(f"replications must be an int >= 1, got {self.replications!r}")
        if not positive_finite(self.horizon):
            raise PreconditionError(f"horizon must be positive and finite, got {self.horizon!r}")
        if not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed < 2**64:
            raise PreconditionError(f"seed must be an int in [0, 2**64), got {self.seed!r}")


class Estimate(NamedTuple):
    mean: float
    half_width_95: float
    replications: int


def _block_streams(seed, block):
    """The byte stream and the low stream of a block: Philox keyed by
    (seed, block), the low stream from counter 2**255 on."""
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Philox(key=key), np.random.Philox(key=key, counter=2**255)


def _grid(cdf):
    """The thresholds ceil(c * 2**53) of the CDF values c below 1."""
    return np.ceil(cdf[cdf < 1.0] * 2.0**53).astype(np.uint64)


def _count_thresholds(mu):
    """Thresholds of the event-count inversion at mean mu: _grid of the
    float Poisson CDF on k below the cut where the tail falls under
    COUNT_TAIL, so the largest count, len(thresholds), is at most the cut."""
    top, _ = poisson_cap(mu, COUNT_TAIL)
    return _grid(np.cumsum(Numerics().poisson_pmf_table(mu, 0, top - 1)))


def _invert(thresholds, streams, size):
    """The next size samples of a block's streams: sample i is
    #{k : U_i >= thresholds[k]} for the sorted 53-bit thresholds and
    U_i = (byte_i << 45) | low_i.  byte_i is the next byte of the byte
    stream, byte m of a word w being (w >> 8m) & 255; it decides the
    sample unless it is the top byte of a threshold, and only then is
    low_i drawn, the next low word shifted right by 19, in sample order.
    Thresholds are compared one by one, in place, unless there are more
    than 12 and at most BLOCK samples: a 256-entry table then takes about
    as long as 13 such passes, and its index 8 bytes a sample."""
    bits, low = streams
    byte = np.asarray(bits.random_raw(-(-size // 8)), dtype="<u8").view(np.uint8)[:size]
    top = (thresholds >> np.uint64(45)).astype(np.uint8)
    if len(top) > 12 and size <= BLOCK:
        # below[b] thresholds have a top byte under b
        below = np.searchsorted(top, np.arange(257)).astype(np.min_scalar_type(len(top)))
        out = below.take(byte)
        tie = below[1:].take(byte) != out
    else:
        out = np.zeros(size, dtype=np.uint8)
        tie, buf = np.zeros(size, dtype=bool), np.empty(size, dtype=bool)
        for top_k in top.tolist():
            out += np.greater(byte, top_k, out=buf).view(np.uint8)
            tie |= np.equal(byte, top_k, out=buf)
    at = np.flatnonzero(tie)
    u = byte[at].astype(np.uint64) << np.uint64(45) | low.random_raw(len(at)) >> np.uint64(19)
    out[at] = np.searchsorted(thresholds, u, side="right")
    return out


def _station_draws(streams, fl, t, n, start):
    """Event labels of the first n replications of one block, ordered
    for the event loop.

    Returns (order, steps, state): order lists the replications by event
    count, most first (stable); steps yields, for each event index j, the
    stations of event j of the replications in that order that have a
    j-th event (a prefix of order, shorter as j grows); state holds one
    column per entry of start, filled with it, in the first of
    STATE_TYPES that holds every state the events can reach.  The counts of
    all BLOCK replications come first, then the labels of the first n,
    packed: event j of replication i sits at offset[i] + j, offset the
    exclusive cumulative sum of the counts, and step j gathers the labels
    at offset + j in order.  Refuses, before any draw, a mean past
    MAX_MEAN or a start whose entries could pass int64, and, before
    drawing labels, n replications with more events than a block holds."""
    mu = float(sum(fl)) * t
    expects = f"t={t!r} expects {mu:.4g} events per replication"
    if not mu <= MAX_MEAN:
        raise PreconditionError(f"{expects}; a replication may expect at most {MAX_MEAN}")
    thresholds = _count_thresholds(mu)
    # an entry moves by at most one per event, and a replication draws at
    # most len(thresholds) events: a state type must hold lo..hi
    lo, hi = min(start), max(start) + len(thresholds)
    fits = [d for d in STATE_TYPES if np.iinfo(d).min <= lo and hi <= np.iinfo(d).max]
    if not fits:
        raise PreconditionError(
            f"start {start} does not fit in int64 with room for the {len(thresholds)} events "
            "a replication may draw"
        )
    counts = _invert(thresholds, streams, BLOCK)[:n]
    total = int(counts.sum())
    if total > BLOCK * MAX_EVENTS:
        raise PreconditionError(
            f"{expects}; {n} replications drew {total}, more than the "
            f"{BLOCK * MAX_EVENTS} a block may hold"
        )
    # a label counts the cumulative rate fractions at or below its uniform
    labels = _invert(_grid(np.cumsum(fl)[:-1] / float(sum(fl))), streams, total)
    kmax = int(counts.max(initial=0))
    # counts descending; a stable sort of 8- or 16-bit keys is a radix sort
    order = np.argsort((kmax - counts).astype(np.min_scalar_type(kmax)), kind="stable")
    active = n - np.cumsum(np.bincount(counts, minlength=kmax))[:kmax]
    # at step j, at[i] indexes event j of replication order[i] in labels
    at = (np.cumsum(counts, dtype=np.intp) - counts)[order]

    def steps():
        for a in active.tolist():
            yield labels.take(at[:a])
            at[:a] += 1

    return order, steps(), [np.full(n, v, dtype=fits[0]) for v in start]


def _unsort(order, hits):
    out = np.empty(len(order), dtype=bool)
    out[order] = hits
    return out


def _queue_block(args):
    fl, q, q2, t, seed, block, reps = args
    order, steps, state = _station_draws(_block_streams(seed, block), fl, t, reps, q)
    n = len(q)
    for s in steps:
        a = len(s)
        state[0][:a] += s == 0
        for k in range(1, n + 1):
            m = (s == k) & (state[k - 1][:a] > 0)
            state[k - 1][:a] -= m
            if k < n:
                state[k][:a] += m
    hits = np.ones(reps, dtype=bool)
    for col, v in zip(state, q2):
        hits &= col == v
    return _unsort(order, hits)


def _noncross_block(args):
    fl, x, t, seed, block, reps = args
    order, steps, pos = _station_draws(_block_streams(seed, block), fl, t, reps, x)
    # a counter that jumps onto its left neighbour's position crosses it;
    # the replication is lost for good, so its later steps need no mask
    crossed = np.zeros(reps, dtype=bool)
    for s in steps:
        a = len(s)
        pos[0][:a] += s == 0
        for k in range(1, len(x)):
            m = s == k
            crossed[:a] |= m & (pos[k][:a] == pos[k - 1][:a])
            pos[k][:a] += m
    return _unsort(order, ~crossed)


def _run_blocks(worker, static_args, cfg, jobs=None):
    if jobs is not None and jobs < 1:
        raise PreconditionError(f"jobs must be >= 1, got {jobs!r}")
    n = cfg.replications
    n_blocks = -(-n // BLOCK)
    # each task: its block's seed and index, and how many replications it runs
    tasks = [static_args + (int(cfg.seed), b, min(BLOCK, n - b * BLOCK)) for b in range(n_blocks)]
    if jobs is not None and jobs > 1 and n_blocks > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, n_blocks)) as pool:
            parts = list(pool.map(worker, tasks))
    else:
        parts = [worker(a) for a in tasks]
    p = float(sum(h.sum() for h in parts)) / n
    var = p * (1.0 - p) * n / max(n - 1, 1)
    return Estimate(p, 1.96 * math.sqrt(var / n), n)


def simulate_queue_prob(q, q2, cfg=None, jobs=None):
    """Monte Carlo estimate of the queue-vector transition probability
    from q to q2 over time cfg.horizon."""
    if cfg is None:
        raise PreconditionError("cfg is required")
    nu = as_rates(cfg.rates)
    q = _check_queue(q, nu.n_stations, "q")
    q2 = _check_queue(q2, nu.n_stations, "q2")
    return _run_blocks(_queue_block, (nu.as_floats(), q, q2, cfg.horizon), cfg, jobs)


def simulate_noncrossing(x, cfg=None, jobs=None):
    """Monte Carlo estimate of the probability that independent Poisson
    counters started at x keep their weak ordering through time
    cfg.horizon."""
    if cfg is None:
        raise PreconditionError("cfg is required")
    x = _check_chamber(x, "x")
    if len(x) != len(cfg.rates):
        raise PreconditionError("x must have one coordinate per rate")
    if len(x) == 1:
        return Estimate(1.0, 0.0, cfg.replications)
    fl = tuple(float(v) for v in cfg.rates)
    return _run_blocks(_noncross_block, (fl, x, cfg.horizon), cfg, jobs)


# ---------------------------------------------------------------------------
# uniformization on a truncated queue-length chain


def uniformization_kt(q, q2, t, nu, cap=None, tol=1e-8):
    """Transient queue-transition probability by uniformization on the
    chain truncated to the simplex {q : |q| <= M}, |q| the number of jobs.

    M starts at max(|q|, |q2|) + 8 and grows by a factor 1.4, up to cap
    if given, until the leak and the round-off fit in tol/2.  State z,
    z_k = q_k + ... + q_(n-1), sits at rank sum_k C(z_k + n-1-k, n-k).  A
    step at rate Lambda = sum(nu) keeps stay * v, stay the summed p_k =
    nu_k / Lambda of the idle stations, and adds p_k v at the sources of
    each move to its targets: the arrival (z_0 + 1), a job passed on by
    station k < n (z_k + 1), the departure (all z_k - 1); an arrival at
    |q| = M is lost to an overflow.  The steps' Poisson series is cut at
    its 1 - tol/2 quantile, K the last step, and the overflow weighted
    like the value is the leak: abs_error = tol/2 + leak + round-off.
    Refuses past tol at M = cap or at the last M within MAX_BOX_POINTS
    states (a first M past them is a PreconditionError).

    Round-off, in units u = 2^-53 (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3: a product of factors 1 + theta_a and
    1 + theta_b is 1 + theta_(a+b), |theta_m| <= gamma_m = m u/(1 - m u),
    below 1.01 m u for every m here).  Every operation adds or multiplies
    nonnegative numbers, so every error is relative.  Each p_k is its
    exact rational rounded once, and stay sums those of the idle stations
    I.  A state receives at most n + 1 - |I| moves (a move onto it fills
    the queue of a busy station, or is the departure), so its new entry
    adds at most n + 2 - |I| terms in turn: the stay term after |I| + 1
    roundings and each move after 2.  Every term of a step is its exact
    term times 1 + theta_(n+3), and by induction over the paths every
    entry after j steps is the exact truncated law times
    1 + theta_(j(n+3)).  The value adds w_j v_j(q2) over j <= K, each
    product after one rounding and at most K + 1 - j additions, so within
    1 + theta_(K(n+3)+2); the weight w_j is off by c_j units: its log by
    Numerics.poisson_logpmf_error, the mean Lambda t, rounded at most
    three times, by 4 |j - Lambda t|, and exp by one.  The exact value
    being at most 1, the value is within gamma_(K(n+3)+2) + 2u sum_j w_j
    c_j, the 2 covering second-order terms.  The leak, made the same way
    with one sum over at most S states, two more accumulations and one
    more rounding of p_0, is within a factor 1 + theta_(K(n+5) + S +
    max c_j + 4) of its exact value, which it reaches when multiplied by
    1 + 2 gamma.  Underflow adds at most 2^-1074 per operation, fewer
    than 2^50 of them in all, inside the 1e-300 that the bound adds."""
    nu = as_rates(nu)
    n = nu.n_stations
    if cap is not None and not isinstance(cap, numbers.Integral):
        raise PreconditionError(f"cap must be an int or None, got {cap!r}")
    q, q2 = _check_queue(q, n, "q"), _check_queue(q2, n, "q2")
    m, cap = max(sum(q), sum(q2)), math.inf if cap is None else cap
    if m > cap:
        raise PreconditionError(f"|q| and |q2| must not exceed the cap {cap}, got {m}")
    m = min(m + 8, cap)
    if math.comb(m + n, n) > MAX_BOX_POINTS:
        raise PreconditionError(f"the box |q| <= {m} has {math.comb(m + n, n)} states, over {MAX_BOX_POINTS}")
    check_time(t)
    check_tol(tol)
    rates = [Fraction(v if isinstance(v, numbers.Rational) else float(v)) for v in nu]
    p, mu = [float(r / sum(rates)) for r in rates], float(sum(rates)) * float(t)
    try:
        n_terms, _ = poisson_cap(mu, tol / 2)
    except ToleranceNotAchieved as err:
        raise err.restated(tol, 1.0) from None
    logs = Numerics().poisson_logpmf_table(mu, 0, n_terms)
    weights, u = np.exp(logs), 1.01 * 2.0**-53
    c = Numerics().poisson_logpmf_error(mu, 0, n_terms, logs) + 4 * abs(np.arange(n_terms + 1) - mu) + 1
    roundoff = u * (n_terms * (n + 3) + 2 + 2 * float(weights @ c)) + 1e-300
    while True:
        z = lattice.ordered_points([0] * n, [m] * n)[::-1]
        binom = np.eye(1, n + 1, dtype=np.int64).repeat(m + 1, axis=0)  # [x, j]: C(x + j - 1, j)
        for j in range(1, n + 1):
            binom[1:, j] = np.cumsum(binom[1:, j - 1])
        column = np.arange(n, 0, -1)
        busy = z > np.column_stack((z[:, 1:], np.zeros(len(z), dtype=z.dtype)))
        stay = np.where(busy, 0.0, p[1:]).sum(axis=1)
        # (targets, sources, p_k) of each move: station k serves queue k - 1
        moves = []
        for k, src in enumerate(map(np.flatnonzero, [z[:, 0] < m, *busy.T])):
            moved = z[src] - 1 if k == n else z[src] + np.eye(1, n, k, dtype=int)
            moves.append((binom[moved, column].sum(1), src, p[k]))
        spill = np.flatnonzero(z[:, 0] == m)
        start, target = binom[np.cumsum([q[::-1], q2[::-1]], axis=1)[:, ::-1], column].sum(1)
        v = np.eye(1, len(z), start).ravel()
        acc = leak = over = 0.0
        for w in weights:
            acc += w * v[target]
            leak += w * over
            over += p[0] * v[spill].sum()
            new = stay * v
            for dst, src, pk in moves:
                new[dst] += pk * v[src]
            v = new
        leak = float(leak) * (1 + 2 * u * (n_terms * (n + 5) + len(z) + float(c.max()) + 4))
        if leak + roundoff <= tol / 2:
            return KernelValue(float(acc), tol / 2 + leak + roundoff)
        grown = min(-(-7 * m // 5), cap)
        if grown == m or math.comb(grown + n, n) > MAX_BOX_POINTS or roundoff > tol / 2:
            leaks = f"the box |q| <= {m} ({len(z)} states) leaks {leak:.3g}, round-off {roundoff:.3g}"
            limits = f"M at most the cap {cap}, at most {MAX_BOX_POINTS} states"
            raise ToleranceNotAchieved(tol, tol / 2 + leak + roundoff, f"{leaks}; {limits}")
        m = grown
