"""Oracle layer: reproducibility and statistical calibration of the
Monte Carlo paths, and the truncation contract of uniformization."""

import bisect
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom, norm, poisson

from tandemq import simulator
from tandemq.errors import PreconditionError, ToleranceNotAchieved
from tandemq.kernels import noncrossing_prob
from tandemq.numerics import Numerics, poisson_cap
from tandemq.queueprobs import mm1_kt
from tandemq.simulator import (
    BLOCK,
    Estimate,
    SimConfig,
    simulate_noncrossing,
    simulate_queue_prob,
    uniformization_kt,
)


def test_sim_config_validation():
    with pytest.raises(PreconditionError):
        SimConfig(rates=(), horizon=1.0, seed=0, replications=10)
    with pytest.raises(PreconditionError):
        SimConfig(rates=(1.0, -2.0), horizon=1.0, seed=0, replications=10)
    with pytest.raises(PreconditionError):
        SimConfig(rates=(1.0, 2.0), horizon=0.0, seed=0, replications=10)
    # an infinite horizon used to reach numpy's Poisson sampler
    for horizon in (-1.0, math.inf, math.nan):
        with pytest.raises(PreconditionError):
            SimConfig(rates=(1.0, 2.0), horizon=horizon, seed=0, replications=10)
    with pytest.raises(PreconditionError):
        SimConfig(rates=(1.0, 2.0), horizon=1.0, seed=0, replications=0)
    with pytest.raises(PreconditionError):
        SimConfig(rates=(1.0, 2.0), horizon=1.0, seed=2**64, replications=10)
    # a fractional seed used to run as its integer part, a fractional
    # count to fail later with a TypeError
    with pytest.raises(PreconditionError, match="seed"):
        SimConfig(rates=(1.0, 2.0), horizon=1.0, seed=7.5, replications=10)
    with pytest.raises(PreconditionError, match="replications"):
        SimConfig(rates=(1.0, 2.0), horizon=1.0, seed=7, replications=1000.5)
    # a string rate or horizon used to raise a raw TypeError
    for rates, horizon in (((1.0, "2"), 1.0), ((1.0, None), 1.0), ((1.0, 2.0), "1")):
        with pytest.raises(PreconditionError, match="rates" if horizon == 1.0 else "horizon"):
            SimConfig(rates=rates, horizon=horizon, seed=0, replications=10)
    assert SimConfig(rates=(1.0, 2.0), horizon=1.0, seed=np.uint64(7), replications=np.int64(10))


def test_queue_sim_reproducible_and_parallel_equal():
    cfg = SimConfig(rates=(1.0, 2.0), horizon=1.0, seed=42, replications=3 * BLOCK // 2)
    a = simulate_queue_prob((0,), (0,), cfg=cfg)
    b = simulate_queue_prob((0,), (0,), cfg=cfg)
    c = simulate_queue_prob((0,), (0,), cfg=cfg, jobs=2)
    assert a == b == c
    other = simulate_queue_prob(
        (0,), (0,), cfg=SimConfig(rates=(1.0, 2.0), horizon=1.0, seed=43, replications=cfg.replications)
    )
    assert other.mean != a.mean


def test_noncross_sim_reproducible():
    cfg = SimConfig(rates=(3.0, 2.0, 1.0), horizon=1.0, seed=7, replications=70000)
    a = simulate_noncrossing((2, 1, 0), cfg=cfg)
    b = simulate_noncrossing((2, 1, 0), cfg=cfg, jobs=3)
    assert a == b
    assert a.replications == 70000


# The streams of a block, restated one sample at a time and without the
# package's tables.  Sample i of a block is the 53-bit uniform
# U = (byte_i << 45 | low_i) 2**-53: byte_i is byte i of the Philox stream
# keyed (seed, block), low byte of each word first, and low_i, the next
# word of the same key's stream from counter 2**255 shifted right by 19, is
# drawn only when byte_i is the top byte of a threshold ceil(c 2**53).
# Samples 0..BLOCK-1 invert scipy's Poisson CDF for the event counts; after
# them the labels of the first n replications, packed replication by
# replication, invert the cumulative rate fractions.


def _bytes(bits, size):
    words = bits.random_raw(-(-size // 8))
    return [(int(w) >> 8 * m) & 255 for w in words for m in range(8)][:size]


def _reference_samples(cdf, bytes_, low):
    """The number of cdf values at or below each sample's uniform, and the
    number of low words drawn."""
    tops = {math.ceil(c * 2**53) >> 45 for c in cdf if c < 1.0}
    out, drawn = [], 0
    for b in bytes_:
        u = b << 45
        if b in tops:
            u |= int(low.random_raw()) >> 19
            drawn += 1
        out.append(bisect.bisect_right(cdf, u * 2.0**-53))
    return out, drawn


def _reference_draws(fl, t, seed, block, n):
    """The counts of one block's BLOCK replications, the labels of its
    first n (one list per replication), the states of both streams after
    them and the low words drawn for the counts and for the labels."""
    mu = float(sum(fl)) * t
    cdf = list(poisson.cdf(np.arange(int(mu + 20 * math.sqrt(mu) + 60)), mu))
    cum = list(np.cumsum(fl) / sum(fl))[:-1]
    key = np.array([seed, block], dtype=np.uint64)
    bits, low = np.random.Philox(key=key), np.random.Philox(key=key, counter=2**255)
    counts, count_lows = _reference_samples(cdf, _bytes(bits, BLOCK), low)
    flat, label_lows = _reference_samples(cum, _bytes(bits, sum(counts[:n])), low)
    flat = iter(flat)
    labels = [[next(flat) for _ in range(c)] for c in counts[:n]]
    return counts, labels, (bits.state, low.state), (count_lows, label_lows)


def _reference_queue(q, q2, labels):
    state = list(q)
    for s in labels:
        if s == 0:
            state[0] += 1
        elif state[s - 1] > 0:
            state[s - 1] -= 1
            if s < len(q):
                state[s] += 1
    return state == list(q2)


def _reference_noncross(x, labels):
    pos = list(x)
    for s in labels:
        # a counter that jumps onto its left neighbour's position crosses it
        if s > 0 and pos[s] == pos[s - 1]:
            return False
        pos[s] += 1
    return True


def _reference_hits(kind, fl, a, b, t, seed, block, n):
    _, labels, _, _ = _reference_draws(fl, t, seed, block, n)
    if kind == "queue":
        return np.array([_reference_queue(a, b, lab) for lab in labels])
    return np.array([_reference_noncross(a, lab) for lab in labels])


def _block_hits(kind, fl, a, b, t, seed, block, reps):
    if kind == "queue":
        return simulator._queue_block((fl, a, b, t, seed, block, reps))
    return simulator._noncross_block((fl, a, t, seed, block, reps))


# Estimates of the reference loops above (floats written with repr): the
# simulator must reproduce each one exactly, serial and parallel.
PINNED = [
    ("queue", (1.0, 2.0), (2,), (1,), 1.0, 11, BLOCK,
     (0.2689208984375, 0.0033947975568939135, 65536)),
    ("queue", (1.0, 2.0, 3.0), (1, 2), (0, 1), 0.8, 12, BLOCK,
     (0.1474609375, 0.0027146575909688555, 65536)),
    ("queue", (1.0, 1.5, 2.0, 2.5), (1, 0, 2), (0, 1, 1), 0.7, 13, 70000,
     (0.05627142857142857, 0.001707173558745397, 70000)),
    ("noncross", (3.0, 2.0, 1.0), (1, 1, 0), None, 0.5, 14, 70000,
     (0.5419285714285714, 0.003691031739839736, 70000)),
    ("noncross", (1.0, 2.5), (3, 1), None, 1.5, 15, BLOCK,
     (0.4915008544921875, 0.003827601109583973, 65536)),
    # t so small that every event count is 0
    ("queue", (1.0, 2.0, 3.0), (1, 0), (1, 0), 1e-9, 16, 1000, (1.0, 0.0, 1000)),
    ("noncross", (3.0, 2.0, 1.0), (1, 1, 0), None, 1e-9, 17, 1000, (1.0, 0.0, 1000)),
]


def _pinned_estimate(kind, rates, a, b, t, seed, reps, jobs):
    cfg = SimConfig(rates=rates, horizon=t, seed=seed, replications=reps)
    if kind == "queue":
        return simulate_queue_prob(a, b, cfg=cfg, jobs=jobs)
    return simulate_noncrossing(a, cfg=cfg, jobs=jobs)


@pytest.mark.parametrize("case", PINNED, ids=lambda c: f"{c[0]}-N{len(c[2])}-t{c[4]:g}-r{c[6]}")
def test_sim_reproduces_pinned_estimates(case):
    *args, want = case
    assert _pinned_estimate(*args, jobs=None) == Estimate(*want)


def test_sim_parallel_reproduces_pinned_estimates():
    for *args, want in PINNED:
        if args[-1] > BLOCK:
            assert _pinned_estimate(*args, jobs=2) == Estimate(*want)


@pytest.mark.parametrize("seed", [3, 4])
def test_blocks_match_reference_loops(seed):
    cases = [
        ("queue", (1.0, 2.0), (1,), (0,), 1.3, 0),
        ("queue", (1.0, 1.5, 2.0, 2.5), (0, 2, 1), (1, 1, 0), 0.9, 1),
        ("noncross", (3.0, 2.0, 1.0), (1, 1, 0), None, 0.8, 0),
        ("noncross", (1.0, 2.0, 3.0, 4.0), (3, 2, 1, 0), None, 0.5, 2),
    ]
    for kind, fl, a, b, t, block in cases:
        want = _reference_hits(kind, fl, a, b, t, seed, block, BLOCK)
        # a block runs a whole block of replications or, the last one of
        # a run, its first few
        for reps in (BLOCK, 1000, 1):
            np.testing.assert_array_equal(_block_hits(kind, fl, a, b, t, seed, block, reps), want[:reps])


@pytest.mark.parametrize("kind, a, b", [("queue", (1, 0), (0, 1)), ("noncross", (2, 1, 0), None)])
def test_low_words_follow_sample_order(kind, a, b):
    # (1e-300, 1, 2) puts a label threshold in byte 0, so the labels draw
    # low words as well as the counts: the count ties of all BLOCK
    # replications first, then the label ties in packed order
    fl, t, seed = (1e-300, 1.0, 2.0), 1.2, 23
    _, _, _, drawn = _reference_draws(fl, t, seed, 1, BLOCK)
    assert min(drawn) > 0
    reps = 3 * BLOCK // 2
    runs = [_pinned_estimate(kind, fl, a, b, t, seed, reps, jobs) for jobs in (None, 2, None)]
    assert runs[0] == runs[1] == runs[2]
    want = _reference_hits(kind, fl, a, b, t, seed, 1, BLOCK)
    for n in (BLOCK, 1000, 1):
        np.testing.assert_array_equal(_block_hits(kind, fl, a, b, t, seed, 1, n), want[:n])


# 14 event sources give 13 label thresholds, enough for _invert's table
MANY_RATES = tuple(0.05 * k for k in range(1, 15))


@pytest.mark.parametrize("fl, t", [((1.0, 2.5, 3.0, 4.0), 1.0), (MANY_RATES, 2.0)])
def test_block_memory_stays_within_a_few_bytes_per_event(fl, t):
    # the bytes, the labels and two masks of one byte each per event stay
    # inside this budget; a whole-stream index, 8 bytes per event, does not
    q = (0,) * (len(fl) - 1)
    thresholds = simulator._count_thresholds(sum(fl) * t)
    events = int(simulator._invert(thresholds, simulator._block_streams(5, 0), BLOCK).sum())
    tracemalloc.start()
    try:
        simulator._queue_block((fl, q, q, t, 5, 0, BLOCK))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * events + 64 * BLOCK


# (1, 1) and (1, 3) have dyadic fractions, the fraction of (1, 1e-17)
# rounds to 1, (1e-300, 1, 2) has a tiny first threshold and (1, 1e-300, 2)
# two equal ones
ADVERSARIAL_RATES = [(1.0, 1.0), (1.0, 3.0), (1.0, 1e-17), (1e-300, 1.0, 2.0), (1.0, 1e-300, 2.0)]


@pytest.mark.parametrize("fl", ADVERSARIAL_RATES + [MANY_RATES])
@pytest.mark.parametrize("n", [BLOCK, 1000, 1])
def test_station_draws_match_uniform_labels(fl, n):
    streams = simulator._block_streams(21, 0)
    order, steps, _ = simulator._station_draws(streams, fl, 2.0, n, (0,) * len(fl))
    counts, labels, states, _ = _reference_draws(fl, 2.0, 21, 0, n)
    # both streams end where the reference's do: BLOCK count bytes and
    # their low words, then those of the labels of the first n
    # replications only
    np.testing.assert_equal([s.state for s in streams], list(states))
    counts = np.array(counts[:n])
    np.testing.assert_array_equal(order, np.argsort(-counts, kind="stable"))
    want = np.full((n, counts.max(initial=0)), -1)
    for row, lab in zip(want, labels):
        row[: len(lab)] = lab
    got = np.full(want.shape, -1)
    for j, s in enumerate(steps):
        got[order[: len(s)], j] = s
    np.testing.assert_array_equal(got, want)


def test_state_columns_take_the_narrowest_type_that_holds_them():
    fl, t = (1.0, 2.0), 2.0
    most = len(simulator._count_thresholds(3.0 * t))
    for start, want in [
        ((0, 0), np.uint8), ((255 - most, 0), np.uint8), ((256 - most, 0), np.int16),
        ((3, -1), np.int16), ((2**15 - 1 - most, -(2**15)), np.int16),
        ((2**15 - most, 0), np.int32), ((0, -(2**31) - 1), np.int64),
    ]:
        *_, state = simulator._station_draws(simulator._block_streams(0, 0), fl, t, 10, start)
        assert [c.dtype for c in state] == [want] * 2
        assert [int(c[0]) for c in state] == list(start)
    # blocks that start at the top of uint8 still match the reference
    top = 255 - most
    for kind, a, b in (("queue", (top,), (top,)), ("noncross", (top, top - 1), None)):
        want = _reference_hits(kind, fl, a, b, t, 8, 0, 20000)
        np.testing.assert_array_equal(_block_hits(kind, fl, a, b, t, 8, 0, 20000), want)


class _Words:
    """A stand-in stream that hands out the given words in order."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, size):
        assert size <= len(self.words)
        out, self.words = self.words[:size], self.words[size:]
        return out


def _stand_in_streams(u, thresholds):
    """Stand-ins for a block's two streams from which _invert reads the
    53-bit uniforms u: the byte stream holds their top bytes, eight to a
    word, low byte first, and the low stream the low 45 bits of those
    whose top byte is a threshold's, shifted left by 19 over junk bits."""
    u = np.asarray(u, dtype=np.uint64)
    byte = (u >> np.uint64(45)).astype(np.uint8)
    tie = np.isin(byte, (thresholds >> np.uint64(45)).astype(np.uint8))
    padded = np.concatenate([byte, np.zeros(-len(u) % 8, dtype=np.uint8)])
    junk = np.arange(tie.sum(), dtype=np.uint64) * np.uint64(7919) % np.uint64(2**19)
    low = (u[tie] & np.uint64(2**45 - 1)) << np.uint64(19) | junk
    return _Words(padded.view("<u8")), _Words(low)


def _check_invert_on_edge_words(cdf, thresholds):
    """_invert at the bytes 0 and 255, each threshold's top byte and its
    neighbours, and, on a top byte, the low words 0, low_k - 1, low_k and
    2**45 - 1 of each of its thresholds: thresholds must be ceil(c 2**53)
    of the cdf values c below 1, and each sample must count the cdf values
    at or below its uniform U 2**-53, the same as np.searchsorted(
    thresholds, U, "right").  Returns what _invert returned."""
    assert thresholds.tolist() == [math.ceil(c * 2**53) for c in cdf if c < 1.0]
    ts = thresholds.tolist()
    tops = {x >> 45 for x in ts}
    u = []
    for b in sorted({0, 255} | {b + d for b in tops for d in (-1, 0, 1)} & set(range(256))):
        lows = {0}
        if b in tops:
            lows |= {2**45 - 1} | {(x & (2**45 - 1)) + d for x in ts if x >> 45 == b for d in (-1, 0)}
        u += [b << 45 | low for low in sorted(lows) if low >= 0]
    bits, low = _stand_in_streams(u, thresholds)
    got = simulator._invert(thresholds, (bits, low), len(u))
    # a uniform U 2**-53 is exact in a double; cdf is non-decreasing
    np.testing.assert_array_equal(got, np.searchsorted(cdf, np.array(u) * 2.0**-53, side="right"))
    np.testing.assert_array_equal(got, np.searchsorted(thresholds, np.array(u, dtype=np.uint64), side="right"))
    # both streams are used up, and no more
    assert len(bits.words) == len(low.words) == 0
    return got


@pytest.mark.parametrize("fl", ADVERSARIAL_RATES + [(1.0, 2.0, 4.0), MANY_RATES])
def test_station_draws_thresholds_on_edge_words(fl):
    # a label counts the cumulative rate fractions at or below its
    # uniform; a fraction that rounded to 1 has no threshold
    cum = np.cumsum(fl)[:-1] / float(sum(fl))
    _check_invert_on_edge_words(cum, simulator._grid(cum))


def _smallest_binomial_tail(counts, mu):
    """The smallest, over the counts 0..cap and any past it, of the
    smaller one-sided tail of the count's frequency under its binomial
    law with Poisson(mu) probabilities.  Exact where a count expects far
    below one sample, where a normal bound is not."""
    cap, _ = poisson_cap(mu, simulator.COUNT_TAIL)
    seen = np.bincount(counts, minlength=cap + 1)
    p = poisson.pmf(np.arange(len(seen)), mu)
    return np.minimum(binom.cdf(seen, len(counts), p), binom.sf(seen - 1, len(counts), p)).min()


@pytest.mark.parametrize("mu", [1e-9, 0.5, 7.0, 10.5, 1050.0])
def test_event_counts_follow_poisson(mu):
    # the counts of block (31, 0), from its own streams: each count's
    # frequency within a binomial tail of norm.sf(5), and none past the table
    thresholds = simulator._count_thresholds(mu)
    counts = simulator._invert(thresholds, simulator._block_streams(31, 0), BLOCK)
    cap, _ = poisson_cap(mu, simulator.COUNT_TAIL)
    assert counts.max() <= len(thresholds) <= cap
    assert _smallest_binomial_tail(counts, mu) >= norm.sf(5)


def test_event_count_law_check_sees_a_shifted_mean():
    # the same streams inverted at a mean 1% too high fail the check
    thresholds = simulator._count_thresholds(1.01 * 1050.0)
    counts = simulator._invert(thresholds, simulator._block_streams(31, 0), BLOCK)
    assert _smallest_binomial_tail(counts, 1050.0) < norm.sf(5)


# the means of test_count_law_within_stated_kolmogorov_bound, and 100, where
# the float CDF at the cut is still below 1, so only the dropped threshold
# keeps the top sample inside the table
@pytest.mark.parametrize(
    "mu", [1e-300, 1e-9, 0.5, 7.0, 10.5, 100.0, 1050.0, 4000.0, simulator.MAX_MEAN]
)
def test_event_counts_on_edge_words(mu):
    # a count is the number of thresholds at or below its sample, and the
    # top sample maps to the last entry of the table, not past it
    top, _ = poisson_cap(mu, simulator.COUNT_TAIL)
    cdf = np.cumsum(Numerics().poisson_pmf_table(mu, 0, top - 1))
    thresholds = simulator._count_thresholds(mu)
    counts = _check_invert_on_edge_words(cdf, thresholds)
    assert counts[-1] == len(thresholds) <= top


@pytest.mark.parametrize("mu", [1e-300, 1e-9, 0.5, 7.0, 10.5, 1050.0, 4000.0, simulator.MAX_MEAN])
def test_count_law_within_stated_kolmogorov_bound(mu):
    # the module docstring's bound: the threshold rounding, the float CDF
    # (log pmf error, exp and the cumulative sum) and the cut tail
    cap, _ = poisson_cap(mu, simulator.COUNT_TAIL)
    nm = Numerics()
    logpmf = nm.poisson_logpmf_table(mu, 0, cap - 1)
    err = nm.poisson_logpmf_error(mu, 0, cap - 1, logpmf).max(initial=0.0)
    bound = 2.0**-53 + (err + cap + 2) * 2.0**-53 + simulator.COUNT_TAIL
    assert bound < 2e-11
    # P(count <= k) of a 53-bit uniform: the threshold ceil(F(k) 2**53)
    # times 2**-53 below the last threshold, 1 from it on
    thresholds = simulator._count_thresholds(mu)
    sampled = np.ones(cap + 1)
    sampled[: len(thresholds)] = thresholds.astype(float) * 2.0**-53
    assert np.abs(sampled - poisson.cdf(np.arange(cap + 1), mu)).max() <= bound


def test_sim_refuses_start_beyond_int64():
    cfg = SimConfig(rates=(1.0, 2.0), horizon=1.0, seed=0, replications=10)
    with pytest.raises(PreconditionError, match="int64"):
        simulate_queue_prob((10**20,), (0,), cfg=cfg)
    with pytest.raises(PreconditionError, match="int64"):
        simulate_queue_prob((2**63 - 5,), (0,), cfg=cfg)
    with pytest.raises(PreconditionError, match="int64"):
        simulate_noncrossing((10**20, 0), cfg=cfg)
    with pytest.raises(PreconditionError, match="int64"):
        simulate_noncrossing((0, -(10**20)), cfg=cfg)
    # entries well inside int64 still run
    assert simulate_queue_prob((3 * 10**9,), (3 * 10**9,), cfg=cfg).replications == 10
    assert simulate_noncrossing((-(2**62), -(2**62) - 5), cfg=cfg).replications == 10


def test_sim_rejects_jobs_below_one():
    cfg = SimConfig(rates=(1.0, 2.0), horizon=1.0, seed=0, replications=100)
    for jobs in (0, -1):
        with pytest.raises(PreconditionError, match="jobs"):
            simulate_queue_prob((0,), (0,), cfg=cfg, jobs=jobs)
        with pytest.raises(PreconditionError, match="jobs"):
            simulate_noncrossing((1, 0), cfg=cfg, jobs=jobs)


def test_pool_workers_capped_at_block_count(monkeypatch):
    import concurrent.futures

    made = []

    class SerialPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = SimConfig(rates=(1.0, 2.0), horizon=0.5, seed=9, replications=BLOCK + 1)
    got = simulate_queue_prob((0,), (0,), cfg=cfg, jobs=10**6)
    assert made == [2]
    assert got == simulate_queue_prob((0,), (0,), cfg=cfg)


def test_sim_refuses_oversized_block_without_allocating():
    cfg = SimConfig(rates=(1.0, 2.0), horizon=1e6, seed=0, replications=10)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match=r"t=1000000\.0 expects 3e\+06 events"):
            simulate_queue_prob((0,), (0,), cfg=cfg)
        with pytest.raises(PreconditionError, match="events per replication"):
            simulate_noncrossing((1, 0), cfg=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block's Poisson counts (BLOCK int64) and little else
    assert peak < 16 * BLOCK * 8


def test_sim_refuses_mean_past_float_or_block_limit():
    # a mean of 3e300, and a rate sum that overflows to inf, used to reach
    # numpy's Poisson sampler and raise a ValueError
    for rates, t, shown in (((1.0, 2.0), 1e300, "3e+300"), ((1.0, 1e308, 1e308), 1.0, "inf")):
        cfg = SimConfig(rates=rates, horizon=t, seed=0, replications=10)
        want = f"t={t!r} expects {shown} events per replication"
        n = len(rates) - 1
        with pytest.raises(PreconditionError, match=re.escape(want)):
            simulate_queue_prob((0,) * n, (0,) * n, cfg=cfg)
        with pytest.raises(PreconditionError, match=re.escape(want)):
            simulate_noncrossing(tuple(range(n, -1, -1)), cfg=cfg)


def test_sim_refuses_block_labels_past_limit_before_drawing_them():
    # about 1100 events per replication: 10 replications run, but a whole
    # block would hold more than BLOCK * MAX_EVENTS labels
    cfg = SimConfig(rates=(1.0, 2.0), horizon=1100 / 3, seed=0, replications=BLOCK)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="a block may hold"):
            simulate_queue_prob((0,), (0,), cfg=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block's count words and counts, and little else
    assert peak < 16 * BLOCK * 8
    few = SimConfig(rates=(1.0, 2.0), horizon=1100 / 3, seed=0, replications=10)
    assert simulate_queue_prob((0,), (0,), cfg=few).replications == 10


def test_noncross_single_counter_is_certain():
    cfg = SimConfig(rates=(3.0,), horizon=5.0, seed=0, replications=1000)
    assert simulate_noncrossing((4,), cfg=cfg) == Estimate(1.0, 0.0, 1000)


def test_queue_sim_matches_mm1_3sigma():
    cfg = SimConfig(rates=(1.0, 2.0), horizon=1.0, seed=20260814, replications=200000)
    est = simulate_queue_prob((0,), (0,), cfg=cfg)
    exact = mm1_kt(0, 0, 1.0, (1, 2)).value
    sigma = est.half_width_95 / 1.96
    assert abs(est.mean - exact) <= 3 * sigma


def test_noncross_sim_matches_kernel_3sigma():
    cfg = SimConfig(rates=(3.0, 2.0, 1.0), horizon=1.0, seed=1, replications=200000)
    est = simulate_noncrossing((2, 1, 0), cfg=cfg)
    exact = noncrossing_prob((2, 1, 0), 1.0, (3, 2, 1), tol=1e-10).value
    sigma = est.half_width_95 / 1.96
    assert abs(est.mean - exact) <= 3 * sigma


def test_sim_rejects_bad_points():
    cfg = SimConfig(rates=(1.0, 2.0), horizon=1.0, seed=0, replications=100)
    with pytest.raises(PreconditionError):
        simulate_queue_prob((0, 0), (0,), cfg=cfg)
    with pytest.raises(PreconditionError):
        simulate_noncrossing((0, 1), cfg=cfg)
    with pytest.raises(PreconditionError):
        simulate_queue_prob((0,), (0,))


# ---------------------------------------------------------------------------
# uniformization


def test_uniformization_matches_mm1():
    for q, q2, t in [(0, 0, 0.5), (2, 1, 1.0), (0, 4, 5.0)]:
        got = uniformization_kt((q,), (q2,), t, (1, 2), 60, tol=1e-12)
        want = mm1_kt(q, q2, t, (1, 2)).value
        assert abs(got.value - want) <= 1e-10


def test_uniformization_rows_sum_to_one():
    cap = 30
    total = sum(
        uniformization_kt((1,), (q2,), 1.0, (1, 2), cap, tol=1e-10).value
        for q2 in range(cap + 1)
    )
    assert abs(total - 1.0) <= 1e-8


def test_uniformization_leak_in_abs_error():
    kv = uniformization_kt((0, 0), (0, 0), 1.0, (1, 2, 4), 40, tol=1e-9)
    assert 0.0 <= kv.abs_error - 1e-9 / 2 <= 1e-9 / 2
    assert kv.abs_error <= 1e-9
    assert 0.0 <= kv.value <= 1.0


def test_uniformization_leak_raises():
    with pytest.raises(ToleranceNotAchieved) as err:
        uniformization_kt((0,), (0,), 20.0, (1, 1.2), 3, tol=1e-10)
    assert err.value.achieved - 1e-10 / 2 > 1e-10 / 2
    assert err.value.achieved > 1e-10


def _dense_generator(nu, cap):
    """Generator of the queue chain on the simplex {|q| <= cap}, written
    out state by state, with one absorbing overflow state (the last) that
    takes every arrival at |q| = cap."""
    n = len(nu) - 1
    states = [s for s in itertools.product(range(cap + 1), repeat=n) if sum(s) <= cap]
    index = {s: i for i, s in enumerate(states)}
    over = len(index)
    gen = np.zeros((over + 1, over + 1))
    for s, i in index.items():
        jumps = [((s[0] + 1,) + s[1:], nu[0])]
        for k in range(n):
            if s[k]:
                nxt = list(s)
                nxt[k] -= 1
                if k + 1 < n:
                    nxt[k + 1] += 1
                jumps.append((tuple(nxt), nu[k + 1]))
        for nxt, rate in jumps:
            gen[i, index.get(nxt, over)] += rate
        gen[i, i] = -gen[i].sum()
    return gen, index, over


@pytest.mark.parametrize(
    "nu, cap, q, q2, t, solves",
    [
        ((1, 2, 3), 14, (2, 1), (3, 3), 0.5, True),
        ((2, 1.5, 3), 16, (1, 2), (4, 4), 0.4, True),
        ((1, 3), 5, (4,), (0,), 0.5, False),
        ((1, 2, 3), 4, (2, 1), (0, 0), 0.5, False),
        ((1, 2, 3, 4), 3, (1, 1, 1), (0, 0, 0), 0.3, False),
    ],
)
def test_uniformization_matches_dense_generator(nu, cap, q, q2, t, solves):
    # each cap is at most max(|q|, |q2|) + 8, where M starts, so the box
    # is {|q| <= cap}; the starts near it make the overflow carry mass
    from scipy.linalg import expm

    gen, index, over = _dense_generator(nu, cap)
    row = expm(gen * t)[index[q]]
    tol = 1e-12
    if solves:
        kv = uniformization_kt(q, q2, t, nu, cap, tol)
        assert abs(kv.value - row[index[q2]]) <= tol / 2 + 1e-13
        assert abs(kv.abs_error - tol / 2 - row[over]) <= tol / 2
    else:
        with pytest.raises(ToleranceNotAchieved) as err:
            uniformization_kt(q, q2, t, nu, cap, tol)
        assert abs(err.value.achieved - tol / 2 - row[over]) <= tol / 2


def test_uniformization_refuses_at_a_small_cap_naming_the_box():
    # M starts at 8 and may grow only to 9, where 6e-6 of the mass leaks
    with pytest.raises(ToleranceNotAchieved) as err:
        uniformization_kt((0, 0), (0, 0), 2.0, (1, 2, 4), 9, tol=1e-9)
    assert "the box |q| <= 9 (55 states) leaks 6e-06" in str(err.value)
    assert err.value.achieved > 1e-9
    # without the cap M grows until the leak fits
    assert uniformization_kt((0, 0), (0, 0), 2.0, (1, 2, 4), tol=1e-9).abs_error <= 1e-9
    # but no box certifies less than the round-off
    with pytest.raises(ToleranceNotAchieved, match="round-off"):
        uniformization_kt((0, 0), (0, 0), 2.0, (1, 2, 4), tol=1e-16)


def test_uniformization_five_stations():
    # an empty start at N=5: M grows 8, 12, 17, where the box holds 26334 states
    nu = (1, 2.825, 2.394, 3.425, 2.922, 2.339)
    kv = uniformization_kt((0,) * 5, (0,) * 5, 1.0, nu, tol=1e-10)
    assert abs(kv.value - 0.3803926389873456) <= kv.abs_error <= 1e-10


def test_uniformization_time_zero():
    got = uniformization_kt((2,), (2,), 0.0, (1, 2), 10, tol=1e-10)
    assert got.value == pytest.approx(1.0, abs=1e-10)


def test_uniformization_refuses_oversized_box_without_allocating():
    # M starts at 400 + 8, and C(411, 3) passes MAX_BOX_POINTS
    assert math.comb(411, 3) > simulator.MAX_BOX_POINTS
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="states"):
            uniformization_kt((400, 0, 0), (0, 0, 0), 1.0, (1, 2, 3, 4), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # a cap is only an upper limit: on a small problem a huge one returns
    kv = uniformization_kt((0, 0, 0), (0, 0, 0), 1.0, (1, 2, 3, 4), 10**6)
    assert kv.abs_error <= 1e-8


def test_uniformization_rejects_state_beyond_cap():
    with pytest.raises(PreconditionError):
        uniformization_kt((11,), (0,), 1.0, (1, 2), 10)
    # the cap sizes the box: a float has no number of states
    with pytest.raises(PreconditionError):
        uniformization_kt((1,), (0,), 1.0, (1, 2), 10.0)


def test_estimate_half_width_is_binomial():
    cfg = SimConfig(rates=(1.0, 2.0), horizon=1.0, seed=5, replications=50000)
    est = simulate_queue_prob((0,), (0,), cfg=cfg)
    n = est.replications
    p = est.mean
    want = 1.96 * np.sqrt(p * (1 - p) / (n - 1))
    assert est.half_width_95 == pytest.approx(want, rel=1e-9)
