"""Oracle layer: reproducibility and statistical calibration of the
Monte Carlo paths, and the truncation contract of uniformization."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tandemq import simulator
from tandemq.errors import PreconditionError, ToleranceNotAchieved
from tandemq.kernels import noncrossing_prob
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


# Estimates recorded from the simulator before its blocks were rewritten
# (floats written with repr).  The blocks must consume the same Philox
# draws in the same order and return the same hits, so every estimate
# is reproduced exactly, serial and parallel.
PINNED = [
    ("queue", (1.0, 2.0), (2,), (1,), 1.0, 11, BLOCK,
     (0.26983642578125, 0.0033984414258365282, 65536)),
    ("queue", (1.0, 2.0, 3.0), (1, 2), (0, 1), 0.8, 12, BLOCK,
     (0.1480865478515625, 0.002719411701960361, 65536)),
    ("queue", (1.0, 1.5, 2.0, 2.5), (1, 0, 2), (0, 1, 1), 0.7, 13, 70000,
     (0.05552857142857143, 0.0016965349701035797, 70000)),
    ("noncross", (3.0, 2.0, 1.0), (1, 1, 0), None, 0.5, 14, 70000,
     (0.5411714285714285, 0.0036914994683777506, 70000)),
    ("noncross", (1.0, 2.5), (3, 1), None, 1.5, 15, BLOCK,
     (0.4914398193359375, 0.0038275931365326908, 65536)),
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


def _uniform_labels(rng, fl, t, n):
    # the original block layout: one (n, kmax) uniform draw, labels by
    # searchsorted, one row per replication
    lam = float(sum(fl))
    counts = rng.poisson(lam * t, size=BLOCK)
    cum = np.cumsum(fl) / lam
    cum[-1] = 1.0
    u = rng.random((n, int(counts.max(initial=0))))
    return counts[:n], np.searchsorted(cum, u, side="right")


def _reference_draws(fl, t, seed, block):
    return _uniform_labels(simulator._block_rng(seed, block), fl, t, BLOCK)


def _reference_queue_block(args):
    fl, q, q2, t, seed, block = args
    counts, labels = _reference_draws(fl, t, seed, block)
    state = np.tile(np.asarray(q, dtype=np.int64), (BLOCK, 1))
    for j in range(labels.shape[1]):
        act = j < counts
        s = labels[:, j]
        state[act & (s == 0), 0] += 1
        for k in range(1, len(q) + 1):
            m = act & (s == k) & (state[:, k - 1] > 0)
            state[m, k - 1] -= 1
            if k < len(q):
                state[m, k] += 1
    return (state == np.asarray(q2)).all(axis=1)


def _reference_noncross_block(args):
    fl, x, t, seed, block = args
    counts, labels = _reference_draws(fl, t, seed, block)
    state = np.tile(np.asarray(x, dtype=np.int64), (BLOCK, 1))
    alive = np.ones(BLOCK, dtype=bool)
    for j in range(labels.shape[1]):
        act = alive & (j < counts)
        s = labels[:, j]
        for k in range(len(x)):
            m = act & (s == k)
            if k >= 1:
                crossed = m & (state[:, k] == state[:, k - 1])
                alive[crossed] = False
                m &= ~crossed
            state[m, k] += 1
    return alive


@pytest.mark.parametrize("seed", [3, 4])
def test_blocks_match_reference_loops(seed):
    cases = [
        (simulator._queue_block, _reference_queue_block, ((1.0, 2.0), (1,), (0,), 1.3, seed, 0)),
        (simulator._queue_block, _reference_queue_block,
         ((1.0, 1.5, 2.0, 2.5), (0, 2, 1), (1, 1, 0), 0.9, seed, 1)),
        (simulator._noncross_block, _reference_noncross_block, ((3.0, 2.0, 1.0), (1, 1, 0), 0.8, seed, 0)),
        (simulator._noncross_block, _reference_noncross_block,
         ((1.0, 2.0, 3.0, 4.0), (3, 2, 1, 0), 0.5, seed, 2)),
    ]
    for block, reference, args in cases:
        want = reference(args)
        # a block runs a whole block of replications or, the last one of
        # a run, its first few
        for reps in (BLOCK, 1000, 1):
            np.testing.assert_array_equal(block(args + (reps,)), want[:reps])


# (1, 1) and (1, 3) have dyadic fractions, the fraction of (1, 1e-17)
# rounds to 1, (1e-300, 1, 2) has a tiny first threshold and (1, 1e-300, 2)
# two equal ones
ADVERSARIAL_RATES = [(1.0, 1.0), (1.0, 3.0), (1.0, 1e-17), (1e-300, 1.0, 2.0), (1.0, 1e-300, 2.0)]


@pytest.mark.parametrize("fl", ADVERSARIAL_RATES)
@pytest.mark.parametrize("n", [BLOCK, 1000, 1])
def test_station_draws_match_uniform_labels(fl, n):
    rng = simulator._block_rng(21, 0)
    order, steps = simulator._station_draws(rng, fl, 2.0, n, (0,) * len(fl))
    ref = simulator._block_rng(21, 0)
    counts, want = _uniform_labels(ref, fl, 2.0, n)
    np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)
    np.testing.assert_array_equal(order, np.argsort(-counts, kind="stable"))
    got = np.full(want.shape, -1)
    for j, s in enumerate(steps):
        got[order[: len(s)], j] = s
    want[np.arange(want.shape[1]) >= counts[:, None]] = -1
    np.testing.assert_array_equal(got, want)


class _Words:
    """A stand-in generator: every replication draws len(words) events,
    whose Philox words are the given ones."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self.bit_generator = self

    def poisson(self, lam, size):
        return np.full(size, len(self.words))

    def random_raw(self, size):
        assert size == len(self.words)
        return self.words


@pytest.mark.parametrize("fl", ADVERSARIAL_RATES + [(1.0, 2.0, 4.0)])
def test_station_draws_thresholds_on_edge_words(fl):
    # the words on either side of each threshold and at both ends; a label
    # counts the fractions at or below numpy's uniform of the word
    cum = np.cumsum(fl) / sum(fl)
    words = [0, 2**64 - 1]
    for c in cum[:-1]:
        k = math.ceil(c * 2**53)
        words += [w for w in ((k - 1) << 11, (k << 11) - 1, k << 11) if w < 2**64]
    _, steps = simulator._station_draws(_Words(words), fl, 1.0, 1, (0,) * len(fl))
    got = [int(s[0]) for s in steps]
    assert got == [sum((w >> 11) * 2.0**-53 >= c for c in cum[:-1]) for w in words]


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
    """Generator of the queue chain on {0..cap}^n, written out state by
    state, with one absorbing overflow state (the last) that takes every
    jump out of the box."""
    n = len(nu) - 1
    index = {s: i for i, s in enumerate(itertools.product(range(cap + 1), repeat=n))}
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
        ((1, 2, 3), 14, (1, 0), (0, 1), 0.5, True),
        ((2, 1.5, 3), 16, (0, 2), (1, 0), 0.4, True),
        ((1, 3), 5, (4,), (0,), 0.5, False),
        ((1, 2, 3), 4, (2, 3), (0, 0), 0.5, False),
        ((1, 2, 3, 4), 3, (1, 2, 3), (0, 0, 0), 0.3, False),
    ],
)
def test_uniformization_matches_dense_generator(nu, cap, q, q2, t, solves):
    # the starts near the cap make the spills at full queues carry mass
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


def test_uniformization_time_zero():
    got = uniformization_kt((2,), (2,), 0.0, (1, 2), 10, tol=1e-10)
    assert got.value == pytest.approx(1.0, abs=1e-10)


def test_uniformization_refuses_oversized_box_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="states"):
            uniformization_kt((0, 0, 0), (0, 0, 0), 1.0, (1, 2, 3, 4), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # verify's largest box, N=3 at cap 80, is below the limit
    assert 81**3 <= simulator.MAX_BOX_POINTS


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
