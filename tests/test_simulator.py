"""Oracle layer: reproducibility and statistical calibration of the
Monte Carlo paths, and the truncation contract of uniformization."""

import math

import numpy as np
import pytest

from tandemq.errors import PreconditionError, ToleranceNotAchieved
from tandemq.kernels import noncrossing_prob
from tandemq.queueprobs import mm1_kt
from tandemq.simulator import (
    BLOCK,
    CtmcTruncation,
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
    with pytest.raises(PreconditionError):
        SimConfig(rates=(1.0, 2.0), horizon=math.inf, seed=0, replications=10)
    with pytest.raises(PreconditionError):
        SimConfig(rates=(1.0, 2.0), horizon=1.0, seed=0, replications=0)
    with pytest.raises(PreconditionError):
        SimConfig(rates=(1.0, 2.0), horizon=1.0, seed=2**64, replications=10)


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
        simulate_queue_prob((0,), (0,), cfg=cfg, t=-1.0)
    # an infinite horizon used to reach numpy's Poisson sampler
    for t in (math.inf, math.nan):
        with pytest.raises(PreconditionError):
            simulate_queue_prob((0,), (0,), cfg=cfg, t=t)
        with pytest.raises(PreconditionError):
            simulate_noncrossing((1, 0), cfg=cfg, t=t)
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


def test_uniformization_accepts_truncation_record():
    trunc = CtmcTruncation(cap=40)
    kv = uniformization_kt((0, 0), (0, 0), 1.0, (1, 2, 4), trunc, tol=1e-9)
    assert trunc.mass_leak_bound <= 1e-9 / 2
    assert kv.abs_error <= 1e-9
    assert 0.0 <= kv.value <= 1.0


def test_uniformization_leak_raises():
    trunc = CtmcTruncation(cap=3)
    with pytest.raises(ToleranceNotAchieved) as err:
        uniformization_kt((0,), (0,), 20.0, (1, 1.2), trunc, tol=1e-10)
    assert trunc.mass_leak_bound > 0
    assert err.value.achieved > 1e-10


def test_uniformization_time_zero():
    got = uniformization_kt((2,), (2,), 0.0, (1, 2), 10, tol=1e-10)
    assert got.value == pytest.approx(1.0, abs=1e-10)


def test_uniformization_rejects_state_beyond_cap():
    with pytest.raises(PreconditionError):
        uniformization_kt((11,), (0,), 1.0, (1, 2), 10)


def test_estimate_half_width_is_binomial():
    cfg = SimConfig(rates=(1.0, 2.0), horizon=1.0, seed=5, replications=50000)
    est = simulate_queue_prob((0,), (0,), cfg=cfg)
    n = est.replications
    p = est.mean
    want = 1.96 * np.sqrt(p * (1 - p) / (n - 1))
    assert est.half_width_95 == pytest.approx(want, rel=1e-9)
