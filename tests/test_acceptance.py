"""Acceptance gate: ten end-to-end checks, one line of output each.

Each test exercises a complete contract at full budget: the exact
symmetric-function layer, the kernel algebra, the transition formulas
against uniformization and Monte Carlo, the single-station closed form,
and the decay-rate diagnostics.  Runtime budgets are asserted where the
contract states one.
"""

import math
import subprocess
import sys
import time

from tandemq import asymptotics, kernels, queueprobs, simulator, verify


def _line(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    msg = f"criterion {num:02d} {label}: {status}"
    if detail:
        msg += f" ({detail})"
    print(msg, flush=True)


def _run(fn):
    return verify.run_check(fn, budget="full")


def test_criterion_01_window_convolution_exact():
    res = _run(verify.check_window_convolution)
    dt = res.seconds
    ok = res.passed and dt < 10.0
    _line(1, "window convolution exact", ok, f"{res.detail}, {dt:.1f}s")
    assert res.passed, res.detail
    assert dt < 10.0


def test_criterion_02_schur_two_routes_exact():
    res = _run(verify.check_schur_two_routes)
    dt = res.seconds
    ok = res.passed and dt < 30.0
    _line(2, "schur two routes exact", ok, f"{res.detail}, {dt:.1f}s")
    assert res.passed, res.detail
    assert dt < 30.0


def test_criterion_03_kernel_algebra_exact():
    inv = _run(verify.check_pi_lambda_inverse)
    cb = _run(verify.check_cauchy_binet)
    two = _run(verify.check_lambda_two_routes)
    dt = inv.seconds + cb.seconds + two.seconds
    ok = inv.passed and cb.passed and two.passed and dt < 60.0
    _line(3, "kernel algebra exact", ok,
          f"inverse+cauchy-binet+two-routes, {dt:.1f}s")
    assert inv.passed, inv.detail
    assert cb.passed, cb.detail
    assert two.passed, two.detail
    assert dt < 60.0


def test_criterion_04_departure_kernel_two_routes():
    res = _run(verify.check_departure_two_routes)
    _line(4, "departure kernel two routes 1e-8", res.passed,
          f"worst {res.residual:.2e}, {res.detail}")
    assert res.passed, res.detail
    assert res.residual <= 1e-8


def test_criterion_05_empty_state_consistency():
    two = _run(verify.check_kt00_two_forms)
    unif = _run(verify.check_kt00_vs_uniformization)
    nu = (1, 2, 4)
    direct = queueprobs.kt00_direct(1.0, nu, tol=1e-12).value
    stat = queueprobs.kt00_stationary(1.0, nu, tol=1e-12).value
    cfg = simulator.SimConfig(rates=nu, horizon=1.0, seed=20260814,
                              replications=1_000_000)
    est = simulator.simulate_queue_prob((0, 0), (0, 0), cfg=cfg)
    sigma = est.half_width_95 / 1.96
    dev = max(abs(est.mean - direct), abs(est.mean - stat)) / sigma
    ok = two.passed and unif.passed and dev <= 3.0
    _line(5, "empty-state consistency", ok,
          f"forms {two.residual:.1e}, unif {unif.residual:.1e}, sim {dev:.2f} sigma")
    assert two.passed and two.residual <= 2e-8, two.detail
    assert unif.passed and unif.residual <= 1e-6, unif.detail
    assert dev <= 3.0


def test_criterion_06_single_station_closed_form():
    res = _run(verify.check_mm1_vs_uniformization)
    worst_row = 0.0
    for t in (0.5, 1.0, 5.0):
        for q in range(6):
            s = sum(queueprobs.mm1_kt(q, q2, t, (1, 2)).value for q2 in range(60))
            worst_row = max(worst_row, abs(s - 1.0))
    tail = abs(queueprobs.mm1_kt(0, 0, 80.0, (1, 2)).value - 0.5)
    ok = res.passed and worst_row <= 1e-10 and tail <= 1e-8
    _line(6, "single-station closed form", ok,
          f"unif {res.residual:.1e}, rows {worst_row:.1e}, t=80 {tail:.1e}")
    assert res.passed and res.residual <= 1e-10, res.detail
    assert worst_row <= 1e-10
    assert tail <= 1e-8


def test_criterion_07_service_permutation_symmetry():
    import itertools

    worst = 0.0
    for form in (queueprobs.kt00_direct, queueprobs.kt00_stationary):
        vals = [form(1.0, (1,) + perm, tol=1e-13).value
                for perm in itertools.permutations((2, 3, 5))]
        mean = sum(vals) / len(vals)
        worst = max(worst, (max(vals) - min(vals)) / mean)
    _line(7, "service permutation symmetry 1e-10", worst <= 1e-10,
          f"relative variation {worst:.1e}")
    assert worst <= 1e-10


def test_criterion_08_relaxation_decay_fit():
    t0 = time.perf_counter()
    nu = (1, 4, 2, 3)
    analytic = asymptotics.relaxation_rate(nu)
    assert abs(analytic - (3 - 2 * math.sqrt(2))) < 1e-14
    assert abs(asymptotics.relaxation_time(nu) - 1 / analytic) < 1e-12
    series = []
    for t in range(150, 256, 15):
        kv = queueprobs.kt00_gap_relative(float(t), nu)
        if kv.value > 10 * kv.abs_error:
            series.append((float(t), float(kv.value)))
    fitted, window, npts = asymptotics.fit_decay_rate(series, floor=0.0)
    rel = abs(fitted - analytic) / analytic
    dt = time.perf_counter() - t0
    ok = rel <= 0.10 and dt < 600.0
    _line(8, "relaxation decay fit within 10%", ok,
          f"fitted {fitted:.5f} vs {analytic:.5f}, window {window}, "
          f"{npts} pts, {dt:.1f}s")
    assert rel <= 0.10
    assert dt < 600.0


def test_criterion_09_dominant_term_ratio():
    nu = (1, 2, 4)
    pref, arrangement = asymptotics.dominant_prefactor(nu)
    t_star, gap = None, None
    for t in range(90, 141, 5):
        kv = queueprobs.kt00_gap_relative(float(t), nu, precision="high")
        if kv.value > 1e-10:
            t_star, gap = float(t), float(kv.value)
    assert t_star is not None
    denom = pref * kernels.noncrossing_prob(
        (0,) * len(nu), t_star, arrangement, tol=1e-4 * gap, precision="high"
    ).value
    ratio = gap / float(denom)
    ok = 0.9 <= ratio <= 1.1
    _line(9, "dominant term ratio in [0.9,1.1]", ok,
          f"t={t_star:g}, gap {gap:.3e}, ratio {ratio:.6f}")
    assert ok


def test_criterion_10_simulation_reproducibility():
    def run(*extra):
        return subprocess.run(
            [sys.executable, "-m", "tandemq.cli", "simulate", "kt",
             "--rates", "1,2,4", "--q", "0,0", "--q2", "0,0", "--t", "1",
             "--seed", "7", "--reps", "100000", *extra],
            capture_output=True, text=True,
        )

    a, b, par = run(), run(), run("--jobs", "4")
    ok = (a.returncode == 0 and a.stdout == b.stdout and a.stdout == par.stdout
          and a.stdout != "")
    _line(10, "simulation reproducibility", ok,
          "rerun byte-identical, parallel == serial")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout == par.stdout
