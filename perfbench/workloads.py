"""The four seeded workloads and their reference checks.

Each workload is a fixed list of evaluations built from the seed.  The
seed draws rates and times inside fixed strata (jitter of a few percent
around fixed base values, one time per stratum), so every seed gives the
same mix of routes, station counts and time scales and a batch costs about
the same whatever the seed.  Only the generated inputs reach the library.

An evaluation is a call into the library made exactly as a user makes it:
``tandemq.cli.main(argv)`` in-process with ``--format json`` for the CLI
routes, the public functions otherwise.  Its reference check, run outside
the timed region, recomputes the value by an independent route.
"""

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from tandemq import asymptotics, cli, kernels, queueprobs, simulator
from tandemq.errors import TandemError, ToleranceNotAchieved

# About 1.2 times the seconds one batch takes at the parent commit on a
# 2-core x86_64 machine; a run makes floor(--seconds / this) batches when
# they fit, so the sample count stays the same from run to run.
NOMINAL_BATCH_S = {"kt00-grid": 3.8, "kt-general": 5.5, "decay-tail": 3.9, "oracles": 2.6}

# abs_error certifies truncation only; double-precision round-off is not
# included (KernelValue docstring).  Two double-precision probabilities
# agree if they differ by at most their bounds plus this absolute
# allowance; every use of the allowance is listed in the report.
ROUNDOFF = 1e-12

# uniformization references stay within this many states, so a reference
# check never costs more than a few tens of milliseconds
UNIFORM_MAX_STATES = 25_000


class Refused(Exception):
    """The CLI mapped a TandemError to exit code 2 or 3."""


@dataclass
class Evaluation:
    label: str
    group: str
    n: int
    t: float
    call: Callable  # (results of this batch, by index) -> outcome dict
    check: Optional[Callable] = None  # (outcome, results) -> [(name, ok, diff, excess)]
    warm: bool = False  # run once untimed before the first batch


# ---------------------------------------------------------------------------
# helpers


def _jitter(rng, base, spread):
    """Scale each distinct base value by its own factor in [1-spread, 1+spread];
    equal base values get the same factor, so coincident rates stay coincident."""
    factor = {v: rng.uniform(1.0 - spread, 1.0 + spread) for v in sorted(set(base))}
    return [v * factor[v] for v in base]


def _rate_text(vals):
    return ",".join("%.3f" % v for v in vals)


def _rates(text):
    return tuple(Fraction(p) for p in text.split(","))


def _strata(rng, lo, hi, k):
    """k times log-spread over [lo, hi], one uniform draw per stratum."""
    span = math.log(hi / lo)
    return [round(lo * math.exp(span * (i + rng.random()) / k), 4) for i in range(k)]


def cli_rows(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--format", "json"])
    if code != 0:
        raise Refused(f"exit {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def _kv(kv, **extra):
    return dict(value=float(kv.value), abs_error=float(kv.abs_error), **extra)


def _agree(name, out, ref, roundoff=ROUNDOFF):
    """Values agree when they differ by at most the sum of their certified
    bounds plus the round-off allowance.  Returns (name, ok, |diff|, excess),
    excess being how far |diff| exceeds the certified bounds alone."""
    diff = abs(out["value"] - float(ref.value))
    excess = diff - out["abs_error"] - float(ref.abs_error)
    return (name, excess <= roundoff, diff, max(excess, 0.0))


def uniform_reference(q, q2, t, rates, tol):
    """uniformization_kt at the largest cap within UNIFORM_MAX_STATES, or
    None when the chain that fits leaks more than tol/2."""
    n = len(q)
    cap = int(UNIFORM_MAX_STATES ** (1.0 / n)) - 1
    if cap < max(max(q), max(q2)) + 2:
        return None
    try:
        return simulator.uniformization_kt(q, q2, t, rates, cap, tol=tol)
    except ToleranceNotAchieved:
        return None
    finally:
        # one matrix per rate vector: keep the cache from growing across checks
        getattr(simulator, "_MATRIX_CACHE", {}).clear()


# ---------------------------------------------------------------------------
# kt00-grid: `tandemq kt00` (auto route), one t per call


KT00_BASE = {2: (1.0, 2.0, 3.0), 3: (1.0, 1.8, 2.6, 3.5), 4: (1.0, 1.6, 2.2, 2.9, 3.7)}


def kt00_grid(rng, tiny):
    counts = {2: 2, 3: 2, 4: 1} if tiny else {2: 10, 3: 10, 4: 6}
    evals = []
    for n, k in counts.items():
        for i, t in enumerate(_strata(rng, 0.25, 60.0, k)):
            base = KT00_BASE[n]
            services = _jitter(rng, base[1:], 0.05)
            rng.shuffle(services)
            text = _rate_text([base[0] * rng.uniform(0.95, 1.05)] + services)
            evals.append(
                Evaluation(
                    label=f"kt00 --rates {text} --t {t} --tol 1e-10",
                    group=f"N={n}",
                    n=n,
                    t=t,
                    call=_kt00_call(text, t),
                    check=_kt00_check(text, t, n),
                    warm=(i == 0),
                )
            )
    return evals


def _kt00_call(text, t):
    def call(results):
        row = cli_rows(["kt00", "--rates", text, "--t", repr(t), "--tol", "1e-10"])[0]
        return dict(value=row["value"], abs_error=row["abs_error"], method=row["method"])

    return call


def _kt00_check(text, t, n):
    def check(out, results):
        rates = _rates(text)
        direct = queueprobs.kt00_direct(t, rates, tol=1e-12)
        checks = [_agree("kt00 vs kt00_direct", out, direct)]
        zero = (0,) * n
        uni = uniform_reference(zero, zero, t, rates, tol=1e-10)
        if uni is not None:
            checks.append(_agree("kt00 vs uniformization", out, uni))
        return checks

    return check


# ---------------------------------------------------------------------------
# kt-general: `tandemq kt` between small queue vectors, one t per call

# (base rates, q, q2, t).  Unstable and coincident rate vectors are included
# on purpose: the route needs no rate assumption.  All-equal rates with an
# empty target take the CLI's equal-rates path.
KT_N2 = (
    ((1.0, 2.0, 4.0), (1, 0), (0, 1), 0.5),
    ((1.0, 2.0, 4.0), (0, 1), (1, 0), 1.0),
    ((1.0, 2.0, 4.0), (1, 1), (0, 2), 2.0),
    ((1.0, 2.0, 4.0), (0, 0), (1, 0), 3.0),
    ((1.5, 1.0, 2.0), (1, 0), (0, 1), 1.0),
    ((1.5, 1.0, 2.0), (2, 0), (1, 1), 3.0),
    ((1.5, 1.0, 2.0), (1, 2), (2, 1), 1.5),
    ((1.5, 1.0, 2.0), (0, 2), (0, 0), 5.0),
    ((2.0, 1.5, 1.0), (3, 3), (1, 2), 4.0),
    ((2.0, 1.5, 1.0), (0, 0), (2, 1), 2.0),
    ((2.0, 3.0, 1.0), (1, 0), (0, 1), 1.0),
    ((2.0, 3.0, 1.0), (2, 0), (1, 1), 3.0),
    ((2.0, 3.0, 1.0), (1, 2), (2, 1), 1.5),
    ((1.0, 2.0, 2.0), (1, 1), (0, 2), 2.0),
    ((1.0, 2.0, 2.0), (0, 3), (1, 1), 4.0),
    ((1.0, 2.0, 2.0), (2, 1), (0, 0), 6.0),
    ((1.0, 1.0, 1.0), (1, 1), (2, 0), 2.0),
    ((1.0, 1.0, 1.0), (2, 0), (1, 1), 4.0),
    ((1.0, 1.0, 1.0), (1, 2), (0, 0), 3.0),
    ((1.0, 1.0, 1.0), (3, 1), (0, 0), 6.0),
)
KT_N3 = (
    ((1.0, 2.0, 3.0, 5.0), (1, 0, 0), (0, 1, 0), 0.3),
    ((1.0, 1.0, 1.0, 1.0), (0, 1, 0), (0, 0, 1), 1.0),
    ((2.0, 1.5, 1.0, 3.0), (0, 0, 1), (0, 0, 0), 0.6),
)
# Inputs the current route refuses (ToleranceNotAchieved, weighted box
# point limit); they count as unsolved, not as failures of the benchmark.
KT_REFUSED = (
    ((1.0, 2.0, 4.0), (0, 0), (0, 0), 30.0),
    ((1.0, 2.0, 3.0, 5.0), (0, 0, 0), (0, 0, 0), 5.0),
    ((1.0, 2.0, 3.0, 5.0), (0, 0, 0), (0, 0, 0), 20.0),
)


def kt_general(rng, tiny):
    plan = (KT_N2[::7] + KT_N3[1:2] + KT_REFUSED[:1]) if tiny else (KT_N2 + KT_N3 + KT_REFUSED)
    evals, seen = [], set()
    for base, q, q2, t in plan:
        n = len(q)
        vals = _jitter(rng, base, 0.03)
        t = round(t * rng.uniform(0.97, 1.03), 4)
        text = _rate_text(vals)
        q_s, q2_s = ",".join(map(str, q)), ",".join(map(str, q2))
        group = f"N={n}"
        evals.append(
            Evaluation(
                label=f"kt --rates {text} --q {q_s} --q2 {q2_s} --t {t} --tol 1e-8",
                group=group,
                n=n,
                t=t,
                call=_kt_call(text, q_s, q2_s, t),
                check=_kt_check(text, q, q2, t),
                warm=group not in seen,
            )
        )
        seen.add(group)
    return evals


def _kt_call(text, q_s, q2_s, t):
    def call(results):
        argv = ["kt", "--rates", text, "--q", q_s, "--q2", q2_s, "--t", repr(t), "--tol", "1e-8"]
        row = cli_rows(argv)[0]
        return dict(value=row["value"], abs_error=row["abs_error"], path=row["path"])

    return call


def _kt_check(text, q, q2, t):
    def check(out, results):
        uni = uniform_reference(q, q2, t, _rates(text), tol=1e-9)
        return [] if uni is None else [_agree("kt vs uniformization", out, uni)]

    return check


# ---------------------------------------------------------------------------
# decay-tail: gap series for the relaxation fit, like `relaxation --t`

DECAY_N2 = ((1.0, 2.0, 4.0), (1.0, 3.0, 5.0), (1.0, 3.2, 2.2))
DECAY_N3 = ((1.0, 4.0, 2.0, 3.0),)
# precision="high" points; the N=3 ones cost about the same each, so the
# tail sample falls inside their group whatever the batch count
DECAY_HIGH_T = {2: (30.0,), 3: (4.0, 5.0, 6.0, 7.0)}


def decay_tail(rng, tiny):
    vectors = DECAY_N2[:1] if tiny else DECAY_N2 + DECAY_N3
    evals = []
    for v, base in enumerate(vectors):
        n = len(base) - 1
        text = _rate_text(_jitter(rng, base, 0.03))
        rates = _rates(text)
        # t >= 66, in the asymptotic regime as in acceptance criterion 08: the
        # slope fit carries a bias of about 1.5/t from the algebraic prefactor
        grid = [70.0 + 20.0 * k + round(rng.uniform(-4.0, 4.0), 3) for k in range(12)]
        if tiny:
            grid = grid[::3]
        series_idx = []
        for k, t in enumerate(grid):
            series_idx.append((len(evals), t))
            evals.append(
                Evaluation(
                    label=f"kt00_gap_relative rates=({text}) t={t}",
                    group=f"N={n} double",
                    n=n,
                    t=t,
                    call=_gap_call(rates, t, "double"),
                    check=_gap_check(),
                    warm=(v == 0 and k == 0),
                )
            )
        for k, t in enumerate(DECAY_HIGH_T[n][:1] if tiny else DECAY_HIGH_T[n]):
            t = round(t * rng.uniform(0.95, 1.05), 3)
            evals.append(
                Evaluation(
                    label=f"kt00_gap_relative rates=({text}) t={t} precision=high",
                    group=f"N={n} high",
                    n=n,
                    t=t,
                    call=_gap_call(rates, t, "high"),
                    check=_gap_check(reference=(rates, t)),
                    warm=(v == 0 and k == 0),
                )
            )
        evals.append(
            Evaluation(
                label=f"decay_report rates=({text}) t={grid[0]}..{grid[-1]}",
                group=f"N={n} fit",
                n=n,
                t=grid[-1],
                call=_decay_call(rates, series_idx),
                check=_decay_check(rates),
            )
        )
    return evals


def _gap_call(rates, t, precision):
    def call(results):
        return _kv(queueprobs.kt00_gap_relative(t, rates, precision=precision))

    return call


def _gap_check(reference=None):
    def check(out, results):
        value, err = out["value"], out["abs_error"]
        checks = [("gap > 0 within its relative bound", value > 0 and err <= 1e-4 * value, None, 0.0)]
        if reference is not None:
            rates, t = reference
            ref = queueprobs.kt00_gap_relative(t, rates)
            checks.append(_agree("high vs double gap", out, ref, roundoff=0.0))
        return checks

    return check


def _decay_call(rates, series_idx):
    """Fit and leading-term ratio, as `tandemq relaxation --t` computes them."""

    def call(results):
        series = []
        for i, t in series_idx:
            out = results[i]
            if out["value"] > 10 * out["abs_error"]:
                series.append((t, out["value"]))
        rep = asymptotics.decay_report(rates, series, floor=0.0)
        t_big, gap_big = series[-1]
        pref, arrangement = asymptotics.dominant_prefactor(rates)
        lead = kernels.noncrossing_prob(
            (0,) * len(rates), t_big, arrangement, tol=1e-4 * gap_big
        )
        return dict(
            value=rep.fitted_rate,
            abs_error=None,
            analytic_rate=rep.analytic_rate,
            ratio=gap_big / (pref * float(lead.value)),
            fit_points=rep.n_points,
        )

    return call


def _decay_check(rates):
    def check(out, results):
        rate = asymptotics.relaxation_rate(rates)
        diff = abs(out["value"] - rate)
        return [
            ("fitted rate within 10% of relaxation_rate", diff <= 0.10 * rate, diff, 0.0),
            ("leading-term ratio in [0.9, 1.1]", 0.9 <= out["ratio"] <= 1.1, abs(out["ratio"] - 1), 0.0),
        ]

    return check


# ---------------------------------------------------------------------------
# oracles: simulator and uniformization

SIM_BLOCKS = 2  # replications per estimate = SIM_BLOCKS * simulator.BLOCK
SIM_QUEUE = (
    ((1.0, 2.0, 4.0), (0, 0), (0, 0), 1.0),
    ((1.0, 2.0, 4.0), (1, 0), (0, 1), 0.5),
    ((1.5, 2.0, 3.0), (0, 1), (0, 0), 1.0),
    ((1.0, 1.5, 2.5), (1, 1), (1, 0), 0.8),
    ((1.0, 2.0, 3.0, 5.0), (0, 0, 0), (0, 0, 0), 0.5),
    ((1.0, 2.5, 3.0, 4.0), (0, 0, 0), (0, 0, 0), 1.0),
)
SIM_NONCROSS = (
    ((3.0, 2.0, 1.0), (2, 1, 0), 1.0),
    ((2.0, 1.0), (1, 0), 1.0),
    ((1.0, 2.0, 3.0), (3, 1, 0), 0.5),
    ((1.0, 2.0, 3.0, 4.0), (3, 2, 1, 0), 0.5),
    ((2.0, 2.0, 1.0), (2, 1, 0), 0.8),
    ((1.0, 3.0), (2, 0), 0.7),
)
UNIFORM = (
    ((1.0, 2.0, 4.0), 40, (1, 0), (0, 1), 1.0),
    ((1.0, 2.0, 4.0), 40, (0, 0), (0, 0), 2.0),
    ((1.0, 2.0, 4.0), 40, (2, 1), (1, 1), 1.5),
    ((1.0, 2.0, 4.0), 40, (0, 1), (1, 0), 3.0),
    ((1.0, 2.0, 3.0, 5.0), 25, (0, 0, 0), (0, 0, 0), 0.5),
    ((1.0, 2.0, 3.0, 5.0), 25, (0, 0, 0), (0, 0, 0), 1.0),
    ((1.0, 2.0, 3.0, 5.0), 25, (0, 0, 0), (0, 0, 0), 2.0),
    ((1.0, 2.0, 3.0, 5.0), 25, (0, 0, 0), (0, 0, 0), 3.0),
)


def oracles(rng, tiny):
    sim_q = SIM_QUEUE[:1] if tiny else SIM_QUEUE
    sim_x = SIM_NONCROSS[:1] if tiny else SIM_NONCROSS
    uni = UNIFORM[:1] + UNIFORM[4:5] if tiny else UNIFORM
    reps = (1 if tiny else SIM_BLOCKS) * simulator.BLOCK
    evals = []
    for i, (base, q, q2, t) in enumerate(sim_q):
        text = _rate_text(_jitter(rng, base, 0.03))
        seed = rng.randrange(2**63)
        evals.append(
            Evaluation(
                label=f"simulate_queue_prob rates=({text}) q={q} q2={q2} t={t} seed={seed} reps={reps}",
                group="simulate kt",
                n=len(q),
                t=t,
                call=_sim_queue_call(text, q, q2, t, seed, reps),
                check=_sim_queue_check(text, q, q2, t),
                warm=(i == 0),
            )
        )
    for i, (base, x, t) in enumerate(sim_x):
        text = _rate_text(_jitter(rng, base, 0.03))
        seed = rng.randrange(2**63)
        evals.append(
            Evaluation(
                label=f"simulate_noncrossing rates=({text}) x={x} t={t} seed={seed} reps={reps}",
                group="simulate noncross",
                n=len(x) - 1,
                t=t,
                call=_sim_noncross_call(text, x, t, seed, reps),
                check=_sim_noncross_check(text, x, t),
                warm=(i == 0),
            )
        )
    # one rate vector per station count, shared by its calls, so the
    # matrix cache is hit inside a batch; it is cleared before each batch
    texts = {}
    for base, cap, q, q2, t in uni:
        text = texts.setdefault(base, _rate_text(_jitter(rng, base, 0.03)))
        t = round(t * rng.uniform(0.95, 1.05), 4)
        evals.append(
            Evaluation(
                label=f"uniformization_kt rates=({text}) cap={cap} q={q} q2={q2} t={t}",
                group=f"uniformization N={len(q)}",
                n=len(q),
                t=t,
                call=_uniform_call(text, q, q2, t, cap),
                check=_uniform_check(text, q, q2, t),
            )
        )
    return evals


def _sim_queue_call(text, q, q2, t, seed, reps):
    def call(results):
        cfg = simulator.SimConfig(rates=_rates(text), horizon=t, seed=seed, replications=reps)
        est = simulator.simulate_queue_prob(q, q2, cfg=cfg, jobs=None)
        return dict(value=est.mean, abs_error=est.half_width_95, reps=est.replications)

    return call


def _sim_noncross_call(text, x, t, seed, reps):
    def call(results):
        rates = tuple(float(v) for v in _rates(text))
        cfg = simulator.SimConfig(rates=rates, horizon=t, seed=seed, replications=reps)
        est = simulator.simulate_noncrossing(x, cfg=cfg, jobs=None)
        return dict(value=est.mean, abs_error=est.half_width_95, reps=est.replications)

    return call


def _within_4se(name, out, ref):
    se = out["abs_error"] / 1.96
    diff = abs(out["value"] - float(ref.value))
    return (name, diff <= 4 * se + float(ref.abs_error), diff, 0.0)


def _sim_queue_check(text, q, q2, t):
    def check(out, results):
        rates = _rates(text)
        if not any(q) and not any(q2):
            ref = queueprobs.kt00_direct(t, rates, tol=1e-10)
        else:
            ref = queueprobs.kt_general(q, q2, t, rates, tol=1e-8)
        return [_within_4se("simulate kt within 4 SE of kernel", out, ref)]

    return check


def _sim_noncross_check(text, x, t):
    def check(out, results):
        ref = kernels.noncrossing_prob(x, t, _rates(text), tol=1e-10)
        return [_within_4se("simulate noncross within 4 SE of kernel", out, ref)]

    return check


def _uniform_call(text, q, q2, t, cap):
    def call(results):
        return _kv(simulator.uniformization_kt(q, q2, t, _rates(text), cap, tol=1e-9))

    return call


def _uniform_check(text, q, q2, t):
    def check(out, results):
        rates = _rates(text)
        if not any(q) and not any(q2):
            ref = queueprobs.kt00_direct(t, rates, tol=1e-12)
        else:
            ref = queueprobs.kt_general(q, q2, t, rates, tol=1e-10)
        return [_agree("uniformization vs kernel", out, ref)]

    return check


def before_batch(name):
    """State reset before every batch: the oracles workload pays the
    uniformization matrix build in each batch, as a CLI user does in each
    process."""
    if name == "oracles":
        getattr(simulator, "_MATRIX_CACHE", {}).clear()


BUILDERS = {
    "kt00-grid": kt00_grid,
    "kt-general": kt_general,
    "decay-tail": decay_tail,
    "oracles": oracles,
}


def build(name, seed, tiny=False):
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, tiny)


def is_refusal(exc):
    return isinstance(exc, (TandemError, Refused))
