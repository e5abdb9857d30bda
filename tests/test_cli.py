"""Command line contract: subcommand dispatch, output formats, exit
codes, and byte-stable serialization."""

import json
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import tandemq
from tandemq import cli
from tandemq.errors import ToleranceNotAchieved
from tandemq.queueprobs import kt00_direct, kt00_stationary, mm1_kt, stationary_empty_prob
from tandemq.simulator import uniformization_kt


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "tandemq.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def kt00_rows(r):
    """(t, value, abs_error, method) of each row of a kt00 CSV table."""
    rows = [ln.rstrip("\r").split(",") for ln in r.stdout.strip().splitlines()[1:]]
    return [(float(t), float(v), float(e), m) for t, v, e, m in rows]


def test_kt00_csv_table():
    r = run_cli("kt00", "--rates", "1,2,4", "--t", "0.5,1")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0].rstrip("\r") == "t,value,abs_error,method"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0.5", "1"]
    rows = kt00_rows(r)
    assert all(m == "departure-sum" for _, _, _, m in rows)
    vals = [v for _, v, _, _ in rows]
    assert all(0.375 < v < 1.0 for v in vals)
    assert vals[0] > vals[1]
    for t, v, e, _ in rows:
        ref = kt00_stationary(t, (1, 2, 4), tol=1e-12)
        assert abs(v - ref.value) <= e + ref.abs_error + 1e-12
    assert r.stderr == ""


def test_kt00_short_time_near_one():
    r = run_cli("kt00", "--rates", "1,2", "--t", "0.001")
    val = float(r.stdout.strip().splitlines()[1].split(",")[1])
    assert abs(val - 1.0) < 5e-3


def test_kt00_method_dispatch():
    # one route; the closed forms are its oracles
    r = run_cli("kt00", "--rates", "1,2,4", "--t", "1")
    assert r.returncode == 0
    [(t, value, abs_error, method)] = kt00_rows(r)
    assert method == "departure-sum"
    for ref in (kt00_direct(t, (1, 2, 4), tol=1e-12), kt00_stationary(t, (1, 2, 4), tol=1e-12)):
        assert abs(value - ref.value) <= abs_error + ref.abs_error + 1e-12


def test_kt00_unstable_rates():
    r = run_cli("kt00", "--rates", "3,2,5", "--t", "1")
    assert r.returncode == 0, r.stderr
    [(t, value, abs_error, _)] = kt00_rows(r)
    ref = kt00_direct(t, (3, 2, 5), tol=1e-12)
    assert abs(value - ref.value) <= abs_error + ref.abs_error + 1e-12


def test_kt00_coincident_services():
    # the closed forms divide by rate differences; this route does not
    r = run_cli("kt00", "--rates", "1,2,2", "--t", "1")
    assert r.returncode == 0, r.stderr
    [(t, value, abs_error, _)] = kt00_rows(r)
    ref = uniformization_kt((0, 0), (0, 0), t, (1, 2, 2), 40, tol=1e-12)
    assert abs(value - ref.value) <= abs_error + ref.abs_error + 1e-12


def test_kt00_json_reruns_identical():
    a = run_cli("kt00", "--rates", "1,2,4", "--t", "0.25,1,4", "--format", "json")
    b = run_cli("kt00", "--rates", "1,2,4", "--t", "0.25,1,4", "--format", "json")
    assert a.stdout == b.stdout
    rows = json.loads(a.stdout)
    assert [r["t"] for r in rows] == [0.25, 1, 4]
    assert set(rows[0]) == {"t", "value", "abs_error", "method"}


def test_kt_path_dispatch():
    single = run_cli("kt", "--rates", "1,2", "--q", "0", "--q2", "0", "--t", "1")
    assert single.returncode == 0
    assert single.stdout.splitlines()[1].rstrip("\r").split(",")[-1] == "departure-sum"
    equal = run_cli("kt", "--rates", "1,1,1", "--q", "1,0", "--q2", "0,0", "--t", "1")
    assert equal.stdout.splitlines()[1].rstrip("\r").split(",")[-1] == "departure-sum"
    general = run_cli("kt", "--rates", "1,2,4", "--q", "1,0", "--q2", "0,1", "--t", "1")
    assert general.stdout.splitlines()[1].rstrip("\r").split(",")[-1] == "departure-sum"


def test_kt_coincident_rates_to_empty():
    # coincident (not all equal) rates with an empty target used to be
    # sent to the equal-rates path, which refused them with exit 2
    r = run_cli("kt", "--rates", "1,2,2", "--q", "2,1", "--q2", "0,0", "--t", "6")
    assert r.returncode == 0, r.stderr
    row = r.stdout.splitlines()[1].rstrip("\r").split(",")
    value, abs_error = float(row[3]), float(row[4])
    ref = uniformization_kt((2, 1), (0, 0), 6.0, (1, 2, 2), 40, tol=1e-9)
    assert abs(value - ref.value) <= abs_error + ref.abs_error + 1e-12


def test_kt_agrees_across_paths():
    # kt between empty states and kt00 run one route: the same digits
    grid = ("--t", "0.5,1,4", "--tol", "1e-10")
    kt = run_cli("kt", "--rates", "1,2,4", "--q", "0,0", "--q2", "0,0", *grid)
    kt00 = run_cli("kt00", "--rates", "1,2,4", *grid)
    assert kt.returncode == 0 and kt00.returncode == 0
    kt_cells = [ln.split(",")[3:5] for ln in kt.stdout.splitlines()[1:]]
    kt00_cells = [ln.split(",")[1:3] for ln in kt00.stdout.splitlines()[1:]]
    assert kt_cells == kt00_cells
    for t, value, abs_error, _ in kt00_rows(kt00):
        ref = kt00_direct(t, (1, 2, 4), tol=1e-12)
        assert abs(value - ref.value) <= abs_error + ref.abs_error + 1e-12


def test_kt_single_station_large_t():
    # the Bessel series overflowed its rho^(-l/2) factor at t=200, and its
    # scaled Bessel values underflowed (exit 3) at t=300; at t=300 the
    # relaxation factor is below e^-450, so the value is pi0 = 0.8
    r = run_cli("kt", "--rates", "1,5", "--q", "0", "--q2", "0", "--t", "200,300")
    assert r.returncode == 0, r.stderr
    rows = [ln.rstrip("\r").split(",") for ln in r.stdout.splitlines()[1:]]
    (v200, e200), (v300, e300) = [(float(row[3]), float(row[4])) for row in rows]
    ref = mm1_kt(0, 0, 200.0, (1, 5))
    assert abs(v200 - ref.value) <= e200 + ref.abs_error + 1e-12
    assert abs(v300 - 0.8) <= e300 + 1e-12


def test_kt_large_t_product_form(capsys):
    # row-scaled elimination flushed entries more than e^-745 below their
    # row maximum to 0 and printed 0.1627; the relaxation factor at t=700
    # is below e^-80, so the value is pi0 = 160/819
    argv = ["kt", "--rates", "1,1.8,2.6,3.5", "--q", "0,0,0", "--q2", "0,0,0", "--t", "700"]
    assert cli.main(argv) == 0
    row = capsys.readouterr().out.splitlines()[1].rstrip("\r").split(",")
    pi0 = stationary_empty_prob(tuple(Fraction(v) for v in ("1", "1.8", "2.6", "3.5")))
    assert abs(float(row[3]) - float(pi0)) <= float(row[4]) + 1e-12


def test_kt_rejects_negative_queue():
    r = run_cli("kt", "--rates", "1,2", "--q", "-1", "--q2", "0", "--t", "1")
    assert r.returncode == 2


def test_relaxation_report():
    r = run_cli("relaxation", "--rates", "1,4,2,3")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["analytic_rate"] == pytest.approx(3 - 2 * 2**0.5, rel=1e-12)
    assert rep["relaxation_time"] == pytest.approx(1 / (3 - 2 * 2**0.5), rel=1e-12)
    assert rep["bottleneck_station"] == 2
    assert rep["dominant_arrangement"] == [4, 3, 1, 2]
    assert rep["prefactor"] == pytest.approx(12.0, rel=1e-9)
    assert "fitted_rate" not in rep


def test_relaxation_with_grid_fits():
    r = run_cli("relaxation", "--rates", "1,4,2,3", "--t", "30,40,50,60,70,80")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["fit_points"] >= 4
    # pre-asymptotic grid: fitted rate is near, but above, the limit rate
    assert rep["analytic_rate"] < rep["fitted_rate"] < 1.5 * rep["analytic_rate"]
    assert 0.5 < rep["ratio_to_leading_term"] < 1.5


def test_relaxation_with_grid_high_precision():
    args = ("relaxation", "--rates", "1,4,2", "--t", "52,64,76,88,100")
    hi = run_cli(*args, "--precision", "high")
    assert hi.returncode == 0, hi.stderr
    lo = run_cli(*args)
    assert lo.returncode == 0, lo.stderr
    rep_hi, rep_lo = json.loads(hi.stdout), json.loads(lo.stdout)
    assert rep_hi["fitted_rate"] == pytest.approx(rep_lo["fitted_rate"], abs=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ["kt00", "--rates", "1,2,3", "--t", "nan"],
        ["kt00", "--rates", "1,2,3", "--t", "inf"],
        ["kt", "--rates", "1,2", "--q", "0", "--q2", "0", "--t", "1e400"],
        ["kt00", "--rates", "1,2,3", "--t", "1", "--tol", "nan"],
        ["kt00", "--rates", "1,2,3", "--t", "abc"],
    ],
)
def test_unusable_t_or_tol_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("option", [["--tol", "1e-3"], ["--format", "csv"]])
def test_relaxation_takes_no_tol_or_format(option):
    with pytest.raises(SystemExit) as exc:
        cli.main(["relaxation", "--rates", "1,4,2,3", *option])
    assert exc.value.code == 2


def test_relaxation_unstable_exit_2():
    r = run_cli("relaxation", "--rates", "2,1")
    assert r.returncode == 2
    assert "unstable" in r.stderr


def test_verify_identities_fast():
    r = run_cli("verify", "identities", "--budget", "fast")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert all(": PASS" in ln for ln in lines)
    assert "verify suite=identities" in r.stderr


def test_verify_json_format():
    r = run_cli("verify", "asymptotics", "--budget", "fast", "--format", "json")
    assert r.returncode == 0
    rows = json.loads(r.stdout)
    assert all(row["passed"] is True for row in rows)
    assert all(row["budget"] == "fast" for row in rows)


def test_verify_unknown_suite_exit_2():
    assert run_cli("verify", "nonsense").returncode == 2


def test_verify_failure_exit_4(monkeypatch, capsys):
    from tandemq.verify import CheckResult

    monkeypatch.setattr(
        cli.verify_mod,
        "run_suite",
        lambda suite, budget: [CheckResult("demo", False, 1.0, "forced")],
    )
    code = cli.main(["verify", "all"])
    assert code == 4
    out = capsys.readouterr()
    assert "demo: FAIL" in out.out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_stdout_leaves_out_wall_time(monkeypatch, capsys, fmt):
    # the recorded seconds vary from run to run; stdout must not
    from tandemq.verify import CheckResult

    timed = [CheckResult("demo", True, 1e-12, "3 points", seconds=1.25)]
    untimed = [CheckResult("demo", True, 1e-12, "3 points")]
    outs = []
    for results in (timed, untimed):
        monkeypatch.setattr(cli.verify_mod, "run_suite", lambda suite, budget, r=results: r)
        assert cli.main(["verify", "all", "--format", fmt]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "1.25" not in outs[0]


def test_tolerance_failure_exit_3(monkeypatch, capsys):
    def boom(*a, **k):
        raise ToleranceNotAchieved(1e-10, 1e-3, "forced")

    monkeypatch.setattr(cli.queueprobs, "kt_general", boom)
    code = cli.main(["kt00", "--rates", "1,2", "--t", "1"])
    assert code == 3
    assert "tolerance" in capsys.readouterr().err.lower()


def test_rate_ratio_past_the_float_range_exits_3(capsys):
    # the tilted mean of the h-series between the arrival rate and the
    # services is past the float range: a refusal, not a cut for mean inf
    assert cli.main(["kt00", "--rates", "1e-300,1e300,2e300", "--t", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("tandemq: requested tolerance 1e-10, achieved only inf")
    assert "past the float range" in err


def test_refusal_names_caller_tolerance(capsys):
    # the h-series budget of one entry is near e^-7034; the refusal used to
    # print it and the achieved tail as underflowed zeros
    assert cli.main(["kt00", "--rates", "1,2", "--t", "7000"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    err = out.err.strip()
    assert err.startswith("tandemq: requested tolerance 1e-10, achieved only ")
    assert err.endswith("(h-series cut exceeded 20000)")
    achieved = err.split("achieved only ")[1].split()[0]
    mantissa, exponent = achieved.split("e")
    assert float(mantissa) > 0 and int(exponent) > 0


def test_simulate_kt_reruns_byte_identical():
    args = ("simulate", "kt", "--rates", "1,2", "--q", "0", "--q2", "0",
            "--t", "1", "--seed", "11", "--reps", "20000")
    a = run_cli(*args)
    b = run_cli(*args)
    c = run_cli(*args, "--jobs", "2")
    assert a.returncode == 0
    assert a.stdout == b.stdout == c.stdout
    lines = a.stdout.strip().splitlines()
    assert lines[0].rstrip("\r") == "estimate,half_width_95,reps,seed"
    est = float(lines[1].split(",")[0])
    assert 0 < est < 1


def test_simulate_noncross_target():
    r = run_cli("simulate", "noncross", "--rates", "3,2,1", "--x", "2,1,0",
                "--t", "1", "--seed", "3", "--reps", "10000")
    assert r.returncode == 0
    est = float(r.stdout.strip().splitlines()[1].split(",")[0])
    assert 0 < est < 1


def test_simulate_bad_inputs_exit_2():
    r = run_cli("simulate", "noncross", "--rates", "1,2", "--x", "0,1",
                "--t", "1", "--reps", "100")
    assert r.returncode == 2
    r = run_cli("simulate", "kt", "--rates", "1,2", "--q", "0", "--q2", "0",
                "--t", "1", "--reps", "0")
    assert r.returncode == 2
    r = run_cli("simulate", "kt", "--rates", "1,2", "--t", "1", "--reps", "100")
    assert r.returncode == 2


def test_precision_env_flows_through():
    import os

    env = dict(os.environ, TANDEMQ_PRECISION="high")
    r = run_cli("kt00", "--rates", "1,2,4", "--t", "1", env=env)
    assert r.returncode == 0
    hi = float(r.stdout.splitlines()[1].split(",")[1])
    lo = float(run_cli("kt00", "--rates", "1,2,4", "--t", "1").stdout.splitlines()[1].split(",")[1])
    assert abs(hi - lo) < 1e-9


def test_unknown_precision_env_exits_2():
    import os

    env = dict(os.environ, TANDEMQ_PRECISION="bogus")
    r = run_cli("kt00", "--rates", "1,2,3", "--t", "1", env=env)
    assert r.returncode == 2
    assert "TANDEMQ_PRECISION='bogus'" in r.stderr
    assert "Traceback" not in r.stderr
    # an explicit --precision does not read the environment
    r = run_cli("kt00", "--rates", "1,2,3", "--t", "1", "--precision", "double", env=env)
    assert r.returncode == 0


def test_cached_parser_reads_precision_env_per_call(monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    seen = []
    kt_general = cli.queueprobs.kt_general

    def spy(*args, precision, **kwargs):
        seen.append(precision)
        return kt_general(*args, precision=precision, **kwargs)

    monkeypatch.setattr(cli.queueprobs, "kt_general", spy)
    argv = ["kt00", "--rates", "1,2,4", "--t", "1"]
    monkeypatch.setenv("TANDEMQ_PRECISION", "bogus")
    assert cli.main(argv) == 2
    assert "TANDEMQ_PRECISION" in capsys.readouterr().err
    monkeypatch.setenv("TANDEMQ_PRECISION", "high")
    assert cli.main(argv) == 0
    monkeypatch.delenv("TANDEMQ_PRECISION")
    assert cli.main(argv) == 0
    assert cli.main(argv + ["--precision", "high"]) == 0
    assert seen == ["high", "double", "high"]


def test_simulate_few_replications_at_large_t():
    # about 1100 events per replication: more than a whole block may hold,
    # but 10 rows of labels take about 11 KB
    r = run_cli("simulate", "kt", "--rates", "1,2", "--q", "0", "--q2", "0",
                "--t", "350", "--reps", "10")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[1].split(",")[2] == "10"


def test_simulate_refusals_exit_2():
    r = run_cli("simulate", "kt", "--rates", "1,2", "--q", "0", "--q2", "0",
                "--t", "1e6", "--reps", "10")
    assert r.returncode == 2
    assert "t=1000000.0 expects 3e+06 events per replication" in r.stderr
    r = run_cli("simulate", "kt", "--rates", "1,2", "--q", "0", "--q2", "0",
                "--t", "1", "--reps", "10", "--jobs", "0")
    assert r.returncode == 2
    assert "jobs must be >= 1" in r.stderr


def test_simulate_mean_past_float_range_exits_2():
    # numpy's Poisson sampler used to raise "lam value too large"; a rate
    # sum of inf did the same
    for rates, flags, t, shown in (
        ("1,2", ("--q", "0", "--q2", "0"), "1e300", "t=1e+300 expects 3e+300 events"),
        ("1,1e308,1e308", ("--q", "0,0", "--q2", "0,0"), "1", "t=1.0 expects inf events"),
    ):
        r = run_cli("simulate", "kt", "--rates", rates, *flags, "--t", t, "--reps", "10")
        assert r.returncode == 2
        assert f"{shown} per replication" in r.stderr
        assert "Traceback" not in r.stderr


def test_simulate_start_beyond_int64_exits_2():
    big = "100000000000000000000"
    for args in (("kt", "--rates", "1,2", "--q", big, "--q2", "0"),
                 ("noncross", "--rates", "1,2", "--x", f"{big},0")):
        r = run_cli("simulate", *args, "--t", "1", "--reps", "10")
        assert r.returncode == 2
        assert "int64" in r.stderr
        assert "Traceback" not in r.stderr
    r = run_cli("simulate", "kt", "--rates", "1,2", "--q", "3000000000", "--q2", "3000000000",
                "--t", "1e-9", "--reps", "10")
    assert r.returncode == 0, r.stderr
    assert float(r.stdout.splitlines()[1].split(",")[0]) == 1.0


def test_import_leaves_verify_unloaded():
    code = (
        "import sys, tandemq; loaded = 'tandemq.verify' in sys.modules; "
        "print(loaded, tandemq.run_suite.__module__, 'tandemq.verify' in sys.modules)"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "tandemq.verify", "True"]


def test_all_lists_every_public_name():
    # __all__ is kept by hand beside the imports: the package's public
    # non-module attributes and the lazily loaded verify names
    public = {
        name for name, value in vars(tandemq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(tandemq.__all__) == public | set(tandemq._VERIFY_NAMES)
    assert len(tandemq.__all__) == len(set(tandemq.__all__))


FRESH_EVALUATIONS = """
import contextlib, io, json, sys
from tandemq import cli, kt00_gap, mm1_kt, uniformization_kt

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.main(["kt00", "--rates", "1,2,3", "--t", "5"]),
        cli.main(["kt", "--rates", "1,2,3", "--q", "1,0", "--q2", "0,1", "--t", "2"]),
        cli.main(["relaxation", "--rates", "1,2,3", "--t", "30,40,50,60,70,80"]),
    ]
kt00_gap(1.5, (1, 4, 2), tol=1e-14, precision="high")
uniform = uniformization_kt((0,), (1,), 1.0, (1, 2), 40).value
before = scipy_modules()
# mm1_kt imports scipy.special on first use (the verify suites,
# chamber-infimum-vs-scipy among them, run in tests/test_verify.py)
oracles = [mm1_kt(0, 1, 1.0, (1, 2)).value, uniform]
print(json.dumps({"codes": codes, "before": before, "oracles": oracles, "after": len(scipy_modules())}))
"""


def test_double_precision_imports_no_scipy():
    r = subprocess.run([sys.executable, "-c", FRESH_EVALUATIONS], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["codes"] == [0, 0, 0]
    assert out["before"] == []
    mm1, uniform = out["oracles"]
    assert abs(mm1 - uniform) < 1e-8
    assert out["after"] > 0
