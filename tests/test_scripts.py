"""The scripts under scripts/ run end to end on small arguments."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from tandemq import simulator

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_crosscheck_grid():
    r = run_script("crosscheck_grid.py", "--t", "0.5,2", "--reps", "20000")
    assert r.returncode == 0, r.stderr
    assert "departure-sum" in r.stdout.splitlines()[1]
    assert "largest spread across deterministic routes" in r.stdout


def test_decay_experiment_fits():
    r = run_script(
        "decay_experiment.py", "--rates", "1,4,2", "--t-min", "40", "--t-max", "100",
        "--points", "6", "--precision", "high",
    )
    assert r.returncode == 0, r.stderr
    assert "fitted rate" in r.stdout


def test_decay_experiment_too_few_fit_points():
    # four certified points, but the fit drops the head ones
    r = run_script("decay_experiment.py", "--t-min", "40", "--t-max", "80", "--points", "4")
    assert r.returncode == 1
    assert "not enough certified points" in r.stderr
    assert "Traceback" not in r.stderr


def test_sim_calibration_summary():
    r = run_script("sim_calibration.py", "--seeds", "1", "--blocks", "1")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    # one row per case, its z values after two spaces
    assert sum("  z " in line for line in lines) == 12
    assert lines[-1].startswith("12 estimates of 65536 replications: mean z ")
    assert "mean z^2" in lines[-1] and "max |z|" in lines[-1]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mean, code", [(0.5 + 4.9 * 0.01, 0), (0.5 + 5.0 * 0.01, 1)])
def test_sim_calibration_exits_1_from_max_z_five(monkeypatch, capsys, mean, code):
    # one stand-in case whose every estimate lies the given z from its exact
    # value 0.5 (SE 0.01)
    cal = _load_script("sim_calibration.py")
    est = simulator.Estimate(mean, 1.96 * 0.01, 100)
    monkeypatch.setattr(cal, "cases", lambda: [("stand-in", (1.0, 2.0), 1.0, 0.5, lambda cfg: est)])
    assert cal.main(["--seeds", "2", "--blocks", "1"]) == code
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].endswith(f"max |z| {(mean - 0.5) / 0.01:.2f}")
    assert ("reaches 5.0" in err) == bool(code)


SPREAD = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]
WIDE = [1.0, 2.0] * 5


@pytest.mark.parametrize(
    "parent, change, better, bound, verdict, wins",
    [
        (SPREAD, [0.5] * 10, "lower", 0.25, "better", 10),
        (SPREAD, [1.3 * v for v in SPREAD], "lower", 0.25, "worse", 0),
        (SPREAD, SPREAD, "lower", 0.25, "no move", 0),
        (WIDE, WIDE[::-1], "lower", 0.25, "unresolved", 5),
        # every change run below every parent run: not unresolved, yet the
        # medians differ by less than the parent's spread
        (WIDE, [0.9] * 10, "lower", 0.25, "no move", 10),
        ([1.0] * 10, [0.97] * 10, "higher", 0.02, "worse", 0),
        ([0.9] * 10, [1.0] * 9 + [0.9], "higher", 0.02, "better", 9),
    ],
)
def test_bench_pairs_summary(parent, change, better, bound, verdict, wins):
    s = _load_script("bench_pairs.py").summarize(parent, change, better, bound)
    assert (s["verdict"], s["wins"], s["pairs"]) == (verdict, wins, len(parent))
    assert (s["parent"], s["change"]) == (np.median(parent), np.median(change))
