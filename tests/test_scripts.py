"""The scripts under scripts/ run end to end on small arguments."""

import os
import pathlib
import subprocess
import sys

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
    r = run_script("crosscheck_grid.py", "--t", "0.5,2", "--reps", "20000", "--cap", "30")
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
