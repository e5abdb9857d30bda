"""Smoke test of the benchmark itself: every workload at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

Checks that each run is correct, prints every metric that BENCHMARK.json
names with its unit, and that the traced run restores every function it
wrapped.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads("\n".join(lines[:-1]))
    return result, report


@pytest.fixture(autouse=True)
def _one_spawn(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(capsys, workload):
    result, report = _run(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["failed_inputs"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = report["environment"]
    assert {"python", "numpy", "scipy", "mpmath", "nproc", "seed", "import_path"} <= set(env)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_restores_patches(capsys, workload):
    run.import_library()
    import tracer

    before = tracer.patch_snapshot()
    result, report = _run(capsys, workload, 1)
    after = tracer.patch_snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is before[k] for k in before)
    assert result["correct"], report["failed_inputs"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert report["patch_targets_missing"] == []


def test_refusals_are_listed(capsys):
    result, report = _run(capsys, "kt-general", 0)
    assert result["metrics"]["solved_frac"]["value"] < 1.0
    assert report["refused_inputs"] and report["fail_frac"] > 0
