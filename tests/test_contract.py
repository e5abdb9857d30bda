"""The public contract on extreme inputs: a call returns a finite value
with a finite abs_error >= 0 and the value within [-abs_error, 1 +
abs_error], or raises a TandemError; a CLI command exits 0, 2 or 3 with
no traceback.  Each input below once broke it (a raw OverflowError or
ValueError, a nan, or a series that never ended)."""

import math
import signal
import subprocess
import sys
import time

import pytest

from tandemq import kt00_direct, kt00_gap, kt00_stationary, kt_general, noncrossing_prob
from tandemq.errors import TandemError
from tandemq.queueprobs import kt00_gap_relative, mm1_kt

# a hang fails its case instead of stalling the suite
DEADLINE_S = 10

CALLS = {
    "kt00_direct-powers": lambda: kt00_direct(1, (1, 1.0000001, 1e300, 4)),
    "kt00_gap-powers": lambda: kt00_gap(0.5, (1e-300, 4, 1.0000001)),
    "kt00_stationary-powers": lambda: kt00_stationary(1000, (1, 1e300, 1.5)),
    "noncrossing_prob-powers": lambda: noncrossing_prob((4, 2, 2), 5, (1e-300, 1, 2)),
    "kt00_gap_relative-powers": lambda: kt00_gap_relative(20, (1e-300, 2, 1e300)),
    "kt_general-e-coefficients": lambda: kt_general((3, 2, 3), (1, 0, 1), 1, (2, 1e300, 1e300, 1)),
    "kt_general-queue-1e300": lambda: kt_general((1e300, 1), (3, 3), 1, (7.5, 0.5, 3)),
    "kt_general-queue-10**300": lambda: kt_general((10**300, 1), (3, 3), 1, (7.5, 0.5, 3)),
    "kt00_gap_relative-zero-mass": lambda: kt00_gap_relative(20, (1e-300, 1e300)),
    "mm1_kt-ratio": lambda: mm1_kt(1, 0, 0.5, (1e300, 1e-300)),
    "mm1_kt-long-series": lambda: mm1_kt(3, 0, 5, (2, 1e300)),
}

COMMANDS = {
    "kt-e-coefficients": [
        "kt", "--rates", "2,1e300,1e300,1", "--q", "3,2,3", "--q2", "1,0,1", "--t", "1",
    ],
    "relaxation-zero-mass": ["relaxation", "--rates", "1e-300,1e300", "--t", "20"],
    "kt-queue-10**300": [
        "kt", "--rates", "7.5,0.5,3", "--q", f"{10**300},1", "--q2", "3,3", "--t", "1",
    ],
}

# a refusal names the caller's tolerance, not an internal share of it
# (kt00_gap_relative's first pass asks for 1e-300 here); rel_tol is 1e-4
NAMED_TOL = {
    "kt00_gap_relative-powers": "0.0001",
    "kt00_gap_relative-zero-mass": "0.0001",
    "relaxation-zero-mass": "0.0001",
}
# these refuse before any table is built
FAST_S = {"kt_general-queue-10**300": 0.1}


def _alarm(signum, frame):
    raise TimeoutError(f"no answer within {DEADLINE_S} s")


@pytest.mark.parametrize("name", CALLS)
def test_call_meets_contract(name):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(DEADLINE_S)
    start = time.perf_counter()
    try:
        kv = CALLS[name]()
    except TandemError as err:
        assert time.perf_counter() - start < FAST_S.get(name, DEADLINE_S)
        if name in NAMED_TOL:
            assert f"requested tolerance {NAMED_TOL[name]}," in str(err)
        return
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    value, err = float(kv.value), float(kv.abs_error)
    assert math.isfinite(value) and 0 <= err < math.inf
    assert -err <= value <= 1 + err


@pytest.mark.parametrize("name", COMMANDS)
def test_command_meets_contract(name):
    r = subprocess.run(
        [sys.executable, "-m", "tandemq.cli", *COMMANDS[name]],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert r.returncode in (0, 2, 3)
    assert "Traceback" not in r.stderr
    if name in NAMED_TOL:
        assert f"requested tolerance {NAMED_TOL[name]}," in r.stderr
