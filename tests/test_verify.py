"""The named self-check suites must all pass at the fast budget, return
well-formed results, and route suite names correctly."""

import pytest

from tandemq import kernels
from tandemq.errors import PreconditionError
from tandemq.verify import (
    ASYMPTOTIC_CHECKS,
    IDENTITY_CHECKS,
    ORACLE_CHECKS,
    CheckResult,
    check_pi_lambda_inverse,
    run_check,
    run_suite,
)


def test_fast_suite_all_pass():
    results = run_suite("all", budget="fast")
    assert len(results) == len(IDENTITY_CHECKS) + len(ORACLE_CHECKS) + len(ASYMPTOTIC_CHECKS)
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_suite_routing():
    idents = run_suite("identities", budget="fast")
    assert len(idents) == len(IDENTITY_CHECKS)
    assert all(r.detail for r in idents)


def test_run_suite_rejects_unknown():
    with pytest.raises(PreconditionError):
        run_suite("everything")
    with pytest.raises(PreconditionError):
        run_suite("all", budget="huge")


def test_check_result_line_format():
    r = CheckResult(name="demo", passed=True, residual=1e-12, detail="3 points")
    line = r.line()
    assert line.startswith("demo: PASS")
    assert "3 points" in line
    bad = CheckResult(name="demo", passed=False, residual=2.0, detail="x")
    assert "FAIL" in bad.line()


def test_run_check_single():
    fn = IDENTITY_CHECKS[0]
    r = run_check(fn, budget="fast")
    assert isinstance(r, CheckResult)
    assert r.passed


def test_suite_deterministic_given_seed():
    a = run_suite("identities", budget="fast", seed=5)
    b = run_suite("identities", budget="fast", seed=5)
    assert [(r.name, r.residual) for r in a] == [(r.name, r.residual) for r in b]


def test_pi_lambda_inverse_checks_the_library_kernel(monkeypatch):
    """The inverse identity runs on kernels.chamber_to_departure itself:
    doubling it at targets with a leading entry of 4 must fail the check."""
    assert run_check(check_pi_lambda_inverse, budget="fast").passed
    original = kernels.chamber_to_departure

    def perturbed(z, d, nu, **kwargs):
        value = original(z, d, nu, **kwargs)
        return 2 * value if d[0] == 4 else value

    monkeypatch.setattr(kernels, "chamber_to_departure", perturbed)
    result = run_check(check_pi_lambda_inverse, budget="fast")
    assert not result.passed
    assert result.residual > 0
