"""Property tests of the general transition probability kt_general.

Random rates, queue vectors and times, checked against the independent
uniformization oracle for small t and for non-empty states at large t,
and against the stationary-gap form of the empty-to-empty probability
for large t.  Every draw must agree within the two certified bounds; at
large t, where a service rate below an earlier one can make the
determinants cancel beyond double precision, kt_general may instead
refuse with a ToleranceNotAchieved that names the cancellation.  An
OverflowError, a nan or a silent wrong value fails.
"""

import math

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from tandemq.errors import ToleranceNotAchieved
from tandemq.queueprobs import kt00_stationary, kt_general
from tandemq.simulator import uniformization_kt

# the grid holds equal (1,1,1), coincident (1,2,2) and unstable (2,1,..)
# rate vectors
RATE_GRID = (1.0, 1.5, 2.0)

SLOW = [HealthCheck.too_slow]


@st.composite
def small_t_cases(draw):
    n = draw(st.integers(1, 3))
    nu = tuple(draw(st.sampled_from(RATE_GRID)) for _ in range(n + 1))
    q = tuple(draw(st.integers(0, 3)) for _ in range(n))
    q2 = tuple(draw(st.integers(0, 3)) for _ in range(n))
    t = draw(st.sampled_from((0.25, 1.0, 2.5, 5.0, 8.0)))
    return nu, q, q2, t


@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=SLOW)
@given(small_t_cases())
def test_kt_general_vs_uniformization(case):
    nu, q, q2, t = case
    kv = kt_general(q, q2, t, nu, tol=1e-9)
    assert isinstance(kv.value, float) and math.isfinite(kv.value)
    ref = uniformization_kt(q, q2, t, nu, tol=1e-9)
    assert abs(kv.value - ref.value) <= kv.abs_error + ref.abs_error + 1e-12


@st.composite
def large_t_cases(draw):
    n = draw(st.integers(1, 3))
    arrival = draw(st.sampled_from((0.5, 1.0)))
    grid = st.sampled_from((1.5, 2.0, 3.0, 4.0))
    services = draw(st.lists(grid, min_size=n, max_size=n, unique=True))
    t = draw(st.sampled_from((60.0, 120.0, 200.0)))
    return (arrival,) + tuple(services), t


@settings(max_examples=30, deadline=None, derandomize=True, suppress_health_check=SLOW)
@given(large_t_cases())
def test_kt_general_large_t_vs_stationary_form(case):
    nu, t = case
    zero = (0,) * (len(nu) - 1)
    kv = kt_general(zero, zero, t, nu, tol=1e-9)
    ref = kt00_stationary(t, nu, tol=1e-12)
    assert abs(kv.value - ref.value) <= kv.abs_error + ref.abs_error


@st.composite
def non_empty_large_t_cases(draw):
    n = draw(st.integers(1, 3))
    services = draw(st.permutations((1.5, 2.0, 3.0)))[:n]
    states = []
    for _ in range(2):
        state = [draw(st.integers(0, 2)) for _ in range(n)]
        state[draw(st.integers(0, n - 1))] = draw(st.integers(1, 2))
        states.append(tuple(state))
    t = draw(st.sampled_from((20.0, 40.0, 60.0)))
    return (1.0,) + tuple(services), *states, t


@settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=SLOW)
@given(non_empty_large_t_cases())
def test_kt_general_non_empty_large_t_vs_uniformization(case):
    nu, q, q2, t = case
    event(f"N={len(q)}")
    try:
        kv = kt_general(q, q2, t, nu, tol=1e-8)
    except ToleranceNotAchieved as err:
        assert "cancellation" in str(err)
        event("refused: determinant cancellation")
        return
    event("solved")
    ref = uniformization_kt(q, q2, t, nu, tol=1e-6)
    assert abs(kv.value - ref.value) <= kv.abs_error + ref.abs_error
