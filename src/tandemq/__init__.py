"""Exact transient probabilities for tandem queueing networks.

Jobs arrive at station 1 in a Poisson stream and walk through N
exponential single-server stations in series.  The package computes
transition probabilities of the queue-length vector at finite t three
independent ways (determinantal kernels chained through weight kernels,
permutation expansions of the empty-system probability, and
uniformization / Monte Carlo oracles), plus the exact relaxation rate
governing convergence to equilibrium.
"""

from .errors import (
    CoincidentRatesError,
    PreconditionError,
    TandemError,
    ToleranceNotAchieved,
    UnstableRatesError,
)
from .kernels import (
    KernelValue,
    chamber_to_departure,
    chamber_to_queue,
    departure_kernel,
    departure_kernel_via_intertwining,
    departure_to_chamber,
    departure_to_chamber_support,
    killed_poisson_kernel,
    noncrossing_prob,
    queue_to_chamber_support,
    queue_to_departures,
)
from .asymptotics import (
    DecayReport,
    bottleneck_station,
    chamber_infimum,
    decay_report,
    dominant_prefactor,
    fit_decay_rate,
    rate_function,
    relaxation_rate,
    relaxation_time,
)
from .queueprobs import (
    chamber_harmonic,
    kt00_direct,
    kt00_gap,
    kt00_gap_relative,
    kt00_stationary,
    kt_general,
    mm1_kt,
    stationary_empty_prob,
)
from .rates import RateVector, as_rates
from .simulator import (
    Estimate,
    SimConfig,
    simulate_noncrossing,
    simulate_queue_prob,
    uniformization_kt,
)
from .symfunc import (
    complete_homogeneous,
    elementary,
    gt_sum,
    schur,
    window_e,
    window_h,
)

# verify loads on first use: only the CLI's verify command and the tests
# need it, and every other import would pay for it.
_VERIFY_NAMES = ("CheckResult", "run_check", "run_suite")


def __getattr__(name):
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CheckResult",
    "CoincidentRatesError",
    "DecayReport",
    "Estimate",
    "KernelValue",
    "PreconditionError",
    "RateVector",
    "SimConfig",
    "TandemError",
    "ToleranceNotAchieved",
    "UnstableRatesError",
    "as_rates",
    "bottleneck_station",
    "chamber_harmonic",
    "chamber_infimum",
    "chamber_to_departure",
    "chamber_to_queue",
    "complete_homogeneous",
    "decay_report",
    "departure_kernel",
    "departure_kernel_via_intertwining",
    "departure_to_chamber",
    "departure_to_chamber_support",
    "dominant_prefactor",
    "elementary",
    "fit_decay_rate",
    "gt_sum",
    "killed_poisson_kernel",
    "kt00_direct",
    "kt00_gap",
    "kt00_gap_relative",
    "kt00_stationary",
    "kt_general",
    "mm1_kt",
    "noncrossing_prob",
    "queue_to_chamber_support",
    "queue_to_departures",
    "rate_function",
    "relaxation_rate",
    "relaxation_time",
    "run_check",
    "run_suite",
    "schur",
    "simulate_noncrossing",
    "simulate_queue_prob",
    "stationary_empty_prob",
    "uniformization_kt",
    "window_e",
    "window_h",
]

__version__ = "0.1.0"
