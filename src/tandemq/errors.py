"""Exception types shared across the package."""


class TandemError(Exception):
    """Base class for library errors."""


class PreconditionError(TandemError, ValueError):
    """An argument violates a documented precondition (CLI exit code 2)."""


class CoincidentRatesError(PreconditionError):
    """Rates are closer than the distinctness threshold for a method that
    divides by rate differences (the closed forms kt00_direct, kt00_gap,
    kt00_stationary and the relaxation asymptotics).  kt_general needs no
    distinct rates."""


class UnstableRatesError(PreconditionError):
    """The arrival rate is not strictly below every service rate."""


class ToleranceNotAchieved(TandemError, RuntimeError):
    """The requested error bound cannot be certified within the configured
    truncation limits.  Carries the bound that was achieved (CLI exit 3)."""

    def __init__(self, requested, achieved, detail=""):
        self.requested = float(requested)
        self.achieved = float(achieved)
        msg = f"requested tolerance {requested:g}, achieved only {achieved:g}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
