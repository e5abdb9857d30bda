"""Exception types shared across the package."""

import math


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
    truncation limits.  Carries the bound that was achieved (CLI exit 3),
    also as natural logs (logs), so that a bound outside the float range
    still prints as a nonzero number."""

    def __init__(self, requested, achieved, detail="", logs=None):
        self.requested = float(requested)
        self.achieved = float(achieved)
        self.detail = detail
        pair = (self.requested, self.achieved)
        self.logs = logs or tuple(math.log(v) if v > 0 else -math.inf for v in pair)
        msg = "requested tolerance {}, achieved only {}".format(*map(_fmt, self.logs))
        super().__init__(msg + (f" ({detail})" if detail else ""))

    @classmethod
    def from_logs(cls, log_requested, log_achieved, detail="", requested=None):
        """The refusal of e^log_requested, or of the float requested whose
        log that is, kept exact; e^log_achieved may leave the float range."""
        requested = _exp(log_requested) if requested is None else requested
        return cls(requested, _exp(log_achieved), detail, (log_requested, log_achieved))

    def restated(self, tol, scale=None):
        """The same refusal against the caller's float tolerance tol, where
        this one names an internal share of it.  The achieved bound becomes
        scale times this one's or, without scale, tol times the factor by
        which the limited truncation missed its share."""
        log_tol = math.log(tol)
        log_factor = log_tol - self.logs[0] if scale is None else math.log(scale)
        return self.from_logs(log_tol, self.logs[1] + log_factor, self.detail, tol)


def _exp(log):
    return math.exp(log) if log < 709.0 else math.inf


def _fmt(log):
    """e^log as %g prints it, also past the float range; past 1e15 its
    exponent, which the mantissa no longer follows, prints as %g too."""
    if -700.0 < log < 700.0 or not math.isfinite(log):
        return f"{_exp(log):g}"
    k, frac = divmod(log / math.log(10.0), 1.0)
    return f"{10.0**frac:g}e{int(k):+d}" if abs(k) < 1e15 else f"1e{k:+g}"
