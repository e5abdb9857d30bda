"""Rate vectors for tandem networks.

Index 0 is the arrival rate at the first station, indices 1..N are the
service rates.  Entries may be ints, Fractions, or floats; exact entries
are kept exact so that the rational identity paths and the float paths
are fed from the same parsed values.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import CoincidentRatesError, PreconditionError, UnstableRatesError

# Relative gap below which two rates are treated as coincident by the
# methods that divide by rate differences.
EPS_DISTINCT = 1e-6


@dataclass(frozen=True)
class RateVector:
    values: tuple

    def __post_init__(self):
        if len(self.values) < 2:
            raise PreconditionError("need an arrival rate and at least one service rate")
        for v in self.values:
            if not v > 0:
                raise PreconditionError(f"rates must be positive, got {v!r}")
        object.__setattr__(self, "values", tuple(self.values))

    @classmethod
    def loads(cls, text):
        """Parse a comma-separated rate list, e.g. "1,2.5,4".

        Decimal strings are converted exactly (2.5 -> 5/2), so downstream
        exact-arithmetic paths see the same numbers as the float paths.
        """
        parts = [p.strip() for p in text.split(",") if p.strip()]
        try:
            vals = tuple(Fraction(p) for p in parts)
        except (ValueError, ZeroDivisionError) as exc:
            raise PreconditionError(f"cannot parse rates {text!r}: {exc}") from exc
        return cls(vals)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    @property
    def n_stations(self):
        return len(self.values) - 1

    @property
    def services(self):
        return self.values[1:]

    def as_floats(self):
        return tuple(float(v) for v in self.values)

    def utilizations(self):
        """rho_j = nu_0 / nu_j for each station j."""
        return tuple(_div(self.values[0], v) for v in self.services)

    def require_stable(self):
        if not all(self.values[0] < v for v in self.services):
            raise UnstableRatesError(
                f"unstable: arrival rate {self.values[0]} must be below every service rate"
            )

    def require_distinct(self, eps=EPS_DISTINCT, service_only=False, hint=""):
        vals = [float(v) for v in (self.services if service_only else self.values)]
        if any(abs(a - b) / max(a, b) < eps for i, a in enumerate(vals) for b in vals[i + 1 :]):
            which = "service rates" if service_only else "all rates"
            msg = f"rates not distinct: {which} must have pairwise relative gap >= {eps:g}"
            if hint:
                msg += f"; {hint}"
            raise CoincidentRatesError(msg)


def _div(a, b):
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a, 1) / Fraction(b, 1)
    return a / b


def as_rates(nu):
    """Accept a RateVector, or any sequence of positive rates."""
    if isinstance(nu, RateVector):
        return nu
    return RateVector(tuple(nu))
