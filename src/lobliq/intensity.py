"""Order-book depth models: fill intensity as a function of posted spread.

A depth model maps the spread s posted above the bid to the arrival rate of
fills.  The two families the theory solves explicitly are the power-law book
and the exponential-decay book.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "IntensityModel",
    "PowerLawIntensity",
    "ExpDecayIntensity",
    "MarketParams",
    "UnsupportedCaseError",
]


class UnsupportedCaseError(ValueError):
    """A model/market pair outside the cases a routine solves: the input, not
    the numerics, is at fault."""


class IntensityModel:
    """Base class for depth models.  Subclasses are immutable after init and
    define ``rate(s)`` on spreads s >= 0."""

    def _check_support(self, s: float) -> None:
        if math.isnan(s) or s < 0.0:
            raise ValueError(f"spread {s} outside support [0.0, inf)")


@dataclass(frozen=True)
class PowerLawIntensity(IntensityModel):
    """Fill rate lam * s**(-alpha); requires alpha > 1 for an optimizer to exist.

    At s = 0 the rate is reported as +inf rather than raised: near maturity
    the optimal policy drives the spread to zero and callers must handle the
    unbounded-rate limit deliberately.
    """

    lam: float
    alpha: float

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")
        if self.alpha <= 1.0:
            raise ValueError(f"alpha must exceed 1, got {self.alpha} "
                             "(no optimal control exists otherwise)")

    def rate(self, s: float) -> float:
        self._check_support(s)
        if s == 0.0:
            return math.inf
        return self.lam * s ** (-self.alpha)


@dataclass(frozen=True)
class ExpDecayIntensity(IntensityModel):
    """Fill rate lam * exp(-kappa * s); lam is the rate at the bid itself."""

    lam: float
    kappa: float

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")

    def rate(self, s: float) -> float:
        self._check_support(s)
        return self.lam * math.exp(-self.kappa * s)


@dataclass(frozen=True)
class MarketParams:
    """Discount rate and execution horizon.

    ``horizon`` is the time to maturity; ``math.inf`` selects the
    stationary problem, which requires r > 0 to keep the value finite.
    """

    r: float
    horizon: float = math.inf

    def __post_init__(self):
        if self.r < 0.0:
            raise ValueError("discount rate must be nonnegative")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive (possibly inf)")
        if math.isinf(self.horizon) and self.r <= 0.0:
            raise ValueError("infinite horizon requires r > 0: the stationary value diverges")

    @property
    def infinite_horizon(self) -> bool:
        return math.isinf(self.horizon)

