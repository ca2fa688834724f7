"""Order-book depth models: fill intensity as a function of posted spread.

A depth model maps the spread s posted above the bid to the arrival rate of
fills.  Two parametric families cover the closed-form theory (power-law and
exponential decay); arbitrary twice-differentiable models plug in through
:class:`GenericIntensity`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "IntensityModel",
    "PowerLawIntensity",
    "ExpDecayIntensity",
    "GenericIntensity",
    "MarketParams",
    "UnsupportedCaseError",
    "concavity_condition",
    "ConcavityReport",
]


class UnsupportedCaseError(ValueError):
    """A model/market pair outside the cases a routine solves: the input, not
    the numerics, is at fault."""


class IntensityModel:
    """Base class for depth models.  Subclasses are immutable after init."""

    s_min: float = 0.0

    def rate(self, s: float) -> float:
        raise NotImplementedError

    def derivatives(self, s: float) -> tuple[float, float, float]:
        """(rate, first, second derivative) at an interior spread."""
        raise NotImplementedError

    def _check_support(self, s: float) -> None:
        if math.isnan(s) or s < self.s_min:
            raise ValueError(f"spread {s} outside support [{self.s_min}, inf)")


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

    def derivatives(self, s: float) -> tuple[float, float, float]:
        self._check_support(s)
        if s == 0.0:
            raise ValueError("derivatives undefined at s = 0 for a power-law book")
        a, lam = self.alpha, self.lam
        v = lam * s ** (-a)
        return v, -a * v / s, a * (a + 1.0) * v / (s * s)


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

    def derivatives(self, s: float) -> tuple[float, float, float]:
        self._check_support(s)
        v = self.rate(s)
        k = self.kappa
        return v, -k * v, k * k * v


@dataclass(frozen=True)
class GenericIntensity(IntensityModel):
    """User-supplied C^2 depth model.

    Derivative closures are required rather than differenced numerically:
    the generic solver's first-order conditions need accurate rate
    derivatives and finite differences of arbitrary user closures are too
    fragile to build on.
    """

    value: Callable[[float], float]
    deriv1: Callable[[float], float]
    deriv2: Callable[[float], float]
    s_min: float = 0.0

    def rate(self, s: float) -> float:
        self._check_support(s)
        v = self.value(s)
        if v <= 0.0:
            raise ValueError(f"intensity must be positive, got {v} at s = {s}")
        return v

    def derivatives(self, s: float) -> tuple[float, float, float]:
        self._check_support(s)
        return self.value(s), self.deriv1(s), self.deriv2(s)


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


@dataclass(frozen=True)
class ConcavityReport:
    holds: bool
    max_ratio: float
    worst_spread: float
    decreasing: bool

    def __bool__(self) -> bool:
        return self.holds


def concavity_condition(model: IntensityModel, s_grid) -> ConcavityReport:
    """Check the shape condition rate*rate''/(rate')^2 < 2 on a spread grid.

    Together with a decreasing rate this guarantees concave values and
    decreasing optimal spreads in inventory.  For a power-law book the
    ratio is identically (alpha+1)/alpha; for exponential decay it is
    identically 1.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.size == 0:
        raise ValueError("empty spread grid")
    max_ratio = -math.inf
    worst = float(s_grid[0])
    decreasing = True
    prev_rate = None
    for s in s_grid:
        v, d1, d2 = model.derivatives(float(s))
        denom = d1 * d1
        if v <= 0.0 or denom == 0.0:
            continue  # rate underflowed; the point carries no shape information
        if prev_rate is not None and v >= prev_rate:
            decreasing = False
        prev_rate = v
        ratio = v * d2 / denom
        if ratio > max_ratio:
            max_ratio = ratio
            worst = float(s)
    return ConcavityReport(holds=decreasing and max_ratio < 2.0,
                           max_ratio=max_ratio, worst_spread=worst,
                           decreasing=decreasing)
