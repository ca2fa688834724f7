"""Numerical verification that the discrete problem converges to its fluid limit.

The unit-size ladder Delta_k = delta * 2**(-k) produces values that increase
monotonically toward the fluid value and spreads that decrease toward the
fluid spread; one report tabulates both, with an empirical (descriptive,
not proven) convergence order and each rung's spread error against the
fluid spread and against its cell average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cases import Case, resolve
from .discrete import level_of
from .intensity import IntensityModel, MarketParams

__all__ = [
    "ConvergenceReport",
    "value_convergence",
]


@dataclass(frozen=True)
class ConvergenceReport:
    x_probe: float
    deltas: np.ndarray
    values: np.ndarray
    fluid_value: float
    ratios: np.ndarray
    spreads: np.ndarray
    fluid_spread: float
    monotone_ok: bool
    rate_estimate: float
    averaged: np.ndarray       # cell average of the fluid spread over [x-Delta, x]
    pointwise_err: np.ndarray  # |discrete spread - fluid spread|
    averaged_err: np.ndarray   # |discrete spread - averaged|


def _probe(case: Case, x: float, deltas) -> tuple[np.ndarray, np.ndarray]:
    """V and optimal spread at inventory x of the Delta-unit problem for each
    Delta in ``deltas`` (``Case.ladder``); x must lie on every grid."""
    levels = [level_of(x, d) for d in deltas]  # raises on misalignment
    if min(levels) < 1:
        raise ValueError("probe inventory must be at least one unit")
    return case.ladder(levels, deltas)


def _ladder(delta0: float, k_max: int) -> np.ndarray:
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return delta0 * 0.5 ** np.arange(k_max + 1, dtype=float)


def value_convergence(model: IntensityModel, market: MarketParams, x_probe: float,
                      delta0: float = 1.0, k_max: int = 9) -> ConvergenceReport:
    """Tabulate V(Delta_k) against the fluid value along the halving ladder.

    The probe inventory must lie on every rung's grid (pick delta0 dividing
    x_probe).  Values are asserted monotone nondecreasing and bounded by the
    fluid value; the rate estimate averages log2 of the last few successive
    error quotients.

    The discrete spread prices the whole cell [x-Delta, x), so the honest
    fluid comparator is the cell average of the marginal fluid spread, from
    the fluid probe's own solve (``Case.fluid_probe``); the report carries
    both the pointwise gap and the cell-averaged gap (the latter is the
    smaller one).
    """
    case = resolve(model, market)
    deltas = _ladder(delta0, k_max)
    values, spreads = _probe(case, x_probe, deltas)
    fluid_value, fluid_spread, averaged = case.fluid_probe(x_probe, deltas)

    ratios = values / fluid_value
    monotone_ok = bool(np.all(np.diff(values) >= -1e-12 * fluid_value)
                       and np.all(ratios <= 1.0 + 1e-9))

    errors = fluid_value - values
    with np.errstate(divide="ignore", invalid="ignore"):
        quotients = errors[:-1] / errors[1:]
    quotients = quotients[np.isfinite(quotients) & (quotients > 0.0)]
    if len(quotients) == 0:
        rate = math.nan
    else:
        tail = quotients[-3:] if len(quotients) >= 3 else quotients
        rate = float(np.mean(np.log2(tail)))

    return ConvergenceReport(x_probe=x_probe, deltas=deltas, values=values,
                             fluid_value=fluid_value, ratios=ratios, spreads=spreads,
                             fluid_spread=fluid_spread, monotone_ok=monotone_ok,
                             rate_estimate=rate, averaged=averaged,
                             pointwise_err=np.abs(spreads - fluid_spread),
                             averaged_err=np.abs(spreads - averaged))

