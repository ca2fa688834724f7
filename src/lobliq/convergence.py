"""Numerical verification that the discrete problem converges to its fluid limit.

The unit-size ladder Delta_k = delta * 2**(-k) produces values that increase
monotonically toward the fluid value and spreads that decrease toward the
fluid spread; these reports tabulate both, with an empirical (descriptive,
not proven) convergence order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .cases import resolve
from .discrete import level_of, solve_power_coefficients
from .fluid import fluid_solution
from .intensity import IntensityModel, MarketParams

__all__ = [
    "ConvergenceReport",
    "SpreadConvergence",
    "AsymptoticsReport",
    "discrete_value_and_spread_at",
    "value_convergence",
    "control_convergence",
    "coefficient_asymptotics",
]


@dataclass(frozen=True)
class ConvergenceReport:
    model: IntensityModel
    market: MarketParams
    x_probe: float
    deltas: np.ndarray
    values: np.ndarray
    fluid_value: float
    ratios: np.ndarray
    spreads: np.ndarray
    fluid_spread: float
    monotone_ok: bool
    rate_estimate: float


@dataclass(frozen=True)
class SpreadConvergence:
    x_probe: float
    deltas: np.ndarray
    spreads: np.ndarray
    fluid_spread: float
    pointwise_err: np.ndarray
    averaged: np.ndarray      # cell average of the fluid spread over [x-Delta, x]
    averaged_err: np.ndarray  # |discrete - averaged|
    averaged_wins: bool       # cell average closer than the pointwise value everywhere


@dataclass(frozen=True)
class AsymptoticsReport:
    n: np.ndarray
    coefficient_ratio: np.ndarray  # c_n / ((lam/(r*alpha))**(1/alpha) * n**((alpha-1)/alpha))
    spread_ratio: np.ndarray       # s*(n) * n**(1/alpha) / (lam/(alpha*r))**(1/alpha)

    @property
    def final_coefficient_deviation(self) -> float:
        return abs(self.coefficient_ratio[-1] - 1.0)

    @property
    def final_spread_deviation(self) -> float:
        return abs(self.spread_ratio[-1] - 1.0)


def discrete_value_and_spread_at(model: IntensityModel, market: MarketParams,
                                 x: float, delta: float) -> tuple[float, float]:
    """V and optimal spread of the Delta-unit problem at inventory x."""
    n = level_of(x, delta)
    if n < 1:
        raise ValueError("probe inventory must be at least one unit")
    return resolve(model, market).value_and_spread_at(n, delta)


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
    """
    deltas = _ladder(delta0, k_max)
    for d in deltas:
        level_of(x_probe, d)  # raises on misalignment

    fl = fluid_solution(model, market)
    fluid_value = fl.value(x_probe)
    fluid_spread = fl.spread(x_probe)

    values = np.empty(len(deltas))
    spreads = np.empty(len(deltas))
    for i, d in enumerate(deltas):
        values[i], spreads[i] = discrete_value_and_spread_at(model, market, x_probe, d)

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

    return ConvergenceReport(model=model, market=market, x_probe=x_probe,
                             deltas=deltas, values=values, fluid_value=fluid_value,
                             ratios=ratios, spreads=spreads,
                             fluid_spread=fluid_spread,
                             monotone_ok=monotone_ok, rate_estimate=rate)


def control_convergence(model: IntensityModel, market: MarketParams, x_probe: float,
                        deltas) -> SpreadConvergence:
    """Compare discrete optimal spreads with the fluid spread along a ladder.

    The discrete spread prices the whole cell [x-Delta, x), so the honest
    fluid comparator is the cell average of the marginal fluid spread; the
    table carries both the pointwise gap and the cell-averaged gap (the
    latter is the smaller one).
    """
    deltas = np.asarray(deltas, dtype=float)
    spreads = np.array([discrete_value_and_spread_at(model, market, x_probe, d)[1]
                        for d in deltas])
    return _spread_table(model, market, x_probe, deltas, spreads)


def _spread_table(model: IntensityModel, market: MarketParams, x_probe: float,
                  deltas: np.ndarray, spreads: np.ndarray) -> SpreadConvergence:
    """The control-convergence table for discrete spreads already solved."""
    fl = fluid_solution(model, market)
    fluid_spread = fl.spread(x_probe)
    averaged = np.empty(len(deltas))
    for i, d in enumerate(deltas):
        cell, _ = quad(fl.spread, x_probe - d, x_probe,
                       epsabs=1e-13, epsrel=1e-12, limit=200)
        averaged[i] = cell / d

    pointwise_err = np.abs(spreads - fluid_spread)
    averaged_err = np.abs(spreads - averaged)
    return SpreadConvergence(x_probe=x_probe, deltas=deltas, spreads=spreads,
                             fluid_spread=fluid_spread,
                             pointwise_err=pointwise_err,
                             averaged=averaged, averaged_err=averaged_err,
                             averaged_wins=bool(np.all(averaged_err <= pointwise_err)))


def coefficient_asymptotics(lam: float, alpha: float, r: float,
                            n_max: int) -> AsymptoticsReport:
    """Large-n behaviour of the value coefficients and optimal spreads.

    c_n grows like (lam/(r*alpha))**(1/alpha) * n**((alpha-1)/alpha) and the
    spread decays like (lam/(alpha*r))**(1/alpha) / n**(1/alpha); both ratio
    sequences drift to 1.
    """
    c = solve_power_coefficients(lam, alpha, r, n_max)
    n = np.arange(1, n_max + 1, dtype=float)
    scale = (lam / (r * alpha)) ** (1.0 / alpha)
    c_ratio = c[1:] / (scale * n ** ((alpha - 1.0) / alpha))
    spreads = (lam / (alpha * r * c[1:])) ** (1.0 / (alpha - 1.0))
    s_ratio = spreads * n ** (1.0 / alpha) / scale
    return AsymptoticsReport(n=n.astype(int), coefficient_ratio=c_ratio,
                             spread_ratio=s_ratio)
