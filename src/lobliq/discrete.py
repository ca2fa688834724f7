"""Exact and semi-exact solutions of the discrete-inventory execution problem.

The seller holds n blocks of size Delta and posts one limit order at a time;
fills arrive at rate rate(s)/Delta.  The value recursion in inventory is
solved level by level: closed forms for power-law and exponential books,
a bracketed scalar maximization for generic depth models.

Delta scaling: for a power-law book the unit-step recursion with
lam_eff = lam * Delta**(alpha-1) already produces the physical values
V(n*Delta), because the scaled problem (rate/Delta, payoff s*Delta)
collapses onto the unit recursion after optimizing out the spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.special import gammaln

from .intensity import IntensityModel, MarketParams, concavity_condition
from .numerics import lambert_w0_exparg

__all__ = [
    "DiscreteSolution",
    "power_constant",
    "horizon_factor",
    "level_of",
    "solve_power_coefficients",
    "power_value_and_spread",
    "power_spread_scale",
    "solve_power_zero_rate",
    "zero_rate_value_and_spread",
    "expected_liquidation_time_discrete",
    "solve_exp_finite",
    "solve_exp_infinite",
    "solve_generic_stationary",
    "solve_discrete",
]

_RESIDUAL_RTOL = 1e-10


def power_constant(alpha: float) -> float:
    """(alpha-1)**(alpha-1) / alpha**alpha, the optimized payoff constant."""
    return (alpha - 1.0) ** (alpha - 1.0) / alpha ** alpha


def horizon_factor(t_remaining: float, alpha: float, r: float) -> float:
    """(1 - exp(-r*alpha*T))**(1/alpha), the common time-to-go factor."""
    if t_remaining < 0.0:
        raise ValueError("time to maturity must be nonnegative")
    if math.isinf(t_remaining):
        return 1.0
    return (-math.expm1(-r * alpha * t_remaining)) ** (1.0 / alpha)


def level_of(x: float, delta: float) -> int:
    """Inventory level n with x = n*delta; the grid must contain x."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    n = round(x / delta)
    if abs(x / delta - n) > 1e-9:
        raise ValueError(f"inventory {x} is not on the delta = {delta} grid")
    return int(n)


def _power_recursion(b: float, weight: float, alpha: float, n_max: int) -> np.ndarray:
    """c_0..c_n with c_0 = 0 and weight*c_n = b * (c_n - c_{n-1})**(1-alpha).

    c_1 has the closed form (b/weight)**(1/alpha).  Deeper levels root-solve
    in the increment m, so relative residuals stay near machine precision;
    the previous increment is a valid upper bracket, because by concavity
    the increments never grow and h(prev) = weight*prev > 0.
    """
    if alpha <= 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    c = np.empty(n_max + 1)
    c[0] = 0.0
    c[1] = (b / weight) ** (1.0 / alpha)
    prev_inc = c[1]
    for n in range(2, n_max + 1):
        offset = weight * c[n - 1]
        h = lambda m: offset + weight * m - b * m ** (1.0 - alpha)
        lo = prev_inc
        for _ in range(2000):
            lo *= 0.5
            if h(lo) < 0.0:
                break
        else:  # pragma: no cover
            raise ArithmeticError("failed to bracket the increment root")
        m = brentq(h, lo, prev_inc, xtol=1e-280, rtol=8.882e-16, maxiter=200)
        c[n] = c[n - 1] + m
        prev_inc = m
        resid = abs(weight * c[n] - b * m ** (1.0 - alpha))
        if resid > _RESIDUAL_RTOL * weight * c[n]:
            raise ArithmeticError(f"recursion residual {resid:.3e} too large at level {n}")
    return c


def solve_power_coefficients(lam: float, alpha: float, r: float, n_max: int,
                             delta: float = 1.0) -> np.ndarray:
    """Coefficients c_0..c_n of r*c_n = A * lam_eff * (c_n - c_{n-1})**(1-alpha).

    The stationary value at inventory n*delta is c_n, and the finite-horizon
    value is c_n * horizon_factor(T).
    """
    if r <= 0.0:
        raise ValueError("discounted recursion requires r > 0 (use the zero-rate solver)")
    lam_eff = lam * delta ** (alpha - 1.0)
    return _power_recursion(power_constant(alpha) * lam_eff, r, alpha, n_max)


def power_spread_scale(n: int, coefficients: np.ndarray, lam: float,
                       alpha: float, r: float, delta: float = 1.0) -> float:
    """Stationary optimal spread at level n (finite-horizon spreads scale
    by the common horizon factor).

    Equals (alpha/(alpha-1)) * (c_n - c_{n-1}) / delta: the spread prices
    the marginal value of one unit, per unit of inventory.
    """
    lam_eff = lam * delta ** (alpha - 1.0)
    return (lam_eff / (alpha * r * coefficients[n])) ** (1.0 / (alpha - 1.0)) / delta


def power_value_and_spread(n: int, t_remaining: float, coefficients: np.ndarray,
                           lam: float, alpha: float, r: float,
                           delta: float = 1.0) -> tuple[float, float]:
    """(value, optimal spread) at inventory level n with time T to maturity.

    Satisfies the marginal identity
    spread = (alpha/(alpha-1)) * (V(n,T) - V(n-1,T)) / delta.
    """
    if n < 0 or n >= len(coefficients):
        raise IndexError(f"level {n} outside solved range 0..{len(coefficients) - 1}")
    factor = horizon_factor(t_remaining, alpha, r)
    value = coefficients[n] * factor
    if n == 0:
        return 0.0, math.nan
    return value, power_spread_scale(n, coefficients, lam, alpha, r, delta) * factor


def solve_power_zero_rate(lam: float, alpha: float, n_max: int,
                          delta: float = 1.0) -> np.ndarray:
    """Zero-discount coefficients d_n with V(n*delta, T) = d_n * T**(1/alpha).

    Recursion: d_n = lam_eff * ((alpha-1)/alpha)**(alpha-1) * (d_n - d_{n-1})**(1-alpha),
    the r -> 0 limit of the discounted solution.
    """
    lam_eff = lam * delta ** (alpha - 1.0)
    return _power_recursion(lam_eff * ((alpha - 1.0) / alpha) ** (alpha - 1.0), 1.0,
                            alpha, n_max)


def zero_rate_value_and_spread(n: int, t_remaining: float, d: np.ndarray,
                               alpha: float, delta: float = 1.0) -> tuple[float, float]:
    """(value, spread) for the undiscounted power-law problem."""
    if n < 0 or n >= len(d):
        raise IndexError(f"level {n} outside solved range 0..{len(d) - 1}")
    factor = t_remaining ** (1.0 / alpha)
    if n == 0:
        return 0.0, math.nan
    spread = (alpha / (alpha - 1.0)) * (d[n] - d[n - 1]) / delta * factor
    return d[n] * factor, spread


def expected_liquidation_time_discrete(coefficients: np.ndarray, lam: float,
                                       alpha: float, r: float) -> np.ndarray:
    """Expected time to empty n units on the infinite horizon.

    S(n) - S(n-1) = 1/rate(s*(n)): each level waits an exponential time at
    the level's optimal fill rate, and the spreads shrink with inventory so
    the waits shrink too.
    """
    n_max = len(coefficients) - 1
    s = np.empty(n_max + 1)
    s[0] = 0.0
    for n in range(1, n_max + 1):
        spread = (lam / (alpha * r * coefficients[n])) ** (1.0 / (alpha - 1.0))
        s[n] = s[n - 1] + spread ** alpha / lam
    return s


def solve_exp_finite(n_max: int, delta: float, t_grid, lam: float,
                     kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Finite-horizon, zero-rate values and spreads for an exponential book.

    values[n, i] = (delta/kappa) * log( sum_{j<=n} (lam*T_i/(delta*e))**j / j! ),
    evaluated in log space: the partial-sum terms overflow long before the
    value does once delta is small (delta = 1e-3 at x = 5 means 5000 terms).
    spreads[n, i] = (1/kappa) * (1 + log(1 + last_term/partial_sum)), which
    equals (1/kappa) * (1 + L_n - L_{n-1}) in log-sum notation.
    """
    if min(lam, kappa, delta) <= 0.0:
        raise ValueError("lam, kappa, delta must be positive")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(t_grid < 0.0):
        raise ValueError("horizon grid must be nonnegative")

    j = np.arange(n_max + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_y = np.log(lam * t_grid / (delta * math.e))
        terms = j[:, None] * log_y[None, :] - gammaln(j + 1.0)[:, None]
    terms[0, :] = 0.0  # the empty product, also fixes 0 * (-inf) at T = 0
    log_sums = np.logaddexp.accumulate(terms, axis=0)

    values = (delta / kappa) * log_sums
    spreads = np.full_like(values, math.nan)
    if n_max >= 1:
        spreads[1:, :] = (1.0 + log_sums[1:, :] - log_sums[:-1, :]) / kappa
    return values, spreads


def solve_exp_infinite(x_max: float, delta: float, lam: float, kappa: float,
                       r: float) -> tuple[np.ndarray, np.ndarray]:
    """Stationary values and spreads for an exponential book, r > 0.

    V(x) = (delta/kappa) * W( lam/(r*delta) * exp(kappa*V(x-delta)/delta - 1) ),
    evaluated through the overflow-safe W(e^z) solver since the exponent
    scales like 1/delta.  Values increase toward lam/(kappa*r*e) and every
    spread stays >= 1/kappa: no order is ever posted at the bid.
    """
    if r <= 0.0:
        raise ValueError("stationary exponential solution requires r > 0")
    if min(lam, kappa, delta) <= 0.0:
        raise ValueError("lam, kappa, delta must be positive")
    levels = level_of(x_max, delta)
    v_cap = lam / (kappa * r * math.e)
    log_base = math.log(lam / (r * delta))

    values = np.empty(levels + 1)
    spreads = np.full(levels + 1, math.nan)
    values[0] = 0.0
    for n in range(1, levels + 1):
        z = log_base + kappa * values[n - 1] / delta - 1.0
        values[n] = (delta / kappa) * lambert_w0_exparg(z)
        if values[n] > v_cap * (1.0 + 1e-9):
            raise ArithmeticError(
                f"value {values[n]} exceeded the asymptote {v_cap} at level {n}")
        spreads[n] = 1.0 / kappa + (values[n] - values[n - 1]) / delta
    return values, spreads


@dataclass(frozen=True)
class DiscreteSolution:
    """Per-level solution of the unit-Delta execution problem.

    ``coefficients`` holds c_n for a discounted power-law book, d_n for the
    zero-rate one, and the stationary values V(n*delta) otherwise; level 0
    is always 0 (exhaustion).  ``values`` and ``spreads`` are evaluated at
    the market horizon (spread is nan at level 0).
    """

    delta: float
    model: IntensityModel
    market: MarketParams
    coefficients: np.ndarray
    values: np.ndarray
    spreads: np.ndarray
    non_unique_risk: bool = False

    @property
    def n_max(self) -> int:
        return len(self.coefficients) - 1


def _generic_objective(model, s, delta, r, v_prev):
    rate = model.rate(s)
    return rate * (s * delta + v_prev) / (rate + r * delta)


def _generic_foc(model, s, delta, r, v_prev):
    # decreasing in s whenever the concavity condition holds
    rate, d1, _ = model.derivatives(s)
    return -r * s * delta - (rate / d1) * (rate + r * delta) - r * v_prev


def solve_generic_stationary(model: IntensityModel, delta: float, r: float,
                             n_max: int) -> DiscreteSolution:
    """Stationary values for an arbitrary decreasing depth model.

    Each level maximizes rate(s)/(rate(s) + r*delta) * (s*delta + V_prev)
    over s: a geometric scan brackets the maximizer, golden-section
    localizes it, and a first-order-condition root polish finishes it.
    When the shape condition fails the golden-section point is kept and the
    solution is flagged: the maximizer may then be non-unique.
    """
    if r <= 0.0:
        raise ValueError("stationary problem requires r > 0")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")

    probe = model.s_min + np.geomspace(1e-4, 1e4, 33)
    cond = concavity_condition(model, probe)

    # the geometric scan ends at the first spread whose rate underflows to
    # 0: the rate decreases, so the objective is 0 from there on
    grid = model.s_min + 2.0 ** np.arange(-40, 41, dtype=float)
    n_live = next((j for j, s in enumerate(grid) if model.derivatives(float(s))[0] == 0.0),
                  len(grid))
    grid = grid[:n_live + 1]

    values = np.zeros(n_max + 1)
    spreads = np.full(n_max + 1, math.nan)
    flagged = not cond.holds
    for n in range(1, n_max + 1):
        v_prev = values[n - 1]
        phi = lambda s: _generic_objective(model, s, delta, r, v_prev)

        vals = np.zeros(len(grid))
        vals[:n_live] = [phi(s) for s in grid[:n_live]]
        k = int(np.argmax(vals))
        if k == 0 or k == len(grid) - 1:
            raise ArithmeticError(f"maximization bracket failure at level {n}: "
                                  f"objective peaks at the scan boundary")
        res = minimize_scalar(lambda s: -phi(s),
                              bracket=(grid[k - 1], grid[k], grid[k + 1]),
                              method="golden", options={"xtol": 1e-12})
        s_star = float(res.x)

        foc = lambda s: _generic_foc(model, s, delta, r, v_prev)
        lo, hi = 0.5 * s_star, 2.0 * s_star
        lo = max(lo, model.s_min + 1e-300)
        if foc(lo) > 0.0 > foc(hi):
            s_star = brentq(foc, lo, hi, xtol=1e-280, rtol=8.882e-16)
        elif cond.holds:
            flagged = True

        values[n] = phi(s_star)
        spreads[n] = s_star
        if values[n] <= v_prev:
            raise ArithmeticError(f"value failed to increase at level {n}")

    return DiscreteSolution(delta=delta, model=model,
                            market=MarketParams(r=r),
                            coefficients=values, values=values, spreads=spreads,
                            non_unique_risk=flagged)


def solve_discrete(model: IntensityModel, market: MarketParams, delta: float,
                   n_max: int) -> DiscreteSolution:
    """Solve the level recursion for any supported model/market combination."""
    from .cases import resolve  # cases builds on this module
    return resolve(model, market).solve(delta, n_max)
