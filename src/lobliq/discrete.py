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
    "exp_hazard_drop",
    "solve_exp_infinite",
    "solve_generic_stationary",
    "solve_discrete",
]

_RESIDUAL_RTOL = 1e-10
_NEWTON_STEPS = 100


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

    c_1 = (b/weight)**(1/alpha) in closed form.  At deeper levels the
    increment m = c_{n-1} e^z is the root of
        F(z) = log1p(e^z) + (alpha-1)*z + log((c_{n-1}/c_1)**alpha),
    which is log(c_{n-1} + m) + (alpha-1)*log(m) - log(b/weight) written in
    z = log(m/c_{n-1}), so that no large logarithms cancel and F is good to
    a few ulps.  F is increasing and convex, and at the previous increment
    it equals log1p(m_{n-1}/c_{n-1}) > 0 (as weight*c_{n-1} =
    b*m_{n-1}**(1-alpha)), so Newton's method started there falls
    monotonically to the root, with no bracket: two or three steps a
    level, at most a dozen for alpha near 1.  Since F''/F' <= 1, a step below 1e-9
    leaves an error below 1e-18 in z.  Raises ArithmeticError if a level
    takes more than _NEWTON_STEPS steps or ends with a relative residual
    above _RESIDUAL_RTOL.
    """
    if alpha <= 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    exp, log, log1p = math.exp, math.log, math.log1p
    c = np.empty(n_max + 1)
    c[0] = 0.0
    c[1] = c1 = (b / weight) ** (1.0 / alpha)
    a1 = alpha - 1.0
    prev = m = c1
    for n in range(2, n_max + 1):
        try:
            g = log((prev / c1) ** alpha)
        except OverflowError:  # the power passes 1e308 only for alpha near 100 or more
            g = alpha * log(prev / c1)
        z = log(m / prev)
        for _ in range(_NEWTON_STEPS):
            u = exp(z)
            step = (log1p(u) + a1 * z + g) / (u / (1.0 + u) + a1)
            z -= step
            if step < 1e-9:
                break
        else:
            raise ArithmeticError(f"increment root at level {n} did not converge in "
                                  f"{_NEWTON_STEPS} Newton steps")
        m = prev * exp(z)
        prev += m
        c[n] = prev
        resid = abs(weight * prev - b * m ** (1.0 - alpha))
        if resid > _RESIDUAL_RTOL * weight * prev:
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

    log_sums = np.logaddexp.accumulate(
        _log_series_terms(n_max, lam * t_grid / (delta * math.e)), axis=0)

    values = (delta / kappa) * log_sums
    spreads = np.full_like(values, math.nan)
    if n_max >= 1:
        spreads[1:, :] = (1.0 + log_sums[1:, :] - log_sums[:-1, :]) / kappa
    return values, spreads


def _log_series_terms(n: int, y: np.ndarray) -> np.ndarray:
    """log(y**j / j!) for j = 0..n (rows) at each entry of the 1-d array y."""
    j = np.arange(n + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = j[:, None] * np.log(y)[None, :] - gammaln(j + 1.0)[:, None]
    terms[0, :] = 0.0  # the empty product, also fixes 0 * (-inf) at y = 0
    return terms


def exp_hazard_drop(n: int, y0: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The drop d in (0, y0] with L(y0) - L(y0 - d) = e, elementwise.

    L = log S_n, S_n the exponential series truncated after y**n/n!, is the
    integrated fill rate of the exponential book with r = 0 at level n (see
    ``cases.ExpZeroRatePolicy``).  It rises from L(0) = 0, so where
    e >= L(y0) no drop exists and the result is nan; L(y0) is the value
    ``solve_exp_finite`` gives, bit for bit.  L is concave (S_{n-1}**2 >=
    S_n S_{n-2}), so Newton's method from d = 0 (the tangent step at y0)
    lands right of the root, clipped to y0, and then falls to it
    monotonically.  With w_j = (y0**j/j!)/S_n(y0) and l = log(1 - d/y0) the
    hazard is -log1p(sum_j w_j expm1(j l)), a sum of terms of one sign, so
    tiny draws keep their relative accuracy; once that sum falls below -1/2
    it is read as -log(sum_j w_j e^(j l)) in log space instead.  Raises
    ArithmeticError if Newton has not converged after _NEWTON_STEPS steps.
    """
    y0, e = np.asarray(y0, dtype=float), np.asarray(e, dtype=float)
    log_w = _log_series_terms(n, y0)
    l0 = np.logaddexp.reduce(log_w, axis=0)
    log_w -= l0
    j = np.arange(1.0, n + 1.0)[:, None]
    drop = np.full(y0.shape, math.nan)
    todo = np.flatnonzero(e < l0)
    drop[todo] = 0.0
    for _ in range(_NEWTON_STEPS):
        lw, d, y = log_w[:, todo], drop[todo], y0[todo]
        # j log(y/y0) is -inf at y = 0; the sum may round below -1 there
        with np.errstate(divide="ignore", invalid="ignore"):
            jl = j * np.log1p(-d / y)
            small = -np.log1p(np.sum(np.exp(lw[1:]) * np.expm1(jl), axis=0))
        # S_{n-1}(y) and S_n(y), over S_n(y0) e^top
        a = np.vstack((lw[:1], lw[1:] + jl))
        top = a.max(axis=0)
        terms = np.exp(a - top)
        head = terms[:-1].sum(axis=0)
        full = head + terms[-1]
        hazard = np.where(small < math.log(2.0), small, -(np.log(full) + top))
        new = np.clip(d + (e[todo] - hazard) * full / head, 0.0, y)
        drop[todo] = new
        todo = todo[np.abs(new - d) > 1e-12 * new]
        if todo.size == 0:
            return drop
    raise ArithmeticError(f"hazard inversion at level {n} did not converge in "
                          f"{_NEWTON_STEPS} Newton steps")


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
