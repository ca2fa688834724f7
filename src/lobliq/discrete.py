"""Exact and semi-exact solutions of the discrete-inventory execution problem.

The seller holds n blocks of size Delta and posts one limit order at a time;
fills arrive at rate rate(s)/Delta.  The value recursion in inventory is
solved level by level: closed forms for power-law and exponential books,
a bracketed scalar maximization for generic depth models.

Power-law book: the value at level n with time tau to go is d_n times
h(tau)**(1/alpha) (``power_time_factor``), h(tau) the integral of
e^(-alpha*r*s) over [0, tau].  The level constants d_n
(``solve_power_zero_rate``) are free of r, and the trading unit enters them
only through b = ((alpha-1)/alpha)**(alpha-1) * lam * Delta**(alpha-1), as
the spread is optimized out of each level; ``cases.PowerLaw`` builds every
power-law value, spread, policy and liquidation time from these pieces.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .intensity import IntensityModel, concavity_condition

__all__ = [
    "DiscreteSolution",
    "power_constant",
    "discount_integral",
    "power_time_factor",
    "power_coefficient_factor",
    "power_fill_time",
    "level_of",
    "power_first_coefficient",
    "solve_power_zero_rate",
    "solve_exp_finite",
    "exp_hazard_drop",
    "solve_exp_infinite",
    "solve_generic_stationary",
]

_RESIDUAL_RTOL = 1e-10
_NEWTON_STEPS = 100
# the logarithms of numbers a little inside the normal floats
_LOG_NORMAL = math.log(sys.float_info.min) + 1.0
_LOG_HUGE = math.log(sys.float_info.max) - 1.0


def power_constant(alpha: float) -> float:
    """(alpha-1)**(alpha-1) / alpha**alpha, the optimized payoff constant,
    written so that no power overflows (each alone does from about alpha = 145)."""
    return ((alpha - 1.0) / alpha) ** (alpha - 1.0) / alpha


def discount_integral(tau, a: float):
    """h(tau), the integral of e^(-a*s) over [0, tau], elementwise: 1/a at
    tau = inf and tau at a = 0.  With a = alpha*r, every power-law value and
    spread is an r-free level constant times h(tau)**(1/alpha), and the
    optimal fill rate at level n is b_n/h(T - t) (``power_fill_time``)."""
    if a == 0.0:
        return tau
    return np.expm1(-a * tau) / -a


def power_time_factor(tau, alpha: float, r: float):
    """h(tau)**(1/alpha), a = alpha*r: the power-law value is d_n times it."""
    return discount_integral(tau, alpha * r) ** (1.0 / alpha)


def power_coefficient_factor(alpha: float, r: float) -> float:
    """The factor that makes d_n the reported coefficient: h(inf)**(1/alpha)
    for r > 0, giving the stationary value c_n, and 1 for r = 0 (d_n)."""
    return power_time_factor(math.inf, alpha, r) if r > 0.0 else 1.0


def power_fill_time(t0, c, a: float, horizon: float):
    """The times t at which the fill rate b/h(T - t), integrated from t0,
    reaches b*c, elementwise: log(H(T - t0)/H(T - t)) = c with H(s) =
    expm1(a*s)/a (s at a = 0); t0 + c/a on the infinite horizon.  In
    y = a*(T - t), x = a*(T - t0) and g = x - c that is y = log1p(e^(-c)
    expm1(x)) = max(g, 0) + log1p(e^(-|g|) (1 - e^(-min(x, c)))), where no
    exponential overflows at any x."""
    if math.isinf(horizon):
        return t0 + c / a
    if a == 0.0:
        return horizon - (horizon - t0) * np.exp(-c)
    x = a * (horizon - t0)
    g = x - c
    y = np.maximum(g, 0.0) + np.log1p(np.exp(-np.abs(g)) * -np.expm1(-np.minimum(x, c)))
    return horizon - y / a


def level_of(x: float, delta: float) -> int:
    """Inventory level n with x = n*delta; the grid must contain x."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    n = round(x / delta)
    if abs(x / delta - n) > 1e-9:
        raise ValueError(f"inventory {x} is not on the delta = {delta} grid")
    return int(n)


def power_first_coefficient(lam: float, alpha: float, delta: float) -> float:
    """d_1 = b**(1/alpha), b = ((alpha-1)/alpha)**(alpha-1) * lam *
    delta**(alpha-1), as ``solve_power_zero_rate`` sets it: from log b where
    b leaves the normal floats, else the power of b itself.  Raises
    ArithmeticError if d_1 is not a normal float."""
    if alpha <= 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    # Python floats: a NumPy scalar power overflows to inf with a warning,
    # where the fallback below needs an OverflowError
    lam, alpha, delta = float(lam), float(alpha), float(delta)
    payoff = ((alpha - 1.0) / alpha) ** (alpha - 1.0)
    log_b = math.log(payoff) + math.log(lam) + (alpha - 1.0) * math.log(delta)
    if _LOG_NORMAL < log_b < _LOG_HUGE:
        d1 = (payoff * (lam * delta ** (alpha - 1.0))) ** (1.0 / alpha)
    else:
        d1 = math.exp(log_b / alpha)
    if not sys.float_info.min <= d1 < math.inf:
        raise ArithmeticError(f"first coefficient d_1 = exp({log_b!r} / {alpha!r}) "
                              "is outside the normal float range")
    return d1


def solve_power_zero_rate(lam: float, alpha: float, n_max: int,
                          delta: float = 1.0) -> np.ndarray:
    """The r-free power-law coefficients d_0..d_n: d_0 = 0 and
    d_n = b * (d_n - d_{n-1})**(1-alpha), b = ((alpha-1)/alpha)**(alpha-1) *
    lam * delta**(alpha-1).  The value at inventory n*delta with time tau to
    go is d_n * power_time_factor(tau, alpha, r) at every r >= 0; at r = 0
    that is d_n * tau**(1/alpha).

    d_1 = b**(1/alpha).  b leaves the normal floats for a fine delta at a
    large alpha (below about 0.029 at alpha = 200), so d_1 comes from log b
    there; where b is a normal float it is the power of b itself, which is
    correctly rounded more often.  The deeper levels depend on b = d_1**alpha
    alone: the increment m = d_{n-1} e^z is the root of
        F(z) = log1p(e^z) + (alpha-1)*z + log((d_{n-1}/d_1)**alpha),
    which is log(d_{n-1} + m) + (alpha-1)*log(m) - log(b) written in
    z = log(m/d_{n-1}), so that no large logarithms cancel and F is good to
    a few ulps.  F is increasing and convex, and at the previous increment
    it equals log1p(m_{n-1}/d_{n-1}) > 0 (as d_{n-1} = b*m_{n-1}**(1-alpha)),
    so Newton's method started there falls monotonically to the root, with
    no bracket: two or three steps a level, at most a dozen for alpha near
    1.  Since F''/F' <= 1, a step below 1e-9 leaves an error below 1e-18 in
    z.  The relative residual of each level is read in logs, as
    log(d_n/d_1) + (alpha-1)*log(m/d_1), where no term is large.  Raises
    ArithmeticError if a level takes more than _NEWTON_STEPS steps or ends
    with a residual above _RESIDUAL_RTOL.
    """
    d1 = power_first_coefficient(lam, alpha, delta)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    alpha = float(alpha)
    exp, log, log1p = math.exp, math.log, math.log1p
    d = np.empty(n_max + 1)
    d[0] = 0.0
    d[1] = d1
    a1 = alpha - 1.0
    prev = m = d1
    for n in range(2, n_max + 1):
        try:
            g = log((prev / d1) ** alpha)
        except OverflowError:  # the power passes 1e308 only for alpha near 100 or more
            g = alpha * log(prev / d1)
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
        d[n] = prev
        resid = abs(log(prev / d1) + a1 * log(m / d1))
        if resid > _RESIDUAL_RTOL:
            raise ArithmeticError(f"recursion residual {resid:.3e} too large at level {n}")
    return d


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
    log_factorial = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = j[:, None] * np.log(y)[None, :] - log_factorial[:, None]
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
    solved for w = kappa*V/delta as a Python float, so that the exponent,
    which scales like 1/delta, never overflows: level n is the root of
        g(w) = w + log(w) - z_n,  z_n = log(lam/(r*delta*e)) + w_{n-1}.
    g is increasing and concave, and at the previous level
    g(w_{n-1}) = log(w_{n-1}) - log(lam/(r*delta*e)) < 0, as w stays below
    that asymptote, so Newton's method started there rises monotonically to
    the root, with no guard.  Level 1 starts from the asymptotic guess of
    W(e^z) instead, which may lie right of the root, so a step that would
    take w to 0 or below is halved back.  Since g''/(2g') = -1/(2w(w+1)), a
    step below 1e-9*w leaves a relative error below 5e-19.  Raises
    ArithmeticError if a level takes more than _NEWTON_STEPS steps or passes
    the asymptote.  Values increase toward lam/(kappa*r*e); within rounding
    of it a level can round below the previous one, and then keeps the
    previous value, so every spread stays >= 1/kappa: no order is ever
    posted at the bid.
    """
    if r <= 0.0:
        raise ValueError("stationary exponential solution requires r > 0")
    if min(lam, kappa, delta) <= 0.0:
        raise ValueError("lam, kappa, delta must be positive")
    levels = level_of(x_max, delta)
    v_cap = lam / (kappa * r * math.e)
    w_cap = kappa * v_cap / delta * (1.0 + 1e-9)
    log_cap = math.log(lam / (r * delta)) - 1.0
    log = math.log

    # level 1 (w_0 = 0) starts from the asymptotic guess of W(e^z)
    z = log_cap
    if z > 1.0:
        w = z - log(z) + log(z) / z
    else:
        w = math.exp(z) / (1.0 + math.exp(z))
    ws = [0.0]
    for n in range(1, levels + 1):
        for _ in range(_NEWTON_STEPS):
            step = (w + log(w) - z) * w / (w + 1.0)
            while step >= w:  # an overshoot below 0, only from the level-1 guess
                step *= 0.5
            w -= step
            if abs(step) <= 1e-9 * w:
                break
        else:
            raise ArithmeticError(f"value root at level {n} did not converge in "
                                  f"{_NEWTON_STEPS} Newton steps")
        if w > w_cap:
            raise ArithmeticError(f"value {delta / kappa * w} exceeded the asymptote "
                                  f"{v_cap} at level {n}")
        if w < ws[-1]:
            # at the asymptote g(w_{n-1}) rounds to either sign, and the root
            # is not below w_{n-1}
            w = ws[-1]
        ws.append(w)
        z = log_cap + w
    values = (delta / kappa) * np.array(ws)
    spreads = np.full(levels + 1, math.nan)
    spreads[1:] = 1.0 / kappa + np.diff(values) / delta
    return values, spreads


@dataclass(frozen=True)
class DiscreteSolution:
    """Per-level solution of the unit-Delta execution problem.

    ``coefficients`` holds, for a power-law book, d_n times
    ``power_coefficient_factor``: the stationary value for r > 0, d_n itself
    for r = 0; for any other book, the values themselves.  Level 0 is always
    0 (exhaustion).  ``values`` and ``spreads`` are evaluated at the market
    horizon (spread is nan at level 0).
    """

    delta: float
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
    from scipy.optimize import brentq, minimize_scalar

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

    return DiscreteSolution(delta=delta, coefficients=values, values=values,
                            spreads=spreads, non_unique_risk=flagged)

