"""Closed-form continuous-selling (fluid) limits.

As the trading unit shrinks and the fill rate scales up, the controlled
inventory becomes a deterministic curve and the value solves a first-order
PDE with explicit solutions for power-law and exponential books.  These are
the analytic anchors the discrete solvers converge to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy.optimize import brentq
from scipy.special import exp1

from .discrete import horizon_factor
from .intensity import IntensityModel, MarketParams

__all__ = [
    "FluidSolution",
    "power_fluid",
    "power_trade_curve",
    "exp_fluid_finite",
    "exp_fluid_infinite",
    "exp_trade_curve",
    "fluid_passage_time",
    "fluid_solution",
]

_EULER_GAMMA = 0.5772156649015329


def power_fluid(x: float, t_remaining: float, lam: float, alpha: float,
                r: float) -> tuple[float, float]:
    """Fluid value and spread for a power-law book with discounting.

    v(x,T) = (lam/(r*alpha))**(1/alpha) * x**((alpha-1)/alpha) * factor(T)
    s0(x,T) = (lam/(alpha*r))**(1/alpha) * x**(-1/alpha) * factor(T)

    At x = 0 the value vanishes and the spread is reported as +inf (the
    marginal spread diverges as inventory empties).
    """
    if x < 0.0:
        raise ValueError("inventory must be nonnegative")
    if alpha <= 1.0 or lam <= 0.0 or r <= 0.0:
        raise ValueError("requires alpha > 1, lam > 0, r > 0")
    factor = horizon_factor(t_remaining, alpha, r)
    scale = (lam / (r * alpha)) ** (1.0 / alpha)
    if x == 0.0:
        return 0.0, math.inf
    return (scale * x ** ((alpha - 1.0) / alpha) * factor,
            scale * x ** (-1.0 / alpha) * factor)


def power_trade_curve(t: float, x: float, t_horizon: float, alpha: float,
                      r: float) -> float:
    """Optimally-controlled fluid inventory at time t, starting from x.

    The exponential of the accumulated optimal trading rate integrates in
    closed form to
        X(t) = x * (exp(a*(T-t)) - 1) / (exp(a*T) - 1),   a = alpha*r,
    evaluated via expm1 in the decaying form for stability; it decreases
    strictly and reaches zero smoothly at t = T.
    """
    if not 0.0 <= t < t_horizon:
        raise ValueError(f"requires 0 <= t < horizon, got t = {t}, horizon = {t_horizon}")
    a = alpha * r
    return x * math.exp(-a * t) * (-math.expm1(-a * (t_horizon - t))) / (-math.expm1(-a * t_horizon))


def exp_fluid_finite(x: float, t_horizon: float, lam: float,
                     kappa: float) -> tuple[float, float, Callable[[float], float]]:
    """Zero-rate fluid solution for an exponential book: (value, spread, curve).

    Two regimes split at lam*T/x = e.  When inventory is small enough to
    finish (lam*T/x >= e) the spread is (1/kappa)*log(lam*T/x), the value
    x*spread, and the inventory declines linearly to zero.  Otherwise the
    book's capped fill rate lam/e binds: spread 1/kappa, value lam*T/(kappa*e)
    independent of x, and the curve x - lam*t/e stays positive at T.
    """
    if x < 0.0 or t_horizon <= 0.0 or lam <= 0.0 or kappa <= 0.0:
        raise ValueError("requires x >= 0, T > 0, lam > 0, kappa > 0")
    if x == 0.0:
        return 0.0, math.inf, lambda t: 0.0
    ratio = lam * t_horizon / x
    if ratio >= math.e:
        s0 = math.log(ratio) / kappa
        return x * s0, s0, lambda t: x * (1.0 - t / t_horizon)
    s0 = 1.0 / kappa
    return lam * t_horizon / (kappa * math.e), s0, lambda t: x - lam * t / math.e


def _e1_of_log(s: float) -> float:
    """E1(exp(s)), also where exp(s) underflows or E1 itself does."""
    if s < -40.0:
        # E1(w) = -gamma - log(w) + w - ..., and w < 5e-18 here
        return -_EULER_GAMMA - s
    return float(exp1(math.exp(min(s, 7.0))))  # E1(w) is 0.0 beyond w ~ 740


def _log_w(c: float) -> float:
    """log(w) for the w > 0 with E1(w) = c > 0.

    The root is taken in log(w): once c passes about 36, exp(-w) rounds to 1
    in double precision long before w or log(w) lose accuracy.  The result
    is the last double s with E1(exp(s)) >= c, so it never rises with c.
    """
    if c > 40.0:
        return -_EULER_GAMMA - c  # w < 3e-18: E1 equals its log asymptote in doubles
    # E1(w) > -gamma - log(w) fixes the lower end; E1(w) < exp(-w)/w the upper
    s = brentq(lambda s: _e1_of_log(s) - c, -_EULER_GAMMA - c - 1.0,
               math.log(max(1.0, -math.log(c))),
               xtol=1e-16, rtol=8.882e-16, maxiter=200)
    # brentq may stop an ulp either side of the crossing; the last double s
    # with E1(exp(s)) >= c makes w, and so the value, monotone in c
    while _e1_of_log(s) < c:
        s = math.nextafter(s, -math.inf)
    while _e1_of_log(up := math.nextafter(s, math.inf)) >= c:
        s = up
    return s


def exp_fluid_infinite(x: float, lam: float, kappa: float,
                       r: float) -> tuple[float, float]:
    """Stationary fluid solution for an exponential book with r > 0.

    The value solves li(e*kappa*r*v/lam) = -e*r*x/lam on (0, lam/(kappa*r*e)),
    and the spread is (1/kappa)*log(lam/(kappa*r*v)).  With
    w = -log(e*kappa*r*v/lam) > 0 and li(exp(-w)) = -E1(w) the equation reads
    E1(w) = e*r*x/lam, whose root is unique because E1 falls strictly from
    +inf to 0; hence
        v = lam/(kappa*r*e) * exp(-w),   spread = (1 + w)/kappa.
    """
    if x < 0.0:
        raise ValueError("inventory must be nonnegative")
    if min(lam, kappa, r) <= 0.0:
        raise ValueError("requires lam, kappa, r > 0")
    if x == 0.0:
        return 0.0, math.inf
    w = math.exp(_log_w(math.e * r * x / lam))
    return lam / (kappa * r * math.e) * math.exp(-w), (1.0 + w) / kappa


def exp_trade_curve(t: float, x0: float, lam: float, kappa: float,
                    r: float) -> float:
    """Optimally-controlled fluid inventory at time t, starting from x0
    (exponential book, infinite horizon).

    Along dX/dt = -kappa*r*v(X) the li argument y = e*kappa*r*v(X)/lam obeys
    d(log y)/dt = r*log y, so w = -log y grows like w0*exp(r*t); with
    li(y) = -E1(w) this gives
        X(t) = (lam/(e*r)) * E1(w0*exp(r*t)),   E1(w0) = e*r*x0/lam.
    """
    if t < 0.0 or x0 < 0.0:
        raise ValueError(f"requires t >= 0 and x0 >= 0, got t = {t}, x0 = {x0}")
    if min(lam, kappa, r) <= 0.0:
        raise ValueError("requires lam, kappa, r > 0")
    if t == 0.0 or x0 == 0.0:
        return x0
    s0 = _log_w(math.e * r * x0 / lam)
    return lam / (math.e * r) * _e1_of_log(s0 + r * t)


def fluid_passage_time(x1: float, x2: float, lam: float, alpha: float,
                       r: float) -> float:
    """Expected time for the optimally-controlled fluid inventory to fall
    from x2 to x1 (power-law book, infinite horizon): log(x2/x1)/(alpha*r).

    The remainder below any level is executed arbitrarily slowly, so x1 must
    stay positive.
    """
    if x1 <= 0.0:
        raise ValueError("x1 must be positive: passage to 0 takes forever")
    if x2 < x1:
        raise ValueError("requires x1 <= x2")
    del lam  # the optimal trading rate alpha*r*u does not depend on lam
    return math.log(x2 / x1) / (alpha * r)


@dataclass(frozen=True)
class FluidSolution:
    """Evaluable fluid value, spread, and trade curve for one model/market."""

    model: IntensityModel
    market: MarketParams
    value: Callable[[float], float]
    spread: Callable[[float], float]
    trade_curve: Callable[[float, float], float]  # (t, x0) -> inventory


def fluid_solution(model: IntensityModel, market: MarketParams) -> FluidSolution:
    """Bundle the closed-form fluid solution for a supported model/market."""
    from .cases import resolve  # cases builds on this module
    return resolve(model, market).fluid()
