"""Closed-form continuous-selling (fluid) limits.

As the trading unit shrinks and the fill rate scales up, the controlled
inventory becomes a deterministic curve and the value solves a first-order
PDE with explicit solutions for power-law and exponential books.  These are
the analytic anchors the discrete solvers converge to.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discrete import discount_integral, power_time_factor
from .intensity import IntensityModel, MarketParams
from .numerics import GAUSS_NODES, GAUSS_WEIGHTS

__all__ = [
    "FluidSolution",
    "power_fluid",
    "power_trade_curve",
    "exp_fluid_finite",
    "exp_finite_cell_spread",
    "exp_infinite_log_w",
    "exp_fluid_infinite",
    "exp_infinite_cell_spread",
    "exp_trade_curve",
    "fluid_solution",
]

_EULER_GAMMA = 0.5772156649015329


def power_fluid(x: float, t_remaining: float, lam: float, alpha: float,
                r: float) -> tuple[float, float]:
    """Fluid value and spread for a power-law book, any r >= 0.

    v(x,T) = lam**(1/alpha) * x**((alpha-1)/alpha) * h(T)**(1/alpha)
    s0(x,T) = lam**(1/alpha) * x**(-1/alpha) * h(T)**(1/alpha)
    with h as in ``discrete.discount_integral``, a = alpha*r.  At x = 0 the
    value vanishes and the spread is reported as +inf (the marginal spread
    diverges as inventory empties).
    """
    if x < 0.0 or t_remaining < 0.0:
        raise ValueError("inventory and time to maturity must be nonnegative")
    if alpha <= 1.0 or lam <= 0.0 or r < 0.0 or (r == 0.0 and math.isinf(t_remaining)):
        raise ValueError("requires alpha > 1, lam > 0, r >= 0, and r > 0 on the "
                         "infinite horizon")
    if x == 0.0:
        return 0.0, math.inf
    scale = lam ** (1.0 / alpha) * power_time_factor(t_remaining, alpha, r)
    return scale * x ** ((alpha - 1.0) / alpha), scale * x ** (-1.0 / alpha)


def power_trade_curve(t: float, x: float, t_horizon: float, alpha: float,
                      r: float) -> float:
    """Optimally-controlled fluid inventory at time t, starting from x, any r >= 0.

    The exponential of the accumulated optimal trading rate integrates in
    closed form to X(t) = x * exp(-a*t) * h(T-t) / h(T), a = alpha*r, h as
    in ``discrete.discount_integral``; it decreases strictly and reaches zero
    smoothly at a finite T.
    """
    if not 0.0 <= t < t_horizon:
        raise ValueError(f"requires 0 <= t < horizon, got t = {t}, horizon = {t_horizon}")
    a = alpha * r
    return float(x * math.exp(-a * t) * discount_integral(t_horizon - t, a)
                 / discount_integral(t_horizon, a))


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


def exp_finite_cell_spread(x: float, delta: float, t_horizon: float, lam: float,
                           kappa: float) -> float:
    """The spread of ``exp_fluid_finite`` averaged over the cell [x - delta, x],
    0 < delta <= x.

    The spread is 1/kappa + v'(y), so the average is 1/kappa + (v(x) - v(x -
    delta))/delta.  v(y) = (y/kappa) log(lam*T/y) up to y* = lam*T/e and v(y*)
    above, so the drop is v(a) - v(b) with a = min(x, y*) and b = x - delta,
    which is ((a-b) log(lam*T/a) + b log1p(-(a-b)/a))/kappa: both terms are
    of the size of the drop, with nothing to cancel beyond it.
    """
    top = lam * t_horizon / math.e
    a, gap = (x, delta) if x <= top else (top, top - (x - delta))
    if gap <= 0.0:
        drop = 0.0  # the whole cell lies where v is flat
    elif gap >= a:
        drop = a * math.log(lam * t_horizon / a)  # the cell reaches 0
    else:
        drop = gap * math.log(lam * t_horizon / a) + (a - gap) * math.log1p(-gap / a)
    return (1.0 + drop / delta) / kappa


_E1_SERIES_K = [float(k) for k in range(1, 22)]  # 1/21! < 5e-20
# (2k - 1, k**2) of the continued fraction's k-th level, deepest first
_E1_FRACTION = [(2.0 * k - 1.0, float(k * k)) for k in range(132, 0, -1)]


def _e1(w: float) -> float:
    """E1(w) for a double w > 0, within 4e-16 relative of 40-digit mpmath
    from w = 5e-18 to the underflow at w ~ 740.

    Up to w = 1 it is the power series (DLMF 6.6.2),
        E1(w) = -gamma - log(w) - sum_{k>=1} (-w)**k/(k k!),
    summed with fsum, so that only the terms' own rounding is left: the sum
    cancels to E1(1) = 0.22 from terms up to 1.  Above w = 1 it is the even
    part of the continued fraction (DLMF 6.9.1),
        E1(w) = exp(-w)/(w+1 - 1/(w+3 - 4/(w+5 - 9/(w+7 - ...)))),
    evaluated backward from 12 + 120/w levels, a few more than it takes to
    settle to the last bit (105 at w = 1, 14 at w = 10).
    """
    if w <= 1.0:
        terms = [-_EULER_GAMMA, -math.log(w)]
        power = 1.0  # (-w)**k/k!
        for k in _E1_SERIES_K:
            power *= -w / k
            terms.append(-power / k)
            if -5e-20 < power < 5e-20:
                break
        return math.fsum(terms)
    levels = int(12.0 + 120.0 / w)
    f = w + (2 * levels + 1)
    for odd, square in _E1_FRACTION[len(_E1_FRACTION) - levels:]:
        f = w + odd - square / f
    return math.exp(-w) / f


def _e1_of_log(s: float) -> float:
    """E1(exp(s)), also where exp(s) underflows or E1 itself does."""
    if s < -40.0:
        # E1(w) = -gamma - log(w) + w - ..., and w < 5e-18 here
        return -_EULER_GAMMA - s
    return _e1(math.exp(min(s, 7.0)))  # E1(w) is 0.0 beyond w ~ 740


_NEWTON_STEPS = 50
_AS_INT = struct.Struct("<Q")
_AS_FLOAT = struct.Struct("<d")
_SIGN = 1 << 63


def _ordinal(x: float) -> int:
    """The position of a double among the doubles, in their order."""
    bits = _AS_INT.unpack(_AS_FLOAT.pack(x))[0]
    return -(bits ^ _SIGN) if bits & _SIGN else bits


def _double(i: int) -> float:
    """The double at ordinal i (``_ordinal``'s inverse, -0.0 read as 0.0)."""
    return _AS_FLOAT.unpack(_AS_INT.pack(-i | _SIGN if i < 0 else i))[0]


def _last_at_least(c: float, s: float) -> float:
    """The last double t with E1(exp(t)) >= c, from a double s near it.

    Near s = 0 the doubles are far denser than the values exp(s) rounds to:
    around s = 1e-10 one value of E1(exp(s)) holds for 1e10 doubles in a
    row.  So the search gallops away from s over the doubles' ordinals and
    bisects the bracket it finds, in steps logarithmic in the distance, two
    when s is the answer; each double exp(t) met is given to E1 once.
    """
    seen = {}

    def holds(i):
        t = _double(i)
        key = t if t < -40.0 else math.exp(min(t, 7.0))  # what E1(exp(t)) reads
        if key not in seen:
            seen[key] = _e1_of_log(t) >= c
        return seen[key]

    i, stride = _ordinal(s), 1
    if holds(i):
        while holds(i + stride):
            i, stride = i + stride, 2 * stride
        lo, hi = i, i + stride
    else:
        while not holds(i - stride):
            i, stride = i - stride, 2 * stride
        lo, hi = i - stride, i
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return _double(lo)


def _log_w(c: float) -> float:
    """log(w) for the w > 0 with E1(w) = c > 0.

    The root is taken in s = log(w): once c passes about 36, exp(-w) rounds
    to 1 in double precision long before w or s lose accuracy.  E1(e**s) is
    convex and decreasing in s, with slope -exp(-e**s), so Newton's method
    started left of the root rises to it monotonically and needs no bracket:
    E1(w) > -gamma - log(w) puts s = -gamma - c on the left, and for small c
    E1(w) > exp(-w)/(w + 1) puts w = L - log1p(L), L = -log(c), there too.
    The result is the last double s with E1(exp(s)) >= c, so it never rises
    with c.  Raises ArithmeticError for c <= 0 or nan, which has no root, or
    after _NEWTON_STEPS steps.
    """
    if c > 40.0:
        return -_EULER_GAMMA - c  # w < 3e-18: E1 equals its log asymptote in doubles
    if not c > 0.0:
        raise ArithmeticError(f"E1(w) = {c} has no root w > 0")
    s = -_EULER_GAMMA - c
    if c < 0.25:
        big = -math.log(c)
        s = max(s, math.log(big - math.log1p(big)))
    for _ in range(_NEWTON_STEPS):
        gap, w = _e1_of_log(s) - c, math.exp(s)
        step = gap / math.exp(-w) if gap > 0.0 else 0.0
        if not s + step > s:
            break  # at the root, or an ulp past it
        s += step
        if w * step * step < 1e-17:
            break  # the next step, about (w/2) step**2, is below the doubles near s
    else:
        raise ArithmeticError(f"the E1 root for c = {c} did not converge in "
                              f"{_NEWTON_STEPS} Newton steps")
    return _last_at_least(c, s)


def exp_infinite_log_w(x: float, lam: float, r: float) -> float:
    """log(w) at inventory x > 0 of the stationary exponential book: the root
    of E1(w) = e*r*x/lam (``exp_fluid_infinite``), for callers that pass it
    on to several of the functions below."""
    return _log_w(math.e * r * x / lam)


def exp_fluid_infinite(x: float, lam: float, kappa: float, r: float,
                       log_w: float | None = None) -> tuple[float, float]:
    """Stationary fluid solution for an exponential book with r > 0.

    The value solves li(e*kappa*r*v/lam) = -e*r*x/lam on (0, lam/(kappa*r*e)),
    and the spread is (1/kappa)*log(lam/(kappa*r*v)).  With
    w = -log(e*kappa*r*v/lam) > 0 and li(exp(-w)) = -E1(w) the equation reads
    E1(w) = e*r*x/lam, whose root is unique because E1 falls strictly from
    +inf to 0; hence
        v = lam/(kappa*r*e) * exp(-w),   spread = (1 + w)/kappa.
    ``log_w`` is log(w) at x, ``exp_infinite_log_w(x, lam, r)``, when the
    caller has it; otherwise it is solved here.
    """
    if x < 0.0:
        raise ValueError("inventory must be nonnegative")
    if min(lam, kappa, r) <= 0.0:
        raise ValueError("requires lam, kappa, r > 0")
    if x == 0.0:
        return 0.0, math.inf
    w = math.exp(exp_infinite_log_w(x, lam, r) if log_w is None else log_w)
    return lam / (kappa * r * math.e) * math.exp(-w), (1.0 + w) / kappa


def exp_infinite_cell_spread(x: float, delta: float, lam: float, kappa: float,
                             r: float, log_w: float | None = None) -> float:
    """The spread of ``exp_fluid_infinite`` averaged over the cell [x - delta, x],
    0 < delta <= x; ``log_w`` is as there, the root at x.

    The spread is (1 + w)/kappa, and in s = log(w), where E1(e**s) = e*r*y/lam,
    the cell runs from s1 = s(x) to s0 = s(x - delta) with
        e*r*delta/lam = int exp(-e**s) ds,   int w dy = (lam/(e*r)) int e**s exp(-e**s) ds,
    the second being (lam/(e*r)) (exp(-w1) - exp(-w0)), formed with expm1.  So
    the mean of w over the cell is that difference over the first integral.
    Written with e*r*delta/lam, it carries the rounding of s0 and s1, about
    2**-53 * x/delta relative; on a cell short enough for the 8-point
    Gauss-Legendre rule to be exact to rounding, the first integral is taken
    by that rule over the same [s1, s0], and the rounding cancels.
    """
    s1 = exp_infinite_log_w(x, lam, r) if log_w is None else log_w
    w1 = math.exp(s1)
    if delta >= x:
        return (1.0 + lam / (r * math.e * delta) * math.exp(-w1)) / kappa  # v(x)/delta
    s0 = exp_infinite_log_w(x - delta, lam, r)
    h = s0 - s1
    drop = -math.exp(-w1) * math.expm1(-w1 * math.expm1(h))  # exp(-w1) - exp(-w0)
    if h * max(1.0, math.exp(s0)) > 1.0:
        mean_w = drop * lam / (math.e * r * delta)
    elif h > 0.0:
        mid = s1 + 0.5 * h
        width = 0.5 * h * sum(wt * math.exp(-math.exp(mid + 0.5 * h * t))
                              for t, wt in zip(GAUSS_NODES, GAUSS_WEIGHTS))
        mean_w = drop / width
    else:
        mean_w = w1  # s0 and s1 round to one double
    return (1.0 + mean_w) / kappa


def exp_trade_curve(t, x0: float, lam: float, kappa: float, r: float):
    """Optimally-controlled fluid inventory at time t, starting from x0
    (exponential book, infinite horizon); t is a time or an array of times,
    and one E1 root serves them all.

    Along dX/dt = -kappa*r*v(X) the li argument y = e*kappa*r*v(X)/lam obeys
    d(log y)/dt = r*log y, so w = -log y grows like w0*exp(r*t); with
    li(y) = -E1(w) this gives
        X(t) = (lam/(e*r)) * E1(w0*exp(r*t)),   E1(w0) = e*r*x0/lam.
    """
    times = np.asarray(t, dtype=float)
    if times.min(initial=0.0) < 0.0 or x0 < 0.0:
        raise ValueError(f"requires t >= 0 and x0 >= 0, got t = {t}, x0 = {x0}")
    if min(lam, kappa, r) <= 0.0:
        raise ValueError("requires lam, kappa, r > 0")
    if x0 == 0.0 or not times.any():
        curve = [x0] * times.size
    else:
        s0, scale = exp_infinite_log_w(x0, lam, r), lam / (math.e * r)
        curve = [scale * _e1_of_log(s0 + r * u) if u else x0
                 for u in times.ravel().tolist()]
    return curve[0] if times.ndim == 0 else np.reshape(curve, times.shape)


@dataclass(frozen=True)
class FluidSolution:
    """Evaluable fluid value, spread, and trade curve for one model/market."""

    value_and_spread: Callable[[float], tuple[float, float]]  # one solve for both
    trade_curve: Callable  # (t, x0) -> inventory, t a time or an array of times

    def value(self, x: float) -> float:
        return self.value_and_spread(x)[0]

    def spread(self, x: float) -> float:
        return self.value_and_spread(x)[1]


def fluid_solution(model: IntensityModel, market: MarketParams) -> FluidSolution:
    """Bundle the closed-form fluid solution for a supported model/market."""
    from .cases import resolve  # cases builds on this module
    return resolve(model, market).fluid()
