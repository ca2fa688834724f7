"""Exact and semi-exact solutions of the discrete-inventory execution problem.

The seller holds n blocks of size Delta and posts one limit order at a time;
fills arrive at rate rate(s)/Delta.  The value recursion in inventory has
closed forms for power-law and exponential books.  The power-law recursion
and the stationary exponential one are solved at every level at once, by
one Newton iteration over the whole chain whose step is a prefix scan
(``_newton_chain``), and the finite-horizon exponential values are
log-sums.

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
from typing import Optional

import numpy as np

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
]

_RESIDUAL_RTOL = 1e-10
_NEWTON_STEPS = 100
_STEP_RTOL = 1e-12
# e**600 is about 1e260: a scan block's partial products and their
# reciprocals stay normal floats
_SCAN_SPAN = 600.0
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


def _power_d1(lam: float, alpha: float, delta: float) -> tuple[float, float]:
    """(d_1, b) of ``power_first_coefficient``, b nan where it is not a
    normal float."""
    if alpha <= 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    # Python floats: a NumPy scalar power overflows to inf with a warning,
    # where the fallback below needs an OverflowError
    lam, alpha, delta = float(lam), float(alpha), float(delta)
    payoff = ((alpha - 1.0) / alpha) ** (alpha - 1.0)
    log_b = math.log(payoff) + math.log(lam) + (alpha - 1.0) * math.log(delta)
    if _LOG_NORMAL < log_b < _LOG_HUGE:
        b = payoff * (lam * delta ** (alpha - 1.0))
        d1 = b ** (1.0 / alpha)
    else:
        b, d1 = math.nan, math.exp(log_b / alpha)
    if not sys.float_info.min <= d1 < math.inf:
        raise ArithmeticError(f"first coefficient d_1 = exp({log_b!r} / {alpha!r}) "
                              "is outside the normal float range")
    return d1, b


def power_first_coefficient(lam: float, alpha: float, delta: float) -> float:
    """d_1 = b**(1/alpha), b = ((alpha-1)/alpha)**(alpha-1) * lam *
    delta**(alpha-1), as ``solve_power_zero_rate`` sets it: from log b where
    b leaves the normal floats, else the power of b itself.  Raises
    ArithmeticError if d_1 is not a normal float."""
    return _power_d1(lam, alpha, delta)[0]


def _bidiagonal_solve(k: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The s with s_n = k_n s_{n-1} + g_n from s_{-1} = 0, for k_n in (0, 1),
    as a prefix scan (Blelloch, "Prefix sums and their applications", 1990):
    with P_n = k_0 ... k_n, s_n = P_n * sum_{j<=n} g_j/P_j, one cumsum of
    -log k and one of g/P.  P falls along the chain, by far at small k, so
    the scan runs in blocks over which it falls by at most e**_SCAN_SPAN and
    restarts each from the s the block before ended at: no partial product or
    its reciprocal leaves the normal floats."""
    q = np.log(k)
    np.negative(q, out=q)
    np.add.accumulate(q, out=q)  # -log P_n, nondecreasing
    s = np.empty_like(g)
    start, carry, base = 0, 0.0, 0.0
    while start < len(s):
        end = max(start + 1, int(q.searchsorted(base + _SCAN_SPAN, "right")))
        inv_p = q[start:end] - base
        np.exp(inv_p, out=inv_p)
        block = s[start:end]
        np.multiply(g[start:end], inv_p, out=block)
        np.add.accumulate(block, out=block)
        block += carry
        block /= inv_p
        carry, base, start = block[-1], q[end - 1], end
    return s


def _newton_chain(x: np.ndarray, linearize, first_level: int) -> None:
    """Newton's method on a chain of equations G_n(x_{n-1}, x_n) = 0 for all
    n at once (DEER: Lim et al., "Parallelizing non-linear sequential models
    over the sequence length", ICLR 2024).  Each G_n rises in x_n and falls
    in x_{n-1}, so the Jacobian J is lower bidiagonal and a step is the
    recurrence s_n = k_n s_{n-1} + g_n, k_n = -J_{n,n-1}/J_{n,n} in (0, 1)
    and g_n = -G_n/J_{n,n}, which ``linearize()`` returns as (k, g) at the
    current x.  x, the chain from ``first_level`` on, holds the guess and is
    updated in place.  Where every G_n is concave, as in both recursions,
    J**-1 >= 0 makes a step from any x land at or below the root with every
    G_n <= 0, and from such a point the iterates rise monotonically to the
    root while they stay in the domain (Ortega and Rheinboldt, 13.3.4).

    The iteration stops after a step of at most _STEP_RTOL relative at every
    level, well above the rounding floor and, the convergence being
    quadratic, well above the error left.  Each level's relative residual
    |g_n/x_n|, the relative change of x_n that solves it from the stored
    x_{n-1}, must then be at most _RESIDUAL_RTOL: G_n itself carries the
    rounding of x_n times x_n*J_{n,n}, about alpha*n for the power law.
    Raises ArithmeticError, naming the level with the largest relative
    residual, where that fails, after _NEWTON_STEPS steps, or once a step is
    not finite."""
    size = math.inf
    for _ in range(_NEWTON_STEPS):
        step = _bidiagonal_solve(*linearize())
        x += step
        np.abs(step, out=step)
        step /= x
        size = step.max(initial=0.0)
        if not _STEP_RTOL < size < math.inf:
            break
    resid = np.abs(linearize()[1])
    resid /= x
    if size <= _STEP_RTOL and resid.max(initial=0.0) <= _RESIDUAL_RTOL:
        return
    worst = int(resid.argmax())  # the first nan, if there is one
    where = f"{resid[worst]:.3e}, is at level {worst + first_level}"
    if size <= _STEP_RTOL:
        raise ArithmeticError(f"recursion residual above {_RESIDUAL_RTOL:g}: the largest "
                              f"relative residual, {where}")
    raise ArithmeticError(f"recursion did not converge in {_NEWTON_STEPS} Newton steps: "
                          f"the largest relative residual, {where}")


def solve_power_zero_rate(lam: float, alpha: float, n_max: int,
                          delta: float = 1.0) -> np.ndarray:
    """The r-free power-law coefficients d_0..d_n: d_0 = 0 and
    d_n = b * (d_n - d_{n-1})**(1-alpha), b = ((alpha-1)/alpha)**(alpha-1) *
    lam * delta**(alpha-1).  The value at inventory n*delta with time tau to
    go is d_n * power_time_factor(tau, alpha, r) at every r >= 0; at r = 0
    that is d_n * tau**(1/alpha).

    d_1 = b**(1/alpha) (``power_first_coefficient``).  The deeper levels
    are d_n = 2**k z_n, 2**k the power of two nearest d_1, and the z_n solve
        G_n(z) = log(z_n) + (alpha-1)*log(z_n - z_{n-1}) - c = 0,  n >= 2,
    from z_1 = d_1/2**k in [2**-0.5, 2**0.5), with c = log(b/2**(k*alpha))
    formed as alpha*log(z_1) + log(b/d_1**alpha), the second term the
    rounding of d_1 (0 where b is not a normal float), so that no large
    logarithms cancel.
    Every G_n is concave, and all levels are solved at once by
    ``_newton_chain`` from the continuum solution through z_1,
    z_1 * (1 + (alpha/(alpha-1))*(n-1))**((alpha-1)/alpha), formed in logs,
    in three to five steps for alpha from 1.0001 to 1000.  That guess lies
    above the root, as the chain's increments trail the continuum's, and no
    proof keeps the increments positive through the first step; a step that
    leaves that domain makes the residuals nan, which stops the iteration at
    once.  The subtractions z_n - z_{n-1} are exact, so no rounding builds up
    along the chain, and so is the scaling by 2**k: each d_n is within an
    ulp of the alpha = 2 closed form, where solving for d_n/d_1 and scaling
    by d_1 would add two roundings, up to 3 ulps.  Raises ArithmeticError if
    the iteration does not converge, if a level ends with a relative
    residual above _RESIDUAL_RTOL (as where alpha - 1 is so small that the
    increments fall below the rounding of z_n), or if d_n overflows.
    """
    d1, b = _power_d1(lam, alpha, delta)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    alpha = float(alpha)
    z1, k = math.frexp(d1)
    if z1 < 0.7071067811865476:  # 2**-0.5
        z1, k = 2.0 * z1, k - 1
    c = alpha * math.log(z1)
    if not math.isnan(b):
        c += math.log(b / d1 ** alpha)
    a1 = alpha - 1.0
    z = np.arange(-1.0, n_max)  # n - 1 at level n
    z[1:] *= alpha / a1
    np.log1p(z[1:], out=z[1:])
    z[1:] *= a1 / alpha
    np.exp(z[1:], out=z[1:])
    z[0] = 0.0
    z[1:] *= z1

    def linearize():
        top, m = z[2:], z[2:] - z[1:-1]
        resid = np.log(m)
        resid *= a1
        resid += np.log(top)
        resid -= c
        # J_nn = 1/z_n + (alpha-1)/m_n and J_{n,n-1} = -(alpha-1)/m_n, so with
        # scale = z_n/(m_n + (alpha-1)*z_n) = 1/(m_n J_nn), k_n = (alpha-1)*scale
        # and g_n = -G_n*m_n*scale
        scale = a1 * top
        scale += m
        np.divide(top, scale, out=scale)
        resid *= m
        resid *= scale
        np.negative(resid, out=resid)
        scale *= a1
        return scale, resid

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _newton_chain(z[2:], linearize, 2)
        np.ldexp(z, k, out=z)
    if not z[-1] < math.inf:
        raise ArithmeticError(f"coefficient d_{n_max} overflows")
    return z


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
    solved for w = kappa*V/delta, so that the exponent, which scales like
    1/delta, never overflows: level n is the root of
        G_n(w) = w_n + log(w_n) - w_{n-1} - log(w_cap),  w_0 = 0,
    w_cap = lam/(r*delta*e) the asymptote.  Every G_n is concave, and all
    levels are solved at once by ``_newton_chain`` from w_cap*(1 - rho**n),
    rho = w_cap/(1 + w_cap), which saturates below the cap with every
    G_n <= 0: its increment (w_cap - w_{n-1})/(1 + w_cap) equals
    u = (w_cap - w_n)/w_cap, and G_n = u + log(1 - u) <= 0.  So every step is
    nonnegative, and the iterates rise monotonically to the root and never
    leave w > 0, in at most six steps for lam/r from 1e-3 to 1e6 and delta
    down to 2**-14.  Raises ArithmeticError if w_cap is not a normal float,
    if the iteration does not converge, if a level ends with a relative
    residual above _RESIDUAL_RTOL, or if a level passes the asymptote.
    Values increase toward lam/(kappa*r*e); within rounding of it a level
    can round below the previous one, and then keeps the previous value, so
    every spread stays >= 1/kappa: no order is ever posted at the bid.
    """
    if r <= 0.0:
        raise ValueError("stationary exponential solution requires r > 0")
    if min(lam, kappa, delta) <= 0.0:
        raise ValueError("lam, kappa, delta must be positive")
    levels = level_of(x_max, delta)
    # the cap from logs first, as r*delta can underflow where the cap does not
    log_cap = math.log(lam) - math.log(r) - math.log(delta) - 1.0
    if not _LOG_NORMAL < log_cap < _LOG_HUGE:
        raise ArithmeticError(f"the value cap lam/(r*delta*e) = exp({log_cap:.6g}) is not "
                              f"a normal float at r = {float(r)!r}, delta = {float(delta)!r}")
    if r * delta > 0.0:  # then the quotient, bit for bit as it always was
        log_cap = math.log(lam / (r * delta)) - 1.0
    w_cap = math.exp(log_cap)
    w = np.arange(0.0, levels + 1.0)
    w *= -math.log1p(1.0 / w_cap)
    np.expm1(w, out=w)
    w *= -w_cap

    def linearize():
        top = w[1:]
        resid = np.log(top)
        resid -= log_cap
        resid += top - w[:-1]
        k = top + 1.0
        np.divide(top, k, out=k)  # J_nn = 1/k_n, J_{n,n-1} = -1
        resid *= k
        np.negative(resid, out=resid)
        return k, resid

    _newton_chain(w[1:], linearize, 1)
    # at the asymptote G_n(w_{n-1}) rounds to either sign, and the root is
    # not below w_{n-1}
    np.maximum.accumulate(w, out=w)
    w_max = w_cap * (1.0 + 1e-9)
    if w[-1] > w_max:
        n = int((w > w_max).argmax())
        raise ArithmeticError(f"value {delta / kappa * w[n]} exceeded the asymptote "
                              f"{delta / kappa * w_cap} at level {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        values = (delta / kappa) * w
        spreads = np.full(levels + 1, math.nan)
        spreads[1:] = 1.0 / kappa + np.diff(values) / delta
    if not (np.isfinite(values).all() and np.isfinite(spreads[1:]).all()):
        raise ArithmeticError(f"exponential-book values or spreads overflow at "
                              f"delta = {delta!r}, kappa = {kappa!r}")
    return values, spreads


@dataclass(frozen=True)
class DiscreteSolution:
    """Per-level solution of the unit-Delta execution problem.

    ``coefficients`` holds, for a power-law book, d_n times
    ``power_coefficient_factor``: the stationary value for r > 0, d_n itself
    for r = 0; for an exponential book, the values themselves.  Level 0 is
    always 0 (exhaustion).  ``values`` and ``spreads`` are evaluated at the
    market horizon (spread is nan at level 0).  ``liquidation_times`` is the
    expected time to sell each level optimally where a closed form exists
    (the power law on the infinite horizon), else None.
    """

    delta: float
    coefficients: np.ndarray
    values: np.ndarray
    spreads: np.ndarray
    liquidation_times: Optional[np.ndarray] = None

    @property
    def n_max(self) -> int:
        return len(self.coefficients) - 1

