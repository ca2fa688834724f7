"""Numerical kernels that only the tests use, as oracles for closed forms.

The package computes its solutions in closed form: the execution curve by
uniformization, the exponential-book fluid value through E1, and the
power-law and stationary exponential-book recursions by one Newton iteration
over all levels at once.  These independent kernels check them: a fixed-step
classical RK4 (``integrate_ode``), the logarithmic integral by quadrature
(``log_integral``), the principal-branch Lambert W by Halley's method
(``lambert_w0``) and W(e^z) solved cold from an asymptotic guess
(``lambert_w0_exparg``), one call per level of the recursion, the power-law
recursion by a bracketed root per level (``bracketed_power_recursion``), and
both recursions by the warm-started Newton solve per level that the package
used before (``power_recursion_by_level``, ``exp_recursion_by_level``), the
E1 root on SciPy's ``exp1`` by ``brentq`` that the package used before
(``brentq_log_w``), and the stationary recursion of any decreasing depth
model by a scalar maximization per level (``stationary_by_level``).
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.special import exp1

from lobliq.discrete import level_of, power_constant, power_first_coefficient
from lobliq.extensions import _seed
from lobliq.numerics import NonFiniteStateError

_INV_E = math.exp(-1.0)
_EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class OdeProblem:
    """Fixed-step initial value problem dy/dt = f(t, y) on [t0, t1]."""

    dimension: int
    right_hand_side: Callable[[float, np.ndarray], np.ndarray]
    t_span: tuple[float, float]
    y0: Sequence[float]
    step_count: int

    def __post_init__(self):
        t0, t1 = self.t_span
        if not t0 < t1:
            raise ValueError(f"t_span requires t0 < t1, got {self.t_span}")
        if self.step_count < 1:
            raise ValueError("step_count must be >= 1")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.y0) != self.dimension:
            raise ValueError("y0 length does not match dimension")


def lambert_w0(y: float) -> float:
    """Principal-branch Lambert W: the w >= -1 with w * exp(w) = y.

    Halley iteration from a branch-appropriate seed; converges to relative
    residual |w e^w - y| <= 1e-13 * max(1, |y|) everywhere on [-1/e, inf).
    """
    if math.isnan(y):
        raise ValueError("lambert_w0 argument is NaN")
    if y < -_INV_E:
        # tolerate roundoff just below the branch point
        if y < -_INV_E - 1e-15 * max(1.0, abs(y)):
            raise ValueError(f"lambert_w0 requires y >= -1/e, got {y}")
        return -1.0
    if y == 0.0:
        return 0.0

    # seed: series near the branch point, log asymptote for large y
    if y < -0.25:
        p = math.sqrt(2.0 * (math.e * y + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    elif y < math.e:
        w = y / (1.0 + y) if y > -0.1 else y * math.exp(-y)
        w = max(w, -0.99)
    else:
        ly = math.log(y)
        w = ly - math.log(ly)

    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - y
        w1 = w + 1.0
        if w1 == 0.0:  # exactly at the branch point
            break
        denom = ew * w1 - (w + 2.0) * f / (2.0 * w1)
        dw = f / denom
        w -= dw
        if abs(dw) <= 1e-16 * (2.0 + abs(w)):
            break
    return w


def lambert_w0_exparg(z: float) -> float:
    """Overflow-safe W(exp(z)): the unique w > 0 with w + log(w) = z.

    Needed when exp(z) itself would overflow (z can exceed 700 in the
    small-increment value recursions).
    """
    if math.isnan(z):
        raise ValueError("lambert_w0_exparg argument is NaN")
    if z > 1.0:
        lz = math.log(z)
        w = z - lz + lz / z
    else:
        ez = math.exp(z)
        w = ez / (1.0 + ez)
    # Newton on g(w) = w + log w - z; g is increasing and concave, so
    # iterates that overshoot below zero are simply halved back.
    for _ in range(80):
        g = w + math.log(w) - z
        step = g * w / (w + 1.0)
        w_new = w - step
        while w_new <= 0.0:
            step *= 0.5
            w_new = w - step
        if abs(w_new - w) <= 1e-16 * (2.0 + abs(w_new)):
            w = w_new
            break
        w = w_new
    return w


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """a + b rounded, and the rounding error, exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def bracketed_power_recursion(b, weight, alpha, n_max):
    """c_0..c_n of weight*c_n = b*(c_n - c_{n-1})**(1-alpha) by a per-level
    bracket-halving plus brentq solve in the increment m.  The running sum
    c_n = c_{n-1} + m carries its rounding error (``_two_sum``), so that none
    builds up along the chain: summed plainly, it ends 1.2e-14 and 1.6e-14
    off a 32-digit recursion at n = 1e5 and alpha 1.001 and 1.01, as the
    level-by-level solves do, and 4.4e-16 and 2.2e-16 off with the error
    carried."""
    c = np.empty(n_max + 1)
    c[0] = 0.0
    c[1] = (b / weight) ** (1.0 / alpha)
    prev_inc = c[1]
    carried = 0.0
    for n in range(2, n_max + 1):
        offset = weight * c[n - 1]
        h = lambda m: offset + weight * m - b * m ** (1.0 - alpha)
        lo = prev_inc
        while h(lo) >= 0.0:
            lo *= 0.5
        m = brentq(h, lo, prev_inc, xtol=1e-280, rtol=8.882e-16, maxiter=200)
        c[n], carried = _two_sum(c[n - 1], m + carried)
        prev_inc = m
    return c


# The level-by-level Newton solves that ``lobliq.discrete`` replaced by one
# Newton iteration over the whole chain, kept bit for bit as oracles.
_NEWTON_STEPS = 100
_RESIDUAL_RTOL = 1e-10


def power_recursion_by_level(lam: float, alpha: float, n_max: int,
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


def exp_recursion_by_level(x_max: float, delta: float, lam: float, kappa: float,
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


def stationary_by_level(rate: Callable[[float], float], slope: Callable[[float], float],
                        delta: float, r: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Stationary values and optimal spreads of levels 0..n_max for a
    decreasing depth model with fill rate ``rate(s)`` and derivative
    ``slope(s)``, r > 0.

    Level n maximizes rate(s)/(rate(s) + r*delta) * (s*delta + V_{n-1}) over
    s: a geometric scan brackets the maximizer, golden-section search
    localizes it, and a root of the first-order condition
    -r*s*delta - (rate/slope)*(rate + r*delta) - r*V_{n-1}, which falls in s
    for the power-law and exponential books, polishes it.
    """
    grid = 2.0 ** np.arange(-40, 41, dtype=float)
    values = np.zeros(n_max + 1)
    spreads = np.full(n_max + 1, math.nan)
    for n in range(1, n_max + 1):
        v_prev = values[n - 1]

        def objective(s):
            q = rate(s)
            return q * (s * delta + v_prev) / (q + r * delta)

        def foc(s):
            q = rate(s)
            return -r * s * delta - (q / slope(s)) * (q + r * delta) - r * v_prev

        k = int(np.argmax([objective(s) for s in grid]))
        assert 0 < k < len(grid) - 1, f"level {n}: the objective peaks at the scan's end"
        s_star = float(minimize_scalar(lambda s: -objective(s),
                                       bracket=(grid[k - 1], grid[k], grid[k + 1]),
                                       method="golden", options={"xtol": 1e-12}).x)
        lo, hi = max(0.5 * s_star, 1e-300), 2.0 * s_star
        if foc(lo) > 0.0 > foc(hi):
            s_star = brentq(foc, lo, hi, xtol=1e-280, rtol=8.882e-16)
        values[n], spreads[n] = objective(s_star), s_star
    return values, spreads


def scipy_e1_of_log(s: float) -> float:
    """E1(exp(s)) from SciPy's ``exp1``, with the log asymptote below s = -40."""
    if s < -40.0:
        # E1(w) = -gamma - log(w) + w - ..., and w < 5e-18 here
        return -_EULER_GAMMA - s
    return float(exp1(math.exp(min(s, 7.0))))  # E1(w) is 0.0 beyond w ~ 740


def brentq_log_w(c: float) -> float:
    """log(w) for the w > 0 with E1(w) = c > 0, by ``brentq`` on SciPy's E1.

    The result is the last double s with ``scipy_e1_of_log(s) >= c``, found
    by stepping one double at a time from brentq's root: where the doubles
    near s = 0 outnumber the values exp(s) rounds to, that walk takes as many
    steps as there are doubles in a row with one value.
    """
    if c > 40.0:
        return -_EULER_GAMMA - c  # w < 3e-18: E1 equals its log asymptote in doubles
    # E1(w) > -gamma - log(w) fixes the lower end; E1(w) < exp(-w)/w the upper
    s = brentq(lambda s: scipy_e1_of_log(s) - c, -_EULER_GAMMA - c - 1.0,
               math.log(max(1.0, -math.log(c))),
               xtol=1e-16, rtol=8.882e-16, maxiter=200)
    # brentq may stop an ulp either side of the crossing; the last double s
    # with E1(exp(s)) >= c makes w, and so the value, monotone in c
    while scipy_e1_of_log(s) < c:
        s = math.nextafter(s, -math.inf)
    while scipy_e1_of_log(up := math.nextafter(s, math.inf)) >= c:
        s = up
    return s


def log_integral(y: float) -> float:
    """li(y) = integral of 1/log(t) from 0 to y, for 0 <= y < 1.

    On [0, 1) the integrand is negative and the integral proper.  The upper
    part is computed after the substitution t = 1 - e^(-w), which turns the
    near-pole behaviour at t -> 1 into a bounded smooth integrand, so
    arguments within ~1e-300 of 1 remain accurate.
    """
    if math.isnan(y) or y < 0.0 or y >= 1.0:
        raise ValueError(f"log_integral requires 0 <= y < 1, got {y}")
    if y == 0.0:
        return 0.0

    total = 0.0
    direct_hi = min(y, 0.5)
    val, _ = quad(lambda t: 1.0 / math.log(t), 0.0, direct_hi,
                  epsabs=1e-14, epsrel=1e-12, limit=200)
    total += val
    if y > 0.5:
        w_hi = -math.log1p(-y)
        val, _ = quad(lambda w: math.exp(-w) / math.log1p(-math.exp(-w)),
                      math.log(2.0), w_hi, epsabs=1e-14, epsrel=1e-12, limit=200)
        total += val
    return total


def integrate_ode(problem: OdeProblem) -> tuple[np.ndarray, np.ndarray]:
    """Classical fourth-order Runge-Kutta with a fixed step.

    Returns (times, states) with ``step_count + 1`` rows; raises
    NonFiniteStateError if any component leaves the finite range.
    """
    t0, t1 = problem.t_span
    n = problem.step_count
    h = (t1 - t0) / n
    f = problem.right_hand_side

    ts = t0 + h * np.arange(n + 1)
    ts[-1] = t1
    ys = np.empty((n + 1, problem.dimension))
    y = np.asarray(problem.y0, dtype=float).copy()
    ys[0] = y
    for i in range(n):
        t = ts[i]
        k1 = np.asarray(f(t, y))
        k2 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k1))
        k3 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k2))
        k4 = np.asarray(f(t + h, y + h * k3))
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise NonFiniteStateError(
                f"non-finite state at t = {ts[i + 1]} (step {i + 1} of {n})")
        ys[i + 1] = y
    return ts, ys


def patch_march_by_step(params, x_seed: float):
    """(x, v, v') of the two-exchange patching march written plainly: node by
    node on Python floats, each step forming its delayed Hermite midpoint,
    clamped by min(max(...)), and calling one rate function once per RK4
    stage, with no hoisted block factors.  Kept bit for bit as the oracle of
    ``lobliq.extensions._patch_integrate``, from the same series seed."""
    a, r, dblk = params.alpha, params.r, params.delta_block
    p = (a - 1.0) / a
    aa = power_constant(a)
    h = params.grid_step
    n_nodes = int(round(params.x_max / h)) + 1
    xs = h * np.arange(n_nodes)
    seed_idx = min(max(1, int(round(x_seed / h))), n_nodes - 1)
    lag = int(round(dblk / h))

    x_list = xs.tolist()
    u, du = _seed(params, x_list[:seed_idx + 1])
    v = [ue ** p for ue in u]
    del du[-1]

    b0, b1 = aa * params.lambda0, aa * params.lambda1
    ka, ia, ia1, ma = a / (a - 1.0), 1.0 / a, 1.0 / (a - 1.0), 1.0 - a
    dblk_a = dblk ** a
    hh, h6, h8 = 0.5 * h, h / 6.0, h / 8.0
    blocks = params.lambda1 > 0.0

    def marginal(x, v_here, v_delay):
        block = 0.0
        if blocks:
            gap = v_here - v_delay
            if gap <= 0.0:
                raise ArithmeticError(f"value failed to increase over one block at x = {x}")
            block = b1 * (x ** a if x < dblk else dblk_a) * gap ** ma
        d = r * v_here - block
        if d <= 0.0:
            raise ArithmeticError(f"delay ODE blow-up at x = {x}: block term "
                                  "dominates the discounted value")
        return (b0 / d) ** ia1

    def equation_marginal(i):
        try:
            return marginal(x_list[i], v[i], v[i - lag] if i >= lag else 0.0)
        except ArithmeticError:
            return math.inf

    dv = [equation_marginal(i) for i in range(seed_idx)]
    try:
        for i in range(seed_idx, n_nodes - 1):
            x, ui = x_list[i], u[i]
            j = i - lag
            if j < 0:
                e0 = em = e1 = 0.0
            else:
                e0, e1 = v[j], v[j + 1]
            w1 = marginal(x, v[i], e0)
            k1 = ka * ui ** ia * w1
            du.append(k1)
            if j >= 0:
                um = 0.5 * (u[j] + u[j + 1])
                em = min(max(um + h8 * (du[j] - du[j + 1]), u[j]), u[j + 1]) ** p
            xm = x + hh
            u2 = ui + hh * k1
            k2 = ka * u2 ** ia * marginal(xm, u2 ** p, em)
            u3 = ui + hh * k2
            k3 = ka * u3 ** ia * marginal(xm, u3 ** p, em)
            u4 = ui + h * k3
            k4 = ka * u4 ** ia * marginal(x + h, u4 ** p, e1)
            ui = ui + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            u.append(ui)
            v.append(ui ** p)
            dv.append(w1)
    except OverflowError:
        raise ArithmeticError(f"delay ODE blow-up at x = {x}") from None
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ArithmeticError(f"delay ODE blow-up at x = {x_list[bad[0]]}")
    dv.append(equation_marginal(n_nodes - 1))
    return xs, np.array(v), np.array(dv)


# Newton steps before the scalar regime solve gives up
_REGIME_STEPS = 1500


def regime_residuals(c0, c1, p):
    """The residuals (g0, g1) of the regime fluid constants' 2x2 system at
    scalar (c0, c1) and scalar rates: lambda_i/alpha * c_i**(1-alpha) - r c_i
    plus or minus theta_i (c1 - c0)."""
    a, gap = p.alpha, c1 - c0
    g0 = p.lambda0 / a * c0 ** (1.0 - a) - p.r * c0 + p.theta0 * gap
    g1 = p.lambda1 / a * c1 ** (1.0 - a) - p.r * c1 - p.theta1 * gap
    return g0, g1


def regime_fixed_point_by_point(params) -> tuple[float, float]:
    """(c0*, c1*) of one ``RegimeParams`` with scalar rates by the monotone
    Newton iteration on Python floats, one point a call, as the package
    solved its theta grids before it took them as arrays; kept bit for bit
    as the oracle of ``lobliq.extensions.regime_fluid_fixed_point``."""
    a, r, t0, t1 = params.alpha, params.r, params.theta0, params.theta1
    lo = params.single_regime_constant(1)
    c0, c1 = (lo if t0 else params.single_regime_constant(0)), lo
    for _ in range(_REGIME_STEPS):
        g0, g1 = regime_residuals(c0, c1, params)
        g0, g1 = (g0 if t0 else 0.0), (g1 if t1 else 0.0)
        m0 = (a - 1.0) / a * params.lambda0 * c0 ** -a + r
        m1 = (a - 1.0) / a * params.lambda1 * c1 ** -a + r
        det = m0 * m1 + t0 * m1 + t1 * m0
        n0 = c0 + (m1 + t1) / det * g0 + t0 / det * g1
        n1 = c1 + t1 / det * g0 + (m0 + t0) / det * g1
        if n0 <= c0 and n1 <= c1:
            return c0, c1
        c0, c1 = max(n0, c0), max(n1, c1)
    raise ArithmeticError(f"no regime fixed point in {_REGIME_STEPS} Newton steps: {params}")
