"""Numerical kernels that only the tests use, as oracles for closed forms.

The package computes its solutions in closed form: the execution curve by
uniformization, the exponential-book fluid value through E1, and the
stationary exponential-book recursion by a Newton iteration warm-started at
the previous level.  These independent kernels check them: a fixed-step
classical RK4 (``integrate_ode``), the logarithmic integral by quadrature
(``log_integral``), the principal-branch Lambert W by Halley's method
(``lambert_w0``) and W(e^z) solved cold from an asymptotic guess
(``lambert_w0_exparg``), one call per level of the recursion.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from lobliq.numerics import NonFiniteStateError

_INV_E = math.exp(-1.0)


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
