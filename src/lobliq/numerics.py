"""Scalar special functions and numerical kernels.

Everything here is pure and reentrant; the rest of the package builds on
these primitives (Lambert W, logarithmic integral, the pure-death chain mean
by uniformization) so that numerical behaviour is controlled in one place.
The fixed-step RK4 is kept as the tests' independent ODE oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, pdtrc

__all__ = [
    "OdeProblem",
    "NonFiniteStateError",
    "lambert_w0",
    "lambert_w0_exparg",
    "log_integral",
    "integrate_ode",
    "pure_death_mean",
]

_INV_E = math.exp(-1.0)

# uniformization: Poisson tail dropped, terms folded per matrix product, and
# the floor below which terms and weights are flushed to zero (subnormal
# operands slow the product several times over)
_POISSON_TAIL = 1e-16
_TERM_BLOCK = 128
_FLUSH = 1e-300
# Stirling series of lgamma(m+1) - (m+1/2) log m + m - log(2 pi)/2, and the
# Taylor series of ((1+d) log1p(d) - d) / d**2 (highest power first)
_STIRLING = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)
_PHI_SERIES = [(-1.0) ** k / ((k + 1) * (k + 2)) for k in reversed(range(18))]


class NonFiniteStateError(ArithmeticError):
    """A computed state (an ODE component, a rate, a mean) became NaN or infinite."""


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
    NonFiniteStateError if any component leaves the finite range.  The
    package itself no longer integrates ODEs: this is the independent oracle
    that tests check closed forms against.
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


def _poisson_pmf(m: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Poisson(m; mu) on the grid m (rows) x mu (columns), within about 1e-14
    relative wherever it is not negligible.

    Loader's saddle-point form exp(-stirlerr(m) - bd0) / sqrt(2 pi m), with
    bd0 = m log(m/mu) + mu - m summed as a series in d = m/mu - 1 near the
    mode, avoids the cancellation in exp(m log mu - mu - lgamma(m+1)), which
    costs about eps * m * log(mu) and would dominate the uniformized sum once
    mu reaches the thousands.
    """
    m = np.asarray(m, dtype=float)[:, None]
    mu = np.asarray(mu, dtype=float)[None, :]
    ms = np.maximum(m, 1.0)
    inv2 = 1.0 / (ms * ms)
    c = _STIRLING
    stirlerr = np.where(
        ms < 16.0,
        gammaln(ms + 1.0) - (ms + 0.5) * np.log(ms) + ms - 0.5 * math.log(2.0 * math.pi),
        (c[0] - (c[1] - (c[2] - (c[3] - c[4] * inv2) * inv2) * inv2) * inv2) / ms)
    mup = np.where(mu > 0.0, mu, 1.0)
    with np.errstate(over="ignore"):  # m/mu overflows only where Poisson(m) is 0
        d = (ms - mup) / mup
        near = np.abs(d) < 0.1
        dn = np.where(near, d, 0.0)
        bd0 = np.where(near, mup * dn * dn * np.polyval(_PHI_SERIES, dn),
                       ms * np.log(ms / mup) + mup - ms)
    w = np.exp(-stirlerr - bd0) / np.sqrt(2.0 * math.pi * ms)
    w = np.where(m == 0.0, np.exp(-mu), w)
    return np.where(mu == 0.0, np.where(m == 0.0, 1.0, 0.0), w)


def pure_death_mean(rates, taus) -> np.ndarray:
    """Mean level of a pure-death chain, by uniformization (Jensen 1953).

    The chain leaves level k for k - 1 at rate ``rates[k-1]`` (k = 1..n).
    Returns the (n+1, len(taus)) table whose entry (x, j) is E[X | X_0 = x]
    after time ``taus[j]``, i.e. ``expm(tau Q) @ (0, 1, ..., n)`` for the
    bidiagonal generator Q.  With L = max rate and K = I + Q/L, which is
    nonnegative, the table is sum_m Poisson(m; L tau) K^m x: every term is
    nonnegative, so nothing cancels.  K^m x falls in m and rises in x, so the
    sum stops once the Poisson tail of the largest L tau, or the top entry of
    K^m x, drops below 1e-16 * n: either way the dropped terms add up to no
    more than that, and the truncated sums keep E monotone in x and tau.
    Terms are formed one O(n) step at a time and folded in blocks, so memory
    stays O(n * len(taus)).  A column with tau = 0 is x exactly.
    """
    b = np.concatenate(([0.0], np.asarray(rates, dtype=float)))
    taus = np.asarray(taus, dtype=float)
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(taus))):
        raise NonFiniteStateError("non-finite state: death rates or times are not finite")
    if np.any(b < 0.0) or np.any(taus < 0.0):
        raise ValueError("death rates and times must be nonnegative")
    v = np.arange(len(b), dtype=float)
    lam = float(b.max())
    if lam == 0.0 or len(taus) == 0:
        return np.repeat(v[:, None], len(taus), axis=1)
    p = b / lam
    q = 1.0 - p
    mu = lam * taus
    mu_max = float(mu.max())
    ks = np.arange(int(mu_max), int(mu_max + 20.0 * math.sqrt(mu_max)) + 64)
    m_end = int(ks[np.argmax(pdtrc(ks, mu_max) < _POISSON_TAIL)]) + 1
    cut = _POISSON_TAIL * v[-1]
    out = np.zeros((len(b), len(taus)))
    terms = np.empty((_TERM_BLOCK, len(b)))
    for start in range(0, m_end, _TERM_BLOCK):
        m = np.arange(start, min(start + _TERM_BLOCK, m_end))
        for i in range(len(m)):
            terms[i] = v
            v = q * v
            v[1:] += p[1:] * terms[i, :-1]
        weights = _poisson_pmf(m, mu)
        weights[weights < _FLUSH] = 0.0
        terms[terms < _FLUSH] = 0.0
        out += terms[:len(m)].T @ weights
        if v[-1] <= cut:
            break
    return out
