"""Regime-switching liquidity and the two-exchange multi-scale model.

Both extensions keep the power-law book.  Regime switching modulates the
arrival scale by a two-state Markov chain and couples two value recursions;
the two-exchange model adds a second venue filling large blocks, turning the
stationary value equation into a delay ODE solved by patching segment by
segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .discrete import power_constant

__all__ = [
    "RegimeParams",
    "TwoExchangeParams",
    "TwoExchangeSolution",
    "ExpansionSolution",
    "regime_fluid_fixed_point",
    "regime_discrete",
    "two_exchange_patch",
    "two_exchange_expansion",
]


@dataclass(frozen=True)
class RegimeParams:
    """Two-state liquidity modulation: state 0 active, state 1 slow."""

    lambda0: float
    lambda1: float
    theta0: float  # 0 -> 1 transition rate
    theta1: float  # 1 -> 0 transition rate
    r: float
    alpha: float

    def __post_init__(self):
        if not self.lambda0 > self.lambda1 > 0.0:
            raise ValueError("requires lambda0 > lambda1 > 0")
        if self.theta0 < 0.0 or self.theta1 < 0.0:
            raise ValueError("transition rates must be nonnegative")
        if self.alpha <= 1.0:
            raise ValueError("alpha must exceed 1")
        if self.r <= 0.0:
            raise ValueError("r must be positive")

    def single_regime_constant(self, which: int) -> float:
        lam = self.lambda0 if which == 0 else self.lambda1
        return (lam / (self.r * self.alpha)) ** (1.0 / self.alpha)


def _regime_residuals(c0, c1, p: RegimeParams):
    a = p.alpha
    g0 = p.lambda0 / a * c0 ** (1.0 - a) - (p.r + p.theta0) * c0 + p.theta0 * c1
    g1 = p.lambda1 / a * c1 ** (1.0 - a) - (p.r + p.theta1) * c1 + p.theta1 * c0
    return g0, g1


def _regime_newton(c0, c1, p: RegimeParams, iters=60):
    a = p.alpha
    for _ in range(iters):
        g0, g1 = _regime_residuals(c0, c1, p)
        j00 = p.lambda0 / a * (1.0 - a) * c0 ** (-a) - (p.r + p.theta0)
        j11 = p.lambda1 / a * (1.0 - a) * c1 ** (-a) - (p.r + p.theta1)
        det = j00 * j11 - p.theta0 * p.theta1
        d0 = (g0 * j11 - p.theta0 * g1) / det
        d1 = (j00 * g1 - p.theta1 * g0) / det
        c0_new, c1_new = c0 - d0, c1 - d1
        if c0_new <= 0.0 or c1_new <= 0.0:
            c0_new = max(c0_new, 0.5 * c0)
            c1_new = max(c1_new, 0.5 * c1)
        if abs(c0_new - c0) <= 1e-16 * c0 and abs(c1_new - c1) <= 1e-16 * c1:
            return c0_new, c1_new
        c0, c1 = c0_new, c1_new
    return c0, c1


def regime_fluid_fixed_point(params: RegimeParams) -> tuple[float, float]:
    """Constants (c0*, c1*) of the fluid values u = c0*x^p, w = c1*x^p.

    The coupled pair reduces to a one-dimensional root find on the composed
    monotone map c0 -> c1 -> c0, bracketed by the single-regime constants
    (lambda1/(r*alpha))**(1/alpha) < c1* < c0* < (lambda0/(r*alpha))**(1/alpha),
    then polished by a 2x2 Newton step to machine-level residuals.
    """
    hi = params.single_regime_constant(0)
    lo = params.single_regime_constant(1)
    t0, t1 = params.theta0, params.theta1
    a, r = params.alpha, params.r

    if t0 == 0.0 and t1 == 0.0:
        return hi, lo
    if t0 == 0.0:
        # active regime never leaves: c0 is the single-regime constant
        g = lambda c1: _regime_residuals(hi, c1, params)[1]
        return hi, brentq(g, lo, hi, xtol=1e-300, rtol=8.882e-16)
    if t1 == 0.0:
        g = lambda c0: _regime_residuals(c0, lo, params)[0]
        return brentq(g, lo, hi, xtol=1e-300, rtol=8.882e-16), lo

    def from_c0(c0):
        # c1 implied by the active-regime equation
        return c0 + (r * c0 - params.lambda0 / a * c0 ** (1.0 - a)) / t0

    def from_c1(c1):
        return c1 + (r * c1 - params.lambda1 / a * c1 ** (1.0 - a)) / t1

    def gap(c0):
        c1 = from_c0(c0)
        if c1 <= 0.0:
            return -1e300
        return from_c1(c1) - c0

    g_lo, g_hi = gap(lo), gap(hi)
    if not (g_lo < 0.0 < g_hi):
        raise ArithmeticError(
            f"fixed-point bracket failure on [{lo}, {hi}]: gap({lo}) = {g_lo}, "
            f"gap({hi}) = {g_hi}")
    c0 = brentq(gap, lo, hi, xtol=1e-300, rtol=8.882e-16, maxiter=300)
    c1 = min(max(from_c0(c0), lo), hi)
    return _regime_newton(c0, c1, params)


def _regime_level(b, theta, prev, other, guess_inc, p: RegimeParams, label, n):
    """prev + m, where m > 0 solves b*m**(1-a) = (r+theta)*(prev+m) - theta*other:
    one regime's level equation with the other regime's value held fixed."""
    a = p.alpha
    f = lambda m: b * m ** (1.0 - a) - (p.r + theta) * (prev + m) + theta * other
    hi_m = guess_inc
    for _ in range(200):
        if f(hi_m) < 0.0:
            break
        hi_m *= 2.0
    else:
        raise ArithmeticError(f"regime {label}-bracket failure at level {n}")
    lo_m = hi_m
    for _ in range(2000):
        lo_m *= 0.5
        if f(lo_m) > 0.0:
            break
    else:
        raise ArithmeticError(f"regime {label}-bracket failure at level {n}")
    return prev + brentq(f, lo_m, hi_m, xtol=1e-300, rtol=8.882e-16)


def regime_discrete(params: RegimeParams, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Coupled per-level values (U(n), W(n)) under regime switching.

    Each level solves the 2x2 nonlinear system by alternating monotone
    scalar root finds, then a joint Newton polish; U(n) > W(n) at every
    positive level (the active market is worth more).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a = params.alpha
    aa = power_constant(a)
    b0 = aa * params.lambda0
    b1 = aa * params.lambda1
    r, t0, t1 = params.r, params.theta0, params.theta1

    u = np.zeros(n_max + 1)
    w = np.zeros(n_max + 1)
    inc_u = inc_w = None
    for n in range(1, n_max + 1):
        up, wp = u[n - 1], w[n - 1]
        guess_u = inc_u if inc_u is not None else (b0 / r) ** (1.0 / a)
        guess_w = inc_w if inc_w is not None else (b1 / r) ** (1.0 / a)
        u_n = up + guess_u
        w_n = wp + guess_w
        for _ in range(200):
            u_new = _regime_level(b0, t0, up, w_n, guess_u, params, "U", n)
            w_new = _regime_level(b1, t1, wp, u_new, guess_w, params, "W", n)
            done = (abs(u_new - u_n) <= 1e-14 * max(1.0, u_new)
                    and abs(w_new - w_n) <= 1e-14 * max(1.0, w_new))
            u_n, w_n = u_new, w_new
            if done:
                break
        else:
            raise ArithmeticError(f"regime alternation failed to converge at level {n}")

        res_u = b0 * (u_n - up) ** (1.0 - a) - (r + t0) * u_n + t0 * w_n
        res_w = b1 * (w_n - wp) ** (1.0 - a) - (r + t1) * w_n + t1 * u_n
        scale = max(1.0, r * u_n)
        if abs(res_u) > 1e-10 * scale or abs(res_w) > 1e-10 * scale:
            raise ArithmeticError(f"regime residuals too large at level {n}: "
                                  f"{res_u:.3e}, {res_w:.3e}")
        inc_u, inc_w = u_n - up, w_n - wp
        u[n], w[n] = u_n, w_n
    return u, w


# --------------------------------------------------------------------------
# two-exchange multi-scale model


@dataclass(frozen=True)
class TwoExchangeParams:
    """Continuous venue (lambda0) plus a block venue filling min(delta_block, x)."""

    lambda0: float
    lambda1: float
    delta_block: float
    alpha: float
    r: float
    x_max: float
    grid_step: float

    def __post_init__(self):
        if self.alpha <= 1.0:
            raise ValueError("alpha must exceed 1")
        if self.lambda0 <= 0.0 or self.lambda1 < 0.0:
            raise ValueError("requires lambda0 > 0 and lambda1 >= 0")
        if self.r <= 0.0 or self.delta_block <= 0.0:
            raise ValueError("r and delta_block must be positive")
        if self.x_max <= 0.0 or self.grid_step <= 0.0:
            raise ValueError("x_max and grid_step must be positive")
        ratio = self.delta_block / self.grid_step
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("grid_step must divide delta_block so knots land on the grid")

    def single_exchange_value(self, x) -> np.ndarray | float:
        """v0(x): the block venue switched off."""
        return (self.lambda0 / (self.alpha * self.r)) ** (1.0 / self.alpha) \
            * np.asarray(x, dtype=float) ** ((self.alpha - 1.0) / self.alpha)


@dataclass(frozen=True)
class TwoExchangeSolution:
    params: TwoExchangeParams
    x_grid: np.ndarray
    value: np.ndarray
    derivative: np.ndarray
    spread_continuous: np.ndarray  # s0, from the marginal value
    spread_block: np.ndarray       # s1, from the delayed difference
    x_seed: float

    def value_at(self, x: float) -> float:
        return float(np.interp(x, self.x_grid, self.value))


def _patch_integrate(params: TwoExchangeParams, x_seed: float):
    """March the value in u = v**(alpha/(alpha-1)) across block-size segments.

    In the u variable the block-free solution is exactly linear, so the
    x -> 0 derivative singularity disappears and the seed region [0, x_seed]
    (where v is set to the single-exchange asymptote) costs nothing.  Every
    delayed value v(x - delta_block) lies in an earlier, completed segment,
    so the steps of one segment read theirs from the completed segments'
    cubic interpolants in one array evaluation before the segment is marched.
    """
    a, r, dblk = params.alpha, params.r, params.delta_block
    p = (a - 1.0) / a
    aa = power_constant(a)
    h = params.grid_step
    n_nodes = int(round(params.x_max / h)) + 1
    xs = h * np.arange(n_nodes)
    if abs(xs[-1] - params.x_max) > 1e-9 * max(1.0, params.x_max):
        raise ValueError("x_max must sit on the grid_step lattice")

    u_slope0 = (params.lambda0 / (a * r)) ** (1.0 / (a - 1.0))
    seed_idx = max(1, int(round(x_seed / h)))
    seed_idx = min(seed_idx, n_nodes - 1)

    u = np.empty(n_nodes)
    u[: seed_idx + 1] = u_slope0 * xs[: seed_idx + 1]
    v = np.empty(n_nodes)
    v[: seed_idx + 1] = u[: seed_idx + 1] ** p
    seg_len = int(round(dblk / h))
    splines: dict[int, CubicSpline] = {}

    def delayed(x, n_done):
        """v(x - dblk) where x > dblk, else 0, from the segments whose nodes
        all lie at or below n_done; a knot query resolves to the left segment."""
        out = np.zeros(len(x))
        if params.lambda1 == 0.0:
            return out
        live = np.flatnonzero(x > dblk)
        q = x[live] - dblk
        seg = np.maximum(0, np.floor(q / dblk - 1e-12)).astype(int)
        for s in np.unique(seg):
            i0 = s * seg_len
            sel = seg == s
            if i0 + seg_len > n_done:
                # rounding put a knot query just past the knot, into the
                # segment being marched (xs[L] = L*h can exceed dblk): read
                # the knot itself
                out[live[sel]] = v[i0]
                continue
            spline = splines.get(s)
            if spline is None:
                spline = splines[s] = CubicSpline(xs[i0:i0 + seg_len + 1],
                                                  v[i0:i0 + seg_len + 1])
            out[live[sel]] = spline(q[sel])
        return out

    def slope(x, u_val, v_delay):
        v_here = u_val ** p
        block = 0.0
        if params.lambda1 > 0.0:
            gap = v_here - v_delay
            if gap <= 0.0:
                raise ArithmeticError(f"value failed to increase over one block at x = {x}")
            block = aa * params.lambda1 * min(x, dblk) ** a * gap ** (1.0 - a)
        d = r * v_here - block
        if d <= 0.0:
            raise ArithmeticError(f"delay ODE blow-up at x = {x}: block term "
                                  "dominates the discounted value")
        return (a / (a - 1.0)) * u_val ** (1.0 / a) * (aa * params.lambda0 / d) ** (1.0 / (a - 1.0))

    start = seed_idx
    while start < n_nodes - 1:
        # the steps whose left node lies in one segment
        stop = min((start // seg_len + 1) * seg_len, n_nodes - 1)
        x0 = xs[start:stop]
        xm, x1 = x0 + 0.5 * h, x0 + h
        d0, dm, d1 = (delayed(x, start) for x in (x0, xm, x1))
        for j, i in enumerate(range(start, stop)):
            x = xs[i]
            ui = u[i]
            k1 = slope(x, ui, d0[j])
            k2 = slope(xm[j], ui + 0.5 * h * k1, dm[j])
            k3 = slope(xm[j], ui + 0.5 * h * k2, dm[j])
            k4 = slope(x1[j], ui + h * k3, d1[j])
            u[i + 1] = ui + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not math.isfinite(u[i + 1]):
                raise ArithmeticError(f"delay ODE blow-up at x = {xs[i + 1]}")
            v[i + 1] = u[i + 1] ** p
        start = stop

    return xs, v, u


def two_exchange_patch(params: TwoExchangeParams, x_seed: Optional[float] = None,
                       check_seed: bool = True) -> TwoExchangeSolution:
    """Stationary two-exchange value by successive patching.

    The delay ODE is rearranged for v'(x) and marched block by block; near
    zero the solution is seeded with the single-exchange asymptote because
    v'(0) is infinite.  With ``check_seed`` the solve is repeated at half
    the seed width and must agree at x_max to 1e-6.  Concavity is NOT
    asserted anywhere: it genuinely fails around the block-size knots.
    """
    if x_seed is None:
        x_seed = min(params.delta_block, params.x_max) / 100.0
    xs, v, u = _patch_integrate(params, x_seed)
    if check_seed:
        _, v_half, _ = _patch_integrate(params, 0.5 * x_seed)
        drift = abs(v_half[-1] - v[-1])
        if drift > 1e-6 * max(1.0, abs(v[-1])):
            raise ArithmeticError(
                f"seeding-width misconfiguration: halving x_seed moves v(x_max) "
                f"by {drift:.3e}; shrink x_seed or grid_step")

    a, r, dblk = params.alpha, params.r, params.delta_block
    aa = power_constant(a)
    p = (a - 1.0) / a

    # recover v' from the equation itself (interior nodes)
    v_delay = np.where(xs > dblk, np.interp(np.maximum(xs - dblk, 0.0), xs, v), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        block = aa * params.lambda1 * np.minimum(xs, dblk) ** a \
            * np.where(v - v_delay > 0.0, (v - v_delay) ** (1.0 - a), np.inf)
        block[0] = 0.0
        d = r * v - block
        deriv = np.where(d > 0.0, (aa * params.lambda0 / d) ** (1.0 / (a - 1.0)), np.inf)
    deriv[0] = math.inf

    s0 = (a / (a - 1.0)) * deriv
    with np.errstate(divide="ignore", invalid="ignore"):
        s1 = (a / (a - 1.0)) * (v - v_delay) / np.minimum(np.maximum(xs, 1e-300), dblk)
    s1[0] = math.inf

    return TwoExchangeSolution(params=params, x_grid=xs, value=v, derivative=deriv,
                               spread_continuous=s0, spread_block=s1, x_seed=x_seed)


# the 8-point Gauss-Legendre rule on [-1, 1], numpy.polynomial.legendre.leggauss(8)
# written out: computing it initialises NumPy's LAPACK, about 0.75 MB of RSS
_GAUSS_HALF_NODES = np.array([0.18343464249564978, 0.525532409916329,
                              0.7966664774136267, 0.9602898564975362])
_GAUSS_HALF_WEIGHTS = np.array([0.36268378337836166, 0.3137066458778869,
                                0.22238103445337443, 0.10122853629037706])
_GAUSS_NODES = np.concatenate([-_GAUSS_HALF_NODES[::-1], _GAUSS_HALF_NODES])
_GAUSS_WEIGHTS = np.concatenate([_GAUSS_HALF_WEIGHTS[::-1], _GAUSS_HALF_WEIGHTS])
_CELLS_PER_BLOCK = 512


def _cell_integrals(f, lo, hi, smooth_from):
    """Integrals of f over the cells [lo, hi]: 8-point Gauss-Legendre, in
    blocks of cells, where lo >= smooth_from, and ``quad`` below it."""
    out = np.empty(len(lo))
    for i in np.flatnonzero(lo < smooth_from):
        out[i] = quad(f, lo[i], hi[i], epsabs=1e-13, epsrel=1e-11, limit=400)[0]
    smooth = np.flatnonzero(lo >= smooth_from)
    for b in range(0, len(smooth), _CELLS_PER_BLOCK):
        idx = smooth[b:b + _CELLS_PER_BLOCK]
        mid = 0.5 * (lo[idx] + hi[idx])
        half = 0.5 * (hi[idx] - lo[idx])
        acc = np.zeros(len(idx))
        for t, wt in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
            acc += wt * f(mid + half * t)
        out[idx] = half * acc
    return out


@dataclass(frozen=True)
class ExpansionSolution:
    """First-order small-block-venue expansion v ~ v0 + eps*v1.

    Above one block size v1 needs the integral of a tail integrand from
    delta_block to x.  It is read off one uniform mesh of width
    delta_block/64 starting at delta_block: a cumulative sum of cell
    integrals up to the last mesh point below x, plus one more cell up to x.
    The integrand's (y - delta_block)**p term is not smooth at delta_block,
    so cells in the first mesh width go to ``quad``.  A value at x depends
    on x alone, not on the other points queried with it.
    """

    params: TwoExchangeParams  # lambda1 read as the O(1) scale multiplying eps
    eps: float
    c1_constant: float

    def v0(self, x):
        return self.params.single_exchange_value(x)

    def v1(self, x):
        """First-order correction at a scalar x (a float) or an array of them."""
        pr = self.params
        a, r, dblk = pr.alpha, pr.r, pr.delta_block
        p = (a - 1.0) / a
        k = power_constant(a) * pr.lambda1 * (pr.lambda0 / (a * r)) ** ((1.0 - a) / a)
        xa = np.asarray(x, dtype=float)
        flat = xa.ravel()
        out = np.where(flat > 0.0, self.c1_constant * np.maximum(flat, 0.0) ** (2.0 - 1.0 / a),
                       0.0)
        tail = np.flatnonzero(flat > dblk)
        if len(tail):
            def integrand(y):
                gap = y ** p - (y - dblk) ** p
                return k * dblk ** a * gap ** (1.0 - a) * y ** (1.0 / a - 1.0) / (a * r)

            xt = flat[tail]
            w = dblk / 64.0
            cell = np.floor((xt - dblk) / w).astype(int)
            mesh = dblk + w * np.arange(int(cell.max()) + 1)
            smooth_from = dblk + 0.5 * w
            # prefix[j]: the integral from delta_block to mesh[j]
            prefix = np.concatenate(
                ([0.0], np.cumsum(_cell_integrals(integrand, mesh[:-1], mesh[1:], smooth_from))))
            integral = prefix[cell] + _cell_integrals(integrand, mesh[cell], xt, smooth_from)
            inner = k * dblk ** 2 / (2.0 * a * r)
            out[tail] = xt ** (-1.0 / a) * (inner + integral)
        out = out.reshape(xa.shape)
        return float(out) if out.ndim == 0 else out

    def value(self, x):
        """v0 + eps*v1 at a scalar x (a float) or an array of them."""
        out = self.v0(x) + self.eps * self.v1(x)
        return float(out) if np.ndim(out) == 0 else out


def two_exchange_expansion(params: TwoExchangeParams, eps: float) -> ExpansionSolution:
    """Expansion of the two-exchange value for a weak block venue.

    ``params.lambda1`` is read as the O(1) base scale; the physical block
    intensity is lambda1 * eps.  The correction is closed-form below one
    block size, C1 * x**(2 - 1/alpha), and above it a cumulative
    Gauss-Legendre sum over a fixed mesh (see :class:`ExpansionSolution`);
    against the patching solver the residual shrinks like eps**2.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    a, r = params.alpha, params.r
    k = power_constant(a) * params.lambda1 * (params.lambda0 / (a * r)) ** ((1.0 - a) / a)
    c1 = k / (2.0 * a * r)
    return ExpansionSolution(params=params, eps=eps, c1_constant=c1)
