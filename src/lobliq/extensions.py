"""Regime-switching liquidity and the two-exchange multi-scale model.

Both extensions keep the power-law book.  Regime switching modulates the
arrival scale by a two-state Markov chain and couples the two regimes'
values, whose fluid constants solve a 2x2 algebraic system by one
monotone Newton iteration; the two-exchange model adds a second venue
filling large blocks, turning the stationary value equation into a delay
ODE solved by patching segment by segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .discrete import power_constant
from .numerics import GAUSS_NODES, GAUSS_WEIGHTS

__all__ = [
    "RegimeParams",
    "TwoExchangeParams",
    "TwoExchangeSolution",
    "ExpansionSolution",
    "regime_fluid_fixed_point",
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


# Newton steps before the regime solve gives up: a solve takes under
# log(lambda0/lambda1) + 20, and that log is below 1 455 for any two floats
_REGIME_STEPS = 1500


def _regime_residuals(c0, c1, p: RegimeParams):
    a, gap = p.alpha, c1 - c0
    g0 = p.lambda0 / a * c0 ** (1.0 - a) - p.r * c0 + p.theta0 * gap
    g1 = p.lambda1 / a * c1 ** (1.0 - a) - p.r * c1 - p.theta1 * gap
    return g0, g1


def regime_fluid_fixed_point(params: RegimeParams) -> tuple[float, float]:
    """Constants (c0*, c1*) of the fluid values u = c0*x^p, w = c1*x^p.

    Newton on the residuals g from (lo, lo), lo and hi the single-regime
    constants (lambda_i/(r*alpha))**(1/alpha).  g is convex; -J, diagonal
    m_i + theta_i and off-diagonal -theta_i with m_i = (alpha-1)*q_i/c_i + r,
    q_i = lambda_i/alpha * c_i**(1-alpha), is an M-matrix; and g >= 0 at
    (lo, lo).  So the iterates rise monotonically to the root, lo <= c1* <=
    c0* <= hi, with no bracket (Ortega-Rheinboldt 13.3.4), each step a sum
    of nonnegative terms.  A regime with theta_i = 0 keeps lo or hi exactly.
    """
    a, r, t0, t1 = params.alpha, params.r, params.theta0, params.theta1
    lo = params.single_regime_constant(1)
    c0, c1 = (lo if t0 else params.single_regime_constant(0)), lo
    for _ in range(_REGIME_STEPS):
        g0, g1 = _regime_residuals(c0, c1, params)
        # a zero residual holds a regime with theta_i = 0 where it starts
        g0, g1 = (g0 if t0 else 0.0), (g1 if t1 else 0.0)
        m0 = (a - 1.0) / a * params.lambda0 * c0 ** -a + r
        m1 = (a - 1.0) / a * params.lambda1 * c1 ** -a + r
        det = m0 * m1 + t0 * m1 + t1 * m0
        n0 = c0 + (m1 + t1) / det * g0 + t0 / det * g1
        n1 = c1 + t1 / det * g0 + (m0 + t0) / det * g1
        if n0 <= c0 and n1 <= c1:
            return c0, c1
        # the exact iterates only rise: a fall is rounding, and is held
        c0, c1 = max(n0, c0), max(n1, c1)
    raise ArithmeticError(f"no regime fixed point in {_REGIME_STEPS} Newton steps: {params}")


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


def _patch_integrate(params: TwoExchangeParams, x_seed: float):
    """March the value in u = v**(alpha/(alpha-1)) across block-size segments.

    In the u variable the block-free solution is exactly linear, so the
    x -> 0 derivative singularity disappears and the seed region [0, x_seed]
    (where v is set to the single-exchange asymptote) costs nothing.  Every
    delayed value v(x - delta_block) lies in an earlier, completed segment,
    so the steps of one segment read theirs from the completed segments'
    cubic interpolants in one array evaluation before the segment is marched.
    The march itself is scalar arithmetic on Python floats, with the same
    operations in the same order as NumPy scalars would do them, so it is
    bit for bit the per-step march; each segment is written back at once.
    """
    from scipy.interpolate import CubicSpline

    a, r, dblk = params.alpha, params.r, params.delta_block
    p = (a - 1.0) / a
    aa = power_constant(a)
    h = params.grid_step
    n_nodes = int(round(params.x_max / h)) + 1
    xs = h * np.arange(n_nodes)
    if abs(xs[-1] - params.x_max) > 1e-9 * max(1.0, params.x_max):
        raise ValueError("x_max must sit on the grid_step lattice")

    try:
        u_slope0 = (params.lambda0 / (a * r)) ** (1.0 / (a - 1.0))
    except OverflowError:
        raise ArithmeticError(f"seed u-slope (lambda0/(alpha*r))**(1/(alpha-1)) overflows "
                              f"at alpha = {a!r}, lambda0 = {params.lambda0!r}, "
                              f"r = {r!r}") from None
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

    # the constants of the step, hoisted with the order of every product kept
    b0, b1 = aa * params.lambda0, aa * params.lambda1
    ka, ia, ia1, ma = a / (a - 1.0), 1.0 / a, 1.0 / (a - 1.0), 1.0 - a
    dblk_a = dblk ** a
    hh, h6 = 0.5 * h, h / 6.0
    blocks = params.lambda1 > 0.0

    def slope(x, u_val, v_delay):
        v_here = u_val ** p
        block = 0.0
        if blocks:
            gap = v_here - v_delay
            if gap <= 0.0:
                raise ArithmeticError(f"value failed to increase over one block at x = {x}")
            # min(x, dblk)**a, the power of dblk hoisted
            block = b1 * (x ** a if x < dblk else dblk_a) * gap ** ma
        d = r * v_here - block
        if d <= 0.0:
            raise ArithmeticError(f"delay ODE blow-up at x = {x}: block term "
                                  "dominates the discounted value")
        return ka * u_val ** ia * (b0 / d) ** ia1

    start = seed_idx
    while start < n_nodes - 1:
        # the steps whose left node lies in one segment
        stop = min((start // seg_len + 1) * seg_len, n_nodes - 1)
        x0 = xs[start:stop]
        xm, x1 = x0 + hh, x0 + h
        d0, dm, d1 = (delayed(x, start).tolist() for x in (x0, xm, x1))
        ui = float(u[start])
        marched = []
        try:
            for x, xmj, x1j, e0, em, e1 in zip(x0.tolist(), xm.tolist(), x1.tolist(),
                                                d0, dm, d1):
                k1 = slope(x, ui, e0)
                k2 = slope(xmj, ui + hh * k1, em)
                k3 = slope(xmj, ui + hh * k2, em)
                k4 = slope(x1j, ui + h * k3, e1)
                ui = ui + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                marched.append(ui)
        except OverflowError:  # a Python float pow past 1e308, where NumPy's is inf
            raise ArithmeticError(f"delay ODE blow-up at x = {x}") from None
        u[start + 1:stop + 1] = marched
        bad = np.flatnonzero(~np.isfinite(u[start + 1:stop + 1]))
        if bad.size:
            # the march runs on through inf and nan without raising
            raise ArithmeticError(f"delay ODE blow-up at x = {xs[start + 1 + bad[0]]}")
        v[start + 1:stop + 1] = [ue ** p for ue in marched]
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


_CELLS_PER_BLOCK = 512


def _cell_integrals(f, lo, hi, smooth_from):
    """Integrals of f over the cells [lo, hi]: 8-point Gauss-Legendre, in
    blocks of cells, where lo >= smooth_from, and ``quad`` below it."""
    from scipy.integrate import quad

    out = np.empty(len(lo))
    for i in np.flatnonzero(lo < smooth_from):
        out[i] = quad(f, lo[i], hi[i], epsabs=1e-13, epsrel=1e-11, limit=400)[0]
    smooth = np.flatnonzero(lo >= smooth_from)
    for b in range(0, len(smooth), _CELLS_PER_BLOCK):
        idx = smooth[b:b + _CELLS_PER_BLOCK]
        mid = 0.5 * (lo[idx] + hi[idx])
        half = 0.5 * (hi[idx] - lo[idx])
        acc = np.zeros(len(idx))
        for t, wt in zip(GAUSS_NODES, GAUSS_WEIGHTS):
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
