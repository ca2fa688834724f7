"""Regime-switching liquidity and the two-exchange multi-scale model.

Both extensions keep the power-law book.  Regime switching modulates the
arrival scale by a two-state Markov chain and couples the two regimes'
values, whose fluid constants solve a 2x2 algebraic system by one
monotone Newton iteration, over a whole grid of switching rates at once;
the two-exchange model adds a second venue filling large blocks, turning
the stationary value equation into a delay ODE, seeded from its series at
0, marched one delay block at a time from the values and slopes it has
already computed, and expanded to first order in a weak block venue by one
Gauss-Legendre rule.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from .discrete import _bidiagonal_solve, power_constant
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
    """Two-state liquidity modulation: state 0 active, state 1 slow.  The
    transition rates are two floats or two 1-D arrays of one length, which
    are stored as tuples of floats, so that params compare and hash."""

    lambda0: float
    lambda1: float
    theta0: float | tuple[float, ...]  # 0 -> 1 transition rate
    theta1: float | tuple[float, ...]  # 1 -> 0 transition rate
    r: float
    alpha: float

    def __post_init__(self):
        if not self.lambda0 > self.lambda1 > 0.0:
            raise ValueError("requires lambda0 > lambda1 > 0")
        shape = np.shape(self.theta0)
        if len(shape) > 1 or np.shape(self.theta1) != shape:
            raise ValueError("theta0 and theta1 must be two floats or two 1-D arrays "
                             "of one length")
        if shape:
            object.__setattr__(self, "theta0", tuple(np.asarray(self.theta0, float).tolist()))
            object.__setattr__(self, "theta1", tuple(np.asarray(self.theta1, float).tolist()))
        if np.any(np.asarray(self.theta0) < 0.0) or np.any(np.asarray(self.theta1) < 0.0):
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


def _float_pow(c: np.ndarray, e: float) -> np.ndarray:
    """c**e by Python's float pow, elementwise: NumPy's array pow differs
    from it in the last bit on about 5% of arguments."""
    return np.array([x ** e for x in c.tolist()])


def regime_fluid_fixed_point(
        params: RegimeParams) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Constants (c0*, c1*) of the fluid values u = c0*x^p, w = c1*x^p: two
    floats for scalar rates, two arrays for arrays of them.

    Newton on the residuals g from (lo, lo), lo and hi the single-regime
    constants (lambda_i/(r*alpha))**(1/alpha).  g is convex; -J, diagonal
    m_i + theta_i and off-diagonal -theta_i with m_i = (alpha-1)*q_i/c_i + r,
    q_i = lambda_i/alpha * c_i**(1-alpha), is an M-matrix; and g >= 0 at
    (lo, lo).  So the iterates rise monotonically to the root, lo <= c1* <=
    c0* <= hi, with no bracket (Ortega-Rheinboldt 13.3.4), each step a sum
    of nonnegative terms.  A regime with theta_i = 0 keeps lo or hi exactly.
    Every rate pair runs its own iteration, all in one array, and keeps the
    point at which its own step first fails to rise; the arithmetic is that
    of a Python-float solve of each pair alone, which raises
    ZeroDivisionError where the step's determinant underflows to 0 (rates
    0 and r below about 1e-162).
    """
    a, r, lam0, lam1 = params.alpha, params.r, params.lambda0, params.lambda1
    t0, t1 = np.asarray(params.theta0, dtype=float), np.asarray(params.theta1, dtype=float)
    scalar = t0.ndim == 0
    t0, t1 = np.atleast_1d(t0), np.atleast_1d(t1)
    lo = params.single_regime_constant(1)
    c0 = np.where(t0 != 0.0, lo, params.single_regime_constant(0))
    c1 = np.full(len(t0), lo)
    live = np.arange(len(t0))  # the pairs whose iteration still rises

    # products and sums run on through inf and nan, as on Python floats; a
    # division by 0, where a Python float raises, is checked before it is made
    with np.errstate(all="ignore"):
        for _ in range(_REGIME_STEPS):
            if not live.size:
                break
            x0, x1, s0, s1 = c0[live], c1[live], t0[live], t1[live]
            gap = x1 - x0
            g0 = lam0 / a * _float_pow(x0, 1.0 - a) - r * x0 + s0 * gap
            g1 = lam1 / a * _float_pow(x1, 1.0 - a) - r * x1 - s1 * gap
            # a zero residual holds a regime with theta_i = 0 where it starts
            g0[s0 == 0.0] = 0.0
            g1[s1 == 0.0] = 0.0
            m0 = (a - 1.0) / a * lam0 * _float_pow(x0, -a) + r
            m1 = (a - 1.0) / a * lam1 * _float_pow(x1, -a) + r
            det = m0 * m1 + s0 * m1 + s1 * m0
            if not det.all():  # where a Python float division raises
                k = live[det == 0.0][0]
                raise ZeroDivisionError(
                    "regime Newton step divides by zero: "
                    f"{replace(params, theta0=t0[k].item(), theta1=t1[k].item())}")
            n0 = x0 + (m1 + s1) / det * g0 + s0 / det * g1
            n1 = x1 + s1 / det * g0 + (m0 + s0) / det * g1
            rises = ~((n0 <= x0) & (n1 <= x1))
            # the exact iterates only rise: a fall is rounding, and is held
            live = live[rises]
            c0[live] = np.maximum(n0[rises], x0[rises])
            c1[live] = np.maximum(n1[rises], x1[rises])
    if live.size:
        k = live[0]
        raise ArithmeticError(f"no regime fixed point in {_REGIME_STEPS} Newton steps: "
                              f"{replace(params, theta0=t0[k].item(), theta1=t1[k].item())}")
    if scalar:
        return c0.item(), c1.item()
    return c0, c1


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
        h, x_max = self.grid_step, self.x_max
        ratio = self.delta_block / h
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("grid_step must divide delta_block so knots land on the grid")
        if abs(h * round(x_max / h) - x_max) > 1e-9 * max(1.0, x_max):
            raise ValueError("x_max must sit on the grid_step lattice")

    def single_exchange_value(self, x) -> np.ndarray | float:
        """v0(x): the block venue switched off."""
        return (self.lambda0 / (self.alpha * self.r)) ** (1.0 / self.alpha) \
            * np.asarray(x, dtype=float) ** ((self.alpha - 1.0) / self.alpha)


@dataclass(frozen=True)
class TwoExchangeSolution:
    params: TwoExchangeParams
    x_grid: np.ndarray
    value: np.ndarray
    spread_continuous: np.ndarray  # s0, from the marginal value
    spread_block: np.ndarray       # s1, from the delayed difference
    x_seed: float


def _series(params: TwoExchangeParams) -> tuple[float, ...]:
    """c**(1/p), B, g1, g2, g3, g4 of the value below the first knot, where
    the delayed value is 0: v = c x**p F(B x), c x**p the single-exchange
    value, p = (alpha-1)/alpha, B = alpha*power_constant(alpha)*lambda1/lambda0
    (on c x**p the block term over r*v is B x), and F = 1 + g1 z + g2 z**2 +
    g3 z**3 + g4 z**4 + ... solves F = (F + z F'/p)**(1-alpha) + z F**(1-alpha)."""
    a = params.alpha
    q = 1.0 / a  # g3 and g4 in powers of 1/alpha, finite for any float alpha
    try:
        u_slope0 = (params.lambda0 / (a * params.r)) ** (1.0 / (a - 1.0))
    except OverflowError:
        raise ArithmeticError(f"seed u-slope (lambda0/(alpha*r))**(1/(alpha-1)) overflows "
                              f"at alpha = {a!r}, lambda0 = {params.lambda0!r}, "
                              f"r = {params.r!r}") from None
    return (u_slope0, a * power_constant(a) * params.lambda1 / params.lambda0,
            1.0 / (2.0 * a), (4.0 * a - 3.0) / (24.0 * a * a * (a - 1.0)),
            -(1.0 - 4.0 * q * q + 2.0 * q ** 3) / (96.0 * (a - 1.0)),
            -(12.0 + q * (24.0 - q * (66.0 + q * (18.0 - q * (110.0 - q * (75.0 - 15.0 * q))))))
            * q / (5760.0 * (1.0 - q) ** 3))


def _seed_width(params: TwoExchangeParams) -> float:
    """The seed's width on the lattice: min(delta_block, x_max)/100 rounded
    to a multiple of grid_step (one step at least), or, where the two terms
    the seed drops from the series, |g3| z**3 + |g4| z**4 at z = B x, pass
    1e-6 of v there, the widest multiple at which they do not.  Both count:
    g3 is 0 near alpha = 1.675, and g4 outgrows it as alpha nears 1."""
    h = params.grid_step
    _, b, _, _, g3, g4 = _series(params)
    steps = max(1, round(min(params.delta_block, params.x_max) / 100.0 / h))
    while True:
        z = steps * b * h
        dropped = z * z * z * (abs(g3) + abs(g4) * z)  # inf, not OverflowError, past 1e308
        if dropped <= 1e-6:
            return steps * h
        if steps == 1:
            raise ArithmeticError(f"grid_step = {h} is too wide for the series seed: the terms "
                                  f"it drops are {dropped:.3e} of v at one step")
        steps -= 1


def _seed(params: TwoExchangeParams, x_nodes: list) -> tuple[list, list]:
    """u = v**(1/p) and u' at the seed's nodes x from the series through
    z**2 (:func:`_series`): u = c**(1/p) x G(B x)**(1/p), G = 1 + g1 z +
    g2 z**2, which is the line c**(1/p) x where lambda1 = 0.  Raises
    ArithmeticError where u overflows, or underflows to 0 past x = 0."""
    u_slope0, b, g1, g2, _, _ = _series(params)
    ip, u, du = params.alpha / (params.alpha - 1.0), [], []
    for x in x_nodes:
        z = b * x
        g = 1.0 + z * (g1 + g2 * z)
        try:
            u.append(u_slope0 * x * g ** ip)
            du.append(u_slope0 * g ** (ip - 1.0) * (g + ip * z * (g1 + 2.0 * g2 * z)))
        except OverflowError:
            raise ArithmeticError(f"seed u overflows at x = {x}") from None
        if x > 0.0 and u[-1] == 0.0:
            raise ArithmeticError(f"seed u underflows at x = {x}: alpha = {params.alpha!r}, "
                                  f"lambda0 = {params.lambda0!r}, r = {params.r!r}")
    return u, du


# Delay blocks of this many cells or more are solved by Newton's method as
# one chain (:func:`_patch_integrate`), shorter ones by the loop.  On a
# 5 001-node march (lambda1 0.5, alpha 1.5, 2 and 2.6) the two break even
# near 300 cells a block: the chain takes 1.8-2.0 times the loop's time at
# 100 cells, 1.1-1.3 at 200, 0.86-1.00 at 300, 0.75-0.83 at 400 and 0.47 at
# 1 000 (min of 15 timings a size on a shared 2-core x86 machine).  Not a
# setting: the two agree within 8 ulps in v.
_NEWTON_CELLS = 300
# Evaluations of a block's chain (each but the last followed by a Newton
# step) before the loop marches it instead.  Eight take 0.64 of the loop's
# time on a 1 000-cell block, where the benchmark's blocks take six.  Of 577
# blocks of 256-2 000 cells (300 random configs: alpha 1.002-12, lambda1 0
# or 1e-3 to 1e2), 377 were solved within 8, 63 in 9 to 32, and 137, most
# under a strong block venue, went non-finite within two or missed 60.
_BLOCK_STEPS = 8
# a block's chain is solved once its summed relative residual
# |Phi_i(u_i) - u_{i+1}|/u_{i+1} is at most four ulps, and the slopes Phi_i'
# are formed anew while it passes 1e-9: nearer the root the last ones serve
_BLOCK_RTOL = 2.0 ** -50
_SLOPE_RTOL = 1e-9


def _patch_integrate(params: TwoExchangeParams, x_seed: float):
    """March the value in u = v**(alpha/(alpha-1)): (x, v, v').

    In the u variable the block-free solution is exactly linear, so the
    x -> 0 derivative singularity disappears; on the seed region [0, x_seed]
    u and u' come from the series of v at 0 (:func:`_seed`).  As grid_step
    divides delta_block, the delayed value v(x - delta_block) at a node is
    the node value L = delta_block/grid_step places back, and at a step
    midpoint it is the cubic Hermite midpoint of u on the cell L places
    back, from the slopes u' at its two nodes, clamped to the cell's two
    values.  v' comes from the first slope evaluation of each step; at the
    nodes never marched from (the seed layer and the last node) it is the
    equation's, inf where the equation has none.

    The delay makes this a method-of-steps march (Bellen and Zennaro,
    "Numerical Methods for Delay Differential Equations", 2003): a step reads
    only a cell that is complete before it, and forms that cell's delayed
    midpoint in place.  The loop forms the block term's factor
    b1*min(x, delta_block)**alpha once per node, step midpoint and step end.

    So inside one delay block every step is u_{i+1} = Phi_i(u_i), Phi_i the
    RK4 step with its delayed values known.  A block of _NEWTON_CELLS cells
    or more is solved as one chain G_i = u_{i+1} - Phi_i(u_i) = 0 by Newton's
    method from the block-free line through its first node (DEER: Lim et al.,
    "Parallelizing non-linear sequential models over the sequence length",
    ICLR 2024); the Jacobian is lower bidiagonal with Phi_i' in (0, 1], the
    chain rule through the four stages, and a step is one prefix scan
    (``discrete._bidiagonal_solve``).  The result agrees with the loop within
    8 ulps in v and 1e-13 relative in v'.  A shorter block, and a block whose
    iterate goes non-finite, misses _BLOCK_STEPS or fails the gap > 0 or
    d > 0 check once solved, is marched by the loop, which raises the
    march's own errors.
    """
    a, r, dblk = params.alpha, params.r, params.delta_block
    p = (a - 1.0) / a
    aa = power_constant(a)
    h = params.grid_step
    n_nodes = int(round(params.x_max / h)) + 1
    xs = h * np.arange(n_nodes)
    seed_idx = min(max(1, int(round(x_seed / h))), n_nodes - 1)
    lag = int(round(dblk / h))

    # Python floats, one list entry per node reached so far
    x_list = xs.tolist()
    u, du = _seed(params, x_list[:seed_idx + 1])
    v = [ue ** p for ue in u]
    del du[-1]  # the march appends its own slope at the node it starts from

    # the constants of the step, hoisted
    b0, b1 = aa * params.lambda0, aa * params.lambda1
    ka, ia, ia1, ma = a / (a - 1.0), 1.0 / a, 1.0 / (a - 1.0), 1.0 - a
    dblk_a = dblk ** a
    hh, h6, h8 = 0.5 * h, h / 6.0, h / 8.0
    blocks = params.lambda1 > 0.0
    no_rise = "value failed to increase over one block at x = {}"
    blow_up = "delay ODE blow-up at x = {}: block term dominates the discounted value"

    def block_factors(points):
        """b1*min(x, delta_block)**alpha at the increasing points x."""
        points = points.tolist()
        below = bisect_left(points, dblk)
        return [b1 * x ** a for x in points[:below]] + [b1 * dblk_a] * (len(points) - below)

    def rate(v_here, e, factor, at):
        """v' = (b0/d)**(1/(alpha-1)) from the delay ODE, d = r*v minus the
        block term factor*(v - e)**(1-alpha), v(x - delta_block) = e, for a
        stage at x = at, which the two errors name."""
        if blocks:
            gap = v_here - e
            if gap <= 0.0:
                raise ArithmeticError(no_rise.format(at))
            d = r * v_here - factor * gap ** ma
        else:
            d = r * v_here
        if d <= 0.0:
            raise ArithmeticError(blow_up.format(at))
        return (b0 / d) ** ia1

    def node_rate(i):
        """v' at node i from the stored values, raising as :func:`rate`."""
        x = x_list[i]
        return rate(v[i], v[i - lag] if i >= lag else 0.0,
                    b1 * (x ** a if x < dblk else dblk_a), x)

    def marginal(i):
        """v' at node i, inf where the equation has none: for the nodes the
        march does not step from."""
        try:
            return node_rate(i)
        except ArithmeticError:  # overflow among them
            return math.inf

    def stage(us, e, f, derive):
        """u' = k and v' = w at the stage points u of a block (arrays), dk/du
        where ``derive``, and the gaps and d, which must be positive.  k is
        alpha/(alpha-1) u**(1/alpha) w, as the loop forms it (the equal
        w u/v drifts from the loop by ulps that add up along a block), and
        dk/du = w/(alpha-1) t (e - alpha v)/(v gap d), with v = u**p and
        t = f*gap**(1-alpha) the block term."""
        vs = us ** p
        d = r * vs
        if not blocks:
            w = (b0 / d) ** ia1
            return ka * us ** ia * w, np.zeros_like(us) if derive else None, w, (d,)
        gap = vs - e
        term = f * gap ** ma
        d -= term
        w = (b0 / d) ** ia1
        dk = ia1 * w * term * (e - a * vs) / (vs * gap * d) if derive else None
        return ka * us ** ia * w, dk, w, (gap, d)

    u_line = _series(params)[0]  # the block-free u'
    dv = [marginal(i) for i in range(seed_idx)]
    lists = (u, du, v, dv)
    # the lists' values as arrays, as far as a Newton block has read them
    arrays = [np.empty(0)] * 4

    def as_array(q):
        """lists[q] as an array, converting only the values added since."""
        if len(arrays[q]) < len(lists[q]):
            arrays[q] = np.concatenate((arrays[q], lists[q][len(arrays[q]):]))
        return arrays[q]

    def newton_block(s, t):
        """Solve the cells from node s to node t, in one delay block, as one
        Newton chain and store their nodes; False, with nothing stored,
        where the loop must march them instead."""
        try:
            w_s = node_rate(s)
            k_s = ka * u[s] ** ia * w_s  # the last cell's midpoint reads it
        except ArithmeticError:
            return False
        with np.errstate(all="ignore"):  # inf and nan fall back to the loop
            if s >= lag:
                lo_hi, ends = as_array(0)[s - lag:t - lag + 1], as_array(2)[s - lag:t - lag + 1]
                slopes = np.append(as_array(1)[s - lag:s], k_s)[:t - s + 1]
                lo, hi = lo_hi[:-1], lo_hi[1:]
                mid = 0.5 * (lo + hi) + h8 * (slopes[:-1] - slopes[1:])
                e0, em, e1 = ends[:-1], np.clip(mid, lo, hi) ** p, ends[1:]
            else:
                e0 = em = e1 = 0.0
            x = xs[s:t]
            fn, fm, fe = (b1 * np.minimum(pts, dblk) ** a for pts in (x, x + hh, x + h))
            chain = u[s] + u_line * (xs[s:t + 1] - xs[s])
            size = math.inf
            for _ in range(_BLOCK_STEPS):
                derive = size > _SLOPE_RTOL
                un = chain[:-1]
                k1, j1, w1, c1 = stage(un, e0, fn, derive)
                k2, j2, _, c2 = stage(un + hh * k1, em, fm, derive)
                k3, j3, _, c3 = stage(un + hh * k2, em, fm, derive)
                k4, j4, _, c4 = stage(un + h * k3, e1, fe, derive)
                resid = un + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4) - chain[1:]
                # as no Phi_i' passes 1 and u rises, a node strays from the
                # loop's by about the summed relative residual before it
                size = np.sum(np.abs(resid) / chain[1:])
                if not size < math.inf:
                    return False
                if size <= _BLOCK_RTOL:
                    if min(c.min() for c in c1 + c2 + c3 + c4) <= 0.0:
                        return False  # the gap > 0 or d > 0 check fails
                    k1[0], w1[0] = k_s, w_s  # node s's, as the loop forms them
                    for q, new in enumerate((chain[1:], k1, chain[1:] ** p, w1)):
                        arrays[q] = np.concatenate((as_array(q), new))
                        lists[q].extend(new.tolist())
                    return True
                if derive:  # Phi_i' by the chain rule through the stages
                    j2 *= 1.0 + hh * j1
                    j3 *= 1.0 + hh * j2
                    j4 *= 1.0 + h * j3
                    slope = 1.0 + h6 * (j1 + 2.0 * j2 + 2.0 * j3 + j4)
                chain[1:] += _bidiagonal_solve(slope, resid)
        return False

    # the march's segments: the whole lattice where blocks are short, else
    # one segment a delay block; a segment inside one block with
    # _NEWTON_CELLS cells or more is tried as a chain first
    cuts = range((seed_idx // lag + 1) * lag, n_nodes - 1, lag) if lag >= _NEWTON_CELLS else ()
    bounds = [seed_idx, *cuts, n_nodes - 1]
    f_node = None  # the loop's block factors, formed when it first runs
    for start, end in zip(bounds, bounds[1:]):
        if _NEWTON_CELLS <= end - start <= lag and newton_block(start, end):
            continue
        if f_node is None:  # without a block venue rate() reads no factor
            f_node, f_mid, f_end = ((block_factors(xs), block_factors(xs + hh),
                                     block_factors(xs + h)) if blocks else ([0.0] * n_nodes,) * 3)
        try:
            for i in range(start, end):
                x, ui = x_list[i], u[i]
                # the step reads v(x - delta_block) on cell j: its two nodes and
                # its midpoint; ahead of the first knot, 0
                j = i - lag
                if j < 0:
                    e0 = em = e1 = 0.0
                else:
                    e0, e1 = v[j], v[j + 1]
                # the first stage's rate is v' at the node
                w1 = rate(v[i], e0, f_node[i], x)
                k1 = ka * ui ** ia * w1
                du.append(k1)  # the slope at node i, which lag = 1 reads below
                if j >= 0:
                    lo, hi = u[j], u[j + 1]
                    m = 0.5 * (lo + hi) + h8 * (du[j] - du[j + 1])
                    # min(max(m, lo), hi), as u rises along the lattice, by one
                    # conditional rather than two builtin calls, which cost more.
                    # No config is known to reach hi: the cell rose by
                    # (h/6)(k1 + 2 k2 + 2 k3 + k4) from k1 = du[j], so m > hi
                    # needs du[j + 1] < du[j]/3 - (2/3)(2 k2 + 2 k3 + k4), while
                    # along a cell the block factor and the delayed value only
                    # grow, which raises u' at a given u.  The correction stayed
                    # within 0.32 of the cell's half-rise on 170 000 random and
                    # hill-climbed configs and on 1 800 at the edge of blow-up.
                    em = (lo if m < lo else hi if m > hi else m) ** p
                u2 = ui + hh * k1
                k2 = ka * u2 ** ia * rate(u2 ** p, em, f_mid[i], x + hh)
                u3 = ui + hh * k2
                k3 = ka * u3 ** ia * rate(u3 ** p, em, f_mid[i], x + hh)
                u4 = ui + h * k3
                k4 = ka * u4 ** ia * rate(u4 ** p, e1, f_end[i], x + h)
                ui = ui + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                u.append(ui)
                v.append(ui ** p)
                dv.append(w1)
        except OverflowError:  # a Python float pow past 1e308, where NumPy's is inf
            raise ArithmeticError(f"delay ODE blow-up at x = {x}") from None
    dv.append(marginal(n_nodes - 1))
    v_out = as_array(2)
    bad = np.flatnonzero(~np.isfinite(v_out))
    if bad.size:
        # the march runs on through inf and nan without raising
        raise ArithmeticError(f"delay ODE blow-up at x = {x_list[bad[0]]}")
    return xs, v_out, as_array(3)


def two_exchange_patch(params: TwoExchangeParams) -> TwoExchangeSolution:
    """Stationary two-exchange value by successive patching.

    The delay ODE is rearranged for v'(x) and marched once, a delay block at
    a time (:func:`_patch_integrate`), from its series at 0, where v'(0) is
    infinite, over a seed that keeps the two terms the series drops within
    1e-6 of v (:func:`_seed_width`).  The continuous spread is
    alpha/(alpha-1) v' from the march, the block spread alpha/(alpha-1)
    (v(x) - v(x - delta_block))/min(x, delta_block) from the node values.
    Concavity is NOT asserted: it genuinely fails near the block-size knots.
    """
    x_seed = _seed_width(params)
    xs, v, dv = _patch_integrate(params, x_seed)
    ka = params.alpha / (params.alpha - 1.0)
    lag = int(round(params.delta_block / params.grid_step))
    # v(x - delta_block): the node lag places back past the first knot, else 0
    delayed = np.concatenate((np.zeros(lag + 1), v[1:]))[:len(v)]
    s1 = np.full(len(v), math.inf)
    s1[1:] = ka * (v - delayed)[1:] / np.minimum(xs[1:], params.delta_block)
    return TwoExchangeSolution(params=params, x_grid=xs, value=v, spread_continuous=ka * dv,
                               spread_block=s1, x_seed=x_seed)


_CELLS_PER_BLOCK = 512
# halvings of a cell that starts at the integrand's kink; what they leave
# out is 2**-60 of the cell
_GRADED_LEVELS = 60


def _cell_integrals(f, lo, hi, kink):
    """Integrals of f over the cells [lo, hi] by the 8-point Gauss-Legendre
    rule, in blocks of cells.  f is bounded but not smooth at ``kink``, so a
    cell that starts there is split geometrically toward it, each piece half
    the width of the next, and the rule runs on every piece; its nodes are
    clamped to at least the piece's left end, which rounding can undercut."""
    graded = lo == kink
    # piece k of a graded cell: lo + (hi - lo) * [2**-(k+1), 2**-k]
    scale = 0.5 ** np.arange(_GRADED_LEVELS + 1)
    edges = lo[graded, None] + (hi - lo)[graded, None] * scale
    left = np.concatenate((lo[~graded], edges[:, 1:].ravel()))
    right = np.concatenate((hi[~graded], edges[:, :-1].ravel()))
    pieces = np.empty(len(left))
    for b in range(0, len(left), _CELLS_PER_BLOCK):
        l, r = left[b:b + _CELLS_PER_BLOCK], right[b:b + _CELLS_PER_BLOCK]
        mid, half = 0.5 * (l + r), 0.5 * (r - l)
        acc = np.zeros(len(l))
        for t, wt in zip(GAUSS_NODES, GAUSS_WEIGHTS):
            acc += wt * f(np.maximum(mid + half * t, l))
        pieces[b:b + _CELLS_PER_BLOCK] = half * acc
    out = np.empty(len(lo))
    n_smooth = len(lo) - int(graded.sum())
    out[~graded] = pieces[:n_smooth]
    out[graded] = pieces[n_smooth:].reshape(-1, _GRADED_LEVELS).sum(axis=1)
    return out


@dataclass(frozen=True)
class ExpansionSolution:
    """First-order small-block-venue expansion v ~ v0 + eps*v1.

    Above one block size v1 needs the integral of a tail integrand from
    delta_block to x.  It is read off one uniform mesh of width
    delta_block/64 starting at delta_block: a cumulative sum of cell
    integrals up to the last mesh point below x, plus one more cell up to x,
    each by the 8-point Gauss-Legendre rule.  The integrand's
    (y - delta_block)**p term is not smooth at delta_block, so a cell that
    starts there is graded toward it (see :func:`_cell_integrals`).  A value
    at x depends on x alone, not on the other points queried with it.
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
        # with lambda1 = 0 the correction is 0, where the tail integrand
        # would form 0*inf once gap**(1-alpha) overflows
        if len(tail) and k:
            def integrand(y):
                gap = y ** p - (y - dblk) ** p
                return k * dblk ** a * gap ** (1.0 - a) * y ** (1.0 / a - 1.0) / (a * r)

            xt = flat[tail]
            w = dblk / 64.0
            cell = np.floor((xt - dblk) / w).astype(int)
            mesh = dblk + w * np.arange(int(cell.max()) + 1)
            # prefix[j]: the integral from delta_block to mesh[j]
            prefix = np.concatenate(
                ([0.0], np.cumsum(_cell_integrals(integrand, mesh[:-1], mesh[1:], dblk))))
            integral = prefix[cell] + _cell_integrals(integrand, mesh[cell], xt, dblk)
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
