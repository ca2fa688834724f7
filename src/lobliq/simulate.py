"""Monte Carlo simulation of the controlled inventory process.

Fill times are sampled exactly by inverting the integrated hazard: in closed
form for the power-law optimal policies (whose fill rate factors as a level
constant times a time profile that diverges at maturity, guaranteeing full
liquidation), as plain exponential clocks for stationary policies, and by
quadrature plus root solving (or thinning with a piecewise bound) for
generic time-dependent policies.

Paths are simulated in fixed-size blocks.  Block b draws one matrix of
standard exponentials, row by row, from a stream keyed on (seed, b), and
every live path of the block advances one fill per NumPy step.  A path's
draws therefore depend only on the seed, its index and the unit count,
never on the ensemble size; ``threads`` only partitions the block range and
changes neither the results nor the speed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from .cases import (
    ConstantSpreadPolicy,
    OptimalPowerPolicy,
    SpreadPolicy,
    StationarySpreadPolicy,
    TimeDependentPolicy,
    ZeroRatePowerPolicy,
    resolve,
)
from .fluid import fluid_solution
from .intensity import IntensityModel, MarketParams, UnsupportedCaseError
from .numerics import NonFiniteStateError

__all__ = [
    "SimPath",
    "EnsembleStats",
    "ExecutionCurve",
    "ConstantSpreadPolicy",
    "StationarySpreadPolicy",
    "TimeDependentPolicy",
    "OptimalPowerPolicy",
    "ZeroRatePowerPolicy",
    "optimal_policy",
    "fluid_spread_policy",
    "simulate_policy",
    "constant_policy_value",
    "evaluate_fluid_policy_exact",
    "execution_curve_ode",
]

# paths per random-stream block; results never depend on it beyond the
# stream layout, so it is not a setting
_BLOCK_PATHS = 8192


def optimal_policy(model: IntensityModel, market: MarketParams, delta: float,
                   n_max: int) -> SpreadPolicy:
    """The optimal feedback policy for any closed-form model/market pair."""
    return resolve(model, market).policy(delta, n_max)


def fluid_spread_policy(model: IntensityModel, market: MarketParams, delta: float,
                        n_max: int) -> StationarySpreadPolicy:
    """Stationary policy that posts the fluid-limit spread at x = n*delta."""
    if not market.infinite_horizon:
        raise UnsupportedCaseError("the fluid spread policy is stationary; use an "
                                   "infinite horizon")
    fl = fluid_solution(model, market)
    spreads = np.full(n_max + 1, math.nan)
    for n in range(1, n_max + 1):
        spreads[n] = fl.spread(n * delta)
    return StationarySpreadPolicy(spreads=spreads)


# --------------------------------------------------------------------------
# fill-time samplers: (level, t0, draws) -> fill times, one per live path.
# ``draws`` holds each path's standard exponential for this level (its
# generator, for thinning).  NaN or a time past the horizon means no fill.


def _stationary_sampler(model, policy, delta):
    def sample(level, t0, e):
        return t0 + e / (model.rate(policy.spread(level, math.inf)) / delta)

    return sample


def _per_path(fill_time):
    """Lift a scalar ``(level, t0, draw) -> time`` sampler to the array form."""
    def sample(level, t0, draws):
        return np.array([fill_time(level, t, d)
                         for t, d in zip(t0.tolist(), draws.tolist())], dtype=float)

    return sample


def _inversion_sampler(model, policy, delta, horizon):
    """Exact inversion of a numerically integrated hazard."""
    def fill_time(level, t0, e):
        def hazard(u):
            return model.rate(policy.spread(level, horizon - u)) / delta

        def cumulative(t):
            if t <= t0:
                return 0.0
            # the hazard may be near-singular at maturity; quad complains but
            # still resolves the root to sampling accuracy
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                val, _ = quad(hazard, t0, t, epsabs=1e-12, epsrel=1e-10, limit=200)
            return val

        t_hi = horizon - max(1e-12 * horizon, 1e-15)
        if t_hi <= t0 or cumulative(t_hi) < e:
            return math.nan
        return brentq(lambda t: cumulative(t) - e, t0, t_hi,
                      xtol=1e-14 * horizon, rtol=8.882e-16, maxiter=200)

    return _per_path(fill_time)


def _thinning_sampler(model, policy, delta, horizon, cells: int = 64):
    """Rejection sampling under a piecewise-constant hazard bound.

    Usable only when the hazard stays bounded on [0, T); a divergence probe
    near maturity rejects policies (like the power-law optimum) whose fill
    rate blows up there, since no finite envelope covers the last cell.
    Envelope proposals restart at each cell boundary, which is exact by
    memorylessness.  Each path consumes a variable number of draws from its
    own generator.
    """
    def fill_time(level, t0, rng):
        def hazard(u):
            return model.rate(policy.spread(level, horizon - u)) / delta

        span = horizon - t0
        if span <= 0.0:
            return math.nan
        near, nearer = hazard(horizon - 1e-2 * span), hazard(horizon - 1e-8 * span)
        if not math.isfinite(nearer) or nearer > 100.0 * max(near, 1e-300):
            raise ArithmeticError("hazard is unbounded near maturity; "
                                  "use inversion sampling instead")

        edges = np.linspace(t0, horizon, cells + 1)
        for i in range(cells):
            lo, hi = edges[i], edges[i + 1]
            probes = (hazard(lo), hazard(0.5 * (lo + hi)),
                      hazard(max(hi - 1e-12 * (hi - lo), lo)))
            bound = 1.5 * max(probes)
            t = lo
            while True:
                t += rng.exponential() / bound
                if t >= hi:
                    break  # redraw from the boundary with the next cell's bound
                ratio = hazard(t) / bound
                if ratio > 1.0 + 1e-9:
                    raise ArithmeticError(f"hazard bound violated at t = {t}")
                if rng.uniform() <= ratio:
                    return t
        return math.nan

    return _per_path(fill_time)


def _pick_sampler(model, policy, delta, market, method):
    horizon = market.horizon
    if method == "auto":
        closed_form = policy.sampler(horizon)
        if closed_form is not None:
            return closed_form
        if policy.time_homogeneous:
            return _stationary_sampler(model, policy, delta)
        return _inversion_sampler(model, policy, delta, horizon)
    if method in ("inversion", "thinning") and market.infinite_horizon:
        raise UnsupportedCaseError(f"sampling method {method!r} needs a finite horizon")
    if method == "inversion":
        return _inversion_sampler(model, policy, delta, horizon)
    if method == "thinning":
        return _thinning_sampler(model, policy, delta, horizon)
    raise ValueError(f"unknown sampling method {method!r}")


# --------------------------------------------------------------------------
# ensemble simulation


@dataclass(frozen=True)
class SimPath:
    path_id: int
    fill_times: np.ndarray
    fill_spreads: np.ndarray
    discounted_revenue: float
    fully_liquidated: bool
    terminal_inventory: float


@dataclass(frozen=True)
class EnsembleStats:
    n_paths: int
    mean_revenue: float
    std_error: float
    liquidation_fraction: float
    curve_times: Optional[np.ndarray] = None
    mean_inventory_curve: Optional[np.ndarray] = None
    curve_std_error: Optional[np.ndarray] = None


def _stream(seed: int, key: int) -> np.random.Generator:
    # spawn-key derivation: streams are independent of execution order
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def simulate_policy(model: IntensityModel, market: MarketParams, n_units: int,
                    delta: float, policy: SpreadPolicy, n_paths: int, seed: int,
                    *, threads: int = 1, curve_times=None, keep_paths: bool = False,
                    method: str = "auto"):
    """Simulate the controlled death process under ``policy``.

    Returns :class:`EnsembleStats` (and the per-path records when
    ``keep_paths``).  The sample mean of discounted revenue is an unbiased
    estimate of the policy's value; one unit ``delta`` is sold per fill at
    the spread posted at that instant.  ``threads`` splits the path blocks
    into that many contiguous groups; the results are the same for any value.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if n_units < 0:
        raise ValueError("n_units must be >= 0")
    horizon = market.horizon
    r = market.r
    sample = _pick_sampler(model, policy, delta, market, method)

    revenues = np.zeros(n_paths)
    emptied = np.zeros(n_paths, dtype=bool)
    ct = unit_sums = None
    if curve_times is not None:
        ct = np.asarray(curve_times, dtype=float)
        # per curve point: sums of the remaining units and of their squares
        unit_sums = np.zeros((2, len(ct)), dtype=np.int64)
    paths: list[SimPath] = []

    def run_block(block):
        lo = block * _BLOCK_PATHS
        m = min(n_paths - lo, _BLOCK_PATHS)
        if method == "thinning":
            # one generator per path, keyed on its index, read at every level
            rngs = np.empty(m, dtype=object)
            for i in range(m):
                rngs[i] = _stream(seed, lo + i)
            draws = np.broadcast_to(rngs[:, None], (m, n_units))
        else:
            # filled row by row, so a path's draws depend on the seed, its
            # index and n_units only, not on how many rows the block holds
            draws = _stream(seed, block).standard_exponential((m, n_units))
        t = np.zeros(m)
        revenue = np.zeros(m)
        fills = np.zeros(m, dtype=np.int64)
        filled_by = None if ct is None else np.zeros((m, len(ct)), dtype=np.int32)
        if keep_paths:
            times = np.full((m, n_units), math.nan)
            spreads = np.full((m, n_units), math.nan)
        live = np.arange(m)
        for j, level in enumerate(range(n_units, 0, -1)):
            if live.size == 0:
                break
            t0 = t[live]
            if not np.all(np.isfinite(policy.spreads_at(level, horizon - t0))):
                raise ArithmeticError(f"non-finite spread at level {level}")
            t_next = sample(level, t0, draws[live, j])
            hit = t_next <= horizon
            live, t0 = live[hit], t0[hit]
            # exact inversion keeps fills in (t0, T]; clamp roundoff so times
            # stay strictly increasing and never exceed T
            t_next = np.clip(t_next[hit], np.nextafter(t0, math.inf), horizon)
            s = policy.spreads_at(level, horizon - t_next)
            t[live] = t_next
            revenue[live] += np.exp(-r * t_next) * s * delta
            fills[live] += 1
            if filled_by is not None:
                filled_by[live] += t_next[:, None] <= ct
            if keep_paths:
                times[live, j] = t_next
                spreads[live, j] = s
        revenues[lo:lo + m] = revenue
        emptied[lo:lo + m] = fills == n_units
        if filled_by is not None:
            left = n_units - filled_by.astype(np.int64)
            unit_sums[0] += left.sum(axis=0)
            unit_sums[1] += (left * left).sum(axis=0)
        if keep_paths:
            for i, k in enumerate(fills.tolist()):
                paths.append(SimPath(
                    path_id=lo + i,
                    fill_times=times[i, :k],
                    fill_spreads=spreads[i, :k],
                    discounted_revenue=float(revenue[i]),
                    fully_liquidated=k == n_units,
                    terminal_inventory=delta * (n_units - k),
                ))

    # each block's draws depend on (seed, block) alone, so any partition of
    # the block range into groups gives the same results
    n_blocks = -(-n_paths // _BLOCK_PATHS)
    for group in np.array_split(np.arange(n_blocks), max(1, int(threads))):
        for block in group.tolist():
            run_block(block)

    mean = float(np.mean(revenues))
    if n_paths > 1:
        se = float(np.std(revenues, ddof=1) / math.sqrt(n_paths))
    else:
        se = math.nan
    stats_kwargs = dict(n_paths=n_paths, mean_revenue=mean, std_error=se,
                        liquidation_fraction=float(np.mean(emptied)))
    if ct is not None:
        s1, s2 = unit_sums.tolist()
        if n_paths > 1:
            # n*S2 - S1**2 in exact integers: no cancellation in the variance
            n_ssd = np.array([n_paths * b - a * a for a, b in zip(s1, s2)], dtype=float)
            curve_se = (delta * np.sqrt(n_ssd / (n_paths * (n_paths - 1)))
                        / math.sqrt(n_paths))
        else:
            curve_se = np.full(len(ct), math.nan)
        stats_kwargs.update(curve_times=ct,
                            mean_inventory_curve=delta * np.array(s1, dtype=float) / n_paths,
                            curve_std_error=curve_se)
    stats = EnsembleStats(**stats_kwargs)
    if keep_paths:
        return stats, paths
    return stats


def constant_policy_value(model: IntensityModel, market: MarketParams,
                          n_units: int, delta: float, spread: float) -> float:
    """Closed-form value of posting one fixed spread forever (r > 0):
    the geometric sum s*delta*(q + ... + q^n) with q = rate/(rate + r*delta)."""
    if not market.infinite_horizon:
        raise ValueError("closed form holds on the infinite horizon")
    rate = model.rate(spread)
    q = rate / (rate + market.r * delta)
    return spread * delta * q * (1.0 - q ** n_units) / (1.0 - q)


def evaluate_fluid_policy_exact(model: IntensityModel, market: MarketParams,
                                n_units: int, delta: float) -> np.ndarray:
    """Value of running the fluid-limit spread inside the discrete problem.

    No Monte Carlo: between fills the spread is constant, so the value
    satisfies Vtilde(x) = q*(s*delta + Vtilde(x - delta)) exactly, with
    s the fluid spread at x and q = rate/(rate + r*delta).  Always a lower
    bound on the optimal discrete value (the policy is suboptimal).
    """
    spreads = fluid_spread_policy(model, market, delta, n_units).spreads.tolist()
    values = np.zeros(n_units + 1)
    for n in range(1, n_units + 1):
        s = spreads[n]
        rate = model.rate(s)
        q = rate / (rate + market.r * delta)
        values[n] = q * (s * delta + values[n - 1])
    return values


# --------------------------------------------------------------------------
# average execution curves (unit trading size)


@dataclass(frozen=True)
class ExecutionCurve:
    times: np.ndarray
    inventory: np.ndarray      # shape (n_units+1, len(times)); row x is E(x, t)
    trading_rate: np.ndarray   # -dE(x0, t)/dt along the top row
    initial_units: int


def _level_rate_fn(model: IntensityModel, market: MarketParams, n_units: int):
    """Per-level fill rates t -> array of rate(s*(k, T-t)) for k = 1..n."""
    return resolve(model, market).level_rates(n_units)


def execution_curve_ode(model: IntensityModel, market: MarketParams, n_units: int,
                        time_grid) -> ExecutionCurve:
    """Average inventory E(x, t) under the optimal policy, unit trading size.

    E(x, t) is the mean inventory at time t of the controlled death process
    started from x units at time 0, and the trading rate is -dE(n, t)/dt.
    Both are exact (``Case.execution_curve``): where the level rates factor
    as b_k * g(t), E(., t) = expm(tau(t) Q) (0, 1, ..., n) with tau the
    integral of g and Q the death generator with rates b_k, summed by
    uniformization; for the exponential book with r = 0 every row is the
    line x - t * h_x(0).  The rate function is called once per grid point.
    Every grid time must lie before a finite horizon, where the power law's
    rates blow up.  Raises NonFiniteStateError if a rate or a result is not
    finite.
    """
    times = np.asarray(time_grid, dtype=float)
    if times.ndim != 1 or len(times) == 0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("time_grid must be a strictly increasing 1-d array")
    if times[0] < 0.0:
        raise ValueError("time_grid must be nonnegative")
    if times[-1] >= market.horizon:
        raise ValueError("time grid must stay below the horizon: the fill rate "
                         "blows up at maturity")
    if n_units < 1:
        raise ValueError("n_units must be >= 1")

    rates = _level_rate_fn(model, market, n_units)
    rate_rows = np.array([rates(t) for t in times])  # (n_times, n_units)
    if not np.all(np.isfinite(rate_rows)):
        raise NonFiniteStateError("non-finite state: a level rate is not finite "
                                  "on the time grid")
    table, trading_rate = resolve(model, market).execution_curve(n_units, times,
                                                                 rate_rows)
    if not (np.all(np.isfinite(table)) and np.all(np.isfinite(trading_rate))):
        raise NonFiniteStateError("non-finite state in the execution curve")
    return ExecutionCurve(times=times, inventory=table,
                          trading_rate=trading_rate, initial_units=n_units)
