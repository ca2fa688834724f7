"""The model/market pairs with explicit solutions, and their optimal policies.

:func:`resolve` maps a (depth model, market) pair to its case object, which
carries that pair's discrete solution, fluid limit, optimal policy and
execution-curve rate profile.  Pairs outside the five cases raise
:class:`UnsupportedCaseError` there, and nowhere else.  Solvers are looked up
on their modules at call time (``discrete.solve_exp_infinite``), so wrappers
installed on those modules see every call made on a case's behalf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import discrete, fluid, numerics
from .discrete import DiscreteSolution
from .fluid import FluidSolution
from .intensity import (
    ExpDecayIntensity,
    IntensityModel,
    MarketParams,
    PowerLawIntensity,
    UnsupportedCaseError,
)

__all__ = [
    "Case",
    "PowerDiscounted",
    "PowerZeroRate",
    "ExpZeroRate",
    "ExpStationary",
    "GenericStationary",
    "resolve",
]


# --------------------------------------------------------------------------
# policies


@dataclass(frozen=True)
class FillClock:
    """The fill process of a policy whose fill rate at level k and time t
    (from the start) factors as ``rate(k) * profile(t)``.

    ``profile`` takes a scalar time; ``tau(t)``, the integral of the profile
    from 0, and ``advance(t0, e, b)``, the time t at which
    b * (tau(t) - tau(t0)) reaches e, work elementwise on arrays.  With e a
    standard exponential draw and b = ``rate(k)``, ``advance`` is the exact
    fill time of a path that reached level k at t0.
    """

    rate: Callable[[int], float]
    profile: Callable[[float], float]
    tau: Callable[[np.ndarray], np.ndarray]
    advance: Callable[[np.ndarray, np.ndarray, float], np.ndarray]


class SpreadPolicy:
    """A feedback rule: spread to post given (inventory units, time to go)."""

    time_homogeneous: bool = False

    def spread(self, n_units: int, t_to_go: float) -> float:
        raise NotImplementedError

    def spreads_at(self, n_units: int, t_to_go: np.ndarray) -> np.ndarray:
        """``spread`` at one level for an array of times to go."""
        if self.time_homogeneous:
            return np.full(t_to_go.shape, self.spread(n_units, math.inf))
        return np.array([self.spread(n_units, t) for t in t_to_go.tolist()], dtype=float)

    def clock(self, model: IntensityModel, delta: float,
              horizon: float) -> Optional[FillClock]:
        """The :class:`FillClock` of this policy's fills of size ``delta``
        on ``model``; None if its fill rate does not factor."""
        if not self.time_homogeneous:
            return None
        return FillClock(rate=lambda k: model.rate(self.spread(k, math.inf)) / delta,
                         profile=lambda t: 1.0, tau=lambda t: t,
                         advance=lambda t0, e, b: t0 + e / b)


@dataclass(frozen=True)
class ConstantSpreadPolicy(SpreadPolicy):
    value: float
    time_homogeneous = True

    def spread(self, n_units, t_to_go):
        return self.value


@dataclass(frozen=True)
class StationarySpreadPolicy(SpreadPolicy):
    """Inventory-only policy; ``spreads[n]`` is the spread posted at level n."""

    spreads: np.ndarray
    time_homogeneous = True

    def spread(self, n_units, t_to_go):
        return float(self.spreads[n_units])


@dataclass(frozen=True)
class TimeDependentPolicy(SpreadPolicy):
    """Wraps an arbitrary (n_units, t_to_go) -> spread closure."""

    fn: Callable[[int, float], float]

    def spread(self, n_units, t_to_go):
        return self.fn(n_units, t_to_go)


@dataclass(frozen=True)
class OptimalPowerPolicy(SpreadPolicy):
    """Markov-optimal spreads for a discounted power-law book.

    The fill rate along this policy factorizes as k_n / (1 - e^(-a*(T-t)))
    with a = alpha*r, so the integrated hazard inverts in closed form; the
    simulator exploits that for exact, vectorized fill times.
    """

    lam: float
    alpha: float
    r: float
    horizon: float
    spread_scales: np.ndarray  # sigma_n, stationary spread per level

    @property
    def time_homogeneous(self) -> bool:  # type: ignore[override]
        return math.isinf(self.horizon)

    def spread(self, n_units, t_to_go):
        t = min(t_to_go, self.horizon)
        return float(self.spread_scales[n_units]) * discrete.horizon_factor(
            t, self.alpha, self.r)

    def spreads_at(self, n_units, t_to_go):
        t = np.minimum(t_to_go, self.horizon)
        factor = (-np.expm1(-self.r * self.alpha * t)) ** (1.0 / self.alpha)
        return float(self.spread_scales[n_units]) * factor

    def clock(self, model, delta, horizon):
        if math.isinf(horizon):
            return super().clock(model, delta, horizon)
        a, T = self.alpha * self.r, horizon

        def tau(t):
            # t + log((1 - e^(-aT)) / (1 - e^(-a(T-t)))) / a, free of the
            # cancellation between the two logs as a -> 0
            return t + np.log1p(np.exp(-a * (T - t)) * np.expm1(-a * t)
                                / np.expm1(-a * (T - t))) / a

        return FillClock(
            rate=lambda k: (self.lam / delta) * float(self.spread_scales[k]) ** (-self.alpha),
            profile=lambda t: 1.0 / -math.expm1(-a * (T - t)), tau=tau,
            advance=lambda t0, e, b: T - np.log1p(np.expm1(a * (T - t0))
                                                  * np.exp(-a * e / b)) / a)


@dataclass(frozen=True)
class ZeroRatePowerPolicy(SpreadPolicy):
    """Optimal spreads for an undiscounted power-law book with horizon T.

    The spread is c_n * (T-t)**(1/alpha), so the fill rate is k_n / (T-t)
    and the integrated hazard from t0 to t is k_n * log((T-t0)/(T-t)).
    """

    lam: float
    alpha: float
    horizon: float
    spread_coefs: np.ndarray  # c_n, spread per unit of (time to go)**(1/alpha)

    def spread(self, n_units, t_to_go):
        return float(self.spread_coefs[n_units]) * t_to_go ** (1.0 / self.alpha)

    spreads_at = spread  # elementwise in t_to_go

    def clock(self, model, delta, horizon):
        T = horizon
        return FillClock(
            rate=lambda k: (self.lam / delta) * float(self.spread_coefs[k]) ** (-self.alpha),
            profile=lambda t: 1.0 / (T - t), tau=lambda t: -np.log1p(-t / T),
            advance=lambda t0, e, b: T - (T - t0) * np.exp(-e / b))


# --------------------------------------------------------------------------
# cases


@dataclass(frozen=True)
class Case:
    """One solvable model/market pair.

    Each case provides ``solve(delta, n_max)``, the per-level values and
    optimal spreads as a :class:`DiscreteSolution`; ``fluid()``, the
    continuous-selling limit as a :class:`FluidSolution`; ``policy(delta,
    n_max)``, the optimal :class:`SpreadPolicy`; ``level_rates(n_units)``,
    the map t -> fill rates of levels 1..n at unit trading size; and
    ``execution_curve``, the exact mean inventory under the optimal policy.

    Every case but the exponential book with r = 0 has an optimal policy
    whose fill rates factor as b_k * g(t) (its :class:`FillClock`), so the
    mean inventory is the pure-death chain with rates b_k run on the clock
    tau(t), the integral of g.
    """

    model: IntensityModel
    market: MarketParams

    def value_and_spread_at(self, n: int, delta: float) -> tuple[float, float]:
        """(value, optimal spread) at level n >= 1 of the delta-unit problem."""
        sol = self.solve(delta, n)
        return float(sol.values[n]), float(sol.spreads[n])

    def liquidation_times(self, sol: DiscreteSolution) -> Optional[np.ndarray]:
        """Expected time to sell each level optimally, where a closed form exists."""
        return None

    def _clock(self, n_units):
        """The fill clock and level constants b_1..b_n at unit trading size."""
        clock = self.policy(1.0, n_units).clock(self.model, 1.0, self.market.horizon)
        return clock, np.array([clock.rate(k) for k in range(1, n_units + 1)])

    def level_rates(self, n_units):
        clock, base = self._clock(n_units)
        return lambda t: base * clock.profile(t)

    def execution_curve(self, n_units: int,
                        times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(E, trading rate): E[x, j] is the mean inventory at ``times[j]``
        starting from x = 0..n units at time 0, and the trading rate is
        -dE(n, t)/dt."""
        clock, base = self._clock(n_units)
        table = numerics.pure_death_mean(base, clock.tau(times))
        top = base[-1] * np.array([clock.profile(t) for t in times.tolist()])
        # -dE(n, t)/dt = b_n g(t) (E(n, t) - E(n-1, t)) when the rates factor
        return table, top * (table[-1] - table[-2])

    def _fluid(self, pair, curve) -> FluidSolution:
        # pair: x -> (value, spread); curve: (t, x0) -> inventory
        return FluidSolution(self.model, self.market, lambda x: pair(x)[0],
                             lambda x: pair(x)[1], curve)


class PowerDiscounted(Case):
    """Power-law book with r > 0, finite or infinite horizon."""

    def _scales(self, delta, n_max):
        """c_0..c_n and the stationary optimal spread of each level (nan at 0)."""
        m, r = self.model, self.market.r
        c = discrete.solve_power_coefficients(m.lam, m.alpha, r, n_max, delta)
        scales = np.full(n_max + 1, math.nan)
        # one scalar pow per level: NumPy's array pow may differ in the last bit
        for n in range(1, n_max + 1):
            scales[n] = discrete.power_spread_scale(n, c, m.lam, m.alpha, r, delta)
        return c, scales

    def solve(self, delta, n_max):
        c, scales = self._scales(delta, n_max)
        factor = discrete.horizon_factor(self.market.horizon, self.model.alpha,
                                         self.market.r)
        return DiscreteSolution(delta=delta, model=self.model, market=self.market,
                                coefficients=c, values=c * factor,
                                spreads=scales * factor)

    def value_and_spread_at(self, n, delta):
        # level n alone: convergence ladders solve tens of thousands of levels
        m, mk = self.model, self.market
        c = discrete.solve_power_coefficients(m.lam, m.alpha, mk.r, n, delta)
        return discrete.power_value_and_spread(n, mk.horizon, c, m.lam, m.alpha,
                                               mk.r, delta)

    def fluid(self):
        m, mk = self.model, self.market
        if mk.infinite_horizon:
            curve = lambda t, x0: x0 * math.exp(-m.alpha * mk.r * t)
        else:
            curve = lambda t, x0: fluid.power_trade_curve(t, x0, mk.horizon, m.alpha, mk.r)
        return self._fluid(
            lambda x: fluid.power_fluid(x, mk.horizon, m.lam, m.alpha, mk.r), curve)

    def policy(self, delta, n_max):
        return OptimalPowerPolicy(lam=self.model.lam, alpha=self.model.alpha,
                                  r=self.market.r, horizon=self.market.horizon,
                                  spread_scales=self._scales(delta, n_max)[1])

    def liquidation_times(self, sol):
        if not self.market.infinite_horizon:
            return None
        lam_eff = self.model.lam * sol.delta ** (self.model.alpha - 1.0)
        return discrete.expected_liquidation_time_discrete(
            sol.coefficients, lam_eff, self.model.alpha, self.market.r)


class PowerZeroRate(Case):
    """Power-law book with r = 0 and a finite horizon."""

    def _spread_coefs(self, delta, n_max):
        """d_0..d_n and the spread per unit of (time to go)**(1/alpha) (nan at 0)."""
        a = self.model.alpha
        d = discrete.solve_power_zero_rate(self.model.lam, a, n_max, delta)
        return d, np.concatenate(([math.nan], (a / (a - 1.0)) * np.diff(d) / delta))

    def solve(self, delta, n_max):
        d, coefs = self._spread_coefs(delta, n_max)
        factor = self.market.horizon ** (1.0 / self.model.alpha)
        return DiscreteSolution(delta=delta, model=self.model, market=self.market,
                                coefficients=d, values=d * factor,
                                spreads=coefs * factor)

    def fluid(self):
        # r -> 0 limit of the discounted solution: the horizon factor becomes
        # T**(1/alpha) and the relative trading rate 1/(T-t), so X(t) = x*(T-t)/T
        a, T = self.model.alpha, self.market.horizon
        scale = self.model.lam ** (1.0 / a)

        def pair(x):
            value = scale * x ** ((a - 1.0) / a) * T ** (1.0 / a)
            return value, math.inf if x == 0.0 else scale * x ** (-1.0 / a) * T ** (1.0 / a)

        def curve(t, x0):
            if not 0.0 <= t < T:
                raise ValueError("requires 0 <= t < horizon")
            return x0 * (T - t) / T

        return self._fluid(pair, curve)

    def policy(self, delta, n_max):
        return ZeroRatePowerPolicy(lam=self.model.lam, alpha=self.model.alpha,
                                   horizon=self.market.horizon,
                                   spread_coefs=self._spread_coefs(delta, n_max)[1])


class ExpZeroRate(Case):
    """Exponential book with r = 0 and a finite horizon."""

    def solve(self, delta, n_max):
        values, spreads = discrete.solve_exp_finite(
            n_max, delta, [self.market.horizon], self.model.lam, self.model.kappa)
        return DiscreteSolution(delta=delta, model=self.model, market=self.market,
                                coefficients=values[:, 0], values=values[:, 0],
                                spreads=spreads[:, 0])

    def fluid(self):
        m, T = self.model, self.market.horizon
        return self._fluid(lambda x: fluid.exp_fluid_finite(x, T, m.lam, m.kappa)[:2],
                           lambda t, x0: fluid.exp_fluid_finite(x0, T, m.lam, m.kappa)[2](t))

    def policy(self, delta, n_max):
        m = self.model

        def exp_spread(n, t_to_go):
            _, spreads = discrete.solve_exp_finite(n, delta, [t_to_go], m.lam, m.kappa)
            return float(spreads[n, 0])

        return TimeDependentPolicy(exp_spread)

    def level_rates(self, n_units):
        T, lam = self.market.horizon, self.model.lam

        def rates(t):
            # with delta = kappa = 1 the values are log S_k, S_k the truncated
            # exponential series in lam (T-t)/e; rate(s*(k)) = (lam/e) S_{k-1}/S_k
            log_sums = discrete.solve_exp_finite(n_units, 1.0, [T - t], lam, 1.0)[0][:, 0]
            return (lam / math.e) * np.exp(log_sums[:-1] - log_sums[1:])

        return rates

    def execution_curve(self, n_units, times):
        # The rates do not factor, but with y = lam (T-t)/e and S_k the
        # truncated exponential series, P(X_t = j | x) = (lam t/e)^(x-j)/(x-j)!
        # * S_j(y_t)/S_x(y_0), so the expected fill rate stays at h_x(0) =
        # (lam/e) S_{x-1}(y_0)/S_x(y_0) and every row is the line x - t h_x(0).
        h0 = np.concatenate(([0.0], self.level_rates(n_units)(0.0)))
        table = np.arange(n_units + 1.0)[:, None] - h0[:, None] * times
        return table, np.full(len(times), h0[-1])


class ExpStationary(Case):
    """Exponential book with r > 0 on the infinite horizon."""

    def _table(self, delta, n_max):
        """Stationary values and optimal spreads of levels 0..n_max."""
        return discrete.solve_exp_infinite(n_max * delta, delta, self.model.lam,
                                           self.model.kappa, self.market.r)

    def solve(self, delta, n_max):
        values, spreads = self._table(delta, n_max)
        return DiscreteSolution(delta=delta, model=self.model, market=self.market,
                                coefficients=values, values=values, spreads=spreads)

    def fluid(self):
        m, r = self.model, self.market.r
        return self._fluid(lambda x: fluid.exp_fluid_infinite(x, m.lam, m.kappa, r),
                           lambda t, x0: fluid.exp_trade_curve(t, x0, m.lam, m.kappa, r))

    def policy(self, delta, n_max):
        return StationarySpreadPolicy(spreads=self._table(delta, n_max)[1])


class GenericStationary(Case):
    """Any other depth model on the infinite horizon."""

    def solve(self, delta, n_max):
        return discrete.solve_generic_stationary(self.model, delta, self.market.r, n_max)

    def fluid(self):
        raise UnsupportedCaseError("no closed-form fluid solution for generic depth models")

    def policy(self, delta, n_max):
        return StationarySpreadPolicy(spreads=self.solve(delta, n_max).spreads)


def resolve(model: IntensityModel, market: MarketParams) -> Case:
    """The case object of a model/market pair.

    ``MarketParams`` rejects r = 0 on the infinite horizon, so r = 0 here
    always comes with a finite horizon.
    """
    if isinstance(model, PowerLawIntensity):
        if market.r > 0.0:
            return PowerDiscounted(model, market)
        return PowerZeroRate(model, market)
    if isinstance(model, ExpDecayIntensity):
        if market.r == 0.0:
            return ExpZeroRate(model, market)
        if market.infinite_horizon:
            return ExpStationary(model, market)
        raise UnsupportedCaseError("no explicit solution for an exponential book with "
                                   "r > 0 and a finite horizon")
    if market.infinite_horizon:
        return GenericStationary(model, market)
    raise UnsupportedCaseError("generic depth models are solved on the infinite "
                               "horizon only")
