"""The model/market pairs with explicit solutions, and their optimal policies.

:func:`resolve` maps a (depth model, market) pair to its case object, which
carries that pair's discrete solution, fluid limit, optimal policy and
execution-curve rate profile.  The three cases are the power-law book at any
r and horizon and the exponential book with r = 0 and with r > 0 on the
infinite horizon.  Other pairs raise :class:`UnsupportedCaseError` there, and
nowhere else.  Solvers are looked up on their modules at call time
(``discrete.solve_exp_infinite``), so wrappers installed on those modules see
every call made on a case's behalf.

A policy is a spread as a function of the level and the time to go: a
stationary table over the levels (:class:`StationarySpreadPolicy`) or one of
the two time-dependent optima (:class:`OptimalPowerPolicy`,
:class:`ExpZeroRatePolicy`).  Each defines ``spreads_at(level, t_to_go)``,
elementwise over an array of times to go, and ``clock(model, delta,
horizon)``, the :class:`FillClock` of its fills.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    "FillClock",
    "FactorClock",
    "StationarySpreadPolicy",
    "OptimalPowerPolicy",
    "ExpZeroRatePolicy",
    "Case",
    "PowerLaw",
    "ExpZeroRate",
    "ExpStationary",
    "resolve",
]


# --------------------------------------------------------------------------
# policies


@dataclass(frozen=True)
class FillClock:
    """When a policy's fills arrive.

    ``advance(k, t0, e)`` is the exact fill time of each path that reached
    level k at the times t0 (an array), given its standard exponential draw
    e: the time at which the integrated fill rate from t0 reaches e.  NaN,
    inf (e/0 from a rate of 0) or a time past the horizon means no fill.
    """

    advance: Callable[[int, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FactorClock(FillClock):
    """A fill clock whose rate at level k and time t (from the start) factors
    as ``rate(k) * profile(t)``.

    ``profile`` takes a scalar time; ``tau(t)``, the integral of the profile
    from 0, works elementwise on arrays.
    """

    rate: Callable[[int], float]
    profile: Callable[[float], float]
    tau: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class StationarySpreadPolicy:
    """Inventory-only policy; ``spreads[n]`` is the spread posted at level n."""

    spreads: np.ndarray

    def spreads_at(self, n_units: int, t_to_go: np.ndarray) -> np.ndarray:
        """The spread posted at level ``n_units`` for each time to go."""
        return np.full(t_to_go.shape, float(self.spreads[n_units]))

    def clock(self, model: IntensityModel, delta: float, horizon: float) -> FactorClock:
        """The :class:`FillClock` of this policy's fills of size ``delta``
        on ``model``: a constant rate per level."""
        rate = lambda k: model.rate(float(self.spreads[k])) / delta
        return FactorClock(rate=rate, profile=lambda t: 1.0, tau=lambda t: t,
                           advance=lambda k, t0, e: t0 + e / rate(k))


@dataclass(frozen=True)
class OptimalPowerPolicy:
    """Markov-optimal spreads for a power-law book, any r >= 0.

    The spread at level n with time tau to go is sigma_n h(tau)**(1/alpha)
    (``discrete.discount_integral``, a = alpha*r), so the fill rate factors as
    b_n / h(T-t), b_n = (lam/delta) sigma_n**(-alpha), and the integrated
    hazard inverts in closed form (``discrete.power_fill_time``).
    """

    lam: float
    alpha: float
    r: float
    horizon: float
    spread_scales: np.ndarray  # sigma_n, spread per unit of h(tau)**(1/alpha)

    def spreads_at(self, n_units, t_to_go):
        return float(self.spread_scales[n_units]) * discrete.power_time_factor(
            np.minimum(t_to_go, self.horizon), self.alpha, self.r)

    def clock(self, model, delta, horizon):
        a, T = self.alpha * self.r, horizon
        h = lambda tau: discrete.discount_integral(tau, a)
        rate = lambda k: (self.lam / delta) * float(self.spread_scales[k]) ** (-self.alpha)
        return FactorClock(
            rate=rate, profile=lambda t: 1.0 / h(T - t),
            # log(H(T)/H(T-t)) with H(s) = e^(a s) h(s), free of cancellation
            # between the two logs; a*t on the infinite horizon
            tau=lambda t: a * t - np.log1p(-np.exp(-a * (T - t)) * h(t) / h(T)),
            advance=lambda k, t0, e: discrete.power_fill_time(t0, e / rate(k), a, T))


@dataclass(frozen=True)
class ExpZeroRatePolicy:
    """Optimal spreads for an undiscounted exponential book with horizon T.

    With y = lam (T-t)/(delta e) and L_k = log S_k, S_k the exponential
    series truncated after y**k/k!, the spread at level k is
    (1 + L_k - L_{k-1})/kappa and the fill rate (lam/(delta e)) S_{k-1}/S_k
    is -dL_k(y(t))/dt, since S_k' = S_{k-1}.  The rate does not factor, but
    the integrated hazard from t0 to t is L_k(y(t0)) - L_k(y(t)), which
    ``discrete.exp_hazard_drop`` inverts.
    """

    lam: float
    kappa: float
    delta: float

    def spreads_at(self, n_units, t_to_go):
        return discrete.solve_exp_finite(n_units, self.delta, t_to_go, self.lam,
                                         self.kappa)[1][n_units]

    def clock(self, model, delta, horizon):
        T, units = horizon, delta / self.delta

        def advance(k, t0, e):
            # y as in discrete.solve_exp_finite; with fills of size delta the
            # hazard is L_k(y(t0)) - L_k(y(t)) times self.delta/delta
            y0 = self.lam * (T - t0) / (self.delta * math.e)
            drop = discrete.exp_hazard_drop(k, y0, e * units)
            return np.clip(t0 + drop * (self.delta * math.e) / self.lam,
                           np.nextafter(t0, math.inf), T)

        return FillClock(advance=advance)


# --------------------------------------------------------------------------
# cases


def _each_time(curve: Callable[[float, float], float]):
    """A trade curve (t, x0) -> inventory at one time t, made to take an
    array of times as well, point by point."""
    def at(t, x0):
        if np.ndim(t) == 0:
            return curve(t, x0)
        return np.array([curve(u, x0) for u in np.ravel(t).tolist()])
    return at


@dataclass(frozen=True)
class Case:
    """One solvable model/market pair.

    Each case provides ``solve(delta, n_max)``, the per-level values and
    optimal spreads as a :class:`DiscreteSolution`; ``fluid()``, the
    continuous-selling limit as a :class:`FluidSolution`; ``policy(delta,
    n_max)``, the optimal policy; ``execution_curve``, the exact mean
    inventory under the optimal policy; ``fluid_cell_spread(x, delta)``, the
    fluid spread averaged over the cell [x - delta, x], from the drop of the
    fluid value across it; and ``fluid_probe``, the fluid value and spread at
    x with those cell averages along a ladder of units.

    Every case but the exponential book with r = 0 has an optimal policy
    whose fill rates factor as b_k * g(t) (its :class:`FactorClock`), so the
    mean inventory is the pure-death chain with rates b_k run on the clock
    tau(t), the integral of g.
    """

    model: IntensityModel
    market: MarketParams

    def value_and_spread_at(self, n: int, delta: float) -> tuple[float, float]:
        """(value, optimal spread) at level n >= 1 of the delta-unit problem."""
        sol = self.solve(delta, n)
        return float(sol.values[n]), float(sol.spreads[n])

    def ladder(self, levels, deltas) -> tuple[np.ndarray, np.ndarray]:
        """(values, optimal spreads): at ``levels[i]`` of the
        ``deltas[i]``-unit problem for each rung i, one solve a rung."""
        values, spreads = np.array([self.value_and_spread_at(n, d)
                                    for n, d in zip(levels, deltas)]).T
        return values, spreads

    def fluid_probe(self, x: float, deltas) -> tuple[float, float, np.ndarray]:
        """(fluid value, fluid spread, cell averages): at inventory x, with
        ``fluid_cell_spread(x, d)`` for each unit d in ``deltas``."""
        value, spread = self.fluid().value_and_spread(x)
        return value, spread, np.array([self.fluid_cell_spread(x, float(d))
                                        for d in deltas])

    def _clock(self, n_units):
        """The fill clock and level constants b_1..b_n at unit trading size."""
        clock = self.policy(1.0, n_units).clock(self.model, 1.0, self.market.horizon)
        return clock, np.array([clock.rate(k) for k in range(1, n_units + 1)])

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


class PowerLaw(Case):
    """Power-law book, any r >= 0 and any horizon.

    The coefficients d_n solve a recursion free of r
    (``discrete.solve_power_zero_rate``), and r and the horizon enter through
    one time factor, h(T)**(1/alpha) (``discrete.power_time_factor``): the
    value at level n is d_n times it, and the optimal spread sigma_n =
    (lam/d_n)**(1/(alpha-1)) times it.
    """

    def _levels(self, delta, n_max):
        """d_0..d_n and sigma_1..sigma_n (nan at 0)."""
        m = self.model
        d = discrete.solve_power_zero_rate(m.lam, m.alpha, n_max, delta)
        sigma = np.full(n_max + 1, math.nan)
        sigma[1:] = (m.lam / d[1:]) ** (1.0 / (m.alpha - 1.0))
        return d, sigma

    def solve(self, delta, n_max):
        d, sigma = self._levels(delta, n_max)
        m, mk = self.model, self.market
        factor = discrete.power_time_factor(mk.horizon, m.alpha, mk.r)
        times = None
        if mk.infinite_horizon:
            # level n waits delta/rate(s_n) at its stationary spread s_n =
            # sigma_n (alpha*r)**(-1/alpha): one pow of lam/d_n a level
            waits = (delta / (m.alpha * mk.r * m.lam)
                     * (m.lam / d[1:]) ** (m.alpha / (m.alpha - 1.0)))
            times = np.concatenate(([0.0], np.cumsum(waits)))
        return DiscreteSolution(
            delta=delta, coefficients=d * discrete.power_coefficient_factor(m.alpha, mk.r),
            values=d * factor, spreads=sigma * factor, liquidation_times=times)

    def fluid(self):
        m, mk = self.model, self.market
        return FluidSolution(
            lambda x: fluid.power_fluid(x, mk.horizon, m.lam, m.alpha, mk.r),
            _each_time(lambda t, x0: fluid.power_trade_curve(t, x0, mk.horizon,
                                                             m.alpha, mk.r)))

    def fluid_cell_spread(self, x, delta):
        # the fluid value is proportional to x**p, p = (alpha-1)/alpha, and the
        # spread is v'(x)/p, so the cell average is (v(x) - v(x-delta))/(p*delta)
        p = (self.model.alpha - 1.0) / self.model.alpha
        drop = 1.0 if delta >= x else -math.expm1(p * math.log1p(-delta / x))
        return self.fluid().value(x) * drop / (p * delta)

    def policy(self, delta, n_max):
        return OptimalPowerPolicy(lam=self.model.lam, alpha=self.model.alpha,
                                  r=self.market.r, horizon=self.market.horizon,
                                  spread_scales=self._levels(delta, n_max)[1])

    def ladder(self, levels, deltas):
        # the unit enters d_n only through d_1 = b**(1/alpha), so d_n/d_1 is
        # one sequence for every unit: the finest rung's recursion gives each
        # rung's d_n as the finest d_n scaled by the ratio of the two d_1,
        # and the finest rung itself bit for bit (the ratio is 1)
        m, mk = self.model, self.market
        fine = int(np.argmax(levels))
        d = self._levels(deltas[fine], levels[fine])[0]
        d1 = np.array([discrete.power_first_coefficient(m.lam, m.alpha, dl)
                       for dl in deltas])
        dn = d[levels] * (d1 / d[1])
        factor = discrete.power_time_factor(mk.horizon, m.alpha, mk.r)
        return dn * factor, (m.lam / dn) ** (1.0 / (m.alpha - 1.0)) * factor


class ExpZeroRate(Case):
    """Exponential book with r = 0 and a finite horizon."""

    def solve(self, delta, n_max):
        values, spreads = discrete.solve_exp_finite(
            n_max, delta, [self.market.horizon], self.model.lam, self.model.kappa)
        return DiscreteSolution(delta=delta, coefficients=values[:, 0],
                                values=values[:, 0], spreads=spreads[:, 0])

    def fluid(self):
        m, T = self.model, self.market.horizon
        return FluidSolution(
            lambda x: fluid.exp_fluid_finite(x, T, m.lam, m.kappa)[:2],
            _each_time(lambda t, x0: fluid.exp_fluid_finite(x0, T, m.lam, m.kappa)[2](t)))

    def fluid_cell_spread(self, x, delta):
        m = self.model
        return fluid.exp_finite_cell_spread(x, delta, self.market.horizon, m.lam, m.kappa)

    def policy(self, delta, n_max):
        return ExpZeroRatePolicy(lam=self.model.lam, kappa=self.model.kappa, delta=delta)

    def execution_curve(self, n_units, times):
        # The rates do not factor, but with y = lam (T-t)/e and S_k the
        # truncated exponential series, P(X_t = j | x) = (lam t/e)^(x-j)/(x-j)!
        # * S_j(y_t)/S_x(y_0), so the expected fill rate stays at h_x(0) =
        # (lam/e) S_{x-1}(y_0)/S_x(y_0) and every row is the line x - t h_x(0).
        # With delta = kappa = 1 the values are log S_k at y_0.
        lam = self.model.lam
        log_sums = discrete.solve_exp_finite(n_units, 1.0, [self.market.horizon],
                                             lam, 1.0)[0][:, 0]
        h0 = np.concatenate(([0.0], (lam / math.e) * np.exp(log_sums[:-1] - log_sums[1:])))
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
        return DiscreteSolution(delta=delta, coefficients=values, values=values,
                                spreads=spreads)

    def fluid(self):
        m, r = self.model, self.market.r
        return FluidSolution(lambda x: fluid.exp_fluid_infinite(x, m.lam, m.kappa, r),
                             lambda t, x0: fluid.exp_trade_curve(t, x0, m.lam, m.kappa, r))

    def fluid_cell_spread(self, x, delta, log_w=None):
        m = self.model
        return fluid.exp_infinite_cell_spread(x, delta, m.lam, m.kappa, self.market.r,
                                              log_w)

    def fluid_probe(self, x, deltas):
        # one E1 root at x serves the value, the spread and every cell's top
        m, r = self.model, self.market.r
        log_w = fluid.exp_infinite_log_w(x, m.lam, r)
        value, spread = fluid.exp_fluid_infinite(x, m.lam, m.kappa, r, log_w)
        return value, spread, np.array([self.fluid_cell_spread(x, float(d), log_w)
                                        for d in deltas])

    def policy(self, delta, n_max):
        return StationarySpreadPolicy(spreads=self._table(delta, n_max)[1])


def resolve(model: IntensityModel, market: MarketParams) -> Case:
    """The case object of a model/market pair.

    ``MarketParams`` rejects r = 0 on the infinite horizon, so r = 0 here
    always comes with a finite horizon.
    """
    if isinstance(model, PowerLawIntensity):
        return PowerLaw(model, market)
    if isinstance(model, ExpDecayIntensity):
        if market.r == 0.0:
            return ExpZeroRate(model, market)
        if market.infinite_horizon:
            return ExpStationary(model, market)
        raise UnsupportedCaseError("no explicit solution for an exponential book with "
                                   "r > 0 and a finite horizon")
    raise UnsupportedCaseError(f"no explicit solution for depth model "
                               f"{type(model).__name__}: only power-law and "
                               "exponential books are solved")
