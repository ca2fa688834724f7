import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lobliq import simulate
from lobliq.cases import (
    ExpZeroRatePolicy,
    FillClock,
    OptimalPowerPolicy,
    StationarySpreadPolicy,
    resolve,
)
from lobliq.discrete import solve_exp_finite
from lobliq.intensity import (
    ExpDecayIntensity,
    MarketParams,
    PowerLawIntensity,
)
from lobliq.simulate import _BLOCK_PATHS, execution_curve_ode, simulate_policy
from ode_oracles import OdeProblem, integrate_ode
from sampling_oracles import OraclePolicy, inversion, reference_march, thinning

POWER = PowerLawIntensity(lam=1.0, alpha=2.0)
EXP = ExpDecayIntensity(lam=1.0, kappa=1.0)
FINITE = MarketParams(r=0.1, horizon=1.0)
ZERO_RATE = MarketParams(r=0.0, horizon=1.0)
INF = MarketParams(r=0.1)


def policy_values(spreads, delta):
    """V(0..n) of posting spreads[k - 1] at level k in the power book on the
    infinite horizon: between fills the spread is constant, so V(k) =
    q_k (s_k delta + V(k-1)) with q_k = rate(s_k)/(rate(s_k) + r delta)."""
    values = [0.0]
    for s in spreads:
        rate = POWER.rate(s)
        q = rate / (rate + INF.r * delta)
        values.append(q * (s * delta + values[-1]))
    return np.array(values)


@dataclass(frozen=True)
class CountingPolicy:
    """``inner``, recording the level of every ``spreads_at`` call."""

    inner: object
    levels: list = field(default_factory=list)

    def spreads_at(self, n_units, t_to_go):
        self.levels.append(n_units)
        return self.inner.spreads_at(n_units, t_to_go)

    def clock(self, model, delta, horizon):
        return self.inner.clock(model, delta, horizon)


def fills_by(fills, n_paths, times, compare):
    """[i, c]: the fills of path i whose time compares true with times[c]."""
    return np.array([np.bincount(fills.path_id[compare(fills.time, t)], minlength=n_paths)
                     for t in times]).T


def fluid_policy_values(n, delta):
    return policy_values(resolve(POWER, INF).fluid_policy(delta, n).spreads[1:], delta)


class TestSimulatePolicy:
    def test_zero_inventory(self):
        pol = resolve(POWER, FINITE).policy(1.0, 1)
        stats = simulate_policy(POWER, FINITE, 0, 1.0, pol, 50, seed=1)
        assert stats.mean_revenue == 0.0
        assert stats.liquidation_fraction == 1.0

    def test_optimal_power_unbiased(self):
        pol = resolve(POWER, FINITE).policy(1.0, 6)
        stats = simulate_policy(POWER, FINITE, 6, 1.0, pol, 20_000, seed=5)
        target = resolve(POWER, FINITE).solve(1.0, 6).values[6]
        assert abs(stats.mean_revenue - target) <= 3.0 * stats.std_error
        assert stats.liquidation_fraction == 1.0

    @pytest.mark.parametrize("horizon", [4000.0, 10_000.0])
    def test_optimal_power_long_horizon(self, horizon):
        # alpha*r*T = 800 and 2000: expm1(alpha*r*(T - t0)) overflows, and the
        # fill times must stay exact.  The book is then stationary to double
        # precision: the top level fills at rate ~1 from the start, so the
        # median first fill is log(2)/rate ~ 0.69
        market, n_paths = MarketParams(r=0.1, horizon=horizon), 20_000
        pol = resolve(POWER, market).policy(1.0, 6)
        stats = simulate_policy(POWER, market, 6, 1.0, pol, n_paths, seed=5,
                                keep_paths=True)
        target = resolve(POWER, market).solve(1.0, 6).values[6]
        assert abs(stats.mean_revenue - target) <= 4.0 * stats.std_error
        assert stats.liquidation_fraction == 1.0
        clock = pol.clock(POWER, 1.0, horizon)
        rate = clock.rate(6) * clock.profile(0.0)
        median = math.log(2.0) / rate
        assert abs(median - 0.69) < 0.01
        # the sample median of n exponentials has standard error 1/(rate sqrt(n))
        first = stats.fills.time[stats.fills.fill_index == 0]
        assert abs(np.median(first) - median) <= 4.0 / (rate * math.sqrt(n_paths))

    def test_path_records(self):
        pol = resolve(POWER, FINITE).policy(1.0, 4)
        stats = simulate_policy(POWER, FINITE, 4, 1.0, pol, 50, seed=9, keep_paths=True)
        fills = stats.fills
        revenues, counts = reference_march(POWER, FINITE, 4, 1.0, pol, 50, 9, None, False)[:2]
        assert np.array_equal(np.bincount(fills.path_id, minlength=50), counts)
        assert stats.liquidation_fraction == np.mean(counts == 4)
        for p in range(50):
            times, spreads = fills.time[fills.path_id == p], fills.spread[fills.path_id == p]
            assert np.all(np.diff(times) > 0.0)
            assert np.all(times <= 1.0)
            recomputed = sum(math.exp(-0.1 * t) * s for t, s in zip(times, spreads))
            assert abs(recomputed - revenues[p]) < 1e-12

    def test_seed_reproducibility(self):
        pol = resolve(POWER, FINITE).policy(1.0, 4)
        a = simulate_policy(POWER, FINITE, 4, 1.0, pol, 500, seed=13)
        b = simulate_policy(POWER, FINITE, 4, 1.0, pol, 500, seed=13)
        c = simulate_policy(POWER, FINITE, 4, 1.0, pol, 500, seed=14)
        assert a.mean_revenue == b.mean_revenue
        assert a.mean_revenue != c.mean_revenue

    def test_thread_count_invariance(self):
        pol = resolve(POWER, FINITE).policy(1.0, 5)
        grid = np.linspace(0.1, 0.9, 5)
        runs = [simulate_policy(POWER, FINITE, 5, 1.0, pol, 4000, seed=21,
                                threads=k, curve_times=grid) for k in (1, 2, 7, 10**6)]
        for other in runs[1:]:
            assert other.mean_revenue == runs[0].mean_revenue
            assert other.std_error == runs[0].std_error
            assert np.array_equal(other.mean_inventory_curve,
                                  runs[0].mean_inventory_curve)
        with pytest.raises(ValueError, match="threads"):
            simulate_policy(POWER, FINITE, 5, 1.0, pol, 10, seed=21, threads=0)

    def test_constant_spread_matches_geometric_sum(self):
        policy = StationarySpreadPolicy(np.full(5, 2.0))
        closed = policy_values([2.0] * 4, 1.0)[4]  # the geometric sum in q
        stats = simulate_policy(POWER, INF, 4, 1.0, policy, 30_000, seed=3)
        assert abs(stats.mean_revenue - closed) <= 3.0 * stats.std_error

    def test_inversion_sampler_agrees_with_analytic(self):
        # the quadrature-and-root oracle must reproduce the closed form
        pol = resolve(POWER, FINITE).policy(1.0, 3)
        fast = simulate_policy(POWER, FINITE, 3, 1.0, pol, 4000, seed=17)
        slow = simulate_policy(POWER, FINITE, 3, 1.0, OraclePolicy(pol, inversion),
                               300, seed=17)
        se = math.hypot(slow.std_error, fast.std_error)
        assert abs(slow.mean_revenue - fast.mean_revenue) <= 3.0 * se
        assert slow.liquidation_fraction == 1.0

    @pytest.mark.parametrize("market", [FINITE, ZERO_RATE], ids=["r=0.1", "r=0"])
    def test_inversion_reproduces_closed_form_fill_times(self, market):
        # both read the same exponential draws, so they must agree path by path
        pol = resolve(POWER, market).policy(1.0, 3)
        fast = simulate_policy(POWER, market, 3, 1.0, pol, 40, seed=19,
                               keep_paths=True).fills
        slow = simulate_policy(POWER, market, 3, 1.0, OraclePolicy(pol, inversion),
                               40, seed=19, keep_paths=True).fills
        assert np.array_equal(np.bincount(fast.path_id), np.full(40, 3))
        assert np.array_equal(np.bincount(slow.path_id), np.full(40, 3))
        assert np.max(np.abs(fast.time - slow.time)) <= 1e-10

    def test_paths_do_not_depend_on_ensemble_size(self):
        # the longer run crosses a block boundary; a path's draws depend only
        # on the seed and its index
        pol = resolve(POWER, FINITE).policy(1.0, 3)
        short = simulate_policy(POWER, FINITE, 3, 1.0, pol, 100, seed=4, keep_paths=True)
        long = simulate_policy(POWER, FINITE, 3, 1.0, pol, _BLOCK_PATHS + 100, seed=4,
                               keep_paths=True)
        head = long.fills.path_id < 100
        for name in ("path_id", "fill_index", "time", "spread", "cash"):
            assert np.array_equal(getattr(short.fills, name),
                                  getattr(long.fills, name)[head])
        short_revenue = simulate._march(POWER, FINITE, 3, 1.0, pol, 100, 4, None, False)[0]
        long_revenue = simulate._march(POWER, FINITE, 3, 1.0, pol, _BLOCK_PATHS + 100, 4,
                                       None, False)[0]
        assert np.array_equal(short_revenue, long_revenue[:100])
        # the second block has a stream of its own
        times = long.fills.time
        assert not np.array_equal(times[long.fills.path_id == 0],
                                  times[long.fills.path_id == _BLOCK_PATHS])

    @pytest.mark.parametrize("policy", [
        resolve(POWER, FINITE).policy(0.5, 4),
        StationarySpreadPolicy(spreads=np.array([math.nan] + [3.0] * 4)),
    ], ids=["optimal", "partial-liquidation"])
    def test_fill_cash_is_what_the_march_added(self, policy):
        fills = simulate_policy(POWER, FINITE, 4, 0.5, policy, 300, seed=5,
                                keep_paths=True).fills
        assert np.array_equal(fills.cash,
                              np.exp(-FINITE.r * fills.time) * fills.spread * 0.5)
        # a path's revenue is its fills' cash added in fill order, from 0
        bounds = np.searchsorted(fills.path_id, np.arange(301)).tolist()
        revenue = [sum(fills.cash[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])]
        march = simulate._march(POWER, FINITE, 4, 0.5, policy, 300, 5, None, False)
        assert revenue == march[0].tolist()

    @pytest.mark.parametrize("policy_fn, n_paths", [
        (lambda: resolve(POWER, FINITE).policy(0.5, 4), _BLOCK_PATHS + 500),
        (lambda: StationarySpreadPolicy(spreads=np.array([math.nan] + [3.0] * 4)), 700),
    ], ids=["optimal-two-blocks", "partial-liquidation"])
    def test_curve_statistics_match_path_table(self, policy_fn, n_paths):
        # mean and standard error from per-block integer sums agree with
        # np.mean / np.std over the full table of remaining inventories
        ct = np.linspace(0.0, 1.0, 10)[1:-1]
        stats = simulate_policy(POWER, FINITE, 4, 0.5, policy_fn(), n_paths,
                                seed=23, curve_times=ct, keep_paths=True)
        left = 4 - fills_by(stats.fills, n_paths, ct, np.less_equal)
        phys = left.astype(float) * 0.5
        mean = np.mean(phys, axis=0)
        se = np.std(phys, axis=0, ddof=1) / math.sqrt(n_paths)
        assert np.all(se > 0.0)
        assert np.allclose(stats.mean_inventory_curve, mean, rtol=1e-12, atol=0.0)
        assert np.allclose(stats.curve_std_error, se, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_paths, ties", [
        (1, False), (_BLOCK_PATHS + 3, False), (400, True),
    ], ids=["one-path", "two-blocks", "fill-time-ties"])
    def test_curve_counts_match_brute_force(self, n_paths, ties):
        # the per-level histograms against a per-path count of fills by t
        policy = StationarySpreadPolicy(spreads=np.array([math.nan] + [3.0] * 4))
        ct = np.linspace(0.0, 1.0, 10)[1:-1]
        if ties:
            # curve times equal to fill times of the same draws, unsorted and
            # with a repeat: a fill at exactly t counts at t
            first = simulate_policy(POWER, FINITE, 4, 0.5, policy, n_paths, seed=31,
                                    keep_paths=True).fills
            ct = first.time[[5, 0, 17, 9, 0, 40]]
        stats = simulate_policy(POWER, FINITE, 4, 0.5, policy, n_paths, seed=31,
                                curve_times=ct, keep_paths=True)
        left = 4 - fills_by(stats.fills, n_paths, ct, np.less_equal)
        if ties:
            strict = 4 - fills_by(stats.fills, n_paths, ct, np.less)
            assert np.any(left != strict)
        assert np.array_equal(stats.mean_inventory_curve,
                              0.5 * left.sum(axis=0).astype(float) / n_paths)
        if n_paths == 1:
            assert np.all(np.isnan(stats.curve_std_error))
        else:
            se = np.std(0.5 * left, axis=0, ddof=1) / math.sqrt(n_paths)
            assert np.allclose(stats.curve_std_error, se, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spreads, level", [
        ([math.nan, 3.0, 3.0, math.nan], 3),
        ([math.nan, 3.0, 3.0, math.inf], 3),
        # level 3 fills at rate 1e-12, so no path reaches level 1
        ([math.nan, math.inf, 3.0, 1e6], 1),
    ], ids=["nan", "inf", "unreached"])
    def test_non_finite_spread_raises(self, spreads, level):
        policy = StationarySpreadPolicy(spreads=np.array(spreads))
        with pytest.raises(ArithmeticError, match=f"non-finite spread at level {level}"):
            simulate_policy(POWER, FINITE, 3, 1.0, policy, 10, seed=1,
                            curve_times=[0.5], keep_paths=True)

    def test_spreads_read_once_per_level_per_block(self):
        # one finiteness check per level before the first block, then one
        # read per level and block; the power optimum sells every path, so
        # both blocks reach every level
        policy = CountingPolicy(resolve(POWER, FINITE).policy(0.5, 4))
        simulate_policy(POWER, FINITE, 4, 0.5, policy, _BLOCK_PATHS + 5, seed=3)
        assert Counter(policy.levels) == {k: 1 + 2 for k in range(1, 5)}

    def test_curve_standard_error_undefined_for_one_path(self):
        pol = resolve(POWER, FINITE).policy(1.0, 3)
        stats = simulate_policy(POWER, FINITE, 3, 1.0, pol, 1, seed=2,
                                curve_times=[0.25, 0.5])
        assert np.all(np.isnan(stats.curve_std_error))
        assert np.all(np.isfinite(stats.mean_inventory_curve))

    def test_stationary_policy_stops_at_horizon(self):
        policy = StationarySpreadPolicy(spreads=np.array([math.nan, 3.0, 3.0, 3.0]))
        stats = simulate_policy(POWER, FINITE, 3, 1.0, policy, 2000, seed=8,
                                keep_paths=True)
        assert 0.0 < stats.liquidation_fraction < 1.0
        fills = stats.fills
        assert np.all(fills.time <= 1.0)
        # within a path, in fill order
        assert np.all(np.diff(fills.time)[np.diff(fills.path_id) == 0] > 0.0)

    def test_thinning_agrees_on_bounded_hazard(self):
        # the exp book's closed-form clock against the thinning oracle
        model = ExpDecayIntensity(lam=1.0, kappa=1.0)
        market = MarketParams(r=0.0, horizon=4.0)
        pol = resolve(model, market).policy(1.0, 3)
        a = simulate_policy(model, market, 3, 1.0, pol, 1500, seed=29)
        b = simulate_policy(model, market, 3, 1.0, OraclePolicy(pol, thinning(31)),
                            1500, seed=31)
        se = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean_revenue - b.mean_revenue) <= 3.5 * se

    def test_thinning_refuses_unbounded_hazard(self):
        pol = resolve(POWER, FINITE).policy(1.0, 2)
        with pytest.raises(ArithmeticError):
            simulate_policy(POWER, FINITE, 2, 1.0, OraclePolicy(pol, thinning(1)), 5,
                            seed=1)

    def test_exp_zero_rate_ensemble_is_exact(self):
        # Under the optimal policy the fills are the points of a Poisson process
        # of mean y0 = lam T/(delta e), kept while at most n: P(all n sold) =
        # (y0^n/n!)/S_n(y0) and the mean revenue is (delta/kappa) log S_n(y0),
        # the discrete value; both exact, whatever sampled the fills
        n, y0, kappa, n_paths = 3, 3.0, 1.3, 1500
        model = ExpDecayIntensity(lam=y0 * math.e, kappa=kappa)
        pol = resolve(model, ZERO_RATE).policy(1.0, n)
        stats = simulate_policy(model, ZERO_RATE, n, 1.0, pol, n_paths, seed=29)
        terms = [y0 ** j / math.factorial(j) for j in range(n + 1)]
        p_full = terms[n] / sum(terms)
        se_full = math.sqrt(p_full * (1.0 - p_full) / n_paths)
        assert abs(stats.liquidation_fraction - p_full) <= 4.0 * se_full
        value = math.log(sum(terms)) / kappa
        assert math.isclose(value, solve_exp_finite(n, 1.0, [1.0], model.lam, kappa)[0][n, 0],
                            rel_tol=1e-14)
        assert abs(stats.mean_revenue - value) <= 4.0 * stats.std_error

    @pytest.mark.parametrize("model, market", [
        (ExpDecayIntensity(lam=1.0, kappa=2.3e-189), INF),  # revenues near 1e189
        (POWER, FINITE),
    ], ids=["revenues-past-1e154", "ordinary"])
    def test_std_error_of_huge_revenues(self, model, market):
        # pytest turns RuntimeWarning into an error, so an overflowing square fails
        n_paths = 50
        pol = resolve(model, market).policy(1.0, 3)
        stats = simulate_policy(model, market, 3, 1.0, pol, n_paths, seed=0)
        revenues = simulate._march(model, market, 3, 1.0, pol, n_paths, 0, None, False)[0]
        # the variance in exact rationals, of revenues scaled to below 1
        k = math.frexp(max(abs(revenues)))[1]
        exact = [Fraction(math.ldexp(x, -k)) for x in revenues]
        mean = sum(exact) / n_paths
        var = sum((x - mean) ** 2 for x in exact) / (n_paths - 1)
        assert math.isclose(stats.std_error, math.ldexp(math.sqrt(var / n_paths), k),
                            rel_tol=1e-14)
        if model is POWER:
            # a power of two scales exactly: the plain formula's bits
            assert stats.std_error == float(np.std(revenues, ddof=1) / math.sqrt(n_paths))


@dataclass(frozen=True)
class RoundoffPolicy:
    """``inner``'s spreads, with a clock that puts some fills before t0, at
    t0 or at exactly the horizon, as rounding in a fill clock might."""

    inner: object

    def spreads_at(self, n_units, t_to_go):
        return self.inner.spreads_at(n_units, t_to_go)

    def clock(self, model, delta, horizon):
        def advance(k, t0, e):
            t = np.where(e < 0.6, horizon, t0 + e)
            t = np.where(e < 0.4, t0, t)
            return np.where(e < 0.2, t0 - 1e-3 * e, t)

        return FillClock(advance=advance)


def _march_policies():
    flat = np.array([math.nan] + [1.0] * 6)
    # rate(1e200) = 1e-400 underflows to 0: level 3 fills at e/0 = inf
    underflow = flat.copy()
    underflow[3] = 1e200
    # y0 = lam T/(delta e) near 6: about half the paths sell all six units
    rich = ExpDecayIntensity(lam=8.0, kappa=1.0)
    return {
        "stationary": (POWER, FINITE, StationarySpreadPolicy(flat)),
        "fluid": (POWER, INF, resolve(POWER, INF).fluid_policy(0.5, 6)),
        "power-T1": (POWER, FINITE, resolve(POWER, FINITE).policy(0.5, 6)),
        "power-r0": (POWER, ZERO_RATE, resolve(POWER, ZERO_RATE).policy(0.5, 6)),
        "power-inf": (POWER, INF, resolve(POWER, INF).policy(0.5, 6)),
        "exp-r0": (rich, ZERO_RATE, resolve(rich, ZERO_RATE).policy(0.5, 6)),
        "rate-underflow": (POWER, FINITE, StationarySpreadPolicy(underflow)),
        "roundoff": (POWER, FINITE, RoundoffPolicy(StationarySpreadPolicy(flat))),
    }


class TestPackedMarch:
    @pytest.mark.parametrize("name", list(_march_policies()))
    @pytest.mark.parametrize("n_paths", [1, _BLOCK_PATHS - 1, _BLOCK_PATHS,
                                         _BLOCK_PATHS + 1, 20_000])
    def test_matches_reference_march(self, name, n_paths):
        # the packed march against the per-level gather and scatter, bit for
        # bit: revenues, fill counts, curve counts and every fill table cell
        # a path reached
        model, market, policy = _march_policies()[name]
        for n_units in (0, 1, 6):
            for ct in (None, np.array([0.25, 0.5, 0.75, 1.0, 3.0])):
                for keep_paths in (False, True):
                    args = (model, market, n_units, 0.5, policy, n_paths, 41, ct,
                            keep_paths)
                    rev, fills, done, kept = simulate._march(*args)
                    ref_rev, ref_fills, ref_done, ref_kept = reference_march(*args)
                    assert np.array_equal(rev, ref_rev)
                    assert np.array_equal(fills, ref_fills)
                    assert (done is None if ct is None
                            else np.array_equal(done, ref_done))
                    if keep_paths:
                        reached = np.arange(n_units) < fills[:, None]
                        # fill times, spreads and discounted cash
                        assert np.array_equal(kept[:, reached], ref_kept[:, reached])
                    else:
                        assert kept is None
        if name == "rate-underflow":
            assert fills.max() <= 3  # no path fills at level 3
        elif name in ("stationary", "exp-r0", "roundoff") and n_paths > 1:
            # some paths stop before the last level and some do not
            assert 0 < np.count_nonzero(fills < 6) < n_paths


class TestPolicies:
    def test_zero_rate_optimum_is_recognised(self):
        pol = resolve(POWER, ZERO_RATE).policy(1.0, 4)
        assert isinstance(pol, OptimalPowerPolicy)
        # fill rate k_n / (T - t)
        clock = pol.clock(POWER, 1.0, ZERO_RATE.horizon)
        t_go = np.array([0.9, 0.1, 1e-6])
        for n in range(1, 5):
            for s, tau in zip(pol.spreads_at(n, t_go).tolist(), t_go.tolist()):
                assert math.isclose(POWER.rate(s) * tau, clock.rate(n), rel_tol=1e-12)

    @pytest.mark.parametrize("policy, solved", [
        (resolve(POWER, FINITE).policy(1.0, 4), lambda tau: _solved(POWER, 0.1, tau)),
        (resolve(POWER, ZERO_RATE).policy(1.0, 4), lambda tau: _solved(POWER, 0.0, tau)),
        (resolve(POWER, INF).policy(1.0, 4), lambda tau: _solved(POWER, 0.1, tau)),
        (resolve(EXP, ZERO_RATE).policy(1.0, 4), lambda tau: _solved(EXP, 0.0, tau)),
        (StationarySpreadPolicy(np.full(5, 2.0)), lambda tau: np.full(5, 2.0)),
    ], ids=["power", "power-r0", "power-inf", "exp-r0", "constant"])
    def test_vector_spreads_match_scalar(self, policy, solved):
        # spreads_at(n, tau) is the spread that solving the problem with
        # horizon tau posts at level n; a constant table posts its one value
        t_go = np.array([1.0, 0.7, 0.25, 1e-3])
        for n in range(1, 5):
            scalar = [solved(tau)[n] for tau in t_go.tolist()]
            assert np.allclose(policy.spreads_at(n, t_go), scalar, rtol=1e-14, atol=0.0)


def _solved(model, r, tau):
    """The optimal spreads of levels 0..4 at delta = 1 with horizon tau."""
    return resolve(model, MarketParams(r=r, horizon=tau)).solve(1.0, 4).spreads


def _log_series(k, y):
    """(log S_k(y), S_{k-1}(y)/S_k(y)) in 50-digit arithmetic."""
    term, sums = mpmath.mpf(1), [mpmath.mpf(1)]
    for j in range(1, k + 1):
        term *= y / j
        sums.append(sums[-1] + term)
    return mpmath.log(sums[k]), sums[k - 1] / sums[k]


class TestExpZeroRateClock:
    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e3),
           st.integers(min_value=1, max_value=300),
           st.floats(min_value=0.0, max_value=1.0 - 1e-9),
           st.lists(st.floats(min_value=1e-9, max_value=50.0), min_size=1, max_size=4),
           st.sampled_from([1.0, 0.5, 0.05]),
           st.sampled_from([1.0, 4.0]))
    @example(1e3, 300, 0.0, [1e-9], 1.0, 1.0)
    @example(1e3, 1, 0.0, [1.5], 1.0, 1.0)
    @example(1e-6, 1, 1.0 - 1e-9, [1e-9, 9.9e-7], 0.05, 4.0)
    @example(1e3, 300, 1.0 - 1e-9, [1e-9], 1.0, 1.0)  # t - t0 below an ulp of t0
    def test_hazard_inversion_at_domain_edges(self, y0, k, frac, draws, delta, horizon):
        # y(t0) = lam (T - t0)/(delta e) = y0: the fill time t of draw E solves
        # L_k(y(t0)) - L_k(y(t)) = E, L_k = log S_k, or is nan if E >= L_k(y(t0))
        t0 = frac * horizon
        lam = y0 * delta * math.e / (horizon - t0)
        clock = ExpZeroRatePolicy(lam=lam, kappa=1.0, delta=delta).clock(
            ExpDecayIntensity(lam=lam, kappa=1.0), delta, horizon)
        e = np.sort(np.array(draws))
        t = clock.advance(k, np.full(len(e), t0), e)
        # L_k(y(t0)) exactly as the solver computes it: with kappa = delta the
        # value is the log sum itself
        l0 = solve_exp_finite(k, delta, [horizon - t0], lam, delta)[0][k, 0]
        assert np.array_equal(np.isnan(t), e >= l0)
        # the fill time is nondecreasing in the draw
        assert np.all(np.diff(t[~np.isnan(t)]) >= 0.0)
        with mpmath.workdps(50):
            scale = mpmath.mpf(lam) / (mpmath.mpf(delta) * mpmath.e)
            big_l0 = _log_series(k, scale * (mpmath.mpf(horizon) - mpmath.mpf(t0)))[0]
            for ei, ti in zip(e.tolist(), t.tolist()):
                if math.isnan(ti):
                    continue
                assert t0 < ti <= horizon
                big_l, ratio = _log_series(k, scale * (mpmath.mpf(horizon) - mpmath.mpf(ti)))
                # a fill time is a float: one ulp of t moves the hazard by
                # ulp * (fill rate at t)
                slack = 4.0 * math.ulp(ti) * float(scale * ratio)
                assert abs(float(big_l0 - big_l) - ei) <= 1e-10 * ei + slack


class TestFluidPolicyEvaluation:
    def test_zero(self):
        assert fluid_policy_values(0, 1.0)[0] == 0.0

    def test_close_to_optimal_at_fine_delta(self):
        values = fluid_policy_values(500, 0.01)
        c = resolve(POWER, INF).solve(0.01, 500).coefficients
        ratio = values[500] / c[500]
        assert ratio <= 1.0 + 1e-12      # suboptimal policy never wins
        assert ratio > 0.99              # but is within a percent at x = 5

    def test_suboptimality_every_level(self):
        values = fluid_policy_values(12, 1.0)
        c = resolve(POWER, INF).solve(1.0, 12).coefficients
        assert np.all(values <= c + 1e-12)

    def test_monte_carlo_agreement(self):
        pol = resolve(POWER, INF).fluid_policy(1.0, 5)
        exact = fluid_policy_values(5, 1.0)[5]
        stats = simulate_policy(POWER, INF, 5, 1.0, pol, 20_000, seed=11)
        assert abs(stats.mean_revenue - exact) <= 3.0 * stats.std_error


class TestExecutionCurve:
    def test_initial_condition(self):
        for n in range(1, 6):
            curve = execution_curve_ode(POWER, FINITE, n, [0.0, 0.5])
            assert curve.inventory[0] == n

    def test_monotone_decreasing_and_positive(self):
        grid = np.linspace(0.05, 0.95, 19)
        curve = execution_curve_ode(POWER, FINITE, 6, grid)
        top = curve.inventory
        assert np.all(np.diff(top) < 0.0)
        assert np.all(top > 0.0)  # strictly positive before maturity, unlike the fluid curve

    def test_matches_monte_carlo(self):
        grid = np.linspace(0.1, 0.9, 9)
        pol = resolve(POWER, FINITE).policy(1.0, 4)
        stats = simulate_policy(POWER, FINITE, 4, 1.0, pol, 20_000, seed=23,
                                curve_times=grid)
        curve = execution_curve_ode(POWER, FINITE, 4, grid)
        z = np.abs(curve.inventory - stats.mean_inventory_curve) / stats.curve_std_error
        assert np.max(z) <= 3.0

    def test_terminal_drain(self):
        vals = []
        for eps in [0.1, 0.03, 0.01]:
            curve = execution_curve_ode(POWER, FINITE, 6, [1.0 - eps])
            vals.append(curve.inventory[0])
        assert vals[0] > vals[1] > vals[2] > 0.0
        assert vals[2] < 0.6

    def test_s_shape_for_thin_books(self):
        model = PowerLawIntensity(lam=1.0, alpha=4.0)
        grid = np.array([0.05, 0.5, 0.95])
        curve = execution_curve_ode(model, FINITE, 6, grid)
        early, mid, late = curve.trading_rate
        assert early > mid and late > mid

    def test_deep_books_trade_slow(self):
        # alpha = 2: inventory stays above the constant-rate line until maturity
        grid = np.linspace(0.05, 0.9, 18)
        curve = execution_curve_ode(POWER, FINITE, 6, grid)
        baseline = 6.0 * (1.0 - grid / 1.0)
        assert np.all(curve.inventory > baseline)

    def test_exp_rate_kappa_independent(self):
        market = MarketParams(r=0.0, horizon=1.0)
        grid = np.linspace(0.1, 0.9, 9)
        curves = [execution_curve_ode(ExpDecayIntensity(lam=1.0, kappa=k),
                                      market, 4, grid)
                  for k in (0.5, 1.0, 4.0)]
        for other in curves[1:]:
            assert np.allclose(other.inventory, curves[0].inventory,
                               rtol=0.0, atol=1e-12)

    def test_exp_curve_reported_convex(self):
        # reproduced as an observation, not asserted as an invariant elsewhere
        market = MarketParams(r=0.0, horizon=1.0)
        grid = np.linspace(0.05, 0.95, 30)
        curve = execution_curve_ode(ExpDecayIntensity(lam=4.0, kappa=1.0),
                                    market, 4, grid)
        second = np.diff(curve.inventory, 2)
        assert np.all(second > -1e-9)

    def test_rejects_grid_at_maturity(self):
        with pytest.raises(ValueError):
            execution_curve_ode(POWER, FINITE, 3, [0.5, 1.0])

    def test_fluid_dichotomy(self):
        # the fluid curve drains smoothly by T while E(x, t) stays positive
        case = resolve(POWER, FINITE)
        assert case.fluid_trade_curve(0.999999, 6.0) < 1e-4
        curve = execution_curve_ode(POWER, FINITE, 6, [0.99])
        assert curve.inventory[0] > 0.0


def _time_change(alpha, market):
    """(tau, g) of rates that factor as b_k * g(t), tau the integral of g."""
    T, r = market.horizon, market.r
    if math.isinf(T):
        return (lambda t: t), (lambda t: 1.0)
    if r == 0.0:
        return (lambda t: -math.log1p(-t / T)), (lambda t: 1.0 / (T - t))
    a = alpha * r
    return ((lambda t: t + (math.log(-math.expm1(-a * T))
                            - math.log(-math.expm1(-a * (T - t)))) / a),
            (lambda t: 1.0 / -math.expm1(-a * (T - t))))


FINITE_GRID = [0.0, 0.2, 0.7, 0.99]
INF_GRID = [0.0, 0.5, 2.0, 8.0]


class TestExactExecutionCurve:
    @pytest.mark.parametrize("model, market, alpha, grid", [
        (POWER, FINITE, 2.0, FINITE_GRID),
        (PowerLawIntensity(lam=1.0, alpha=3.0), ZERO_RATE, 3.0, FINITE_GRID),
        (POWER, INF, 2.0, INF_GRID),
        (ExpDecayIntensity(lam=1.0, kappa=1.0), INF, None, INF_GRID),
    ], ids=["power_T", "power_r0", "power_inf", "exp_inf"])
    @pytest.mark.parametrize("n", [5, 20])
    def test_factoring_cases_match_expm(self, model, market, alpha, grid, n):
        # E(., t) = expm(tau(t) Q) x with Q the death generator of the base rates
        tau, g = _time_change(alpha, market)
        policy = resolve(model, market).policy(1.0, n)
        full = np.array([market.horizon])
        base = np.array([model.rate(float(policy.spreads_at(k, full)[0]))
                         for k in range(1, n + 1)]) / g(0.0)
        gen = np.diag(np.concatenate(([0.0], -base))) + np.diag(base, -1)
        x = np.arange(n + 1.0)
        exact = [expm(tau(t) * gen) @ x for t in grid]
        for start in range(1, n + 1):
            curve = execution_curve_ode(model, market, start, grid)
            for j, t in enumerate(grid):
                assert abs(curve.inventory[j] - exact[j][start]) <= 1e-12
                rate = -g(t) * (gen @ exact[j])[start]
                assert abs(curve.trading_rate[j] - rate) <= 1e-12 * max(1.0, rate)

    @pytest.mark.parametrize("lam", [1.0, 4.0, 30.0])
    def test_exp_zero_rate_rows_are_straight_lines(self, lam):
        # forward Kolmogorov equation of the transition matrix P[x, j] under the
        # true, non-factoring level rates, integrated by RK4
        model, n = ExpDecayIntensity(lam=lam, kappa=1.0), 6

        def rates(t):
            # with delta = kappa = 1 the values are log S_k, S_k the truncated
            # exponential series in lam (T-t)/e; rate(s*(k)) = (lam/e) S_{k-1}/S_k
            log_sums = solve_exp_finite(n, 1.0, [ZERO_RATE.horizon - t], lam, 1.0)[0][:, 0]
            return (lam / math.e) * np.exp(log_sums[:-1] - log_sums[1:])

        def forward(t, flat):
            h = np.concatenate(([0.0], rates(t)))
            p = flat.reshape(n + 1, n + 1)
            dp = -p * h
            dp[:, :-1] += p[:, 1:] * h[1:]
            return dp.ravel()

        ts, ps = integrate_ode(OdeProblem((n + 1) ** 2, forward, (0.0, 0.99),
                                          np.eye(n + 1).ravel(), step_count=9900))
        grid = ts[::990]
        h0 = np.concatenate(([0.0], rates(0.0)))
        for start in range(1, n + 1):
            curve = execution_curve_ode(model, ZERO_RATE, start, grid)
            for j, t in enumerate(grid):
                p = ps[990 * j].reshape(n + 1, n + 1)
                assert abs(curve.inventory[j] - p[start] @ np.arange(n + 1.0)) <= 1e-9
                assert curve.inventory[j] == start - t * h0[start]
                fill_rate = p[start] @ np.concatenate(([0.0], rates(t)))
                assert abs(curve.trading_rate[j] - fill_rate) <= 1e-9
            assert np.all(curve.trading_rate == h0[start])

    @given(st.floats(min_value=1.001, max_value=30.0),
           st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.1, 2.0]),
           st.integers(min_value=1, max_value=300),
           st.floats(min_value=0.01, max_value=100.0),
           st.lists(st.floats(min_value=0.0, max_value=1.0 - 1e-9), min_size=1,
                    max_size=6))
    @example(alpha=14.0, r=2.0, n=160, horizon=98.0, fractions=[9.180301589221722e-21])
    @settings(max_examples=60, deadline=None)
    def test_power_law_domain_edges(self, alpha, r, n, horizon, fractions):
        model = PowerLawIntensity(lam=1.0, alpha=alpha)
        market = MarketParams(r=r, horizon=horizon)
        grid = np.unique(np.concatenate(([0.0, 1.0 - 1e-9], fractions))) * horizon
        grid = grid[np.concatenate(([True], np.diff(grid) > 0.0))]
        # the starts read: 1, the middle and the top two
        starts = sorted({1, (n + 1) // 2, max(n - 1, 1), n})
        curves = [execution_curve_ode(model, market, x, grid) for x in starts]
        e = np.array([curve.inventory for curve in curves])
        x = np.array(starts, dtype=float)
        assert np.array_equal(e[:, 0], x)
        assert np.all(e >= 0.0) and np.all(e <= x[:, None])
        # monotone up to the rounding of the sums: grid times may be one ulp
        # apart (the worst seen over adversarial grids was 5 eps * n)
        slack = 64.0 * np.finfo(float).eps * n
        assert np.all(np.diff(e, axis=1) <= slack)
        assert np.all(np.diff(e, axis=0) >= -slack)
        for curve in curves:
            assert np.all(np.isfinite(curve.trading_rate))
            assert np.all(curve.trading_rate >= 0.0)
