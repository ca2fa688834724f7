import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lobliq.cases import resolve
from lobliq.discrete import (
    horizon_factor,
    solve_exp_finite,
    solve_power_coefficients,
)
from lobliq.fluid import fluid_solution
from lobliq.intensity import (
    ExpDecayIntensity,
    GenericIntensity,
    MarketParams,
    PowerLawIntensity,
)
from lobliq.numerics import OdeProblem, integrate_ode
from lobliq.simulate import (
    _BLOCK_PATHS,
    ConstantSpreadPolicy,
    OptimalPowerPolicy,
    StationarySpreadPolicy,
    ZeroRatePowerPolicy,
    constant_policy_value,
    evaluate_fluid_policy_exact,
    execution_curve_ode,
    fluid_spread_policy,
    optimal_policy,
    simulate_policy,
)

POWER = PowerLawIntensity(lam=1.0, alpha=2.0)
FINITE = MarketParams(r=0.1, horizon=1.0)
ZERO_RATE = MarketParams(r=0.0, horizon=1.0)
INF = MarketParams(r=0.1)


class TestSimulatePolicy:
    def test_zero_inventory(self):
        pol = optimal_policy(POWER, FINITE, 1.0, 1)
        stats = simulate_policy(POWER, FINITE, 0, 1.0, pol, 50, seed=1)
        assert stats.mean_revenue == 0.0
        assert stats.liquidation_fraction == 1.0

    def test_optimal_power_unbiased(self):
        pol = optimal_policy(POWER, FINITE, 1.0, 6)
        stats = simulate_policy(POWER, FINITE, 6, 1.0, pol, 20_000, seed=5)
        c = solve_power_coefficients(1.0, 2.0, 0.1, 6)
        target = c[6] * horizon_factor(1.0, 2.0, 0.1)
        assert abs(stats.mean_revenue - target) <= 3.0 * stats.std_error
        assert stats.liquidation_fraction == 1.0

    def test_path_records(self):
        pol = optimal_policy(POWER, FINITE, 1.0, 4)
        stats, paths = simulate_policy(POWER, FINITE, 4, 1.0, pol, 50, seed=9,
                                       keep_paths=True)
        for p in paths:
            assert np.all(np.diff(p.fill_times) > 0.0)
            assert np.all(p.fill_times <= 1.0)
            assert p.terminal_inventory == 4.0 - len(p.fill_times)
            assert p.fully_liquidated == (len(p.fill_times) == 4)
            recomputed = sum(math.exp(-0.1 * t) * s
                             for t, s in zip(p.fill_times, p.fill_spreads))
            assert abs(recomputed - p.discounted_revenue) < 1e-12

    def test_seed_reproducibility(self):
        pol = optimal_policy(POWER, FINITE, 1.0, 4)
        a = simulate_policy(POWER, FINITE, 4, 1.0, pol, 500, seed=13)
        b = simulate_policy(POWER, FINITE, 4, 1.0, pol, 500, seed=13)
        c = simulate_policy(POWER, FINITE, 4, 1.0, pol, 500, seed=14)
        assert a.mean_revenue == b.mean_revenue
        assert a.mean_revenue != c.mean_revenue

    def test_thread_count_invariance(self):
        pol = optimal_policy(POWER, FINITE, 1.0, 5)
        grid = np.linspace(0.1, 0.9, 5)
        runs = [simulate_policy(POWER, FINITE, 5, 1.0, pol, 4000, seed=21,
                                threads=k, curve_times=grid) for k in (1, 2, 7)]
        for other in runs[1:]:
            assert other.mean_revenue == runs[0].mean_revenue
            assert other.std_error == runs[0].std_error
            assert np.array_equal(other.mean_inventory_curve,
                                  runs[0].mean_inventory_curve)

    def test_constant_spread_matches_geometric_sum(self):
        policy = ConstantSpreadPolicy(2.0)
        closed = constant_policy_value(POWER, INF, 4, 1.0, 2.0)
        stats = simulate_policy(POWER, INF, 4, 1.0, policy, 30_000, seed=3)
        assert abs(stats.mean_revenue - closed) <= 3.0 * stats.std_error

    def test_inversion_sampler_agrees_with_analytic(self):
        # the generic quadrature-and-root path must reproduce the closed form
        pol = optimal_policy(POWER, FINITE, 1.0, 3)
        fast = simulate_policy(POWER, FINITE, 3, 1.0, pol, 4000, seed=17)
        slow = simulate_policy(POWER, FINITE, 3, 1.0, pol, 300, seed=17,
                               method="inversion")
        se = math.hypot(slow.std_error, fast.std_error)
        assert abs(slow.mean_revenue - fast.mean_revenue) <= 3.0 * se
        assert slow.liquidation_fraction == 1.0

    @pytest.mark.parametrize("market", [FINITE, ZERO_RATE], ids=["r=0.1", "r=0"])
    def test_inversion_reproduces_closed_form_fill_times(self, market):
        # both read the same exponential draws, so they must agree path by path
        pol = optimal_policy(POWER, market, 1.0, 3)
        _, fast = simulate_policy(POWER, market, 3, 1.0, pol, 40, seed=19,
                                  keep_paths=True)
        _, slow = simulate_policy(POWER, market, 3, 1.0, pol, 40, seed=19,
                                  keep_paths=True, method="inversion")
        for a, b in zip(fast, slow):
            assert len(a.fill_times) == len(b.fill_times) == 3
            assert np.max(np.abs(a.fill_times - b.fill_times)) <= 1e-10

    def test_paths_do_not_depend_on_ensemble_size(self):
        # the longer run crosses a block boundary; a path's draws depend only
        # on the seed and its index
        pol = optimal_policy(POWER, FINITE, 1.0, 3)
        _, short = simulate_policy(POWER, FINITE, 3, 1.0, pol, 100, seed=4,
                                   keep_paths=True)
        _, long = simulate_policy(POWER, FINITE, 3, 1.0, pol, _BLOCK_PATHS + 100,
                                  seed=4, keep_paths=True)
        for a, b in zip(short, long[:100]):
            assert np.array_equal(a.fill_times, b.fill_times)
            assert np.array_equal(a.fill_spreads, b.fill_spreads)
            assert a.discounted_revenue == b.discounted_revenue
        # the second block has a stream of its own
        assert not np.array_equal(long[0].fill_times, long[_BLOCK_PATHS].fill_times)

    @pytest.mark.parametrize("policy_fn, n_paths", [
        (lambda: optimal_policy(POWER, FINITE, 0.5, 4), _BLOCK_PATHS + 500),
        (lambda: StationarySpreadPolicy(spreads=np.array([math.nan] + [3.0] * 4)), 700),
    ], ids=["optimal-two-blocks", "partial-liquidation"])
    def test_curve_statistics_match_path_table(self, policy_fn, n_paths):
        # mean and standard error from per-block integer sums agree with
        # np.mean / np.std over the full table of remaining inventories
        ct = np.linspace(0.0, 1.0, 10)[1:-1]
        stats, paths = simulate_policy(POWER, FINITE, 4, 0.5, policy_fn(), n_paths,
                                       seed=23, curve_times=ct, keep_paths=True)
        left = np.array([[4 - np.count_nonzero(p.fill_times <= t) for t in ct]
                         for p in paths])
        phys = left.astype(float) * 0.5
        mean = np.mean(phys, axis=0)
        se = np.std(phys, axis=0, ddof=1) / math.sqrt(n_paths)
        assert np.all(se > 0.0)
        assert np.allclose(stats.mean_inventory_curve, mean, rtol=1e-12, atol=0.0)
        assert np.allclose(stats.curve_std_error, se, rtol=1e-12, atol=0.0)

    def test_curve_standard_error_undefined_for_one_path(self):
        pol = optimal_policy(POWER, FINITE, 1.0, 3)
        stats = simulate_policy(POWER, FINITE, 3, 1.0, pol, 1, seed=2,
                                curve_times=[0.25, 0.5])
        assert np.all(np.isnan(stats.curve_std_error))
        assert np.all(np.isfinite(stats.mean_inventory_curve))

    def test_stationary_policy_stops_at_horizon(self):
        policy = StationarySpreadPolicy(spreads=np.array([math.nan, 3.0, 3.0, 3.0]))
        stats, paths = simulate_policy(POWER, FINITE, 3, 1.0, policy, 2000, seed=8,
                                       keep_paths=True)
        assert 0.0 < stats.liquidation_fraction < 1.0
        for p in paths:
            assert np.all(p.fill_times <= 1.0)
            assert np.all(np.diff(p.fill_times) > 0.0)

    def test_thinning_agrees_on_bounded_hazard(self):
        model = ExpDecayIntensity(lam=1.0, kappa=1.0)
        market = MarketParams(r=0.0, horizon=4.0)
        pol = optimal_policy(model, market, 1.0, 3)
        a = simulate_policy(model, market, 3, 1.0, pol, 1500, seed=29,
                            method="inversion")
        b = simulate_policy(model, market, 3, 1.0, pol, 1500, seed=31,
                            method="thinning")
        se = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean_revenue - b.mean_revenue) <= 3.5 * se

    def test_thinning_refuses_unbounded_hazard(self):
        pol = optimal_policy(POWER, FINITE, 1.0, 2)
        with pytest.raises(ArithmeticError):
            simulate_policy(POWER, FINITE, 2, 1.0, pol, 5, seed=1, method="thinning")


class TestPolicies:
    def test_zero_rate_optimum_is_recognised(self):
        pol = optimal_policy(POWER, ZERO_RATE, 1.0, 4)
        assert isinstance(pol, ZeroRatePowerPolicy)
        assert not pol.time_homogeneous
        # fill rate k_n / (T - t)
        clock = pol.clock(POWER, 1.0, ZERO_RATE.horizon)
        for n in range(1, 5):
            for t_go in (0.9, 0.1, 1e-6):
                rate = POWER.rate(pol.spread(n, t_go))
                assert math.isclose(rate * t_go, clock.rate(n), rel_tol=1e-12)

    @pytest.mark.parametrize("policy", [
        optimal_policy(POWER, FINITE, 1.0, 4),
        optimal_policy(POWER, ZERO_RATE, 1.0, 4),
        optimal_policy(POWER, INF, 1.0, 4),
        optimal_policy(ExpDecayIntensity(lam=1.0, kappa=1.0), ZERO_RATE, 1.0, 4),
        ConstantSpreadPolicy(2.0),
    ], ids=["power", "power-r0", "power-inf", "exp-r0", "constant"])
    def test_vector_spreads_match_scalar(self, policy):
        t_go = np.array([1.0, 0.7, 0.25, 1e-3, 0.0])
        for n in range(1, 5):
            scalar = [policy.spread(n, t) for t in t_go.tolist()]
            assert np.allclose(policy.spreads_at(n, t_go), scalar, rtol=1e-14, atol=0.0)


class TestFluidPolicyEvaluation:
    def test_zero(self):
        assert evaluate_fluid_policy_exact(POWER, INF, 0, 1.0)[0] == 0.0

    def test_close_to_optimal_at_fine_delta(self):
        values = evaluate_fluid_policy_exact(POWER, INF, 500, 0.01)
        c = solve_power_coefficients(1.0, 2.0, 0.1, 500, delta=0.01)
        ratio = values[500] / c[500]
        assert ratio <= 1.0 + 1e-12      # suboptimal policy never wins
        assert ratio > 0.99              # but is within a percent at x = 5

    def test_suboptimality_every_level(self):
        values = evaluate_fluid_policy_exact(POWER, INF, 12, 1.0)
        c = solve_power_coefficients(1.0, 2.0, 0.1, 12)
        assert np.all(values <= c + 1e-12)

    def test_monte_carlo_agreement(self):
        pol = fluid_spread_policy(POWER, INF, 1.0, 5)
        exact = evaluate_fluid_policy_exact(POWER, INF, 5, 1.0)[5]
        stats = simulate_policy(POWER, INF, 5, 1.0, pol, 20_000, seed=11)
        assert abs(stats.mean_revenue - exact) <= 3.0 * stats.std_error


class TestExecutionCurve:
    def test_initial_condition(self):
        curve = execution_curve_ode(POWER, FINITE, 5, [0.0, 0.5])
        assert np.array_equal(curve.inventory[:, 0], np.arange(6))

    def test_monotone_decreasing_and_positive(self):
        grid = np.linspace(0.05, 0.95, 19)
        curve = execution_curve_ode(POWER, FINITE, 6, grid)
        top = curve.inventory[6]
        assert np.all(np.diff(top) < 0.0)
        assert np.all(top > 0.0)  # strictly positive before maturity, unlike the fluid curve

    def test_matches_monte_carlo(self):
        grid = np.linspace(0.1, 0.9, 9)
        pol = optimal_policy(POWER, FINITE, 1.0, 4)
        stats = simulate_policy(POWER, FINITE, 4, 1.0, pol, 20_000, seed=23,
                                curve_times=grid)
        curve = execution_curve_ode(POWER, FINITE, 4, grid)
        z = np.abs(curve.inventory[4] - stats.mean_inventory_curve) / stats.curve_std_error
        assert np.max(z) <= 3.0

    def test_terminal_drain(self):
        vals = []
        for eps in [0.1, 0.03, 0.01]:
            curve = execution_curve_ode(POWER, FINITE, 6, [1.0 - eps])
            vals.append(curve.inventory[6][0])
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
        assert np.all(curve.inventory[6] > baseline)

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
        second = np.diff(curve.inventory[4], 2)
        assert np.all(second > -1e-9)

    def test_rejects_grid_at_maturity(self):
        with pytest.raises(ValueError):
            execution_curve_ode(POWER, FINITE, 3, [0.5, 1.0])

    def test_fluid_dichotomy(self):
        # the fluid curve drains smoothly by T while E(x, t) stays positive
        fl = fluid_solution(POWER, FINITE)
        assert fl.trade_curve(0.999999, 6.0) < 1e-4
        curve = execution_curve_ode(POWER, FINITE, 6, [0.99])
        assert curve.inventory[6][0] > 0.0


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


GENERIC = GenericIntensity(value=lambda s: 2.0 / (1.0 + s) ** 3,
                           deriv1=lambda s: -6.0 / (1.0 + s) ** 4,
                           deriv2=lambda s: 24.0 / (1.0 + s) ** 5)
FINITE_GRID = [0.0, 0.2, 0.7, 0.99]
INF_GRID = [0.0, 0.5, 2.0, 8.0]


class TestExactExecutionCurve:
    @pytest.mark.parametrize("model, market, alpha, grid", [
        (POWER, FINITE, 2.0, FINITE_GRID),
        (PowerLawIntensity(lam=1.0, alpha=3.0), ZERO_RATE, 3.0, FINITE_GRID),
        (POWER, INF, 2.0, INF_GRID),
        (ExpDecayIntensity(lam=1.0, kappa=1.0), INF, None, INF_GRID),
        (GENERIC, INF, None, INF_GRID),
    ], ids=["power_T", "power_r0", "power_inf", "exp_inf", "generic_inf"])
    @pytest.mark.parametrize("n", [5, 20])
    def test_factoring_cases_match_expm(self, model, market, alpha, grid, n):
        # E(., t) = expm(tau(t) Q) x with Q the death generator of the base rates
        tau, g = _time_change(alpha, market)
        rates = resolve(model, market).level_rates(n)
        base = rates(0.0) / g(0.0)
        gen = np.diag(np.concatenate(([0.0], -base))) + np.diag(base, -1)
        x = np.arange(n + 1.0)
        curve = execution_curve_ode(model, market, n, grid)
        for j, t in enumerate(grid):
            exact = expm(tau(t) * gen) @ x
            assert np.max(np.abs(curve.inventory[:, j] - exact)) <= 1e-12
            rate = -g(t) * (gen @ exact)[n]
            assert abs(curve.trading_rate[j] - rate) <= 1e-12 * max(1.0, rate)

    @pytest.mark.parametrize("lam", [1.0, 4.0, 30.0])
    def test_exp_zero_rate_rows_are_straight_lines(self, lam):
        # forward Kolmogorov equation of the transition matrix P[x, j] under the
        # true, non-factoring level rates, integrated by RK4
        model, n = ExpDecayIntensity(lam=lam, kappa=1.0), 6
        rates = resolve(model, ZERO_RATE).level_rates(n)

        def forward(t, flat):
            h = np.concatenate(([0.0], rates(t)))
            p = flat.reshape(n + 1, n + 1)
            dp = -p * h
            dp[:, :-1] += p[:, 1:] * h[1:]
            return dp.ravel()

        ts, ps = integrate_ode(OdeProblem((n + 1) ** 2, forward, (0.0, 0.99),
                                          np.eye(n + 1).ravel(), step_count=9900))
        grid = ts[::990]
        curve = execution_curve_ode(model, ZERO_RATE, n, grid)
        h0 = np.concatenate(([0.0], rates(0.0)))
        for j, t in enumerate(grid):
            p = ps[990 * j].reshape(n + 1, n + 1)
            assert np.max(np.abs(curve.inventory[:, j] - p @ np.arange(n + 1.0))) <= 1e-9
            assert np.array_equal(curve.inventory[:, j], np.arange(n + 1.0) - t * h0)
            fill_rate = p[n] @ np.concatenate(([0.0], rates(t)))
            assert abs(curve.trading_rate[j] - fill_rate) <= 1e-9
        assert np.all(curve.trading_rate == h0[n])

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
        curve = execution_curve_ode(model, market, n, grid)
        e = curve.inventory
        x = np.arange(n + 1.0)
        assert np.array_equal(e[:, 0], x)
        assert np.all(e >= 0.0) and np.all(e <= x[:, None])
        # monotone up to the rounding of the sums: grid times may be one ulp
        # apart (the worst seen over adversarial grids was 5 eps * n)
        slack = 64.0 * np.finfo(float).eps * n
        assert np.all(np.diff(e, axis=1) <= slack)
        assert np.all(np.diff(e, axis=0) >= -slack)
        assert np.all(np.isfinite(curve.trading_rate))
        assert np.all(curve.trading_rate >= 0.0)
