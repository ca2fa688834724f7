"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (run pytest with -s or check the
captured output); a failed assertion is the corresponding FAIL.
"""

import math
import time

import numpy as np
import pytest

from lobliq.cases import resolve
from lobliq.convergence import value_convergence
from lobliq.discrete import (
    power_constant,
    solve_exp_finite,
    solve_exp_infinite,
)
from lobliq.extensions import (
    RegimeParams,
    TwoExchangeParams,
    regime_fluid_fixed_point,
    two_exchange_expansion,
    two_exchange_patch,
)
from lobliq.fluid import exp_fluid_finite, exp_fluid_infinite
from lobliq.intensity import ExpDecayIntensity, MarketParams, PowerLawIntensity
from lobliq.simulate import execution_curve_ode, simulate_policy
from ode_oracles import OdeProblem, integrate_ode, regime_residuals, stationary_by_level

POWER = PowerLawIntensity(lam=1.0, alpha=2.0)
MARKET_INF = MarketParams(r=0.1)
MARKET_T1 = MarketParams(r=0.1, horizon=1.0)


def report(num, name):
    print(f"criterion {num:02d} {name}: PASS")


def test_criterion_01_power_recursion_fidelity():
    started = time.perf_counter()
    c = resolve(POWER, MARKET_INF).solve(1.0, 500).coefficients
    c1 = math.sqrt(2.5)
    c2 = 0.5 * (c1 + math.sqrt(c1 * c1 + 10.0))
    assert abs(c[1] - c1) <= 1e-10
    assert abs(c[2] - c2) <= 1e-10
    b = power_constant(2.0) * 1.0
    for n in range(1, 501):
        resid = abs(0.1 * c[n] - b * (c[n] - c[n - 1]) ** -1.0)
        assert resid <= 1e-10 * 0.1 * c[n]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"power-law recursion fidelity ({elapsed:.3f}s)")


def test_criterion_02_spread_identity():
    t_grid = np.linspace(0.05, 5.0, 50)
    worst = 0.0
    for t in t_grid:
        sol = resolve(POWER, MarketParams(r=0.1, horizon=t)).solve(1.0, 50)
        gaps = sol.spreads[1:] - 2.0 * np.diff(sol.values)
        worst = max(worst, float(np.max(np.abs(gaps))))
    assert worst <= 1e-10
    report(2, f"marginal spread identity on 50x50 grid (worst {worst:.2e})")


def test_criterion_03_monotone_fluid_convergence():
    started = time.perf_counter()
    rep = value_convergence(POWER, MARKET_INF, x_probe=5.0, delta0=1.0, k_max=9)
    assert abs(rep.fluid_value - 5.0) < 1e-12  # sqrt(1/(r*alpha)) * sqrt(5) * ...
    assert np.all(np.diff(rep.values) > 0.0)   # strictly increasing up the ladder
    assert np.all(rep.values <= rep.fluid_value)
    assert rep.ratios[-1] >= 0.99              # delta = 1/512 within one percent
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(3, f"monotone fluid convergence, final ratio {rep.ratios[-1]:.5f} "
              f"({elapsed:.2f}s)")


def test_criterion_04_control_convergence():
    table = value_convergence(POWER, MARKET_INF, 5.0, 1.0, 9)
    assert np.all(np.diff(table.pointwise_err) < 0.0)
    assert np.all(table.averaged_err <= table.pointwise_err)
    report(4, "control convergence with cell-averaged comparator winning")


def test_criterion_05_exponential_closed_forms():
    # finite horizon, r = 0: closed form vs direct integration of the
    # coupled level ODEs dV_n/dT = (lam/(kappa*delta)) * exp(-1 + kappa*(V_{n-1}-V_n)/delta)
    lam = kappa = delta = 1.0
    n_levels, t_end = 20, 2.0

    def rhs(t, v):
        prev = np.concatenate(([0.0], v[:-1]))
        return (lam / (kappa * delta)) * np.exp(-1.0 + kappa * (prev - v) / delta)

    _, ys = integrate_ode(OdeProblem(n_levels, rhs, (0.0, t_end),
                                     np.zeros(n_levels), step_count=4000))
    closed, _ = solve_exp_finite(n_levels, delta, [t_end], lam, kappa)
    worst_fin = np.max(np.abs(ys[-1] - closed[1:, 0]))
    assert worst_fin <= 1e-8

    # infinite horizon: Lambert-W recursion vs a maximization per level
    values, spreads = solve_exp_infinite(50.0, 1.0, 1.0, 1.0, 0.1)
    book = ExpDecayIntensity(lam=1.0, kappa=1.0)
    generic_values, generic_spreads = stationary_by_level(
        book.rate, lambda s: -book.rate(s), 1.0, 0.1, 50)
    worst_inf = np.max(np.abs(values - generic_values))
    assert worst_inf <= 1e-8
    assert np.all(spreads[1:] >= 1.0 - 1e-13)
    assert np.all(generic_spreads[1:] >= 1.0 - 1e-8)
    report(5, f"exponential closed forms (finite {worst_fin:.1e}, "
              f"stationary {worst_inf:.1e})")


def test_criterion_06_exponential_fluid_bounds():
    lam, kappa, t_h = 1.0, 1.0, 2.0
    x_knee = lam * t_h / math.e
    xs = np.linspace(0.01, 2.0 * x_knee, 100)
    for x in xs:
        v, _, _ = exp_fluid_finite(x, t_h, lam, kappa)
        lower = x / kappa * math.log(lam * t_h / x)
        upper = lam * t_h / (kappa * math.e)
        assert lower <= v + 1e-12
        assert v <= upper + 1e-12
        if x <= x_knee:
            assert abs(v - lower) <= 1e-12   # lower bound tight when finishing
        else:
            assert abs(v - upper) <= 1e-12   # upper bound tight when capped
    report(6, "exponential fluid bounds tight on both regions")


def test_criterion_07_li_equation_solution():
    lam, kappa, r = 1.0, 1.0, 0.1
    h = 1e-5
    for x in [0.25, 0.5, 1.0, 2.0, 5.0]:
        vp = (exp_fluid_infinite(x + h, lam, kappa, r)[0]
              - exp_fluid_infinite(x - h, lam, kappa, r)[0]) / (2.0 * h)
        v = exp_fluid_infinite(x, lam, kappa, r)[0]
        resid = vp + (1.0 + math.log(kappa * r * v / lam)) / kappa
        assert abs(resid) <= 1e-6
    v100 = exp_fluid_infinite(100.0, lam, kappa, r)[0]
    cap = lam / (kappa * r * math.e)
    assert abs(v100 - cap) <= 0.01 * cap
    report(7, f"li-equation solution (v(100)/asymptote = {v100 / cap:.12f})")


def test_criterion_08_simulation_consistency():
    started = time.perf_counter()
    policy = resolve(POWER, MARKET_T1).policy(1.0, 6)
    stats = simulate_policy(POWER, MARKET_T1, 6, 1.0, policy, 100_000, seed=42)
    target = resolve(POWER, MARKET_T1).solve(1.0, 6).values[6]
    z = abs(stats.mean_revenue - target) / stats.std_error
    assert z <= 3.0
    assert stats.liquidation_fraction == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(8, f"simulation consistency (z = {z:.2f}, liquidated "
              f"{stats.liquidation_fraction:.3f}, {elapsed:.1f}s)")


def test_criterion_09_execution_curve_cross_check():
    grid = np.linspace(0.045, 0.95, 20)
    policy = resolve(POWER, MARKET_T1).policy(1.0, 6)
    stats = simulate_policy(POWER, MARKET_T1, 6, 1.0, policy, 100_000, seed=42,
                            curve_times=grid)
    curve = execution_curve_ode(POWER, MARKET_T1, 6, grid)
    z = np.abs(curve.inventory - stats.mean_inventory_curve) / stats.curve_std_error
    assert np.max(z) <= 3.0

    # thin book (alpha = 4): S-shape, fast at both ends
    thin = PowerLawIntensity(lam=1.0, alpha=4.0)
    shape = execution_curve_ode(thin, MARKET_T1, 6, np.array([0.05, 0.5, 0.95]))
    early, mid, late = shape.trading_rate
    assert early > mid and late > mid

    # deep book (alpha = 2): stays above the constant-rate baseline until maturity
    deep = execution_curve_ode(POWER, MARKET_T1, 6, np.linspace(0.05, 0.9, 18))
    baseline = 6.0 * (1.0 - deep.times)
    assert np.all(deep.inventory > baseline)
    report(9, f"execution-curve cross-check (max |z| = {np.max(z):.2f}, S-shape ok)")


def test_criterion_10_regime_switching():
    params = RegimeParams(lambda0=1.5, lambda1=0.5, theta0=1.0, theta1=1.0,
                          r=0.1, alpha=2.0)
    c0, c1 = regime_fluid_fixed_point(params)
    g0, g1 = regime_residuals(c0, c1, params)
    assert abs(g0) <= 1e-12 and abs(g1) <= 1e-12
    assert params.single_regime_constant(1) < c1 < c0 < params.single_regime_constant(0)

    slow = regime_fluid_fixed_point(RegimeParams(lambda0=1.5, lambda1=0.5,
                                                 theta0=1e-8, theta1=1e-8,
                                                 r=0.1, alpha=2.0))
    assert abs(slow[0] - math.sqrt(7.5)) <= 1e-6
    assert abs(slow[1] - math.sqrt(2.5)) <= 1e-6
    fast = regime_fluid_fixed_point(RegimeParams(lambda0=1.5, lambda1=0.5,
                                                 theta0=1e8, theta1=1e8,
                                                 r=0.1, alpha=2.0))
    assert abs(fast[0] - math.sqrt(5.0)) <= 1e-6
    assert abs(fast[1] - math.sqrt(5.0)) <= 1e-6
    report(10, "regime switching fixed point, ordering, and both theta limits")


def test_criterion_11_two_exchange():
    base = dict(lambda0=1.0, delta_block=1.0, alpha=2.0, r=0.1, x_max=3.0,
                grid_step=0.002)
    degenerate = two_exchange_patch(TwoExchangeParams(lambda1=0.0, **base))
    v0 = degenerate.params.single_exchange_value(degenerate.x_grid)
    assert np.max(np.abs(degenerate.value - v0)) <= 1e-8

    small = two_exchange_patch(TwoExchangeParams(lambda1=0.05, **base))
    v0 = small.params.single_exchange_value(small.x_grid)
    assert np.all(small.value - v0 >= -1e-12)

    errs = {}
    for eps in (0.05, 0.025):
        sol = two_exchange_patch(TwoExchangeParams(lambda1=eps, **base))
        expansion = two_exchange_expansion(TwoExchangeParams(lambda1=1.0, **base), eps)
        grid = sol.x_grid[sol.x_grid >= 0.05]
        exact = np.interp(grid, sol.x_grid, sol.value)
        approx = np.array([expansion.value(x) for x in grid])
        errs[eps] = np.max(np.abs(exact - approx))
    ratio = errs[0.05] / errs[0.025]
    assert 3.5 <= ratio <= 4.5
    report(11, f"two-exchange degenerate/dominance/expansion (order ratio {ratio:.2f})")


def test_criterion_12_determinism_across_threads():
    policy = resolve(POWER, MARKET_T1).policy(1.0, 6)
    grid = np.linspace(0.045, 0.95, 20)
    runs = [simulate_policy(POWER, MARKET_T1, 6, 1.0, policy, 100_000, seed=42,
                            threads=k, curve_times=grid) for k in (1, 4)]
    assert runs[0].mean_revenue == runs[1].mean_revenue
    assert runs[0].std_error == runs[1].std_error
    assert runs[0].liquidation_fraction == runs[1].liquidation_fraction
    assert np.array_equal(runs[0].mean_inventory_curve, runs[1].mean_inventory_curve)
    report(12, "identical statistics for 1 and 4 worker threads")
