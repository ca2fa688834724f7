import math

import numpy as np
import pytest

from lobliq.discrete import solve_power_coefficients
from lobliq.extensions import (
    ExpansionSolution,
    RegimeParams,
    TwoExchangeParams,
    _regime_residuals,
    regime_discrete,
    regime_fluid_fixed_point,
    two_exchange_expansion,
    two_exchange_patch,
)

FIG4 = dict(lambda0=1.5, lambda1=0.5, r=0.1, alpha=2.0)


class TestRegimeFixedPoint:
    def test_ordering_chain(self):
        p = RegimeParams(theta0=1.0, theta1=1.0, **FIG4)
        c0, c1 = regime_fluid_fixed_point(p)
        assert p.single_regime_constant(1) < c1 < c0 < p.single_regime_constant(0)

    def test_residuals(self):
        p = RegimeParams(theta0=1.0, theta1=1.0, **FIG4)
        c0, c1 = regime_fluid_fixed_point(p)
        g0, g1 = _regime_residuals(c0, c1, p)
        assert abs(g0) <= 1e-12 and abs(g1) <= 1e-12

    def test_slow_switching_limit(self):
        p = RegimeParams(theta0=1e-8, theta1=1e-8, **FIG4)
        c0, c1 = regime_fluid_fixed_point(p)
        assert abs(c0 - math.sqrt(7.5)) < 1e-6
        assert abs(c1 - math.sqrt(2.5)) < 1e-6

    def test_fast_switching_limit(self):
        p = RegimeParams(theta0=1e8, theta1=1e8, **FIG4)
        c0, c1 = regime_fluid_fixed_point(p)
        assert abs(c0 - math.sqrt(5.0)) < 1e-6
        assert abs(c1 - math.sqrt(5.0)) < 1e-6

    def test_exact_zero_rates_decouple(self):
        p = RegimeParams(theta0=0.0, theta1=0.0, **FIG4)
        c0, c1 = regime_fluid_fixed_point(p)
        assert c0 == p.single_regime_constant(0)
        assert c1 == p.single_regime_constant(1)

    def test_one_sided_switching(self):
        p = RegimeParams(theta0=0.0, theta1=2.0, **FIG4)
        c0, c1 = regime_fluid_fixed_point(p)
        assert c0 == p.single_regime_constant(0)
        g0, g1 = _regime_residuals(c0, c1, p)
        assert abs(g1) < 1e-12

    def test_monotone_in_theta(self):
        thetas = np.geomspace(1e-3, 1e3, 13)
        c0s, c1s = [], []
        for th in thetas:
            c0, c1 = regime_fluid_fixed_point(
                RegimeParams(theta0=float(th), theta1=float(th), **FIG4))
            c0s.append(c0)
            c1s.append(c1)
        assert np.all(np.diff(c0s) < 0.0)  # active regime loses its edge
        assert np.all(np.diff(c1s) > 0.0)  # slow regime gains optionality

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RegimeParams(lambda0=0.5, lambda1=1.5, theta0=1.0, theta1=1.0,
                         r=0.1, alpha=2.0)


class TestRegimeDiscrete:
    def test_terminal_condition(self):
        p = RegimeParams(theta0=1.0, theta1=1.0, **FIG4)
        u, w = regime_discrete(p, 5)
        assert u[0] == 0.0 and w[0] == 0.0

    def test_active_regime_worth_more(self):
        p = RegimeParams(theta0=0.7, theta1=1.3, **FIG4)
        u, w = regime_discrete(p, 25)
        assert np.all(u[1:] > w[1:])

    def test_zero_rates_decouple_to_single_regime(self):
        p = RegimeParams(theta0=0.0, theta1=0.0, **FIG4)
        u, w = regime_discrete(p, 10)
        assert np.max(np.abs(u - solve_power_coefficients(1.5, 2.0, 0.1, 10))) < 1e-10
        assert np.max(np.abs(w - solve_power_coefficients(0.5, 2.0, 0.1, 10))) < 1e-10

    def test_large_n_matches_fluid_constants(self):
        p = RegimeParams(theta0=1.0, theta1=1.0, **FIG4)
        n = 3000
        u, w = regime_discrete(p, n)
        c0, c1 = regime_fluid_fixed_point(p)
        assert abs(u[n] / (c0 * math.sqrt(n)) - 1.0) < 0.02
        assert abs(w[n] / (c1 * math.sqrt(n)) - 1.0) < 0.02

    def test_residual_discipline(self):
        p = RegimeParams(theta0=0.4, theta1=2.5, r=0.07, alpha=2.6,
                         lambda0=2.0, lambda1=0.3)
        u, w = regime_discrete(p, 30)
        aa = (2.6 - 1.0) ** 1.6 / 2.6 ** 2.6
        for n in range(1, 31):
            res_u = aa * 2.0 * (u[n] - u[n - 1]) ** -1.6 - (0.07 + 0.4) * u[n] + 0.4 * w[n]
            res_w = aa * 0.3 * (w[n] - w[n - 1]) ** -1.6 - (0.07 + 2.5) * w[n] + 2.5 * u[n]
            assert abs(res_u) <= 1e-10 * max(1.0, 0.07 * u[n])
            assert abs(res_w) <= 1e-10 * max(1.0, 0.07 * u[n])


def make_params(**kw):
    base = dict(lambda0=1.0, lambda1=0.05, delta_block=1.0, alpha=2.0, r=0.1,
                x_max=3.0, grid_step=0.002)
    base.update(kw)
    return TwoExchangeParams(**base)


class TestTwoExchangePatch:
    def test_degenerate_reduction(self):
        sol = two_exchange_patch(make_params(lambda1=0.0))
        v0 = sol.params.single_exchange_value(sol.x_grid)
        assert np.max(np.abs(sol.value - v0)) < 1e-8

    def test_block_venue_adds_value(self):
        sol = two_exchange_patch(make_params(lambda1=0.05))
        v0 = sol.params.single_exchange_value(sol.x_grid)
        assert np.all(sol.value - v0 >= -1e-12)
        assert sol.value[-1] > v0[-1]

    def test_delay_ode_residual(self):
        params = make_params(lambda1=0.08)
        sol = two_exchange_patch(params)
        a, r, dblk = params.alpha, params.r, params.delta_block
        aa = (a - 1.0) ** (a - 1.0) / a ** a
        xs, v = sol.x_grid, sol.value
        h = params.grid_step
        lag = int(round(dblk / h))
        # 5-point stencil needs smooth v: stay clear of the seed layer and of
        # the singular image carried a little way above each knot
        windows = [(0.3, 0.95), (1.3, 1.95), (2.3, 2.95)]
        checked = 0
        for i in range(2, len(xs) - 2):
            x = xs[i]
            if not any(lo <= x <= hi for lo, hi in windows):
                continue
            vp = (v[i - 2] - 8.0 * v[i - 1] + 8.0 * v[i + 1] - v[i + 2]) / (12.0 * h)
            gap = v[i] - (v[i - lag] if i > lag else 0.0)
            resid = aa * params.lambda0 * vp ** (1.0 - a) \
                + aa * params.lambda1 * min(x, dblk) ** a * gap ** (1.0 - a) \
                - r * v[i]
            assert abs(resid) < 1e-6, f"residual {resid:.2e} at x = {x}"
            checked += 1
        assert checked > 900

    def test_value_continuous_at_knots(self):
        params = make_params(lambda1=0.3)
        sol = two_exchange_patch(params)
        h = params.grid_step
        steps = np.abs(np.diff(sol.value))
        for knot in (1.0, 2.0):
            k = int(round(knot / h))
            # no jump: the step across the knot is comparable to its neighbours
            assert steps[k] <= 3.0 * max(steps[k - 1], steps[k + 1]) + 1e-12

    def test_spreads_positive(self):
        sol = two_exchange_patch(make_params(lambda1=0.2))
        assert np.all(sol.spread_continuous[1:] > 0.0)
        assert np.all(sol.spread_block[1:] > 0.0)

    def test_seed_width_check_reports_misconfiguration(self):
        # an absurdly wide seed region cannot reproduce itself at half width
        with pytest.raises(ArithmeticError):
            two_exchange_patch(make_params(lambda1=0.5, x_max=2.0),
                               x_seed=1.0, check_seed=True)

    def test_strong_block_venue_not_concave_near_knot(self):
        # the solver must not assert concavity: with a strong block venue the
        # value turns convex just above the knot, where the delayed image of
        # the steep small-inventory region enters the block term
        params = make_params(lambda1=5.0, delta_block=0.5, x_max=2.0,
                             grid_step=0.001)
        sol = two_exchange_patch(params, x_seed=5e-4)
        second = np.diff(sol.value, 2)
        knot = int(round(0.5 / 0.001))
        assert np.any(second[knot:] > 0.0)


def _reference_patch(params, x_seed):
    """The patching march with one scalar spline evaluation per delayed query:
    the per-step reference for the segment-at-a-time solver."""
    from scipy.interpolate import CubicSpline
    a, r, dblk, h = params.alpha, params.r, params.delta_block, params.grid_step
    p, aa = (a - 1.0) / a, (a - 1.0) ** (a - 1.0) / a ** a
    n = int(round(params.x_max / h)) + 1
    xs = h * np.arange(n)
    seed = min(max(1, int(round(x_seed / h))), n - 1)
    u = np.full(n, np.nan)
    u[: seed + 1] = (params.lambda0 / (a * r)) ** (1.0 / (a - 1.0)) * xs[: seed + 1]
    v = u ** p
    seg_len = int(round(dblk / h))

    def slope(x, u_val, n_done):
        v_here = u_val ** p
        block = 0.0
        if params.lambda1 > 0.0:
            v_delay = 0.0
            if x > dblk:
                i0 = max(0, int(math.floor((x - dblk) / dblk - 1e-12))) * seg_len
                if i0 + seg_len > n_done:  # a knot query rounded past its knot
                    v_delay = v[i0]
                else:
                    sp = CubicSpline(xs[i0:i0 + seg_len + 1], v[i0:i0 + seg_len + 1])
                    v_delay = float(sp(x - dblk))
            block = aa * params.lambda1 * min(x, dblk) ** a * (v_here - v_delay) ** (1.0 - a)
        d = r * v_here - block
        return (a / (a - 1.0)) * u_val ** (1.0 / a) * (aa * params.lambda0 / d) ** (1.0 / (a - 1.0))

    for i in range(seed, n - 1):
        x, ui = xs[i], u[i]
        k1 = slope(x, ui, i)
        k2 = slope(x + 0.5 * h, ui + 0.5 * h * k1, i)
        k3 = slope(x + 0.5 * h, ui + 0.5 * h * k2, i)
        k4 = slope(x + h, ui + h * k3, i)
        u[i + 1] = ui + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v[i + 1] = u[i + 1] ** p
    return v


@pytest.mark.parametrize("kw, x_seed", [
    (dict(lambda1=0.3, grid_step=0.01), 0.01),
    (dict(lambda1=0.3, grid_step=0.01), 1.0),
    (dict(lambda1=0.7, alpha=2.6, delta_block=0.5, grid_step=0.01), 0.005),
    (dict(lambda1=2.0, alpha=1.3, delta_block=0.3, grid_step=0.02, x_max=2.1), 0.02),
])
def test_patch_matches_per_step_reference(kw, x_seed):
    params = make_params(**kw)
    sol = two_exchange_patch(params, x_seed=x_seed, check_seed=False)
    np.testing.assert_array_equal(sol.value, _reference_patch(params, x_seed))


@pytest.mark.parametrize("kw", [
    dict(delta_block=0.3, grid_step=0.02, x_max=2.1),  # 15 * 0.02 > 0.3
    dict(delta_block=1.0 - 5e-12, grid_step=0.01),    # on the lattice within 1e-9
])
def test_patch_knot_query_past_the_knot_reads_the_knot(kw, monkeypatch):
    # x + h - delta_block rounds just past a knot whose segment is still being
    # marched; the result must not depend on the unwritten node there
    params = make_params(lambda1=0.5, **kw)
    v = two_exchange_patch(params, check_seed=False).value
    real_empty = np.empty

    def poisoned(shape, *args, **kwargs):
        out = real_empty(shape, *args, **kwargs)
        out[...] = np.nan
        return out

    monkeypatch.setattr(np, "empty", poisoned)
    np.testing.assert_array_equal(two_exchange_patch(params, check_seed=False).value, v)


class TestTwoExchangeExpansion:
    def test_eps_zero_is_single_exchange(self):
        expansion = two_exchange_expansion(make_params(lambda1=1.0), 0.0)
        for x in [0.3, 1.0, 2.5]:
            assert expansion.value(x) == expansion.v0(x)

    def test_inner_branch_closed_form(self):
        params = make_params(lambda1=1.0)
        expansion = two_exchange_expansion(params, 0.1)
        a = params.alpha
        for x in [0.2, 0.7, 1.0]:
            assert abs(expansion.v1(x) - expansion.c1_constant * x ** (2.0 - 1.0 / a)) < 1e-14

    def test_first_order_term_against_patch_derivative(self):
        # (v_patch(eps) - v0)/eps at tiny eps is an independent oracle for v1
        lbar = 1.0
        eps = 1e-4
        params = make_params(lambda1=lbar * eps, grid_step=0.001)
        sol = two_exchange_patch(params)
        expansion = two_exchange_expansion(make_params(lambda1=lbar), eps)
        for x in [0.5, 1.0, 1.5, 2.5]:
            v_eps = sol.value_at(x)
            v0 = float(sol.params.single_exchange_value(x))
            numeric_v1 = (v_eps - v0) / eps
            assert abs(numeric_v1 - expansion.v1(x)) < 2e-3 * max(1.0, abs(numeric_v1))

    def test_second_order_error_decay(self):
        lbar = 1.0
        errs = {}
        for eps in (0.05, 0.025):
            params = make_params(lambda1=lbar * eps)
            sol = two_exchange_patch(params)
            expansion = two_exchange_expansion(make_params(lambda1=lbar), eps)
            grid = sol.x_grid[sol.x_grid >= 0.05]
            exact = np.interp(grid, sol.x_grid, sol.value)
            approx = np.array([expansion.value(x) for x in grid])
            errs[eps] = np.max(np.abs(exact - approx))
        ratio = errs[0.05] / errs[0.025]
        assert 3.5 <= ratio <= 4.5

    def test_grid_step_must_divide_block(self):
        with pytest.raises(ValueError):
            make_params(grid_step=0.3)


def _v1_oracle(params, x):
    """v1 at x from a 30-digit mpmath integral of the tail integrand."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, r, d, l0, l1 = (mpmath.mpf(v) for v in (params.alpha, params.r,
                                                    params.delta_block,
                                                    params.lambda0, params.lambda1))
        p = (a - 1) / a
        k = (a - 1) ** (a - 1) / a ** a * l1 * (l0 / (a * r)) ** ((1 - a) / a)
        x = mpmath.mpf(x)
        f = lambda y: (k * d ** a * (y ** p - (y - d) ** p) ** (1 - a)
                       * y ** (1 / a - 1) / (a * r))
        tail = mpmath.quad(f, mpmath.linspace(d, x, 5))
        return x ** (-1 / a) * (k * d ** 2 / (2 * a * r) + tail)


def test_gauss_legendre_rule_matches_numpy():
    from lobliq.extensions import _GAUSS_NODES, _GAUSS_WEIGHTS
    nodes, weights = np.polynomial.legendre.leggauss(8)
    np.testing.assert_allclose(_GAUSS_NODES, nodes, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(_GAUSS_WEIGHTS, weights, rtol=0.0, atol=1e-15)


class TestExpansionOracle:
    @pytest.mark.parametrize("alpha", [1.3, 2.0, 2.6, 4.0])
    def test_v1_against_mpmath(self, alpha):
        params = make_params(lambda1=1.0, alpha=alpha, grid_step=0.001)
        expansion = two_exchange_expansion(params, 0.1)
        grid = 0.001 * np.arange(3001)
        on_grid = expansion.v1(grid)
        # just above the block size, mid-segment and at x_max, read off one
        # array evaluation, then a lone off-grid scalar
        cases = [(grid[i], on_grid[i]) for i in (1001, 1500, 3000)]
        cases.append((2.2345678, expansion.v1(2.2345678)))
        for x, got in cases:
            ref = _v1_oracle(params, x)
            assert abs(got - float(ref)) <= 1e-13 * abs(float(ref)), f"x = {x}"

    def test_array_equals_scalar_elementwise(self):
        expansion = two_exchange_expansion(make_params(lambda1=1.0, alpha=2.6), 0.2)
        xs = np.concatenate([[0.0, 0.5, 1.0, 1.0 + 1e-9, 1.0005, 1.015625],
                             np.linspace(1.01, 3.0, 97), [2.999, 1.7]])
        values = expansion.value(xs)
        assert values.shape == xs.shape
        np.testing.assert_array_equal(values, [expansion.value(float(x)) for x in xs])

    def test_scalar_value_is_a_float(self):
        expansion = two_exchange_expansion(make_params(lambda1=1.0), 0.1)
        for x in (0.0, 0.4, 1.0, 2.5):
            assert type(expansion.value(x)) is float
            assert type(expansion.v1(x)) is float
