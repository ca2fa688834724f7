import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from lobliq.discrete import (
    expected_liquidation_time_discrete,
    horizon_factor,
    level_of,
    power_constant,
    power_value_and_spread,
    solve_discrete,
    solve_exp_finite,
    solve_exp_infinite,
    solve_generic_stationary,
    solve_power_coefficients,
    solve_power_zero_rate,
    zero_rate_value_and_spread,
)
from lobliq.intensity import (
    ExpDecayIntensity,
    GenericIntensity,
    MarketParams,
    PowerLawIntensity,
)

LAM, ALPHA, R = 1.0, 2.0, 0.1


def bisect_lambert(y):
    lo, hi = 0.0, max(1.0, y)
    while hi * math.exp(hi) < y:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _reference_power_recursion(b, weight, alpha, n_max):
    """The per-level bracket-halving plus brentq solve in the increment m:
    the reference for the package's Newton solve in log(m)."""
    c = np.empty(n_max + 1)
    c[0] = 0.0
    c[1] = (b / weight) ** (1.0 / alpha)
    prev_inc = c[1]
    for n in range(2, n_max + 1):
        offset = weight * c[n - 1]
        h = lambda m: offset + weight * m - b * m ** (1.0 - alpha)
        lo = prev_inc
        while h(lo) >= 0.0:
            lo *= 0.5
        m = brentq(h, lo, prev_inc, xtol=1e-280, rtol=8.882e-16, maxiter=200)
        c[n] = c[n - 1] + m
        prev_inc = m
    return c


class TestPowerCoefficients:
    def test_boundary(self):
        c = solve_power_coefficients(LAM, ALPHA, R, 5)
        assert c[0] == 0.0

    def test_first_two_closed_forms(self):
        c = solve_power_coefficients(LAM, ALPHA, R, 5)
        c1 = math.sqrt(power_constant(2.0) * LAM / R)  # sqrt(2.5)
        c2 = 0.5 * (c1 + math.sqrt(c1 * c1 + LAM / R))
        assert abs(c[1] - c1) < 1e-12
        assert abs(c[2] - c2) < 1e-12
        assert abs(c[1] - 1.5811388300841898) < 1e-10

    def test_defining_equation_residuals(self):
        c = solve_power_coefficients(LAM, ALPHA, R, 200)
        b = power_constant(ALPHA) * LAM
        for n in range(1, 201):
            resid = abs(R * c[n] - b * (c[n] - c[n - 1]) ** (1.0 - ALPHA))
            assert resid <= 1e-10 * R * c[n]

    def test_shape_invariants(self):
        c = solve_power_coefficients(1.7, 3.2, 0.04, 120)
        inc = np.diff(c)
        assert np.all(inc > 0.0)            # strictly increasing
        assert np.all(np.diff(inc) <= 1e-14)  # concave in the level

    @given(st.one_of(st.just(2.0), st.just(1.001), st.floats(1.001, 30.0)),
           st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
           st.floats(1e-4, 1.0),
           st.one_of(st.integers(1, 300), st.integers(300, 20_000)))
    @settings(max_examples=40, deadline=None)
    def test_newton_matches_reference_at_domain_edges(self, alpha, r, delta, n_max):
        lam = 1.3
        lam_eff = lam * delta ** (alpha - 1.0)
        if r == 0.0:
            c = solve_power_zero_rate(lam, alpha, n_max, delta)
            b, weight = lam_eff * ((alpha - 1.0) / alpha) ** (alpha - 1.0), 1.0
        else:
            c = solve_power_coefficients(lam, alpha, r, n_max, delta)
            b, weight = power_constant(alpha) * lam_eff, r
        ref = _reference_power_recursion(b, weight, alpha, n_max)
        assert c[0] == 0.0 and c[1] == ref[1]
        np.testing.assert_allclose(c[1:], ref[1:], rtol=1e-14, atol=0.0)
        inc = np.diff(c)
        assert np.all(inc > 0.0)
        # the differences of rounded c_n carry up to an ulp of c_n each
        assert np.all(np.diff(inc) <= 2.0 * np.spacing(c[2:]))
        if alpha == 2.0:
            # weight*(c + m)*m = b: m = (-c + sqrt(c**2 + 4b/w))/2, written
            # without the cancellation
            k = b / weight
            prev = c[1:-1]
            closed = prev + 2.0 * k / (prev + np.sqrt(prev * prev + 4.0 * k))
            assert np.all(np.abs(c[2:] - closed) <= 2.0 * np.spacing(c[2:]))

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            solve_power_coefficients(1.0, 0.9, R, 5)
        with pytest.raises(ValueError):
            solve_power_coefficients(1.0, 2.0, 0.0, 5)


class TestPowerValueSpread:
    def setup_method(self):
        self.c = solve_power_coefficients(LAM, ALPHA, R, 60)

    def test_expiry_is_worthless(self):
        v, s = power_value_and_spread(3, 0.0, self.c, LAM, ALPHA, R)
        assert v == 0.0 and s == 0.0

    def test_infinite_horizon_level_one(self):
        v, s = power_value_and_spread(1, math.inf, self.c, LAM, ALPHA, R)
        assert abs(v - 1.5811388300841898) < 1e-10
        assert abs(s - 3.1622776601683795) < 1e-10  # lam/(alpha*r*c1)

    def test_marginal_value_identity(self):
        # spread = alpha/(alpha-1) * (V(n,T) - V(n-1,T))
        for n in [1, 5, 20, 60]:
            for t in [0.05, 0.7, 3.0, math.inf]:
                v_n, s = power_value_and_spread(n, t, self.c, LAM, ALPHA, R)
                v_p, _ = power_value_and_spread(n - 1, t, self.c, LAM, ALPHA, R)
                assert abs(s - ALPHA / (ALPHA - 1.0) * (v_n - v_p)) < 1e-10

    def test_level_out_of_range(self):
        with pytest.raises(IndexError):
            power_value_and_spread(61, 1.0, self.c, LAM, ALPHA, R)

    def test_full_liquidation_constant(self):
        # rate at the optimal spread times the horizon factor^alpha is flat in T
        model = PowerLawIntensity(lam=LAM, alpha=ALPHA)
        products = []
        for t in [0.01, 0.1, 1.0, 10.0]:
            _, s = power_value_and_spread(4, t, self.c, LAM, ALPHA, R)
            products.append(model.rate(s) * (-math.expm1(-R * ALPHA * t)))
        assert np.ptp(products) < 1e-10 * products[0]


class TestZeroRate:
    def test_boundary_and_first(self):
        d = solve_power_zero_rate(LAM, ALPHA, 10)
        assert d[0] == 0.0
        assert abs(d[1] - math.sqrt(0.5)) < 1e-12

    def test_residuals(self):
        d = solve_power_zero_rate(2.3, 2.6, 80)
        b = 2.3 * ((2.6 - 1.0) / 2.6) ** (2.6 - 1.0)
        for n in range(1, 81):
            resid = abs(d[n] - b * (d[n] - d[n - 1]) ** (1.0 - 2.6))
            assert resid <= 1e-10 * d[n]

    def test_small_r_limit(self):
        # discounted V at r = 1e-6 approaches d_n * T**(1/alpha)
        d = solve_power_zero_rate(LAM, ALPHA, 8)
        c = solve_power_coefficients(LAM, ALPHA, 1e-6, 8)
        for n in [1, 4, 8]:
            v_r, _ = power_value_and_spread(n, 1.0, c, LAM, ALPHA, 1e-6)
            v_0, _ = zero_rate_value_and_spread(n, 1.0, d, ALPHA)
            assert abs(v_r - v_0) <= 1e-4 * v_0


class TestExpectedLiquidationTime:
    def test_values(self):
        c = solve_power_coefficients(LAM, ALPHA, R, 10)
        s = expected_liquidation_time_discrete(c, LAM, ALPHA, R)
        assert s[0] == 0.0
        assert abs(s[1] - 10.0) < 1e-9  # 1/rate(3.16227766) with rate s**-2

    def test_increments_match_rates(self):
        c = solve_power_coefficients(1.4, 2.5, 0.07, 30)
        s = expected_liquidation_time_discrete(c, 1.4, 2.5, 0.07)
        model = PowerLawIntensity(lam=1.4, alpha=2.5)
        increments = np.diff(s)
        for n in range(1, 31):
            spread = (1.4 / (2.5 * 0.07 * c[n])) ** (1.0 / 1.5)
            assert abs(increments[n - 1] - 1.0 / model.rate(spread)) < 1e-12
        assert np.all(np.diff(increments) < 0.0)  # later units sell faster


class TestExpFinite:
    def test_boundaries(self):
        values, _ = solve_exp_finite(4, 1.0, [0.0, 1.0, 2.0], 1.0, 1.0)
        assert np.all(values[0, :] == 0.0)   # no inventory
        assert np.all(values[:, 0] == 0.0)   # no time

    def test_closed_form_examples(self):
        # lam*T/(delta*e) = 1 at T = e
        values, _ = solve_exp_finite(2, 1.0, [math.e], 1.0, 1.0)
        assert abs(values[1, 0] - math.log(2.0)) < 1e-12
        assert abs(values[2, 0] - math.log(2.5)) < 1e-12

    def test_first_level_log_form(self):
        lam, kappa, delta = 1.3, 0.7, 0.25
        values, _ = solve_exp_finite(1, delta, [2.0], lam, kappa)
        expected = (delta / kappa) * math.log1p(lam / (kappa * math.e)
                                                * kappa / delta * 2.0)
        assert abs(values[1, 0] - expected) < 1e-12

    def test_log_sum_exp_stability(self):
        # 5000 terms: the raw partial sums overflow, the log-space path must not
        values, spreads = solve_exp_finite(5000, 1e-3, [1.0], 1.0, 1.0)
        assert np.all(np.isfinite(values[1:, 0]))
        assert np.all(np.isfinite(spreads[1:, 0]))

    def test_spread_floor(self):
        _, spreads = solve_exp_finite(30, 0.5, [0.0, 0.3, 2.0, 20.0], 2.0, 3.0)
        assert np.all(spreads[1:, :] >= 1.0 / 3.0 - 1e-13)


class TestExpInfinite:
    def test_boundary(self):
        values, _ = solve_exp_infinite(5.0, 1.0, 1.0, 1.0, 0.1)
        assert values[0] == 0.0

    def test_first_level_is_lambert(self):
        values, _ = solve_exp_infinite(5.0, 1.0, 1.0, 1.0, 0.1)
        oracle = bisect_lambert(10.0 / math.e)
        assert abs(values[1] - oracle) < 1e-10

    def test_monotone_bounded(self):
        values, spreads = solve_exp_infinite(40.0, 1.0, 1.0, 1.0, 0.1)
        cap = 1.0 / (0.1 * math.e)
        assert np.all(np.diff(values) > 0.0)
        assert np.all(values <= cap + 1e-12)
        assert np.all(spreads[1:] >= 1.0 - 1e-13)  # 1/kappa floor
        assert np.all(np.diff(spreads[1:]) < 0.0)  # richer inventory, tighter spread

    def test_small_delta_overflow_safe(self):
        values, _ = solve_exp_infinite(2.0, 1.0 / 512.0, 1.0, 1.0, 0.1)
        assert np.all(np.isfinite(values))
        assert values[-1] <= 1.0 / (0.1 * math.e) + 1e-12


class TestGenericStationary:
    def test_matches_power_closed_form(self):
        model = PowerLawIntensity(lam=LAM, alpha=ALPHA)
        sol = solve_generic_stationary(model, 1.0, R, 12)
        c = solve_power_coefficients(LAM, ALPHA, R, 12)
        assert np.max(np.abs(sol.coefficients - c)) < 1e-8
        for n in range(1, 13):
            s_star = (LAM / (ALPHA * R * c[n])) ** (1.0 / (ALPHA - 1.0))
            assert abs(sol.spreads[n] - s_star) < 1e-8

    def test_matches_exp_closed_form(self):
        model = ExpDecayIntensity(lam=1.0, kappa=1.0)
        sol = solve_generic_stationary(model, 1.0, R, 12)
        values, spreads = solve_exp_infinite(12.0, 1.0, 1.0, 1.0, R)
        assert np.max(np.abs(sol.coefficients - values)) < 1e-8
        assert np.max(np.abs(sol.spreads[1:] - spreads[1:])) < 1e-8

    @pytest.mark.parametrize("delta", [1.0, 0.5, 0.25])
    def test_rate_underflow_ends_the_scan(self, delta):
        # exp(-s) underflows to 0.0 inside the scan (at s = 1024), where a
        # generic rate refuses a nonpositive value: the scan must stop there
        model = GenericIntensity(value=lambda s: math.exp(-s),
                                 deriv1=lambda s: -math.exp(-s),
                                 deriv2=lambda s: math.exp(-s))
        sol = solve_discrete(model, MarketParams(r=R), delta, 6)
        values, spreads = solve_exp_infinite(6 * delta, delta, 1.0, 1.0, R)
        assert np.max(np.abs(sol.values - values)) < 1e-8
        assert np.max(np.abs(sol.spreads[1:] - spreads[1:])) < 1e-8

    def test_negative_user_rate_still_raises(self):
        # a negative user value met by the scan (at s = 1) is an input error
        model = GenericIntensity(value=lambda s: 0.75 - s,
                                 deriv1=lambda s: -1.0,
                                 deriv2=lambda s: 0.0)
        with pytest.raises(ValueError, match="intensity must be positive"):
            solve_generic_stationary(model, 1.0, R, 3)

    def test_level_zero(self):
        sol = solve_generic_stationary(PowerLawIntensity(lam=1.0, alpha=2.0),
                                       1.0, 0.1, 3)
        assert sol.coefficients[0] == 0.0

    def test_shape_invariants_under_condition(self):
        model = GenericIntensity(value=lambda s: 2.0 / (1.0 + s) ** 3,
                                 deriv1=lambda s: -6.0 / (1.0 + s) ** 4,
                                 deriv2=lambda s: 24.0 / (1.0 + s) ** 5)
        sol = solve_generic_stationary(model, 1.0, 0.05, 15)
        assert not sol.non_unique_risk
        inc = np.diff(sol.coefficients)
        assert np.all(np.diff(inc) <= 1e-10)
        assert np.all(np.diff(sol.spreads[1:]) <= 1e-10)

    def test_delta_scaling_reduction(self):
        # the lam_eff = lam*delta**(alpha-1) reduction must agree with the
        # generic dynamic program run directly at delta != 1
        delta = 0.25
        model = PowerLawIntensity(lam=LAM, alpha=ALPHA)
        sol = solve_generic_stationary(model, delta, R, 8)
        c = solve_power_coefficients(LAM, ALPHA, R, 8, delta=delta)
        assert np.max(np.abs(sol.coefficients - c)) < 1e-8


class TestSolveDiscreteDispatch:
    def test_power_finite_horizon(self):
        model = PowerLawIntensity(lam=LAM, alpha=ALPHA)
        sol = solve_discrete(model, MarketParams(r=R, horizon=1.0), 1.0, 6)
        factor = horizon_factor(1.0, ALPHA, R)
        assert abs(sol.values[6] - sol.coefficients[6] * factor) < 1e-14

    def test_exp_finite_requires_zero_rate(self):
        model = ExpDecayIntensity(lam=1.0, kappa=1.0)
        with pytest.raises(ValueError):
            solve_discrete(model, MarketParams(r=0.1, horizon=1.0), 1.0, 5)

    def test_zero_rate_infinite_rejected(self):
        with pytest.raises(ValueError):
            MarketParams(r=0.0, horizon=math.inf)

    def test_grid_alignment(self):
        assert level_of(5.0, 0.05) == 100
        with pytest.raises(ValueError):
            level_of(5.0, 0.3)
