import math

import numpy as np
import pytest
from scipy.integrate import quad

from lobliq.cases import resolve
from lobliq.convergence import value_convergence
from lobliq.fluid import exp_fluid_infinite, fluid_solution
from lobliq.intensity import ExpDecayIntensity, MarketParams, PowerLawIntensity

POWER = PowerLawIntensity(lam=1.0, alpha=2.0)
MARKET = MarketParams(r=0.1)


class TestValueConvergence:
    def test_power_ladder_monotone_below_fluid(self):
        report = value_convergence(POWER, MARKET, x_probe=5.0, delta0=1.0, k_max=6)
        assert report.monotone_ok
        assert np.all(np.diff(report.values) > 0.0)
        assert np.all(report.ratios <= 1.0 + 1e-9)
        assert report.ratios[-1] > report.ratios[0]
        assert abs(report.fluid_value - 5.0) < 1e-12

    def test_figure_scale_deltas(self):
        # the 0.05 and 0.01 unit sizes used in the illustration
        case = resolve(POWER, MARKET)
        v05, _ = case.value_and_spread_at(100, 0.05)
        v01, _ = case.value_and_spread_at(500, 0.01)
        assert v05 < v01 < 5.0
        assert (5.0 - v01) < (5.0 - v05)
        assert v01 / 5.0 > 0.99

    def test_single_unit_consistency(self):
        # delta equal to the probe: one block, matches the direct solve
        report = value_convergence(POWER, MARKET, x_probe=2.0, delta0=2.0, k_max=0)
        sol = resolve(POWER, MARKET).solve(2.0, 1)
        assert abs(report.values[0] - sol.values[1]) < 1e-14

    def test_exponential_ladder(self):
        model = ExpDecayIntensity(lam=1.0, kappa=1.0)
        report = value_convergence(model, MARKET, x_probe=2.0, delta0=1.0, k_max=6)
        v_fluid, _ = exp_fluid_infinite(2.0, 1.0, 1.0, 0.1)
        assert abs(report.fluid_value - v_fluid) < 1e-12
        assert report.monotone_ok
        assert np.all(np.diff(report.values) > 0.0)
        assert np.all(report.values <= v_fluid + 1e-12)

    @pytest.mark.parametrize("model, market", [
        (model, market)
        for model in (PowerLawIntensity(lam=1.3, alpha=1.05), POWER,
                      PowerLawIntensity(lam=0.7, alpha=3.5),
                      PowerLawIntensity(lam=1.0, alpha=200.0))
        for market in (MARKET, MarketParams(r=0.0, horizon=1.0),
                       MarketParams(r=0.5, horizon=2.0))
    ] + [(ExpDecayIntensity(lam=1.0, kappa=1.0), market)
         for market in (MARKET, MarketParams(r=0.0, horizon=1.0))])
    def test_ladder_rungs_match_direct_solves(self, model, market):
        # a power-law ladder solves its finest rung and scales the others by
        # the ratio of their first coefficients; every other ladder solves
        # each rung, so it and the finest rung match their solves exactly
        report = value_convergence(model, market, x_probe=5.0, delta0=1.0, k_max=9)
        power = isinstance(model, PowerLawIntensity)
        # the spread is (lam/d_n)**(1/(alpha-1)) times a factor
        spread_rtol = 2e-14 * max(1.0, 1.0 / (model.alpha - 1.0)) if power else 0.0
        for i, d in enumerate(report.deltas):
            value, spread = resolve(model, market).value_and_spread_at(round(5.0 / d), d)
            if not power or i == len(report.deltas) - 1:
                assert report.values[i] == value and report.spreads[i] == spread
            else:
                assert abs(report.values[i] - value) <= 2e-14 * value
                assert abs(report.spreads[i] - spread) <= spread_rtol * spread

    def test_grid_alignment_error(self):
        with pytest.raises(ValueError):
            value_convergence(POWER, MARKET, x_probe=5.0, delta0=0.3, k_max=2)

    def test_rate_estimate_finite(self):
        report = value_convergence(POWER, MARKET, x_probe=4.0, delta0=1.0, k_max=6)
        assert math.isfinite(report.rate_estimate)
        assert report.rate_estimate > 0.0


class TestControlConvergence:
    def test_power_spreads_decrease_to_fluid(self):
        table = value_convergence(POWER, MARKET, 5.0, 1.0, 6)
        assert abs(table.fluid_spread - 1.0) < 1e-12  # sqrt(5)/sqrt(5)
        assert np.all(np.diff(table.pointwise_err) < 0.0)
        # observed (not proven) ordering: discrete spread sits above the fluid one
        assert np.all(table.spreads >= table.fluid_spread)

    def test_cell_average_beats_pointwise(self):
        table = value_convergence(POWER, MARKET, 5.0, 1.0, 6)
        assert np.all(table.averaged_err <= table.pointwise_err)

    @pytest.mark.parametrize("model, market", [
        (PowerLawIntensity(lam=1.0, alpha=2.0), MarketParams(r=0.1)),
        (PowerLawIntensity(lam=1.3, alpha=2.7), MarketParams(r=0.1, horizon=1.0)),
        (PowerLawIntensity(lam=1.0, alpha=3.0), MarketParams(r=0.0, horizon=1.0)),
        (ExpDecayIntensity(lam=1.0, kappa=1.0), MarketParams(r=0.0, horizon=1.0)),
        (ExpDecayIntensity(lam=30.0, kappa=2.0), MarketParams(r=0.0, horizon=1.0)),
        (ExpDecayIntensity(lam=1.0, kappa=1.0), MarketParams(r=0.1)),
        (ExpDecayIntensity(lam=math.e, kappa=1.0), MarketParams(r=0.1)),
    ], ids=["power_inf", "power_T", "power_r0", "exp_r0", "exp_r0_flat", "exp_inf",
            "exp_inf_lam_e"])
    def test_closed_form_cell_average_matches_quad(self, model, market):
        # the cell average is the drop of the fluid value over the cell, in
        # closed form; quad of the fluid spread over the cell is the oracle
        fl = fluid_solution(model, market)
        case = resolve(model, market)
        for x in (5.0, 2.0, 1.0):
            for d in 0.5 ** np.arange(12):
                oracle = quad(fl.spread, x - d, x, epsabs=1e-13, epsrel=1e-12,
                              limit=200)[0] / d
                assert math.isclose(case.fluid_cell_spread(x, d), oracle,
                                    rel_tol=1e-12), (x, d)
        table = value_convergence(model, market, 2.0, 1.0, 2)
        assert np.array_equal(table.averaged[[0, 2]], [case.fluid_cell_spread(2.0, 1.0),
                                                       case.fluid_cell_spread(2.0, 0.25)])

    def test_coarse_consistency(self):
        table = value_convergence(POWER, MARKET, 2.0, 2.0, 0)
        sol = resolve(POWER, MARKET).solve(2.0, 1)
        assert abs(table.spreads[0] - sol.spreads[1]) < 1e-14


class TestCoefficientAsymptotics:
    @staticmethod
    def ratios(lam, alpha, r, n_max):
        """c_n and the optimal spread over their large-n forms
        (lam/(r*alpha))**(1/alpha) * n**((alpha-1)/alpha) and
        (lam/(alpha*r))**(1/alpha) * n**(-1/alpha), for n = 1..n_max."""
        model = PowerLawIntensity(lam=lam, alpha=alpha)
        sol = resolve(model, MarketParams(r=r)).solve(1.0, n_max)
        n = np.arange(1.0, n_max + 1.0)
        scale = (lam / (r * alpha)) ** (1.0 / alpha)
        return (sol.coefficients[1:] / (scale * n ** ((alpha - 1.0) / alpha)),
                sol.spreads[1:] * n ** (1.0 / alpha) / scale)

    def test_small_n_finite(self):
        coefficient_ratio, _ = self.ratios(1.0, 2.0, 0.1, 50)
        assert math.isfinite(coefficient_ratio[0])

    def test_ratios_approach_one(self):
        coefficient_ratio, spread_ratio = self.ratios(1.0, 2.0, 0.1, 10_000)
        assert abs(coefficient_ratio[-1] - 1.0) < 0.01
        assert abs(spread_ratio[-1] - 1.0) < 0.01
        # deviations shrink with n
        assert abs(coefficient_ratio[100] - 1.0) > abs(coefficient_ratio[-1] - 1.0)

    def test_spread_ratio_same_rate(self):
        _, spread_ratio = self.ratios(1.0, 2.5, 0.05, 3000)
        assert abs(spread_ratio[-1] - 1.0) < 0.02
