import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobliq.intensity import (
    ExpDecayIntensity,
    MarketParams,
    PowerLawIntensity,
)


class TestRate:
    def test_power_law_direct(self):
        assert PowerLawIntensity(lam=1.0, alpha=2.0).rate(2.0) == 0.25

    def test_exp_at_bid(self):
        assert ExpDecayIntensity(lam=1.0, kappa=1.0).rate(0.0) == 1.0

    def test_exp_direct(self):
        got = ExpDecayIntensity(lam=2.0, kappa=0.5).rate(2.0)
        assert abs(got - 2.0 * math.exp(-1.0)) < 1e-15

    def test_power_law_zero_spread_sentinel(self):
        assert PowerLawIntensity(lam=1.0, alpha=2.0).rate(0.0) == math.inf

    def test_outside_support(self):
        with pytest.raises(ValueError):
            PowerLawIntensity(lam=1.0, alpha=2.0).rate(-0.5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PowerLawIntensity(lam=1.0, alpha=1.0)  # no optimizer exists
        with pytest.raises(ValueError):
            PowerLawIntensity(lam=0.0, alpha=2.0)
        with pytest.raises(ValueError):
            ExpDecayIntensity(lam=1.0, kappa=0.0)

    @given(st.floats(min_value=1.1, max_value=6.0),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_rate_strictly_decreasing(self, alpha, lam):
        grid = np.linspace(0.1, 5.0, 40)
        for model in (PowerLawIntensity(lam=lam, alpha=alpha),
                      ExpDecayIntensity(lam=lam, kappa=alpha)):
            rates = [model.rate(s) for s in grid]
            assert all(a > b for a, b in zip(rates, rates[1:]))


class TestMarketParams:
    def test_infinite_horizon_needs_discounting(self):
        with pytest.raises(ValueError):
            MarketParams(r=0.0, horizon=math.inf)

    def test_valid_combinations(self):
        assert MarketParams(r=0.1).infinite_horizon
        assert not MarketParams(r=0.0, horizon=2.0).infinite_horizon

    def test_negative_rate(self):
        with pytest.raises(ValueError):
            MarketParams(r=-0.1, horizon=1.0)
