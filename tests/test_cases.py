import math

import numpy as np
import pytest

from lobliq.cases import (
    ConstantSpreadPolicy,
    ExpStationary,
    ExpZeroRate,
    GenericStationary,
    PowerDiscounted,
    PowerZeroRate,
    StationarySpreadPolicy,
    resolve,
)
from lobliq.intensity import (
    ExpDecayIntensity,
    GenericIntensity,
    MarketParams,
    PowerLawIntensity,
    UnsupportedCaseError,
)
from lobliq.simulate import simulate_policy

POWER = PowerLawIntensity(lam=1.0, alpha=2.0)
EXP = ExpDecayIntensity(lam=1.0, kappa=1.0)
GENERIC = GenericIntensity(value=lambda s: math.exp(-s),
                           deriv1=lambda s: -math.exp(-s),
                           deriv2=lambda s: math.exp(-s))
R0_T1 = MarketParams(r=0.0, horizon=1.0)
R_T1 = MarketParams(r=0.1, horizon=1.0)
R_INF = MarketParams(r=0.1, horizon=math.inf)


@pytest.mark.parametrize("model, market, expected", [
    (POWER, R0_T1, PowerZeroRate),
    (POWER, R_T1, PowerDiscounted),
    (POWER, R_INF, PowerDiscounted),
    (EXP, R0_T1, ExpZeroRate),
    (EXP, R_T1, UnsupportedCaseError),
    (EXP, R_INF, ExpStationary),
    (GENERIC, R0_T1, UnsupportedCaseError),
    (GENERIC, R_T1, UnsupportedCaseError),
    (GENERIC, R_INF, GenericStationary),
], ids=[f"{m}-{k}" for m in ("power", "exp", "generic")
        for k in ("r0-T1", "r-T1", "r-inf")])
def test_resolve_table(model, market, expected):
    if expected is UnsupportedCaseError:
        with pytest.raises(UnsupportedCaseError):
            resolve(model, market)
    else:
        case = resolve(model, market)
        assert type(case) is expected
        assert case.model == model and case.market == market


def test_unsupported_case_is_a_value_error():
    assert issubclass(UnsupportedCaseError, ValueError)


def test_generic_case_has_no_fluid_limit():
    with pytest.raises(UnsupportedCaseError, match="generic"):
        resolve(GENERIC, R_INF).fluid()


@pytest.mark.parametrize("model, market", [
    (POWER, R0_T1), (POWER, R_T1), (POWER, R_INF), (EXP, R0_T1), (EXP, R_INF),
])
def test_single_level_matches_full_solve(model, market):
    case = resolve(model, market)
    sol = case.solve(0.25, 12)
    value, spread = case.value_and_spread_at(12, 0.25)
    assert value == sol.values[12] and spread == sol.spreads[12]
    assert np.isnan(sol.spreads[0]) and sol.values[0] == 0.0


DELTA = 0.5
POLY = GenericIntensity(value=lambda s: 2.0 / (1.0 + s) ** 3,
                        deriv1=lambda s: -6.0 / (1.0 + s) ** 4,
                        deriv2=lambda s: 24.0 / (1.0 + s) ** 5)


@pytest.mark.parametrize("model, market, policy", [
    (POWER, R_T1, None),
    (POWER, R0_T1, None),
    (POWER, R_INF, None),
    (EXP, R_INF, None),
    (POLY, R_INF, None),
    (POWER, R_T1, ConstantSpreadPolicy(1.3)),
    (EXP, R_INF, StationarySpreadPolicy(np.array([math.nan, 2.0, 1.5, 1.2, 1.1]))),
], ids=["power-r-T1", "power-r0-T1", "power-r-inf", "exp-r-inf", "generic-r-inf",
        "constant", "stationary"])
def test_fill_clock_matches_policy_rates(model, market, policy):
    n = 4
    policy = policy or resolve(model, market).policy(DELTA, n)
    T = market.horizon
    clock = policy.clock(model, DELTA, T)
    times = (0.0, T / 2, (1.0 - 1e-6) * T) if math.isfinite(T) else (0.0, 1.0, 10.0)
    for k in (1, n):
        for t in times:
            rate = model.rate(policy.spread(k, T - t)) / DELTA
            assert math.isclose(clock.rate(k) * clock.profile(t), rate, rel_tol=1e-12)
    # advance inverts the clock.  The top level's rate keeps a draw of 20 from
    # rounding onto T.  A fill time is exact to an ulp of t, or of T where the
    # clock counts back from a finite horizon, and one ulp moves b * tau by
    # b g(t) ulp: at e = 1e-6 that alone is 2e-10 relative
    b = clock.rate(n)
    for t0 in (0.0, T / 2 if math.isfinite(T) else 1.0):
        for e in (1e-6, 1.0, 20.0):
            t = clock.advance(np.array([t0]), np.array([e]), b)
            assert t0 < t[0]
            got = b * (clock.tau(t) - clock.tau(np.array([t0])))[0]
            ulp = np.spacing(t[0] if math.isinf(T) else max(t[0], T))
            assert abs(got - e) <= 1e-10 * e + 4.0 * b * clock.profile(t[0]) * ulp


def test_exp_zero_rate_policy_has_no_clock():
    policy = resolve(EXP, R0_T1).policy(DELTA, 2)
    assert policy.clock(EXP, DELTA, R0_T1.horizon) is None
    # so auto sampling falls back to inversion, draw for draw
    runs = [simulate_policy(EXP, R0_T1, 2, DELTA, policy, 3, seed=5, keep_paths=True,
                            method=method)[1] for method in ("auto", "inversion")]
    for a, b in zip(*runs):
        assert np.array_equal(a.fill_times, b.fill_times)
