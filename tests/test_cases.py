import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lobliq.cases import (
    ExpStationary,
    ExpZeroRate,
    PowerLaw,
    StationarySpreadPolicy,
    resolve,
)
from lobliq.intensity import (
    ExpDecayIntensity,
    IntensityModel,
    MarketParams,
    PowerLawIntensity,
    UnsupportedCaseError,
)
from lobliq.simulate import simulate_policy
from sampling_oracles import OraclePolicy, inversion

POWER = PowerLawIntensity(lam=1.0, alpha=2.0)
EXP = ExpDecayIntensity(lam=1.0, kappa=1.0)
# a depth model of neither solved family
GENERIC = IntensityModel()
R0_T1 = MarketParams(r=0.0, horizon=1.0)
R_T1 = MarketParams(r=0.1, horizon=1.0)
R_INF = MarketParams(r=0.1, horizon=math.inf)


@pytest.mark.parametrize("model, market, expected", [
    (POWER, R0_T1, PowerLaw),
    (POWER, R_T1, PowerLaw),
    (POWER, R_INF, PowerLaw),
    (EXP, R0_T1, ExpZeroRate),
    (EXP, R_T1, UnsupportedCaseError),
    (EXP, R_INF, ExpStationary),
    (GENERIC, R0_T1, UnsupportedCaseError),
    (GENERIC, R_T1, UnsupportedCaseError),
    (GENERIC, R_INF, UnsupportedCaseError),
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


@pytest.mark.parametrize("model, market, policy", [
    (POWER, R_T1, None),
    (POWER, R0_T1, None),
    (POWER, R_INF, None),
    (EXP, R_INF, None),
    (POWER, R_T1, StationarySpreadPolicy(np.full(5, 1.3))),
    (EXP, R_INF, StationarySpreadPolicy(np.array([math.nan, 2.0, 1.5, 1.2, 1.1]))),
], ids=["power-r-T1", "power-r0-T1", "power-r-inf", "exp-r-inf", "constant",
        "stationary"])
def test_fill_clock_matches_policy_rates(model, market, policy):
    n = 4
    policy = policy or resolve(model, market).policy(DELTA, n)
    T = market.horizon
    clock = policy.clock(model, DELTA, T)
    _assert_clock_rates(model, policy, clock, DELTA, T, (1, n))
    # advance inverts the clock.  The top level's rate keeps a draw of 20 from
    # rounding onto T
    for t0 in (0.0, T / 2 if math.isfinite(T) else 1.0):
        for e in (1e-6, 1.0, 20.0):
            _assert_advance_inverts_tau(clock, n, t0, e, T)


def _assert_clock_rates(model, policy, clock, delta, T, levels):
    """rate(k) * profile(t) is the fill rate of the spread the policy posts."""
    times = (0.0, T / 2, (1.0 - 1e-6) * T) if math.isfinite(T) else (0.0, 1.0, 10.0)
    for k in levels:
        for t in times:
            rate = model.rate(float(policy.spreads_at(k, np.array([T - t]))[0])) / delta
            assert math.isclose(clock.rate(k) * clock.profile(t), rate, rel_tol=1e-12)


def _assert_advance_inverts_tau(clock, k, t0, e, T):
    """The fill time t of draw e from t0 has b * (tau(t) - tau(t0)) = e.  A fill
    time is exact to an ulp of t, or of T where the clock counts back from a
    finite horizon, and one ulp moves b * tau by b g(t) ulp: at e = 1e-6 that
    alone is 2e-10 relative."""
    b = clock.rate(k)
    t = clock.advance(k, np.array([t0]), np.array([e]))
    assert t0 < t[0]
    got = b * (clock.tau(t) - clock.tau(np.array([t0])))[0]
    ulp = np.spacing(t[0] if math.isinf(T) else max(t[0], T))
    assert abs(got - e) <= 1e-10 * e + 4.0 * b * clock.profile(t[0]) * ulp
    return t[0]


@given(st.integers(0, 20),
       st.one_of(st.just(1.001), st.floats(1.001, 30.0)),
       st.one_of(st.integers(1, 300), st.integers(300, 100_000)),
       st.sampled_from([0.0, 1e-9, 0.1, 3.0]),
       st.sampled_from([1.0, math.inf]))
@example(20, 1.001, 100_000, 0.0, 1.0)
@example(20, 1.001, 100_000, 3.0, 1.0)
@example(20, 30.0, 100_000, 1e-9, math.inf)
@example(0, 1.001, 1, 3.0, math.inf)
@example(10, 30.0, 1000, 3.0, 1.0)  # a*(T - t0) = 90 and 45
@settings(max_examples=25, deadline=None)
def test_power_fill_clock_at_domain_edges(j, alpha, n, r, horizon):
    # the one power-law clock, rate b_k / h(T - t), at every r and horizon:
    # delta down to 2**-20, alpha down to 1 + 1e-3, up to 1e5 levels
    assume(r > 0.0 or math.isfinite(horizon))
    model, delta, T = PowerLawIntensity(lam=1.3, alpha=alpha), 2.0 ** -j, horizon
    policy = resolve(model, MarketParams(r=r, horizon=T)).policy(delta, n)
    clock = policy.clock(model, delta, T)
    _assert_clock_rates(model, policy, clock, delta, T, (1, n))
    # draws are set as b * c, so that no fill rounds onto T, where tau is
    # infinite.  On a finite horizon two of them land the fill at half and at
    # 1e-3 of the time to go: log(H(T - t0)/H(T - t)) = c, H(s) = expm1(a s)/a
    a = alpha * r
    for k in (1, n):
        for t0 in (0.0, T / 2 if math.isfinite(T) else 1.0):
            draws = [1e-6, 1e-2, 1.0, 5.0]
            if math.isfinite(T):
                for q in (0.5, 1e-3):
                    x, y = a * (T - t0), a * q * (T - t0)
                    draws.append(math.log(1.0 / q) if a == 0.0 else (x - y) + math.log(
                        math.expm1(-x) / math.expm1(-y)))
            for c in draws:
                assert _assert_advance_inverts_tau(clock, k, t0, clock.rate(k) * c, T) < T


@pytest.mark.parametrize("delta", [1.0, 0.5])
@pytest.mark.parametrize("lam", [1.0, 4.0, 30.0])
def test_exp_zero_rate_clock_matches_inversion_oracle(lam, delta):
    # the closed-form hazard inverts to the quadrature-and-root oracle's fill
    # times, draw for draw, with the same paths left unsold at maturity
    model, n = ExpDecayIntensity(lam=lam, kappa=1.0), 4
    market = MarketParams(r=0.0, horizon=1.0)
    policy = resolve(model, market).policy(delta, n)
    _, fast = simulate_policy(model, market, n, delta, policy, 12, seed=5,
                              keep_paths=True)
    _, slow = simulate_policy(model, market, n, delta, OraclePolicy(policy, inversion),
                              12, seed=5, keep_paths=True)
    for a, b in zip(fast, slow):
        assert len(a.fill_times) == len(b.fill_times)
        assert np.max(np.abs(a.fill_times - b.fill_times), initial=0.0) <= 1e-10
