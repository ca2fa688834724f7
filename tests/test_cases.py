import math

import numpy as np
import pytest

from lobliq.cases import (
    ExpStationary,
    ExpZeroRate,
    GenericStationary,
    PowerDiscounted,
    PowerZeroRate,
    resolve,
)
from lobliq.intensity import (
    ExpDecayIntensity,
    GenericIntensity,
    MarketParams,
    PowerLawIntensity,
    UnsupportedCaseError,
)

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
