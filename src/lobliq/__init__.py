"""Optimal limit-order liquidation toolkit.

Discrete-inventory value recursions for power-law and exponential order
books, their continuous-selling (fluid) limits, numerical convergence
reports, Monte Carlo simulation of the optimally controlled inventory, and
the regime-switching / two-exchange extensions.
"""

from .convergence import (
    coefficient_asymptotics,
    control_convergence,
    value_convergence,
)
from .discrete import (
    DiscreteSolution,
    expected_liquidation_time_discrete,
    power_value_and_spread,
    solve_discrete,
    solve_exp_finite,
    solve_exp_infinite,
    solve_generic_stationary,
    solve_power_coefficients,
    solve_power_zero_rate,
)
from .extensions import (
    RegimeParams,
    TwoExchangeParams,
    regime_discrete,
    regime_fluid_fixed_point,
    two_exchange_expansion,
    two_exchange_patch,
)
from .fluid import (
    FluidSolution,
    exp_fluid_finite,
    exp_fluid_infinite,
    fluid_passage_time,
    fluid_solution,
    power_fluid,
    power_trade_curve,
)
from .intensity import (
    ExpDecayIntensity,
    GenericIntensity,
    IntensityModel,
    MarketParams,
    PowerLawIntensity,
    concavity_condition,
)
from .numerics import OdeProblem, integrate_ode, lambert_w0, log_integral
from .simulate import (
    ConstantSpreadPolicy,
    EnsembleStats,
    OptimalPowerPolicy,
    SimPath,
    StationarySpreadPolicy,
    evaluate_fluid_policy_exact,
    execution_curve_ode,
    fluid_spread_policy,
    optimal_policy,
    simulate_policy,
)

__version__ = "0.1.0"
