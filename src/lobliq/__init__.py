"""Optimal limit-order liquidation toolkit.

Discrete-inventory value recursions for power-law and exponential order
books, their continuous-selling (fluid) limits, numerical convergence
reports, Monte Carlo simulation of the optimally controlled inventory, and
the regime-switching / two-exchange extensions.
"""

from .cases import resolve
from .convergence import value_convergence
from .discrete import (
    DiscreteSolution,
    solve_exp_finite,
    solve_exp_infinite,
    solve_power_zero_rate,
)
from .extensions import (
    RegimeParams,
    TwoExchangeParams,
    regime_fluid_fixed_point,
    two_exchange_expansion,
    two_exchange_patch,
)
from .fluid import (
    FluidSolution,
    exp_fluid_finite,
    exp_fluid_infinite,
    fluid_solution,
    power_fluid,
    power_trade_curve,
)
from .intensity import (
    ExpDecayIntensity,
    IntensityModel,
    MarketParams,
    PowerLawIntensity,
)
from .simulate import (
    EnsembleStats,
    FillTable,
    OptimalPowerPolicy,
    SimPath,
    StationarySpreadPolicy,
    execution_curve_ode,
    fluid_spread_policy,
    optimal_policy,
    simulate_policy,
)

__version__ = "0.1.0"
