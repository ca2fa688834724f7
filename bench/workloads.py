"""The benchmark's three workloads: generated YAML configs plus output checks.

Each job is one lobliq CLI command on one generated config.  A check reads
the job's JSON artifacts and raises ``CheckFailed`` when an output is wrong.
Checks use tolerances, never byte hashes, so a change that legitimately
alters the random streams still passes.  Exact reference values are computed
here from the closed-form alpha = 2 recursions and ``scipy.special.lambertw``,
independently of the solvers under test.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml
from scipy.special import lambertw

LAM, ALPHA, KAPPA, R = 1.0, 2.0, 1.0, 0.1
N_UNITS = 6
MC_PATHS, R0_PATHS, DUMP_PATHS = 50_000, 50, 5_000

# A correct Monte Carlo mean lands within k standard errors with probability
# erf(k/sqrt(2)).  At k = 3 a correct program fails 0.27% of checks, and a
# benchmark run at many seeds would then fail on some seed by chance; at
# k = 4 the chance is 6e-5 per check.
MC_SE_LIMIT = 4.0


class CheckFailed(AssertionError):
    """A job's artifacts contradict the exact answer."""


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    config: dict
    check: Callable[[str], None]   # artifact directory -> None or CheckFailed


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _load(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _floats(values) -> np.ndarray:
    # the JSON writer spells non-finite numbers as strings
    return np.array([float(v) for v in values])


# --------------------------------------------------------------------------
# exact references (alpha = 2 makes the power-law recursions quadratic)


def power_coefficient(n: int, lam: float = LAM, r: float = R) -> float:
    """c_n of r*c_n = (lam/4)/(c_n - c_{n-1}), the alpha = 2 recursion."""
    c = 0.0
    for _ in range(n):
        c = 0.5 * (c + math.sqrt(c * c + lam / r))
    return c


def zero_rate_coefficient(n: int, lam: float = LAM) -> float:
    """d_n of d_n = (lam/2)/(d_n - d_{n-1}), the alpha = 2, r = 0 recursion."""
    d = 0.0
    for _ in range(n):
        d = 0.5 * (d + math.sqrt(d * d + 2.0 * lam))
    return d


def exp_stationary_value(n: int, lam: float = LAM, kappa: float = KAPPA,
                         r: float = R) -> float:
    """V(n) of V(n) = W(lam/r * exp(kappa*V(n-1) - 1))/kappa, unit size."""
    v = 0.0
    for _ in range(n):
        v = float(lambertw(lam / r * math.exp(kappa * v - 1.0)).real) / kappa
    return v


def horizon_factor(t: float, alpha: float = ALPHA, r: float = R) -> float:
    return (1.0 - math.exp(-r * alpha * t)) ** (1.0 / alpha)


# --------------------------------------------------------------------------
# checks


def _check_ensemble(out_dir: str, exact: float, finite_horizon: bool) -> dict:
    ens = _load(out_dir, "ensemble.json")
    mean, se = float(ens["mean_revenue"]), float(ens["std_error"])
    _require(math.isfinite(mean) and se > 0.0, f"bad ensemble stats {mean}, {se}")
    _require(abs(mean - exact) <= MC_SE_LIMIT * se,
             f"mean revenue {mean} is {abs(mean - exact) / se:.2f} standard "
             f"errors from the exact value {exact}")
    if finite_horizon:
        _require(float(ens["liquidation_fraction"]) == 1.0,
                 f"liquidation fraction {ens['liquidation_fraction']} != 1")
    return ens


def _check_sim_power(out_dir: str) -> None:
    _check_ensemble(out_dir, power_coefficient(N_UNITS) * horizon_factor(1.0), True)


def _check_sim_exp_inf(out_dir: str) -> None:
    _check_ensemble(out_dir, exp_stationary_value(N_UNITS), False)


def _check_sim_power_r0(out_dir: str) -> None:
    _check_ensemble(out_dir, zero_rate_coefficient(N_UNITS), True)


def _check_sim_power_dump(out_dir: str) -> None:
    ens = _check_ensemble(out_dir, power_coefficient(N_UNITS) * horizon_factor(1.0),
                          True)
    cols = _load(out_dir, "paths.json")["columns"]
    fills = N_UNITS * int(ens["n_paths"])  # every path liquidates fully
    _require(len(cols["path_id"]) == fills,
             f"{len(cols['path_id'])} fill rows for {fills} fills")
    cash = _floats(cols["discounted_cash"]).sum() / int(ens["n_paths"])
    mean = float(ens["mean_revenue"])
    _require(abs(cash - mean) <= 1e-9 * abs(mean),
             f"per-path cash averages {cash}, ensemble mean is {mean}")


def _check_converge(out_dir: str) -> None:
    rep = _load(out_dir, "converge.json")
    _require(rep["monotone_ok"] is True, "value ladder is not monotone")
    last = float(rep["columns"]["ratio"][-1])
    _require(0.99 <= last <= 1.0 + 1e-9, f"last ladder ratio {last} outside [0.99, 1]")


def _check_solve_power(out_dir: str) -> None:
    cols = _load(out_dir, "solve.json")["columns"]
    c = _floats(cols["coefficient"])
    delta = float(cols["x"][1])
    b = 0.25 * LAM * delta ** (ALPHA - 1.0)  # ((alpha-1)**(alpha-1)/alpha**alpha) * lam_eff
    inc = np.diff(c)
    resid = np.abs(R * c[1:] - b * inc ** (1.0 - ALPHA)) / (R * c[1:])
    _require(bool(np.all(resid <= 1e-10)),
             f"recursion residual {resid.max():.3e} exceeds 1e-10")


def _check_curves(out_dir: str) -> None:
    cols = _load(out_dir, "curves.json")["columns"]
    inv = _floats(cols["mean_inventory"])
    rate = _floats(cols["trading_rate"])
    _require(inv[0] == N_UNITS, f"mean inventory starts at {inv[0]}, not {N_UNITS}")
    _require(bool(np.all(np.diff(inv) <= 0.0)), "mean inventory increases")
    _require(bool(np.all(rate >= 0.0)), "negative trading rate")


def _check_regimes(out_dir: str) -> None:
    cols = _load(out_dir, "regimes.json")["columns"]
    c0, c1 = _floats(cols["c0"]), _floats(cols["c1"])
    lo = math.sqrt(REGIMES["lambda1"] / (R * ALPHA))
    hi = math.sqrt(REGIMES["lambda0"] / (R * ALPHA))
    _require(bool(np.all((lo < c1) & (c1 < c0) & (c0 < hi))),
             "regime constants leave lo < c1 < c0 < hi")


def _check_exchanges(out_dir: str) -> None:
    cols = _load(out_dir, "exchanges.json")["columns"]
    value, single = _floats(cols["value"]), _floats(cols["value_single"])
    expansion = _floats(cols["value_expansion"])
    _require(bool(np.all(np.isfinite(value)) and np.all(np.isfinite(single))
                  and np.all(np.isfinite(expansion))), "non-finite values")
    # below one block the value is seeded with the single-venue asymptote,
    # so the two agree there up to rounding
    _require(bool(np.all(value >= single * (1.0 - 1e-12))),
             "two-exchange value below single venue")


# --------------------------------------------------------------------------
# workloads

_POWER = {"kind": "power", "lam": LAM, "alpha": ALPHA}
_EXP = {"kind": "exp", "lam": LAM, "kappa": KAPPA}
_T1 = {"r": R, "horizon": 1.0}
_INF = {"r": R, "horizon": math.inf}
_R0_T1 = {"r": 0.0, "horizon": 1.0}
_CURVE_GRID = {"start": 0.0, "stop": 0.99, "count": 50}

REGIMES = {"lambda0": 1.0, "lambda1": 0.5, "alpha": ALPHA, "r": R,
           "theta_grid": {"start": 0.01, "stop": 100.0, "count": 200,
                          "spacing": "log"}}


def _sim(n_paths: int, **extra) -> dict:
    return {"n_units": N_UNITS, "n_paths": n_paths, **extra}


def _jobs(seed: int) -> dict[str, list[Job]]:
    def job(name, command, section, check, model=None, market=None, use_seed=False):
        cfg = {command: section}
        if model is not None:
            cfg.update(model=dict(model), market=dict(market))
        if use_seed:
            cfg["seed"] = seed
        return Job(name, command, cfg, check)

    return {
        "mc": [
            job("sim_power_T", "simulate", _sim(MC_PATHS, curve_points=20),
                _check_sim_power, _POWER, _T1, use_seed=True),
            job("sim_exp_inf", "simulate", _sim(MC_PATHS), _check_sim_exp_inf,
                _EXP, _INF, use_seed=True),
            job("sim_power_r0", "simulate", _sim(R0_PATHS), _check_sim_power_r0,
                _POWER, _R0_T1, use_seed=True),
            job("sim_power_dump", "simulate",
                _sim(DUMP_PATHS, curve_points=20, dump_paths=True),
                _check_sim_power_dump, _POWER, _T1,
                use_seed=True),
        ],
        "solvers": [
            job("converge_power", "converge", {"x_probe": 5.0, "k_max": 11},
                _check_converge, _POWER, _INF),
            job("converge_exp", "converge", {"x_probe": 5.0, "k_max": 11},
                _check_converge, _EXP, _INF),
            job("solve_power_T", "solve", {"n_max": 5000, "delta": 0.001},
                _check_solve_power, _POWER, _T1),
            job("exchanges", "exchanges",
                {"lambda0": 1.0, "lambda1": 0.5, "eps": 0.1, "delta_block": 1.0,
                 "alpha": ALPHA, "r": R, "x_max": 5.0, "grid_step": 0.001},
                _check_exchanges),
            job("regimes", "regimes", dict(REGIMES), _check_regimes),
        ],
        "curves": [
            job("curves_power_T", "curves",
                {"n_units": N_UNITS, "t_grid": _CURVE_GRID}, _check_curves,
                _POWER, _T1),
            job("curves_exp_r0", "curves",
                {"n_units": N_UNITS, "t_grid": _CURVE_GRID}, _check_curves,
                _EXP, _R0_T1),
            job("curves_exp_inf", "curves",
                {"n_units": N_UNITS, "t_grid": {"start": 0.0, "stop": 2.0, "count": 3}},
                _check_curves, _EXP, _INF),
        ],
    }


WORKLOADS = ("mc", "solvers", "curves")

# the per-workload figures a user reads: name -> (unit, job medians -> value)
HEADLINE = {
    "mc": {
        "mc_paths_per_s": ("paths/s", lambda m: MC_PATHS / m["sim_power_T"]),
        "mc_stationary_paths_per_s": ("paths/s", lambda m: MC_PATHS / m["sim_exp_inf"]),
        "mc_inversion_paths_per_s": ("paths/s", lambda m: R0_PATHS / m["sim_power_r0"]),
        "mc_dump_rows_per_s":
            ("rows/s", lambda m: DUMP_PATHS * N_UNITS / m["sim_power_dump"]),
    },
    "solvers": {
        "converge_s": ("s", lambda m: m["converge_power"] + m["converge_exp"]),
        "exchanges_s": ("s", lambda m: m["exchanges"]),
    },
    "curves": {
        "curve_ode_s": ("s", lambda m: m["curves_power_T"] + m["curves_exp_r0"]),
        "fluid_curve_s": ("s", lambda m: m["curves_exp_inf"]),
    },
}


def workload_jobs(workload: str, seed: int) -> list[Job]:
    """The jobs of one workload; only the Monte Carlo configs carry the seed."""
    return _jobs(seed)[workload]


def write_configs(jobs: list[Job], directory: str) -> dict[str, str]:
    """Write one YAML config per job; returns job name -> config path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for j in jobs:
        path = os.path.join(directory, j.name + ".yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(j.config, fh, sort_keys=True)
        paths[j.name] = path
    return paths
