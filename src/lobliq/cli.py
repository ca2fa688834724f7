"""Batch command-line front end.

One command per process: parse a YAML config, dispatch to the owning
module, and emit CSV/JSON artifacts plus a manifest.  Exit codes: 0 on
success, 2 for configuration errors (an unsupported model/market pair and an
output path that cannot be written among them), 3 for numerical failures and
for problems too large to allocate.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .cases import resolve
from .config import COMMANDS, ConfigError, RunConfig, load_config
from .convergence import value_convergence
from .extensions import (
    RegimeParams,
    TwoExchangeParams,
    regime_fluid_fixed_point,
    two_exchange_expansion,
    two_exchange_patch,
)
from .fluid import exp_fluid_infinite, fluid_solution, power_fluid
from .intensity import UnsupportedCaseError
from .reports import write_json, write_manifest, write_schema_sidecar, write_table
from .simulate import (
    StationarySpreadPolicy,
    execution_curve_ode,
    fluid_spread_policy,
    optimal_policy,
    simulate_policy,
)


def _emit_table(cfg: RunConfig, name: str, columns: dict, artifacts: list,
                extra_json: dict | None = None) -> None:
    """Write ``columns``, {name: (values, doc)}: the values to the CSV/JSON
    table, the docs to the CSV's schema sidecar, and the scalars
    ``extra_json`` to the JSON table and the sidecar both, so that either
    format carries them."""
    base = os.path.join(cfg.out_dir, name)
    csv_path = base + ".csv" if cfg.formats in ("csv", "both") else None
    json_path = base + ".json" if cfg.formats in ("json", "both") else None
    write_table({k: values for k, (values, _) in columns.items()}, csv_path, json_path,
                {"table": name, **(extra_json or {})})
    if csv_path is not None:
        write_schema_sidecar(base + ".schema.json", name,
                             {k: doc for k, (_, doc) in columns.items()}, extra_json)
        artifacts += [csv_path, base + ".schema.json"]
    if json_path is not None:
        artifacts.append(json_path)


def _cmd_solve(cfg: RunConfig, artifacts: list) -> None:
    case = resolve(cfg.model, cfg.market)
    sol = case.solve(cfg.section["delta"], cfg.section["n_max"])
    n = np.arange(sol.n_max + 1)
    columns = {
        "n": (n, "inventory level (units of delta)"),
        "x": (n * sol.delta, "physical inventory n*delta"),
        "coefficient": (sol.coefficients,
                        "value coefficient (c_n, d_n, or stationary value)"),
        "value": (sol.values, "value at the configured horizon"),
        "spread": (sol.spreads, "optimal spread at the configured horizon"),
    }
    if sol.liquidation_times is not None:
        columns["expected_liquidation_time"] = (sol.liquidation_times,
                                                "mean time to sell all n units optimally")
    _emit_table(cfg, "solve", columns, artifacts)


def _cmd_fluid(cfg: RunConfig, artifacts: list) -> None:
    fl = fluid_solution(cfg.model, cfg.market)
    xs = cfg.section["x_grid"]
    values, spreads = np.array([fl.value_and_spread(x) for x in xs]).T
    _emit_table(cfg, "fluid", {
        "x": (xs, "inventory"),
        "value": (values, "fluid-limit value"),
        "spread": (spreads, "fluid-limit optimal spread"),
    }, artifacts)


def _cmd_converge(cfg: RunConfig, artifacts: list) -> None:
    sec = cfg.section
    report = value_convergence(cfg.model, cfg.market, sec["x_probe"],
                               sec["delta0"], sec["k_max"])
    columns = {
        "delta": (report.deltas, "trading unit"),
        "value": (report.values, "discrete value at the probe inventory"),
        "ratio": (report.ratios, "discrete value / fluid value"),
        "spread": (report.spreads, "discrete optimal spread at the probe"),
        "spread_err": (report.pointwise_err, "|discrete spread - fluid spread|"),
    }
    extra = {
        "x_probe": report.x_probe,
        "fluid_value": report.fluid_value,
        "fluid_spread": report.fluid_spread,
        "monotone_ok": report.monotone_ok,
        "rate_estimate": report.rate_estimate,
        "cell_averaged_spread": report.averaged,
        "cell_averaged_err": report.averaged_err,
    }
    _emit_table(cfg, "converge", columns, artifacts, extra_json=extra)


def _build_policy(cfg: RunConfig):
    sec = cfg.section
    kind = sec["policy"]
    if kind == "optimal":
        return optimal_policy(cfg.model, cfg.market, sec["delta"], sec["n_units"])
    if kind == "fluid":
        return fluid_spread_policy(cfg.model, cfg.market, sec["delta"], sec["n_units"])
    return StationarySpreadPolicy(np.full(sec["n_units"] + 1, sec["constant_spread"]))


def _cmd_simulate(cfg: RunConfig, artifacts: list) -> None:
    sec = cfg.section
    policy = _build_policy(cfg)
    curve_times = None
    if sec["curve_points"] > 0:
        if cfg.market.infinite_horizon:
            raise ConfigError("simulate.curve_points: inventory curves need a "
                              "finite horizon")
        cp = sec["curve_points"]
        curve_times = np.linspace(0.0, cfg.market.horizon, cp + 2)[1:-1]
    result = simulate_policy(cfg.model, cfg.market, sec["n_units"], sec["delta"],
                             policy, sec["n_paths"], cfg.seed,
                             threads=cfg.threads, curve_times=curve_times,
                             keep_paths=sec["dump_paths"])
    stats, fills = result if sec["dump_paths"] else (result, None)

    payload = {
        "n_paths": stats.n_paths,
        "mean_revenue": stats.mean_revenue,
        "std_error": stats.std_error,
        "liquidation_fraction": stats.liquidation_fraction,
        "seed": cfg.seed,
    }
    path = os.path.join(cfg.out_dir, "ensemble.json")
    write_json(path, payload)
    artifacts.append(path)

    if curve_times is not None:
        _emit_table(cfg, "curve", {
            "time": (stats.curve_times, "observation time"),
            "mean_inventory": (stats.mean_inventory_curve,
                               "ensemble mean of remaining inventory"),
            "std_error": (stats.curve_std_error, "standard error of the mean inventory"),
        }, artifacts)

    if fills is not None:
        _emit_table(cfg, "paths", {
            "path_id": (fills.path_id, "simulation path index"),
            "fill_index": (fills.fill_index, "fill counter within the path"),
            "time": (fills.time, "fill time"),
            "spread": (fills.spread, "spread earned at the fill"),
            "discounted_cash": (
                np.exp(-cfg.market.r * fills.time) * fills.spread * sec["delta"],
                "exp(-r t) * spread * delta"),
        }, artifacts)


def _cmd_curves(cfg: RunConfig, artifacts: list) -> None:
    sec = cfg.section
    curve = execution_curve_ode(cfg.model, cfg.market, sec["n_units"], sec["t_grid"])
    x0 = float(sec["n_units"])
    times = curve.times
    if cfg.market.infinite_horizon:
        baseline = np.full_like(times, math.nan)
    else:
        baseline = x0 * (1.0 - times / cfg.market.horizon)
    fluid_curve = fluid_solution(cfg.model, cfg.market).trade_curve(times, x0)
    _emit_table(cfg, "curves", {
        "time": (times, "time since start"),
        "mean_inventory": (curve.inventory[curve.initial_units],
                           "average remaining inventory E(x0, t)"),
        "trading_rate": (curve.trading_rate, "-dE/dt, the average fill rate"),
        "baseline_linear": (baseline, "constant-rate reference x0*(1 - t/T)"),
        "fluid_curve": (fluid_curve, "deterministic fluid-limit inventory"),
    }, artifacts)


def _cmd_regimes(cfg: RunConfig, artifacts: list) -> None:
    sec = cfg.section
    thetas = sec["theta_grid"]
    c0, c1 = regime_fluid_fixed_point(RegimeParams(
        lambda0=sec["lambda0"], lambda1=sec["lambda1"], theta0=thetas, theta1=thetas,
        r=sec["r"], alpha=sec["alpha"]))
    _emit_table(cfg, "regimes", {
        "theta": (thetas, "symmetric switching rate"),
        "c0": (c0, "active-regime value constant"),
        "c1": (c1, "slow-regime value constant"),
    }, artifacts)


def _cmd_exchanges(cfg: RunConfig, artifacts: list) -> None:
    sec = cfg.section
    eps = sec.get("eps")
    base = TwoExchangeParams(lambda0=sec["lambda0"], lambda1=sec["lambda1"],
                             delta_block=sec["delta_block"], alpha=sec["alpha"],
                             r=sec["r"], x_max=sec["x_max"], grid_step=sec["grid_step"])
    # eps scales the block venue's intensity; lambda1 is then its O(1) base
    params = base if eps is None else replace(base, lambda1=sec["lambda1"] * eps)
    sol = two_exchange_patch(params)
    columns = {
        "x": (sol.x_grid, "inventory"),
        "value": (sol.value, "two-exchange stationary value"),
        "value_single": (params.single_exchange_value(sol.x_grid),
                         "single-exchange reference value"),
        "spread_continuous": (sol.spread_continuous,
                              "optimal spread on the continuous venue"),
        "spread_block": (sol.spread_block, "optimal spread on the block venue"),
    }
    if eps is not None:
        columns["value_expansion"] = (two_exchange_expansion(base, eps).value(sol.x_grid),
                                      "first-order weak-block-venue expansion")
    _emit_table(cfg, "exchanges", columns, artifacts, extra_json={"x_seed": sol.x_seed})


def _cmd_figures(cfg: RunConfig, artifacts: list) -> None:
    # figure 1: fluid spreads for three depth models normalized to rate 1 at s = 1
    xs = cfg.section["x_grid"]
    r = 0.1
    _emit_table(cfg, "figure1", {
        "x": (xs, "inventory"),
        "spread_power_alpha2": ([power_fluid(x, math.inf, 1.0, 2.0, r)[1] for x in xs],
                                "fluid spread, rate s**-2"),
        "spread_power_alpha3": ([power_fluid(x, math.inf, 1.0, 3.0, r)[1] for x in xs],
                                "fluid spread, rate s**-3"),
        "spread_exp": ([exp_fluid_infinite(x, math.e, 1.0, r)[1] for x in xs],
                       "fluid spread, rate e**(1-s)"),
    }, artifacts)


_HANDLERS = {
    "solve": _cmd_solve,
    "fluid": _cmd_fluid,
    "converge": _cmd_converge,
    "simulate": _cmd_simulate,
    "curves": _cmd_curves,
    "regimes": _cmd_regimes,
    "exchanges": _cmd_exchanges,
    "figures": _cmd_figures,
}


@functools.cache  # one parser per process: each one is a web of reference cycles
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lobliq",
        description="Optimal limit-order liquidation: solvers, fluid limits, "
                    "convergence reports, and Monte Carlo.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} command")
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="root RNG seed (overrides config)")
        p.add_argument("--threads", type=int,
                       help="simulate: accepted, must be >= 1; no effect on "
                            "results or speed (overrides config)")
        p.add_argument("--format", choices=("csv", "json", "both"),
                       help="artifact formats (overrides config)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        cfg = load_config(args.config, args.command)
        if args.out is not None:
            cfg.out_dir = args.out
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be nonnegative")
            cfg.seed = args.seed
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError("--threads must be >= 1")
            cfg.threads = args.threads
        if args.format is not None:
            cfg.formats = args.format
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    artifacts: list[str] = []
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        _HANDLERS[cfg.command](cfg, artifacts)
        write_manifest(cfg.out_dir, cfg.command, cfg.raw, cfg.seed,
                       time.monotonic() - started, artifacts)
    except (ConfigError, UnsupportedCaseError, OSError) as exc:
        # OSError: an output directory or artifact that cannot be written
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as exc:
        print(f"numerical failure in {cfg.command!r}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # a level count whose arrays cannot be allocated, such as a
        # convergence ladder of 5 * 2**40 levels
        print(f"out of memory in {cfg.command!r}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
