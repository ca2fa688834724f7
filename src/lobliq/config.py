"""Run configuration: strict YAML parsing with per-field validation.

A config file is one YAML document of nested sections.  Unknown keys are
rejected with their full path so typos fail loudly instead of silently
running defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

from .intensity import ExpDecayIntensity, IntensityModel, MarketParams, PowerLawIntensity

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "COMMANDS"]

COMMANDS = ("solve", "fluid", "converge", "simulate", "curves", "regimes",
            "exchanges", "figures")

_TOP_KEYS = set(COMMANDS) | {"command", "model", "market", "output", "seed", "threads"}


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


def _require_keys(section: dict, allowed: set[str], required: set[str], path: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(section).__name__}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {sorted(missing)}")


def _number(section, key, path, *, default=None, minimum=None, exclusive=False,
            allow_inf=False):
    if key not in section:
        if default is None:
            raise ConfigError(f"{path}.{key}: required")
        return default
    raw = section[key]
    if isinstance(raw, str) and raw.lower() in ("inf", "infinity", ".inf"):
        raw = math.inf
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {raw!r}")
    val = float(raw)
    if math.isinf(val) and not allow_inf:
        raise ConfigError(f"{path}.{key}: must be finite")
    if minimum is not None:
        if exclusive and not val > minimum:
            raise ConfigError(f"{path}.{key}: must be > {minimum}, got {val}")
        if not exclusive and not val >= minimum:
            raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {val}")
    return val


def _integer(section, key, path, *, default=None, minimum=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"{path}.{key}: required")
        return default
    raw = section[key]
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {raw!r}")
    if minimum is not None and raw < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {raw}")
    return raw


def _choice(section, key, path, choices, *, default=None):
    raw = section.get(key, default)
    if raw is None:
        raise ConfigError(f"{path}.{key}: required (one of {sorted(choices)})")
    if raw not in choices:
        raise ConfigError(f"{path}.{key}: expected one of {sorted(choices)}, got {raw!r}")
    return raw


def _boolean(section, key, path, *, default):
    raw = section.get(key, default)
    if not isinstance(raw, bool):
        raise ConfigError(f"{path}.{key}: expected true or false, got {raw!r}")
    return raw


def _grid(section, key, path, *, default=None):
    """{start, stop, count, spacing: linear|log} -> numpy array."""
    if key not in section:
        if default is None:
            raise ConfigError(f"{path}.{key}: required")
        return default
    spec = section[key]
    p = f"{path}.{key}"
    _require_keys(spec, {"start", "stop", "count", "spacing"}, {"start", "stop", "count"}, p)
    # every grid holds inventories, times or rates
    start = _number(spec, "start", p, minimum=0.0)
    stop = _number(spec, "stop", p)
    count = _integer(spec, "count", p, minimum=2)
    spacing = _choice(spec, "spacing", p, ("linear", "log"), default="linear")
    if not stop > start:
        raise ConfigError(f"{p}: stop must exceed start")
    if spacing == "log":
        if start <= 0.0:
            raise ConfigError(f"{p}: log spacing needs start > 0")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def _parse_model(section, path="model") -> IntensityModel:
    _require_keys(section, {"kind", "lam", "alpha", "kappa"}, {"kind"}, path)
    kind = _choice(section, "kind", path, ("power", "exp"))
    lam = _number(section, "lam", path, default=1.0, minimum=0.0, exclusive=True)
    if kind == "power":
        if "kappa" in section:
            raise ConfigError(f"{path}.kappa: not a power-law parameter")
        alpha = _number(section, "alpha", path, minimum=1.0, exclusive=True)
        return PowerLawIntensity(lam=lam, alpha=alpha)
    if "alpha" in section:
        raise ConfigError(f"{path}.alpha: not an exponential-book parameter")
    kappa = _number(section, "kappa", path, minimum=0.0, exclusive=True)
    return ExpDecayIntensity(lam=lam, kappa=kappa)


def _parse_market(section, path="market") -> MarketParams:
    _require_keys(section, {"r", "horizon"}, {"r"}, path)
    r = _number(section, "r", path, minimum=0.0)
    horizon = _number(section, "horizon", path, default=math.inf, minimum=0.0,
                      exclusive=True, allow_inf=True)
    try:
        return MarketParams(r=r, horizon=horizon)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass
class RunConfig:
    command: str
    model: Optional[IntensityModel]
    market: Optional[MarketParams]
    section: dict
    out_dir: str
    formats: str  # csv | json | both
    seed: int
    threads: int
    raw: dict = field(repr=False, default_factory=dict)


_SECTION_SCHEMAS: dict[str, tuple[set[str], set[str]]] = {
    # command: (allowed keys, required keys)
    "solve": ({"n_max", "delta"}, {"n_max"}),
    "fluid": ({"x_grid"}, {"x_grid"}),
    "converge": ({"x_probe", "delta0", "k_max"}, {"x_probe"}),
    "simulate": ({"n_units", "delta", "n_paths", "policy", "constant_spread",
                  "curve_points", "dump_paths"}, {"n_units", "n_paths"}),
    "curves": ({"n_units", "t_grid"}, {"n_units", "t_grid"}),
    "regimes": ({"lambda0", "lambda1", "alpha", "r", "theta_grid"},
                {"lambda0", "lambda1", "alpha", "r", "theta_grid"}),
    "exchanges": ({"lambda0", "lambda1", "delta_block", "alpha", "r", "x_max",
                   "grid_step", "eps"},
                  {"lambda0", "lambda1", "delta_block", "alpha", "r", "x_max"}),
    "figures": ({"figure", "x_grid"}, {"figure"}),
}

_NEEDS_MODEL = {"solve", "fluid", "converge", "simulate", "curves"}


def _validate_section(command: str, section: dict) -> dict:
    allowed, required = _SECTION_SCHEMAS[command]
    _require_keys(section, allowed, required, command)
    out = dict(section)
    if command == "solve":
        out["n_max"] = _integer(section, "n_max", command, minimum=1)
        out["delta"] = _number(section, "delta", command, default=1.0,
                               minimum=0.0, exclusive=True)
    elif command == "fluid":
        out["x_grid"] = _grid(section, "x_grid", command)
    elif command == "converge":
        out["x_probe"] = _number(section, "x_probe", command, minimum=0.0, exclusive=True)
        out["delta0"] = _number(section, "delta0", command, default=1.0,
                                minimum=0.0, exclusive=True)
        out["k_max"] = _integer(section, "k_max", command, default=9, minimum=0)
        # the ladder halves delta0, so rung k holds the probe at level q * 2**k
        q = out["x_probe"] / out["delta0"]
        if round(q) < 1 or abs(q - round(q)) > 1e-9 * 0.5 ** out["k_max"]:
            raise ConfigError(f"{command}.x_probe: {out['x_probe']} is not a positive "
                              f"multiple of delta0 = {out['delta0']}")
    elif command == "simulate":
        out["n_units"] = _integer(section, "n_units", command, minimum=1)
        out["delta"] = _number(section, "delta", command, default=1.0,
                               minimum=0.0, exclusive=True)
        out["n_paths"] = _integer(section, "n_paths", command, minimum=1)
        out["policy"] = _choice(section, "policy", command,
                                ("optimal", "fluid", "constant"), default="optimal")
        if out["policy"] == "constant":
            out["constant_spread"] = _number(section, "constant_spread", command,
                                             minimum=0.0, exclusive=True)
        elif "constant_spread" in section:
            raise ConfigError(f"{command}.constant_spread: only valid for policy: constant")
        out["curve_points"] = _integer(section, "curve_points", command,
                                       default=0, minimum=0)
        out["dump_paths"] = _boolean(section, "dump_paths", command, default=False)
    elif command == "curves":
        out["n_units"] = _integer(section, "n_units", command, minimum=1)
        out["t_grid"] = _grid(section, "t_grid", command)
    elif command == "regimes":
        out["lambda0"] = _number(section, "lambda0", command, minimum=0.0, exclusive=True)
        out["lambda1"] = _number(section, "lambda1", command, minimum=0.0, exclusive=True)
        if not out["lambda0"] > out["lambda1"]:
            raise ConfigError(f"{command}.lambda1: the slow regime's {out['lambda1']} "
                              f"must be below lambda0 = {out['lambda0']}")
        out["alpha"] = _number(section, "alpha", command, minimum=1.0, exclusive=True)
        out["r"] = _number(section, "r", command, minimum=0.0, exclusive=True)
        out["theta_grid"] = _grid(section, "theta_grid", command)
    elif command == "exchanges":
        out["lambda0"] = _number(section, "lambda0", command, minimum=0.0, exclusive=True)
        out["lambda1"] = _number(section, "lambda1", command, minimum=0.0)
        out["delta_block"] = _number(section, "delta_block", command,
                                     minimum=0.0, exclusive=True)
        out["alpha"] = _number(section, "alpha", command, minimum=1.0, exclusive=True)
        out["r"] = _number(section, "r", command, minimum=0.0, exclusive=True)
        out["x_max"] = _number(section, "x_max", command, minimum=0.0, exclusive=True)
        out["grid_step"] = _number(section, "grid_step", command, default=0.001,
                                   minimum=0.0, exclusive=True)
        # the patching solver marches a lattice of grid_step that must hold
        # every block-size knot and x_max itself
        h, x_max = out["grid_step"], out["x_max"]
        ratio = out["delta_block"] / h
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError(f"{command}.grid_step: {h} does not divide "
                              f"delta_block = {out['delta_block']}")
        if abs(h * round(x_max / h) - x_max) > 1e-9 * max(1.0, x_max):
            raise ConfigError(f"{command}.x_max: {x_max} is not on the "
                              f"grid_step = {h} lattice")
        if "eps" in section:
            out["eps"] = _number(section, "eps", command, minimum=0.0)
    elif command == "figures":
        fig = _integer(section, "figure", command, minimum=1)
        if fig != 1:
            raise ConfigError("figures.figure: only figure 1 is available")
        out["figure"] = fig
        out["x_grid"] = _grid(section, "x_grid", command,
                              default=np.geomspace(0.05, 10.0, 200))
    return out


def parse_config(data: dict, command: str) -> RunConfig:
    """Validate a parsed YAML mapping for one command."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a mapping")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"top level: unknown key(s) {sorted(unknown)}")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if "command" in data and data["command"] != command:
        raise ConfigError(f"command: config says {data['command']!r}, "
                          f"invoked as {command!r}")
    if command not in data:
        raise ConfigError(f"missing section {command!r}")

    model = market = None
    if command in _NEEDS_MODEL:
        if "model" not in data:
            raise ConfigError("missing section 'model'")
        if "market" not in data:
            raise ConfigError("missing section 'market'")
        model = _parse_model(data["model"])
        market = _parse_market(data["market"])

    section = _validate_section(command, data[command])

    out_spec = data.get("output", {})
    _require_keys(out_spec, {"directory", "formats"}, set(), "output")
    out_dir = out_spec.get("directory", "out")
    if not isinstance(out_dir, str):
        raise ConfigError("output.directory: expected a string")
    formats = _choice(out_spec, "formats", "output", ("csv", "json", "both"),
                      default="both")

    seed = _integer(data, "seed", "top level", default=0, minimum=0)
    threads = _integer(data, "threads", "top level", default=1, minimum=1)
    return RunConfig(command=command, model=model, market=market, section=section,
                     out_dir=out_dir, formats=formats, seed=seed, threads=threads,
                     raw=data)


# libyaml's C parser where PyYAML was built with it: the same safe
# constructor and resolver as yaml.SafeLoader, so the same data
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str, command: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    if data is None:
        raise ConfigError(f"empty config file {path}")
    return parse_config(data, command)
