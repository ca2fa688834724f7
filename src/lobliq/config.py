"""Run configuration: strict YAML parsing with per-field validation.

A config file is one YAML document of nested sections.  Unknown keys are
rejected with their full path so typos fail loudly instead of silently
running defaults.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

from .extensions import RegimeParams, TwoExchangeParams
from .intensity import ExpDecayIntensity, IntensityModel, MarketParams, PowerLawIntensity

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "COMMANDS"]


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


def _require_keys(section: dict, allowed: set[str], required: set[str], path: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(section).__name__}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown, key=str)}")
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
    try:
        val = float(raw)
    except OverflowError:
        raise ConfigError(f"{path}.{key}: expected a number, got an integer beyond "
                          "the float range") from None
    if math.isinf(val) and not allow_inf:
        raise ConfigError(f"{path}.{key}: must be finite")
    if minimum is not None:
        if exclusive and not val > minimum:
            raise ConfigError(f"{path}.{key}: must be > {minimum}, got {val}")
        if not exclusive and not val >= minimum:
            raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {val}")
    return val


def _integer(section, key, path, *, default=None, minimum=None):
    raw = section.get(key, default)  # a required key is checked by _require_keys
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
    """{start, stop, count, spacing: linear|log} -> numpy array; a default
    is such a spec too, so that each parse makes its own array."""
    spec = section.get(key, default)  # a required key is checked by _require_keys
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


_POSITIVE = {"minimum": 0.0, "exclusive": True}
_UNIT = {"default": 1.0, **_POSITIVE}
_ALPHA = {"minimum": 1.0, "exclusive": True}

# Each command's section, {field: (parser, keywords)}, in the order its
# fields are parsed.  A field without a default is required; one whose
# default is None is optional, and is parsed where present once the
# section's cross-field rules (_check_rules) have allowed it.
_SECTIONS = {
    "solve": {"n_max": (_integer, {"minimum": 1}), "delta": (_number, _UNIT)},
    "fluid": {"x_grid": (_grid, {})},
    "converge": {"x_probe": (_number, _POSITIVE), "delta0": (_number, _UNIT),
                 "k_max": (_integer, {"default": 9, "minimum": 0})},
    "simulate": {"n_units": (_integer, {"minimum": 1}), "delta": (_number, _UNIT),
                 "n_paths": (_integer, {"minimum": 1}),
                 "policy": (_choice, {"choices": ("optimal", "fluid", "constant"),
                                      "default": "optimal"}),
                 "constant_spread": (_number, {"default": None, **_POSITIVE}),
                 "curve_points": (_integer, {"default": 0, "minimum": 0}),
                 "dump_paths": (_boolean, {"default": False})},
    "curves": {"n_units": (_integer, {"minimum": 1}), "t_grid": (_grid, {})},
    "regimes": {"lambda0": (_number, _POSITIVE), "lambda1": (_number, _POSITIVE),
                "alpha": (_number, _ALPHA), "r": (_number, _POSITIVE),
                "theta_grid": (_grid, {})},
    "exchanges": {"lambda0": (_number, _POSITIVE), "lambda1": (_number, {"minimum": 0.0}),
                  "delta_block": (_number, _POSITIVE), "alpha": (_number, _ALPHA),
                  "r": (_number, _POSITIVE), "x_max": (_number, _POSITIVE),
                  "grid_step": (_number, {"default": 0.001, **_POSITIVE}),
                  "eps": (_number, {"default": None, "minimum": 0.0})},
    "figures": {"figure": (_integer, {"minimum": 1}),
                "x_grid": (_grid, {"default": {"start": 0.05, "stop": 10.0,
                                                "count": 200, "spacing": "log"}})},
}

COMMANDS = tuple(_SECTIONS)
_TOP_KEYS = {*COMMANDS, "command", "model", "market", "output", "seed", "threads"}
_NEEDS_MODEL = {"solve", "fluid", "converge", "simulate", "curves"}


def _check_rules(command: str, section: dict, out: dict) -> None:
    """The rules that tie a section's fields together, each raising ValueError
    that names its field first; the extensions' parameter types check their
    own, and are kept in ``out["params"]`` for the command."""
    if command == "converge":
        # the ladder halves delta0, so rung k holds the probe at level q * 2**k;
        # a q past the float range is no level at all
        q = out["x_probe"] / out["delta0"]
        if (not q < math.inf or round(q) < 1
                or abs(q - round(q)) > math.ldexp(1e-9, -out["k_max"])):
            raise ValueError(f"x_probe: {out['x_probe']} is not a positive "
                             f"multiple of delta0 = {out['delta0']}")
    elif command == "simulate":
        constant = out["policy"] == "constant"
        if constant != ("constant_spread" in section):
            raise ValueError("constant_spread: required" if constant else
                             "constant_spread: only valid for policy: constant")
    elif command == "regimes":
        out["params"] = RegimeParams(
            lambda0=out["lambda0"], lambda1=out["lambda1"], theta0=out["theta_grid"],
            theta1=out["theta_grid"], r=out["r"], alpha=out["alpha"])
    elif command == "exchanges":
        # every field but eps, which is parsed after the rules
        out["params"] = TwoExchangeParams(**out)
    elif command == "figures" and out["figure"] != 1:
        raise ValueError("figure: only figure 1 is available")


def _validate_section(command: str, section: dict) -> dict:
    fields = _SECTIONS[command]
    _require_keys(section, set(fields),
                  {k for k, (_, kw) in fields.items() if "default" not in kw}, command)
    optional = {k for k, (_, kw) in fields.items() if kw.get("default", 0) is None}
    out = {k: parse(section, k, command, **kw)
           for k, (parse, kw) in fields.items() if k not in optional}
    try:
        _check_rules(command, section, out)
    except ValueError as exc:
        raise ConfigError(f"{command}.{exc}") from exc
    for k in optional & section.keys():
        parse, kw = fields[k]
        out[k] = parse(section, k, command, **kw)
    return out


def parse_config(data: dict, command: str) -> RunConfig:
    """Validate a parsed YAML mapping for one command."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a mapping")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"top level: unknown key(s) {sorted(unknown, key=str)}")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if "command" in data and data["command"] != command:
        raise ConfigError(f"command: config says {data['command']!r}, "
                          f"invoked as {command!r}")
    if command not in data:
        raise ConfigError(f"missing section {command!r}")

    model = market = None
    if command in _NEEDS_MODEL:
        for name in ("model", "market"):
            if name not in data:
                raise ConfigError(f"missing section {name!r}")
        model = _parse_model(data["model"])
        market = _parse_market(data["market"])

    section = _validate_section(command, data[command])

    out_spec = data.get("output", {})
    _require_keys(out_spec, {"directory", "formats"}, set(), "output")
    out_dir = out_spec.get("directory", "out")
    if not isinstance(out_dir, str):
        raise ConfigError("output.directory: expected a string")
    formats = _choice(out_spec, "formats", "output", ("csv", "json", "both"), default="both")

    seed = _integer(data, "seed", "top level", default=0, minimum=0)
    threads = _integer(data, "threads", "top level", default=1, minimum=1)
    return RunConfig(command=command, model=model, market=market, section=section,
                     out_dir=out_dir, formats=formats, seed=seed, threads=threads,
                     raw=data)


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """libyaml's C parser where PyYAML has it, yaml.SafeLoader's constructor and
    resolver, and YAML 1.2's floats that YAML 1.1 reads as strings, such as 1e4 and 1.0e4."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"), list("-+.0123456789"))


def load_config(path: str, command: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: a scalar PyYAML cannot build, such as the date 2020-13-45
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    if data is None:
        raise ConfigError(f"empty config file {path}")
    return parse_config(data, command)
