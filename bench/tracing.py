"""Per-layer tracing installed from outside the package.

``Tracer.install`` rebinds module attributes where the callers look them up
(``lobliq.discrete.brentq``, ``lobliq.cli.simulate_policy``,
``numpy.random.default_rng``, ...) and ``uninstall`` restores them.  Every
wrapped call adds to per-name counters (calls, total time, self time); calls
outside ``HOT`` also record a span (name, parent, job, start, end).  Spans
stay in memory until the caller writes them out.

Layers are lobliq's modules plus ``libs``: time inside the wrapped SciPy and
NumPy calls, including the callbacks they run.  Self time is a call's time
minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import replace
from time import perf_counter

import numpy as np

import lobliq.cli
import lobliq.config
import lobliq.convergence
import lobliq.discrete
import lobliq.extensions
import lobliq.fluid
import lobliq.intensity
import lobliq.numerics
import lobliq.reports
import lobliq.simulate

LAYERS = ("cli", "config", "simulate", "intensity", "fluid", "numerics",
          "discrete", "convergence", "extensions", "reports", "libs")

_CALLERS = (lobliq.cli, lobliq.config, lobliq.convergence, lobliq.discrete,
            lobliq.extensions, lobliq.fluid, lobliq.numerics, lobliq.reports,
            lobliq.simulate)

# called per fill, per ODE step or per table cell: counted, never a span
HOT = {"horizon_factor", "level_of", "power_constant", "power_spread_scale",
       "lambert_w0", "lambert_w0_exparg", "log_integral", "exp_fluid_infinite",
       "exp_fluid_finite", "power_fluid", "power_trade_curve"}
_SKIP = {"main", "format_number"}

# third-party leaves: (module, attribute, counter name); the counter's
# prefix names the layer whose calls it counts
_LEAVES = (
    (lobliq.discrete, "brentq", "discrete.root_solve"),
    (lobliq.numerics, "brentq", "numerics.root_solve"),
    (lobliq.simulate, "quad", "simulate.hazard_quad"),
    (lobliq.simulate, "brentq", "simulate.hazard_root_solve"),
    (lobliq.convergence, "quad", "convergence.cell_quad"),
    (lobliq.extensions, "quad", "extensions.expansion_quad"),
    (lobliq.extensions, "brentq", "extensions.root_solve"),
    (np.random, "default_rng", "simulate.rng_stream"),
)


class Tracer:
    """Counters and spans for one traced pass over a workload's jobs."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.layer_of: dict[str, str] = {}
        self.spans: list[list] = []        # [name, parent, job, start, end]
        self.extra = {"fills": 0, "rows": 0, "bytes": 0, "grid_points": 0}
        self.ladder_keys: set = set()
        self.job_calls: dict[str, dict[str, int]] = {}  # job -> name -> calls
        self.job = None
        self._stack: list[list] = []       # frames: [child_s, enclosing span]
        self._undo: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, layer: str, span: bool = True, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.layer_of[name] = layer
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if span:
                sid = len(spans)
                spans.append([name, parent, self.job, 0.0, 0.0])
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if span:
                    spans[sid][3], spans[sid][4] = t0, t0 + dt
            if after is not None:
                return after(args, kwargs, result)
            return result

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap_attr(self, owner, attr: str, name: str, layer: str, **kw) -> None:
        # a target that a later version of the package drops is counted as 0
        fn = getattr(owner, attr, None)
        if fn is not None:
            self._rebind(owner, attr, self.wrap(name, fn, layer, **kw))

    def install(self) -> None:
        """Rebind every traced attribute; ``uninstall`` puts them back."""
        after = {
            "simulate_policy": self._after_simulate,
            "execution_curve_ode": self._after_curve,
            "fluid_solution": self._after_fluid_solution,
            "discrete_value_and_spread_at": self._after_ladder_rung,
            "write_csv": self._after_csv,
            "atomic_write_text": self._after_text,
        }
        for owner in _CALLERS:
            for attr, fn in list(vars(owner).items()):
                if (attr.startswith("_") or attr in _SKIP or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("lobliq.")):
                    continue
                layer = fn.__module__.split(".")[1]
                hook = after.get(attr)
                if hook is not None:
                    hook = functools.partial(hook, inspect.signature(fn))
                self._rebind(owner, attr, self.wrap(f"{layer}.{attr}", fn, layer,
                                                    span=attr not in HOT, after=hook))
        for owner, attr, name in _LEAVES:
            self._wrap_attr(owner, attr, name, "libs", span=False)
        for cls in ("PowerLawIntensity", "ExpDecayIntensity", "GenericIntensity"):
            self._wrap_attr(getattr(lobliq.intensity, cls, None), "rate",
                            "intensity.rate", "intensity", span=False)
        ext, sim = lobliq.extensions, lobliq.simulate
        self._wrap_attr(getattr(ext, "ExpansionSolution", None), "value",
                        "extensions.expansion_value", "extensions", span=False)
        self._wrap_attr(ext, "_patch_integrate", "extensions.patch_integrate",
                        "extensions")
        self._wrap_attr(sim, "_level_rate_fn", "simulate.level_rate_fn", "simulate",
                        after=self._after_level_rate_fn)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def run_job(self, job_name: str, fn, *args):
        """Call ``fn(*args)`` as the job's top-level ``cli`` span."""
        before = {n: s[0] for n, s in self.stats.items()}
        self.job = job_name
        try:
            return self.wrap(f"cli.{job_name}", fn, "cli")(*args)
        finally:
            self.job = None
            calls = {n: s[0] - before.get(n, 0) for n, s in sorted(self.stats.items())}
            self.job_calls[job_name] = {n: c for n, c in calls.items() if c}

    # -- derived counts, taken from the public arguments and results --------

    def _after_simulate(self, sig, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        if isinstance(result, tuple):
            self.extra["fills"] += sum(len(p.fill_times) for p in result[1])
        else:
            # only fully liquidated paths are counted exactly; every
            # benchmark job checks that all paths liquidate
            full = round(result.liquidation_fraction * result.n_paths)
            self.extra["fills"] += full * bound.arguments["n_units"]
        return result

    def _after_curve(self, sig, args, kwargs, result):
        self.extra["grid_points"] += len(result.times)
        return result

    def _after_fluid_solution(self, sig, args, kwargs, result):
        curve = self.wrap("fluid.trade_curve", result.trade_curve, "fluid", span=False)
        return replace(result, trade_curve=curve)

    def _after_ladder_rung(self, sig, args, kwargs, result):
        self.ladder_keys.add(tuple(sig.bind(*args, **kwargs).arguments.values()))
        return result

    def _after_csv(self, sig, args, kwargs, result):
        columns = sig.bind(*args, **kwargs).arguments["columns"]
        self.extra["rows"] += len(np.atleast_1d(next(iter(columns.values()))))
        return result

    def _after_text(self, sig, args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        # manifest.json records the wall time, so its size is not repeatable
        if not bound["path"].endswith("manifest.json"):
            self.extra["bytes"] += len(bound["text"].encode())
        return result

    def _after_level_rate_fn(self, args, kwargs, rates):
        return self.wrap("simulate.level_rates", rates, "simulate", span=False)

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def layer_self(self, layer: str) -> float:
        return sum(s[2] for n, s in self.stats.items() if self.layer_of[n] == layer)

    def counts(self) -> dict[str, int]:
        """Every call count and derived count; these must repeat exactly."""
        out = {f"calls.{n}": s[0] for n, s in sorted(self.stats.items())}
        out.update({f"extra.{k}": v for k, v in sorted(self.extra.items())})
        out["extra.ladder_rungs"] = len(self.ladder_keys)
        return out

    def layer_metrics(self, job_names) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of this pass: name -> (value, unit)."""
        jobs_s = sum(self.total(f"cli.{j}") for j in job_names)
        rungs = self.calls("convergence.discrete_value_and_spread_at")
        # four level-rate evaluations per RK4 step, one per reported grid point
        rk4 = (self.calls("simulate.level_rates") - self.extra["grid_points"]) // 4
        fills = self.extra["fills"]
        sim_s = self.total("simulate.simulate_policy")
        m = {
            "simulate.rng_streams": (self.calls("simulate.rng_stream"), "count"),
            "simulate.fills": (fills, "count"),
            "simulate.hazard_quad_calls": (self.calls("simulate.hazard_quad"), "count"),
            "simulate.hazard_root_solves":
                (self.calls("simulate.hazard_root_solve"), "count"),
            "simulate.rk4_steps": (rk4, "count"),
            "intensity.rate_calls": (self.calls("intensity.rate"), "count"),
            "fluid.trade_curve_calls": (self.calls("fluid.trade_curve"), "count"),
            "fluid.exp_fluid_infinite_calls":
                (self.calls("fluid.exp_fluid_infinite"), "count"),
            "numerics.log_integral_calls": (self.calls("numerics.log_integral"), "count"),
            "numerics.integrate_ode_calls": (self.calls("numerics.integrate_ode"), "count"),
            "numerics.root_solves": (self.calls("numerics.root_solve"), "count"),
            "numerics.lambert_w_calls":
                (self.calls("numerics.lambert_w0_exparg") + self.calls("numerics.lambert_w0"),
                 "count"),
            "discrete.root_solves": (self.calls("discrete.root_solve"), "count"),
            "extensions.patch_integrations":
                (self.calls("extensions.patch_integrate"), "count"),
            "extensions.expansion_quad_calls":
                (self.calls("extensions.expansion_quad"), "count"),
            "reports.rows_written": (self.extra["rows"], "count"),
            "reports.bytes_written": (self.extra["bytes"], "count"),
            "convergence.solve_efficiency":
                (len(self.ladder_keys) / rungs if rungs else 0.0, "fraction"),
            "config.load_config_s": (self.total("config.load_config"), "s"),
            "reports.write_s": (self.layer_self("reports"), "s"),
            "discrete.root_solve_s": (self.total("discrete.root_solve"), "s"),
            "discrete.self_s": (self.layer_self("discrete"), "s"),
            "numerics.lambert_w_s":
                (self.total("numerics.lambert_w0_exparg") + self.total("numerics.lambert_w0"),
                 "s"),
            # times of layers that only some workloads reach
            "simulate.simulate_policy_s": (sim_s, "s"),
            "simulate.optimal_policy_s": (self.total("simulate.optimal_policy"), "s"),
            "simulate.s_per_fill": (sim_s / fills if fills else 0.0, "s"),
            "simulate.execution_curve_ode_s":
                (self.total("simulate.execution_curve_ode"), "s"),
            "fluid.trade_curve_s": (self.total("fluid.trade_curve"), "s"),
            "fluid.self_s": (self.layer_self("fluid"), "s"),
            "numerics.log_integral_s": (self.total("numerics.log_integral"), "s"),
            "numerics.integrate_ode_s": (self.total("numerics.integrate_ode"), "s"),
            "convergence.value_convergence_s":
                (self.total("convergence.value_convergence"), "s"),
            "convergence.control_convergence_s":
                (self.total("convergence.control_convergence"), "s"),
            "extensions.patch_s": (self.total("extensions.two_exchange_patch"), "s"),
            "extensions.expansion_s":
                (self.total("extensions.two_exchange_expansion")
                 + self.total("extensions.expansion_value"), "s"),
            "extensions.regime_s": (self.total("extensions.regime_fluid_fixed_point"), "s"),
        }
        for j in job_names:
            m[f"cli.{j}_s"] = (self.total(f"cli.{j}"), "s")
        for layer in LAYERS:
            m[f"{layer}.self_share"] = (self.layer_self(layer) / jobs_s, "fraction")
        return m
