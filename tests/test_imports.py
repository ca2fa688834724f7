"""SciPy stays out of the package, the report writers' vector spelling
stays out of the package's import, every name a module exports exists, and
every function the package defines is reached by a command, bar a named few.

SciPy serves the tests and the benchmark only: ``import lobliq.cli`` and
every command on every model/market case a config can reach run in NumPy
time.  A static lint of every source file fails fast on any SciPy import;
the slower gate then runs every command in a fresh interpreter, since pytest
itself has imported ``scipy.integrate`` by now (its warning filters name
``IntegrationWarning``).
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import lobliq

PACKAGE = Path(lobliq.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def scipy_imports(source: str) -> list[tuple[int, str, str | None]]:
    """(line, module, function) of each SciPy import in a source file, with
    the qualified name of the innermost function around it, or None where
    the import runs when the module is imported."""
    found = []

    def visit(node, function, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name, f"{prefix}{child.name}.<locals>.")
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, function, f"{prefix}{child.name}.")
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module or ""]
            else:
                names = []
            found.extend((child.lineno, n, function) for n in names
                         if n == "scipy" or n.startswith("scipy."))
            visit(child, function, prefix)

    visit(ast.parse(source), None, "")
    return sorted(found)


def test_lint_finds_every_scipy_import():
    source = "\n".join([
        "import scipy",                                 # 1
        "from scipy.special import exp1",               # 2
        "if True:",                                     # 3
        "    import scipy.optimize as so",              # 4
        "try:",                                         # 5
        "    from scipy import integrate",              # 6
        "except ImportError:",                          # 7
        "    pass",                                     # 8
        "class C:",                                     # 9
        "    from scipy.interpolate import CubicSpline",  # 10
        "    def f(self):",                             # 11
        "        from scipy.optimize import brentq",    # 12
        "def g():",                                     # 13
        "    import scipy.special",                     # 14
        "import scipyx, numpy",                         # 15
        "from . import scipy_like",                     # 16
    ])
    assert [(line, function) for line, _, function in scipy_imports(source)] == [
        (1, None), (2, None), (4, None), (6, None), (10, None), (12, "C.f"), (14, "g")]


def test_no_scipy_import_in_the_package():
    stray = [f"{path.name}:{line}: {name} imported in {function or 'the module body'}"
             for path in SOURCES
             for line, name, function in scipy_imports(path.read_text())]
    assert not stray, "\n".join(stray)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_exported_name_exists(path):
    # a deleted function must not stay behind in its module's __all__
    name = "lobliq" if path.stem == "__init__" else f"lobliq.{path.stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


# a fresh interpreter: import the CLI, optionally run one command, and print
# the SciPy modules then loaded and whether the report writers' vector
# spelling, with its digit table, has been imported
_PROBE = """
import json, sys
import lobliq.cli
if len(sys.argv) > 1 and lobliq.cli.main(sys.argv[1:]) != 0:
    sys.exit("command failed")
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "digit_table": "lobliq._spelling" in sys.modules,
}))
"""

_POWER = {"kind": "power", "lam": 1.0, "alpha": 2.0}
_T1 = {"r": 0.1, "horizon": 1.0}
_INF = {"r": 0.1, "horizon": "inf"}
_RUNS = {
    "solve": (_T1, {"n_max": 50, "delta": 0.1}),
    "fluid": (_T1, {"x_grid": {"start": 0.5, "stop": 3.0, "count": 4}}),
    "simulate": (_T1, {"n_units": 4, "n_paths": 200, "curve_points": 3,
                       "dump_paths": True}),
    "curves": (_T1, {"n_units": 4, "t_grid": {"start": 0.0, "stop": 0.9, "count": 5}}),
    "converge": (_INF, {"x_probe": 5.0, "k_max": 4}),
}


def _probe(*argv, script=_PROBE):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_scipy():
    assert _probe()["scipy"] == []


def test_cli_import_builds_no_digit_table(tmp_path):
    # the table is built by the first long column written, not at import,
    # which the benchmark's setup time includes
    assert _probe()["digit_table"] is False
    cfg = {"model": _POWER, "market": _INF, "solve": {"n_max": 400, "delta": 0.01},
           "output": {"directory": str(tmp_path / "out"), "formats": "csv"}}
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert _probe("solve", "--config", str(path))["digit_table"] is True


@pytest.mark.parametrize("command", sorted(_RUNS))
def test_power_law_command_loads_no_scipy(command, tmp_path):
    market, section = _RUNS[command]
    cfg = {"model": _POWER, "market": market, command: section,
           "output": {"directory": str(tmp_path / "out"), "formats": "both"}}
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert _probe(command, "--config", str(path))["scipy"] == []


_EXP = {"kind": "exp", "lam": 1.0, "kappa": 1.0}
_R0 = {"r": 0.0, "horizon": 1.0}
_GRID = {"start": 0.5, "stop": 3.0, "count": 4}
_SIM = {"n_units": 4, "n_paths": 200, "dump_paths": True}
# (command, market, section); figures' spread_exp is the exp book's fluid spread
_EXP_RUNS = {
    "solve": ("solve", _INF, {"n_max": 50, "delta": 0.1}),
    "fluid": ("fluid", _INF, {"x_grid": _GRID}),
    "converge": ("converge", _INF, {"x_probe": 5.0, "k_max": 4}),
    "curves": ("curves", _INF, {"n_units": 4, "t_grid": {"start": 0.0, "stop": 2.0,
                                                          "count": 5}}),
    "simulate-optimal": ("simulate", _INF, _SIM),
    "simulate-fluid": ("simulate", _INF, dict(_SIM, policy="fluid")),
    "figures": ("figures", None, {"figure": 1, "x_grid": _GRID}),
    "r0-solve": ("solve", _R0, {"n_max": 50, "delta": 0.1}),
    "r0-simulate": ("simulate", _R0, dict(_SIM, curve_points=3)),
    "r0-curves": ("curves", _R0, {"n_units": 4, "t_grid": {"start": 0.0, "stop": 0.9,
                                                           "count": 5}}),
}


@pytest.mark.parametrize("run", sorted(_EXP_RUNS))
def test_exponential_book_command_loads_no_scipy(run, tmp_path):
    command, market, section = _EXP_RUNS[run]
    cfg = {command: section, "output": {"directory": str(tmp_path / "out"),
                                        "formats": "both"}}
    if market is not None:
        cfg.update(model=_EXP, market=market)
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert _probe(command, "--config", str(path))["scipy"] == []


def test_regimes_loads_no_scipy(tmp_path):
    # theta = 0 decouples the regimes; the other points take the full solve
    cfg = {"regimes": {"lambda0": 1.5, "lambda1": 0.5, "alpha": 2.0, "r": 0.1,
                       "theta_grid": {"start": 0.0, "stop": 100.0, "count": 5}},
           "output": {"directory": str(tmp_path / "out"), "formats": "both"}}
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert _probe("regimes", "--config", str(path))["scipy"] == []


@pytest.mark.parametrize("eps", [None, 0.1], ids=["patch", "with-expansion"])
def test_exchanges_loads_no_scipy(eps, tmp_path):
    # x_max past two blocks: delayed values from both earlier blocks, and
    # expansion cells on the kink at delta_block and above it
    section = {"lambda0": 1.0, "lambda1": 0.5, "delta_block": 1.0, "alpha": 2.0,
               "r": 0.1, "x_max": 2.5, "grid_step": 0.01}
    if eps is not None:
        section["eps"] = eps
    cfg = {"exchanges": section,
           "output": {"directory": str(tmp_path / "out"), "formats": "both"}}
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert _probe("exchanges", "--config", str(path))["scipy"] == []


# a fresh interpreter: run each (command, config path) argument pair under a
# profiler and print the (file name, first line) of every function of the
# package that ran, the module's import included
_REACH = """
import json, os, sys
codes = set()
sys.setprofile(lambda frame, event, arg: codes.add(frame.f_code))
import lobliq.cli
for command, path in zip(sys.argv[1::2], sys.argv[2::2]):
    if lobliq.cli.main([command, "--config", path]) != 0:
        sys.exit(f"{command} failed on {path}")
sys.setprofile(None)
package = os.path.dirname(lobliq.cli.__file__)
print(json.dumps(sorted({(os.path.basename(c.co_filename), c.co_firstlineno)
                         for c in codes if os.path.dirname(c.co_filename) == package})))
"""

# Functions no command reaches: FillTable's sequence view, which the
# benchmark's tracer iterates.
UNREACHED = {
    "simulate.FillTable.__getitem__", "simulate.FillTable.__iter__",
    "simulate.FillTable.__len__", "simulate.FillTable._path",
}


def defined_functions(path: Path) -> dict:
    """(file name, first line) -> module.qualname of each def in a source
    file, methods and nested functions included; a decorated function's
    code starts at its first decorator."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[(path.name, line)] = prefix + child.name
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), path.stem + ".")
    return out


def _reach_runs():
    """One small config per command, model/market case and simulate policy;
    the 401-row solve is long enough for the writers' vector spelling, and
    its level-0 row takes the per-value spelling."""
    power = {"kind": "power", "lam": 1.0, "alpha": 2.0}
    exp = {"kind": "exp", "lam": 1.0, "kappa": 1.0}
    grid = {"start": 0.5, "stop": 2.0, "count": 3}
    for model, market in ((power, _INF), (power, _T1), (power, {"r": 0.0, "horizon": 1.0}),
                          (exp, _INF), (exp, {"r": 0.0, "horizon": 1.0})):
        finite = market.get("horizon") != "inf"
        policies = [{}, {"policy": "constant", "constant_spread": 1.0}]
        policies += [] if finite else [{"policy": "fluid"}]
        sections = [("solve", {"n_max": 400, "delta": 0.01}), ("fluid", {"x_grid": grid}),
                    ("converge", {"x_probe": 2.0, "k_max": 2}),
                    ("curves", {"n_units": 3, "t_grid": {"start": 0.0, "stop": 0.5,
                                                         "count": 3}})]
        sections += [("simulate", {"n_units": 3, "n_paths": 20, "dump_paths": True,
                                   "curve_points": 2 if finite else 0, **policy})
                     for policy in policies]
        for command, section in sections:
            yield command, {"model": model, "market": market, command: section}
    yield "regimes", {"regimes": {"lambda0": 1.5, "lambda1": 0.5, "alpha": 2.0, "r": 0.1,
                                  "theta_grid": {"start": 0.0, "stop": 1.0, "count": 3}}}
    yield "exchanges", {"exchanges": {"lambda0": 1.0, "lambda1": 1.0, "delta_block": 1.0,
                                      "alpha": 2.0, "r": 0.1, "x_max": 2.0,
                                      "grid_step": 0.01, "eps": 0.05}}
    yield "figures", {"figures": {"figure": 1, "x_grid": grid}}


def test_every_function_is_reached_by_a_command(tmp_path):
    # code that no command reaches is either named above or retired
    argv = []
    for i, (command, cfg) in enumerate(_reach_runs()):
        cfg["output"] = {"directory": str(tmp_path / f"out{i}"), "formats": "both"}
        path = tmp_path / f"run{i}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        argv += [command, str(path)]
    reached = {tuple(key) for key in _probe(*argv, script=_REACH)}
    defined = {}
    for path in SOURCES:
        defined.update(defined_functions(path))
    unreached = {name for key, name in defined.items() if key not in reached}
    assert not unreached - UNREACHED, f"no command reaches {sorted(unreached - UNREACHED)}"
    assert not UNREACHED - unreached, f"listed but reached or gone: {sorted(UNREACHED - unreached)}"
