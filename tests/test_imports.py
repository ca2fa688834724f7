"""SciPy stays out of the package's import and out of the power-law paths,
the report writers' vector spelling stays out of the package's import, and
every name a module exports exists.

``import lobliq.cli`` and the power-law commands run in NumPy time: SciPy is
imported inside the few functions that need it (the exponential-book E1
root, the generic stationary solve, the regime and two-exchange solvers).
A static lint of every source file fails fast on a module-level SciPy
import; the slower gate then runs commands in fresh interpreters, since
pytest itself has imported ``scipy.integrate`` by now (its warning filters
name ``IntegrationWarning``).
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


def module_level_scipy_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each SciPy import that runs when the module is
    imported: anywhere in the module body except inside a function."""
    found = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            names = []
        found += [(node.lineno, n) for n in names if n == "scipy" or n.startswith("scipy.")]
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_lint_flags_import_time_statements_only():
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
    assert [line for line, _ in module_level_scipy_imports(source)] == [1, 2, 4, 6, 10]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    hits = module_level_scipy_imports(path.read_text())
    assert not hits, "\n".join(f"{path.name}:{line}: module-level import of {name}; "
                               "import it inside the function that needs it"
                               for line, name in hits)


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
    "simulate": (_T1, {"n_units": 4, "n_paths": 200, "curve_points": 3,
                       "dump_paths": True}),
    "curves": (_T1, {"n_units": 4, "t_grid": {"start": 0.0, "stop": 0.9, "count": 5}}),
    "converge": (_INF, {"x_probe": 5.0, "k_max": 4}),
}


def _probe(*argv) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
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
