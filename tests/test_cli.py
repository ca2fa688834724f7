import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import yaml

import lobliq
from lobliq.cases import resolve
from lobliq.cli import main
from lobliq.config import ConfigError, load_config, parse_config
from lobliq.intensity import ExpDecayIntensity, MarketParams, PowerLawIntensity
from lobliq.reports import format_number
from lobliq.simulate import StationarySpreadPolicy, simulate_policy
from ode_oracles import bracketed_power_recursion

BASE = {
    "model": {"kind": "power", "lam": 1.0, "alpha": 2.0},
    "market": {"r": 0.1, "horizon": "inf"},
    "solve": {"n_max": 10},
    "output": {"formats": "both"},
    "seed": 42,
}


def _parsed(text, loader):
    try:
        return repr(yaml.load(text, Loader=loader))  # repr: nan equals nan
    except yaml.YAMLError:
        return "malformed"


@pytest.fixture(autouse=True)
def c_and_python_yaml_agree(tmp_path):
    """After each test, libyaml's C loader (load_config's where PyYAML has
    it) and the pure-Python SafeLoader read every config it wrote alike."""
    yield
    if not hasattr(yaml, "CSafeLoader"):
        return
    for path in tmp_path.rglob("*.yaml"):
        text = path.read_text()
        assert _parsed(text, yaml.CSafeLoader) == _parsed(text, yaml.SafeLoader), path


def write_cfg(tmp_path, data, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = write_cfg(tmp_path, BASE)
        cfg = load_config(path, "solve")
        again = parse_config(yaml.safe_load(yaml.safe_dump(cfg.raw)), "solve")
        assert again.model == cfg.model
        assert again.market == cfg.market
        assert again.seed == cfg.seed
        assert again.section["n_max"] == cfg.section["n_max"]

    def test_unknown_key_rejected_with_path(self, tmp_path):
        bad = dict(BASE)
        bad["solve"] = {"n_max": 5, "n_mxa": 3}
        with pytest.raises(ConfigError, match="n_mxa"):
            load_config(write_cfg(tmp_path, bad), "solve")

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="top level"):
            parse_config({**BASE, "slove": {}}, "solve")

    def test_model_parameter_mismatch(self):
        bad = dict(BASE)
        bad["model"] = {"kind": "power", "lam": 1.0, "alpha": 2.0, "kappa": 1.0}
        with pytest.raises(ConfigError, match="kappa"):
            parse_config(bad, "solve")

    def test_command_mismatch(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config({**BASE, "command": "fluid"}, "solve")

    def test_market_consistency(self):
        bad = dict(BASE)
        bad["market"] = {"r": 0.0, "horizon": "inf"}
        with pytest.raises(ConfigError, match="market"):
            parse_config(bad, "solve")


class TestCliCommands:
    def test_solve_outputs_first_coefficient(self, tmp_path):
        cfg = dict(BASE, output={"directory": str(tmp_path / "out"), "formats": "both"})
        assert main(["solve", "--config", write_cfg(tmp_path, cfg)]) == 0
        header, rows = read_csv(tmp_path / "out" / "solve.csv")
        col = header.index("coefficient")
        assert abs(float(rows[1][col]) - 1.58113883) < 1e-7
        # infinite horizon: the mean time to sell each level, 1/rate(sqrt(10)) for one unit
        col = header.index("expected_liquidation_time")
        assert abs(float(rows[1][col]) - 10.0) < 1e-7
        assert os.path.exists(tmp_path / "out" / "solve.schema.json")
        assert os.path.exists(tmp_path / "out" / "manifest.json")

    def test_infinite_horizon_solve_runs_the_recursion_once(self, tmp_path, monkeypatch):
        # the liquidation times reuse the d_n that solve has just computed
        calls = []
        solve = lobliq.discrete.solve_power_zero_rate
        monkeypatch.setattr(lobliq.discrete, "solve_power_zero_rate",
                            lambda *a: calls.append(a) or solve(*a))
        cfg = dict(BASE, solve={"n_max": 50, "delta": 0.1},
                   output={"directory": str(tmp_path / "out"), "formats": "csv"})
        assert main(["solve", "--config", write_cfg(tmp_path, cfg)]) == 0
        assert len(calls) == 1
        header, _ = read_csv(tmp_path / "out" / "solve.csv")
        assert "expected_liquidation_time" in header

    @pytest.mark.parametrize("model, market", [
        (BASE["model"], {"r": 0.1, "horizon": 1.0}),
        (BASE["model"], {"r": 0.0, "horizon": 1.0}),
        ({"kind": "exp", "lam": 1.0, "kappa": 1.0}, {"r": 0.0, "horizon": 1.0}),
        ({"kind": "exp", "lam": 1.0, "kappa": 1.0}, {"r": 0.1, "horizon": "inf"}),
    ], ids=["power_T", "power_r0", "exp_r0", "exp_inf"])
    def test_solve_without_closed_form_times_has_no_time_column(self, tmp_path, model,
                                                                 market):
        # only the power law on the infinite horizon has liquidation times
        cfg = dict(BASE, model=model, market=market,
                   output={"directory": str(tmp_path / "out"), "formats": "csv"})
        path = write_cfg(tmp_path, cfg)
        assert main(["solve", "--config", path]) == 0
        header, _ = read_csv(tmp_path / "out" / "solve.csv")
        assert "expected_liquidation_time" not in header
        run = load_config(path, "solve")
        assert resolve(run.model, run.market).solve(1.0, 10).liquidation_times is None

    def test_fluid_solves_each_grid_point_once(self, tmp_path, monkeypatch):
        # the value and the spread at a point come from one E1 root
        calls = []
        log_w = lobliq.fluid._log_w
        monkeypatch.setattr(lobliq.fluid, "_log_w", lambda c: calls.append(c) or log_w(c))
        cfg = {"model": {"kind": "exp", "lam": 1.0, "kappa": 1.0},
               "market": {"r": 0.1, "horizon": "inf"},
               "fluid": {"x_grid": {"start": 0.5, "stop": 2.0, "count": 4}},
               "output": {"directory": str(tmp_path / "out"), "formats": "csv"}}
        assert main(["fluid", "--config", write_cfg(tmp_path, cfg)]) == 0
        assert len(calls) == 4
        _, rows = read_csv(tmp_path / "out" / "fluid.csv")
        for x, value, spread in ((float(c) for c in row) for row in rows):
            assert (value, spread) == lobliq.fluid.exp_fluid_infinite(x, 1.0, 1.0, 0.1)

    def test_converge_solves_the_fluid_probe_once(self, tmp_path, monkeypatch):
        # the spread errors reuse the fluid spread of the value report
        calls = []
        fluid = lobliq.fluid.exp_fluid_infinite
        monkeypatch.setattr(lobliq.fluid, "exp_fluid_infinite",
                            lambda *a: calls.append(a) or fluid(*a))
        cfg = {"model": {"kind": "exp", "lam": 1.0, "kappa": 1.0},
               "market": {"r": 0.1, "horizon": "inf"},
               "converge": {"x_probe": 2.0, "k_max": 3},
               "output": {"directory": str(tmp_path / "out"), "formats": "json"}}
        assert main(["converge", "--config", write_cfg(tmp_path, cfg)]) == 0
        assert len(calls) == 1
        payload = json.loads((tmp_path / "out" / "converge.json").read_text())
        spreads = np.array(payload["columns"]["spread"])
        assert payload["columns"]["spread_err"] == list(
            np.abs(spreads - payload["fluid_spread"]))
        assert payload["cell_averaged_err"] == list(
            np.abs(spreads - np.array(payload["cell_averaged_spread"])))

    def test_converge_solves_one_root_per_rung(self, tmp_path, monkeypatch):
        # the probe's E1 root serves the fluid value, the fluid spread and the
        # top of every rung's cell; each rung adds the root at x - delta only
        calls = []
        log_w = lobliq.fluid._log_w
        monkeypatch.setattr(lobliq.fluid, "_log_w", lambda c: calls.append(c) or log_w(c))
        cfg = {"model": {"kind": "exp", "lam": 1.0, "kappa": 1.0},
               "market": {"r": 0.1, "horizon": "inf"},
               "converge": {"x_probe": 5.0, "k_max": 11},
               "output": {"directory": str(tmp_path / "out"), "formats": "json"}}
        assert main(["converge", "--config", write_cfg(tmp_path, cfg)]) == 0
        assert len(calls) == 13
        payload = json.loads((tmp_path / "out" / "converge.json").read_text())
        case = resolve(ExpDecayIntensity(lam=1.0, kappa=1.0), MarketParams(r=0.1))
        assert payload["cell_averaged_spread"] == [
            case.fluid_cell_spread(5.0, d) for d in payload["columns"]["delta"]]

    def test_curves_solves_one_root_per_curve(self, tmp_path, monkeypatch):
        calls = []
        log_w = lobliq.fluid._log_w
        monkeypatch.setattr(lobliq.fluid, "_log_w", lambda c: calls.append(c) or log_w(c))
        cfg = {"model": {"kind": "exp", "lam": 1.0, "kappa": 1.0},
               "market": {"r": 0.1, "horizon": "inf"},
               "curves": {"n_units": 6, "t_grid": {"start": 0.0, "stop": 2.0, "count": 5}},
               "output": {"directory": str(tmp_path / "out"), "formats": "json"}}
        assert main(["curves", "--config", write_cfg(tmp_path, cfg)]) == 0
        assert len(calls) == 1
        columns = json.loads((tmp_path / "out" / "curves.json").read_text())["columns"]
        assert columns["fluid_curve"] == [lobliq.fluid.exp_trade_curve(t, 6.0, 1.0, 1.0, 0.1)
                                          for t in columns["time"]]

    def test_e1_root_step_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lobliq.fluid, "_NEWTON_STEPS", 1)
        cfg = {"model": {"kind": "exp", "lam": 1.0, "kappa": 1.0},
               "market": {"r": 0.1, "horizon": "inf"},
               "fluid": {"x_grid": {"start": 0.5, "stop": 2.0, "count": 4}},
               "output": {"directory": str(tmp_path / "out")}}
        assert main(["fluid", "--config", write_cfg(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure in 'fluid'" in err and "did not converge" in err

    def test_figures_three_curves(self, tmp_path):
        cfg = {"figures": {"figure": 1,
                           "x_grid": {"start": 0.1, "stop": 5.0, "count": 20,
                                      "spacing": "log"}},
               "output": {"directory": str(tmp_path / "out"), "formats": "csv"}}
        assert main(["figures", "--config", write_cfg(tmp_path, cfg)]) == 0
        header, rows = read_csv(tmp_path / "out" / "figure1.csv")
        assert header == ["x", "spread_power_alpha2", "spread_power_alpha3",
                          "spread_exp"]
        assert len(rows) == 20
        # all depth models are normalized to unit fill rate at spread 1
        x = np.array([float(r[0]) for r in rows])
        s2 = np.array([float(r[1]) for r in rows])
        assert np.allclose(s2, math.sqrt(5.0) / np.sqrt(x), rtol=1e-12)

    def test_malformed_config_exits_2_without_artifacts(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("model: [unclosed")
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_empty_config_exits_2(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert main(["solve", "--config", str(path)]) == 2

    def test_unwritable_output_directory_exits_2(self, tmp_path, capsys):
        # the output directory would lie under a regular file
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        cfg = dict(BASE, output={"directory": str(out)})
        assert main(["solve", "--config", write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(out) in err

    @pytest.mark.parametrize("artifact", ["solve.csv", "manifest.json"])
    def test_unwritable_artifact_exits_2(self, tmp_path, capsys, artifact):
        # a directory stands where the artifact would go
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        cfg = dict(BASE, output={"directory": str(out)})
        assert main(["solve", "--config", write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out) in err

    def test_numerical_failure_exits_3(self, tmp_path):
        cfg = {
            "model": {"kind": "power", "lam": 1.0, "alpha": 2.0},
            "market": {"r": 0.1, "horizon": 1.0},
            "curves": {"n_units": 3,
                       "t_grid": {"start": 0.1, "stop": 1.0, "count": 5}},
            "output": {"directory": str(tmp_path / "out")},
        }
        rc = main(["curves", "--config", write_cfg(tmp_path, cfg)])
        assert rc == 3  # grid touches maturity where the fill rate diverges

    def test_increment_step_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        # one Newton step over the chain does not converge; with one unknown
        # level the largest residual can only be at level 2
        import lobliq.discrete
        monkeypatch.setattr(lobliq.discrete, "_NEWTON_STEPS", 1)
        with pytest.raises(ArithmeticError, match="did not converge.* at level 2$"):
            lobliq.discrete.solve_power_zero_rate(1.0, 2.0, 2)
        with pytest.raises(ArithmeticError, match="did not converge"):
            lobliq.discrete.solve_power_zero_rate(1.0, 2.0, 3)
        cfg = dict(BASE, output={"directory": str(tmp_path / "out")})
        assert main(["solve", "--config", write_cfg(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure in 'solve'" in err and "did not converge" in err
        assert "largest relative residual" in err

    @pytest.mark.parametrize("command, cfg", [
        # 5 * 2**40 levels on the finest rung: 44 TB of float64
        ("converge", {"model": {"kind": "power", "lam": 1.0, "alpha": 2.0},
                      "market": {"r": 0.1, "horizon": "inf"},
                      "converge": {"x_probe": 5.0, "k_max": 40}}),
        # 1e11 levels: 800 GB of float64
        ("solve", {"model": {"kind": "exp", "lam": 1.0, "kappa": 1.0},
                   "market": {"r": 0.1, "horizon": "inf"},
                   "solve": {"n_max": 100_000_000_000}}),
    ], ids=["converge-k40", "exp-solve-1e11"])
    def test_oversized_level_count_exits_3(self, tmp_path, capsys, command, cfg):
        # the first array of the chain is requested whole and refused at once
        cfg = dict(cfg, output={"directory": str(tmp_path / "out")})
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"out of memory in {command!r}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_exp_value_step_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        import lobliq.discrete
        from lobliq.discrete import solve_exp_infinite
        monkeypatch.setattr(lobliq.discrete, "_NEWTON_STEPS", 1)
        with pytest.raises(ArithmeticError, match="did not converge"):
            solve_exp_infinite(2.0, 0.5, 1.0, 1.0, 0.1)
        cfg = {
            "model": {"kind": "exp", "lam": 1.0, "kappa": 1.0},
            "market": {"r": 0.1, "horizon": "inf"},
            "converge": {"x_probe": 2.0, "k_max": 2},
            "output": {"directory": str(tmp_path / "out")},
        }
        assert main(["converge", "--config", write_cfg(tmp_path, cfg)]) == 3
        assert "did not converge" in capsys.readouterr().err

    def test_exp_value_overflow_exits_3(self, tmp_path, capsys):
        # delta/kappa overflows: no table of inf and nan is written
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "exp", "lam": 1.0, "kappa": 1e-300},
            "market": {"r": 1.0, "horizon": "inf"},
            "solve": {"n_max": 3, "delta": 1e12},
            "output": {"directory": str(out)},
        }
        assert main(["solve", "--config", write_cfg(tmp_path, cfg)]) == 3
        assert ("exponential-book values or spreads overflow at delta = 1000000000000.0, "
                "kappa = 1e-300") in capsys.readouterr().err
        assert not list(out.glob("solve.*"))

    def test_exchanges_blow_up_exits_3(self, tmp_path, capsys):
        # alpha near 1 and a strong block venue: the block term comes so close
        # to r*v that v' = (b0/d)**(1/(alpha-1)) passes 1e308
        cfg = {
            "exchanges": {"lambda0": 1.0, "lambda1": 71.1, "delta_block": 1.0,
                          "alpha": 1.004, "r": 0.1, "x_max": 0.02, "grid_step": 5e-5},
            "output": {"directory": str(tmp_path / "out")},
        }
        assert main(["exchanges", "--config", write_cfg(tmp_path, cfg)]) == 3
        assert "delay ODE blow-up at x = 0.01" in capsys.readouterr().err

    def test_exchanges_seed_too_wide_exits_3(self, tmp_path, capsys):
        # a block venue 500 times the continuous one: at one grid step the
        # series seed already drops a term above 1e-6 of v
        cfg = {
            "exchanges": {"lambda0": 1.0, "lambda1": 500.0, "delta_block": 1.0,
                          "alpha": 2.0, "r": 0.1, "x_max": 3.0, "grid_step": 0.01},
            "output": {"directory": str(tmp_path / "out")},
        }
        assert main(["exchanges", "--config", write_cfg(tmp_path, cfg)]) == 3
        assert "grid_step = 0.01 is too wide for the series seed" in capsys.readouterr().err

    def test_exchanges_seed_slope_overflow_exits_3(self, tmp_path, capsys):
        # alpha near 1: (lambda0/(alpha*r))**(1/(alpha-1)) passes 1e308
        cfg = {
            "exchanges": {"lambda0": 1000.0, "lambda1": 0.2, "delta_block": 1.0,
                          "alpha": 1.002, "r": 0.001, "x_max": 3.0, "grid_step": 0.01},
            "output": {"directory": str(tmp_path / "out")},
        }
        assert main(["exchanges", "--config", write_cfg(tmp_path, cfg)]) == 3
        assert ("seed u-slope (lambda0/(alpha*r))**(1/(alpha-1)) overflows at "
                "alpha = 1.002, lambda0 = 1000.0, r = 0.001") in capsys.readouterr().err

    def test_exchanges_seed_underflow_exits_3(self, tmp_path, capsys):
        # alpha near 1 and lambda0/(alpha*r) < 1: the seed u-slope
        # (lambda0/(alpha*r))**(1/(alpha-1)) underflows to 0
        cfg = {
            "exchanges": {"lambda0": 0.5, "lambda1": 0.15, "delta_block": 0.1,
                          "alpha": 1.0015, "r": 2.5, "x_max": 1.0, "grid_step": 0.001},
            "output": {"directory": str(tmp_path / "out")},
        }
        assert main(["exchanges", "--config", write_cfg(tmp_path, cfg)]) == 3
        assert ("seed u underflows at x = 0.001: alpha = 1.0015, lambda0 = 0.5, "
                "r = 2.5") in capsys.readouterr().err

    def test_non_finite_curve_state_exits_3(self, tmp_path, capsys, monkeypatch):
        import lobliq.numerics
        monkeypatch.setattr(lobliq.numerics, "pure_death_mean",
                            lambda rates, taus: np.full((len(rates) + 1, len(taus)), np.nan))
        cfg = {
            "model": {"kind": "power", "lam": 1.0, "alpha": 2.0},
            "market": {"r": 0.1, "horizon": 1.0},
            "curves": {"n_units": 3,
                       "t_grid": {"start": 0.0, "stop": 0.5, "count": 3}},
            "output": {"directory": str(tmp_path / "out")},
        }
        assert main(["curves", "--config", write_cfg(tmp_path, cfg)]) == 3
        assert "non-finite state" in capsys.readouterr().err

    def test_curves_step_count_is_unknown_key(self, tmp_path, capsys):
        # the curves are exact, so there is no step count to set
        cfg = {
            "model": {"kind": "power", "lam": 1.0, "alpha": 2.0},
            "market": {"r": 0.1, "horizon": 1.0},
            "curves": {"n_units": 3, "step_count": 20000,
                       "t_grid": {"start": 0.0, "stop": 0.5, "count": 3}},
            "output": {"directory": str(tmp_path / "out")},
        }
        assert main(["curves", "--config", write_cfg(tmp_path, cfg)]) == 2
        assert "step_count" in capsys.readouterr().err

    @pytest.mark.parametrize("r", [0.1, 0.0])
    def test_curves_large_inventory(self, tmp_path, r):
        # a fixed-step integrator goes unstable here and reported |E| ~ 1e253
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "power", "lam": 1.0, "alpha": 2.0},
            "market": {"r": r, "horizon": 1.0},
            "curves": {"n_units": 1000,
                       "t_grid": {"start": 0.0, "stop": 0.99, "count": 50}},
            "output": {"directory": str(out), "formats": "json"},
        }
        assert main(["curves", "--config", write_cfg(tmp_path, cfg)]) == 0
        columns = json.loads((out / "curves.json").read_text())["columns"]
        inventory = np.array(columns["mean_inventory"], dtype=float)
        rate = np.array(columns["trading_rate"], dtype=float)
        assert np.all(np.isfinite(inventory)) and np.all(np.isfinite(rate))
        assert inventory[0] == 1000.0
        assert np.all((inventory >= 0.0) & (inventory <= 1000.0))
        assert np.all(np.diff(inventory) <= 0.0)

    def test_deterministic_rerun_overwrites(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "power", "lam": 1.0, "alpha": 2.0},
            "market": {"r": 0.1, "horizon": 1.0},
            "simulate": {"n_units": 3, "n_paths": 500, "curve_points": 4},
            "output": {"directory": str(out), "formats": "both"},
            "seed": 7,
        }
        path = write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 0
        first = (out / "curve.csv").read_bytes()
        ensemble1 = json.loads((out / "ensemble.json").read_text())
        assert main(["simulate", "--config", path]) == 0
        assert (out / "curve.csv").read_bytes() == first
        ensemble2 = json.loads((out / "ensemble.json").read_text())
        assert ensemble1["mean_revenue"] == ensemble2["mean_revenue"]

    def test_seed_and_threads_override(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "power", "lam": 1.0, "alpha": 2.0},
            "market": {"r": 0.1, "horizon": 1.0},
            "simulate": {"n_units": 2, "n_paths": 200},
            "output": {"directory": str(out)},
            "seed": 1,
        }
        path = write_cfg(tmp_path, cfg)
        written = []
        for threads in ("1", "2"):
            assert main(["simulate", "--config", path, "--seed", "99",
                         "--threads", threads]) == 0
            written.append((out / "ensemble.json").read_bytes())
        ensemble = json.loads(written[1])
        assert ensemble["seed"] == 99
        # threads has no effect, so it is not part of the output
        assert written[0] == written[1]

    def test_converge_csv_json_match(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "power", "lam": 1.0, "alpha": 2.0},
            "market": {"r": 0.1, "horizon": "inf"},
            "converge": {"x_probe": 2.0, "delta0": 1.0, "k_max": 3},
            "output": {"directory": str(out), "formats": "both"},
        }
        assert main(["converge", "--config", write_cfg(tmp_path, cfg)]) == 0
        header, rows = read_csv(out / "converge.csv")
        assert header == ["delta", "value", "ratio", "spread", "spread_err"]
        payload = json.loads((out / "converge.json").read_text())
        assert payload["schema_version"] == 1
        for i, row in enumerate(rows):
            assert float(row[1]) == payload["columns"]["value"][i]

    @pytest.mark.parametrize("x_probe", [5.3, 0.5])
    def test_converge_probe_off_the_ladder_exits_2(self, tmp_path, capsys, x_probe):
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "power", "lam": 1.0, "alpha": 2.0},
            "market": {"r": 0.1, "horizon": "inf"},
            "converge": {"x_probe": x_probe},
            "output": {"directory": str(out)},
        }
        assert main(["converge", "--config", write_cfg(tmp_path, cfg)]) == 2
        assert "converge.x_probe" in capsys.readouterr().err
        assert not out.exists()

    def test_paths_dump(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "power", "lam": 1.0, "alpha": 2.0},
            "market": {"r": 0.1, "horizon": 1.0},
            "simulate": {"n_units": 2, "n_paths": 20, "dump_paths": True},
            "output": {"directory": str(out), "formats": "csv"},
        }
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == 0
        header, rows = read_csv(out / "paths.csv")
        assert header == ["path_id", "fill_index", "time", "spread",
                          "discounted_cash"]
        assert len(rows) > 0

    def test_paths_dump_columns(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "power", "lam": 1.0, "alpha": 2.0},
            "market": {"r": 0.1, "horizon": 1.0},
            "simulate": {"n_units": 3, "n_paths": 30, "dump_paths": True},
            "output": {"directory": str(out), "formats": "json"},
        }
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == 0
        cols = json.loads((out / "paths.json").read_text())["columns"]
        assert cols["path_id"] == [p for p in range(30) for _ in range(3)]
        assert cols["fill_index"] == [0, 1, 2] * 30
        mean = json.loads((out / "ensemble.json").read_text())["mean_revenue"]
        assert math.isclose(sum(cols["discounted_cash"]) / 30, mean, rel_tol=1e-12)

    def test_fill_at_infinite_time_is_no_fill(self, tmp_path):
        # exp(-800) underflows, so every fill time is inf on the infinite
        # horizon: no path sells, where each used to count three fills at inf
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "exp", "lam": 1.0, "kappa": 1.0},
            "market": {"r": 0.1, "horizon": "inf"},
            "simulate": {"n_units": 3, "n_paths": 100, "policy": "constant",
                         "constant_spread": 800, "dump_paths": True},
            "output": {"directory": str(out), "formats": "csv"},
        }
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == 0
        stats = json.loads((out / "ensemble.json").read_text())
        assert stats["liquidation_fraction"] == 0.0
        assert stats["mean_revenue"] == 0.0
        assert read_csv(out / "paths.csv")[1] == []

    def test_paths_dump_matches_per_path_reference(self, tmp_path):
        # a constant spread on a finite horizon leaves some paths unsold
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "power", "lam": 1.0, "alpha": 2.0},
            "market": {"r": 0.1, "horizon": 1.0},
            "simulate": {"n_units": 4, "delta": 0.5, "n_paths": 300,
                         "policy": "constant", "constant_spread": 1.0,
                         "dump_paths": True},
            "output": {"directory": str(out), "formats": "both"},
            "seed": 11,
        }
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == 0
        _, paths = simulate_policy(PowerLawIntensity(lam=1.0, alpha=2.0),
                                   MarketParams(r=0.1, horizon=1.0), 4, 0.5,
                                   StationarySpreadPolicy(np.full(5, 1.0)), 300, seed=11,
                                   keep_paths=True)
        assert len(paths) == 300
        assert paths[7].path_id == 7 and paths[-1].path_id == 299
        assert [p.path_id for p in paths[10:13]] == [10, 11, 12]
        records = list(paths)
        assert 0 < sum(p.fully_liquidated for p in records) < 300
        counts = [len(p.fill_times) for p in records]
        times = np.concatenate([p.fill_times for p in records])
        spreads = np.concatenate([p.fill_spreads for p in records])
        columns = {
            "path_id": [p.path_id for p, k in zip(records, counts) for _ in range(k)],
            "fill_index": [j for k in counts for j in range(k)],
            "time": times.tolist(),
            "spread": spreads.tolist(),
            "discounted_cash": (np.exp(-0.1 * times) * spreads * 0.5).tolist(),
        }
        lines = [",".join(columns)]
        lines += [",".join(format_number(col[i]) for col in columns.values())
                  for i in range(len(times))]
        assert (out / "paths.csv").read_text() == "\n".join(lines) + "\n"
        body = {"schema_version": 1, "table": "paths", "columns": columns}
        assert ((out / "paths.json").read_text()
                == json.dumps(body, indent=2, sort_keys=True) + "\n")

    @pytest.mark.parametrize("value", ["false", 0, "yes"])
    def test_dump_paths_must_be_boolean(self, tmp_path, value):
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "power", "lam": 1.0, "alpha": 2.0},
            "market": {"r": 0.1, "horizon": 1.0},
            "simulate": {"n_units": 2, "n_paths": 20, "dump_paths": value},
            "output": {"directory": str(out), "formats": "csv"},
        }
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == 2
        assert not (out / "paths.csv").exists()

    @pytest.mark.parametrize("horizon, section, message", [
        (1.0, {"policy": "fluid"}, "infinite horizon"),
    ])
    def test_unsupported_case_exits_2(self, tmp_path, capsys, horizon, section,
                                      message):
        cfg = {
            "model": {"kind": "power", "lam": 1.0, "alpha": 2.0},
            "market": {"r": 0.1, "horizon": horizon},
            "simulate": {"n_units": 2, "n_paths": 20, **section},
            "output": {"directory": str(tmp_path / "out")},
        }
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_simulate_method_is_unknown_key(self, tmp_path, capsys):
        # every policy samples through its own fill clock: there is no method
        cfg = {
            "model": {"kind": "exp", "lam": 1.0, "kappa": 1.0},
            "market": {"r": 0.0, "horizon": 1.0},
            "simulate": {"n_units": 2, "n_paths": 20, "method": "inversion"},
            "output": {"directory": str(tmp_path / "out")},
        }
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "unknown key" in err and "method" in err

    @pytest.mark.parametrize("command, section", [
        ("solve", {"n_max": 5}),
        ("fluid", {"x_grid": {"start": 0.5, "stop": 2.0, "count": 4}}),
        ("curves", {"n_units": 3, "t_grid": {"start": 0.0, "stop": 0.5, "count": 3}}),
        ("converge", {"x_probe": 2.0, "k_max": 2}),
    ])
    def test_exp_book_discounted_finite_horizon_exits_2(self, tmp_path, capsys,
                                                        command, section):
        out = tmp_path / "out"
        cfg = {
            "model": {"kind": "exp", "lam": 1.0, "kappa": 1.0},
            "market": {"r": 0.1, "horizon": 1.0},
            command: section,
            "output": {"directory": str(out)},
        }
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "exponential book with r > 0 and a finite horizon" in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("model, x_probe", [
        ({"kind": "power", "lam": 1.0, "alpha": 2.0}, 5.0),
        ({"kind": "exp", "lam": 1.0, "kappa": 1.0}, 1.0),
    ], ids=["power", "exp"])
    def test_converge_zero_rate_finite_horizon(self, tmp_path, model, x_probe):
        out = tmp_path / "out"
        cfg = {
            "model": model,
            "market": {"r": 0.0, "horizon": 1.0},
            "converge": {"x_probe": x_probe, "k_max": 9},
            "output": {"directory": str(out), "formats": "json"},
        }
        assert main(["converge", "--config", write_cfg(tmp_path, cfg)]) == 0
        report = json.loads((out / "converge.json").read_text())
        assert report["monotone_ok"] is True
        assert report["columns"]["ratio"][-1] <= 1.0 + 1e-9

    def test_exchanges_with_expansion(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "exchanges": {"lambda0": 1.0, "lambda1": 1.0, "delta_block": 1.0,
                          "alpha": 2.0, "r": 0.1, "x_max": 2.0,
                          "grid_step": 0.01, "eps": 0.05},
            "output": {"directory": str(out), "formats": "csv"},
        }
        assert main(["exchanges", "--config", write_cfg(tmp_path, cfg)]) == 0
        header, rows = read_csv(out / "exchanges.csv")
        assert "value_expansion" in header
        iv, ie = header.index("value"), header.index("value_expansion")
        mid = rows[len(rows) // 2]
        assert abs(float(mid[iv]) - float(mid[ie])) < 5e-3

    @pytest.mark.parametrize("command, change, field", [
        ("exchanges", {"x_max": 2.0005}, "exchanges.x_max"),
        ("exchanges", {"grid_step": 0.3}, "exchanges.grid_step"),
        ("regimes", {"lambda0": 0.5, "lambda1": 0.5}, "regimes.lambda1"),
        ("regimes", {"lambda0": 0.4}, "regimes.lambda1"),
    ])
    def test_extension_lattice_and_ordering_exit_2(self, tmp_path, capsys, command,
                                                   change, field):
        out = tmp_path / "out"
        sections = {
            "exchanges": {"lambda0": 1.0, "lambda1": 1.0, "delta_block": 1.0,
                          "alpha": 2.0, "r": 0.1, "x_max": 2.0, "grid_step": 0.01},
            "regimes": {"lambda0": 1.5, "lambda1": 0.5, "alpha": 2.0, "r": 0.1,
                        "theta_grid": {"start": 0.01, "stop": 100.0, "count": 3}},
        }
        cfg = {command: {**sections[command], **change},
               "output": {"directory": str(out)}}
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, section, field", [
        ("fluid", {"x_grid": {"start": -0.5, "stop": 2.0, "count": 3}}, "fluid.x_grid.start"),
        ("figures", {"figure": 1, "x_grid": {"start": -0.5, "stop": 2.0, "count": 3}},
         "figures.x_grid.start"),
        ("curves", {"n_units": 3, "t_grid": {"start": -0.1, "stop": 0.5, "count": 3}},
         "curves.t_grid.start"),
        ("regimes", {"lambda0": 1.5, "lambda1": 0.5, "alpha": 2.0, "r": 0.1,
                     "theta_grid": {"start": -1.0, "stop": 1.0, "count": 3}},
         "regimes.theta_grid.start"),
        ("simulate", {"n_units": 0, "n_paths": 20}, "simulate.n_units"),
        ("simulate", {"n_units": 0, "n_paths": 20, "policy": "constant",
                      "constant_spread": 1.0}, "simulate.n_units"),
    ], ids=["fluid", "figures", "curves", "regimes", "simulate_optimal",
            "simulate_constant"])
    def test_out_of_range_field_exits_2(self, tmp_path, capsys, command, section, field):
        out = tmp_path / "out"
        cfg = {"model": {"kind": "power", "lam": 1.0, "alpha": 2.0},
               "market": {"r": 0.1, "horizon": 1.0}, command: section,
               "output": {"directory": str(out)}}
        if command in ("figures", "regimes"):
            del cfg["model"], cfg["market"]
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_regimes_sweep(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "regimes": {"lambda0": 1.5, "lambda1": 0.5, "alpha": 2.0, "r": 0.1,
                        "theta_grid": {"start": 0.01, "stop": 100.0,
                                       "count": 7, "spacing": "log"}},
            "output": {"directory": str(out), "formats": "csv"},
        }
        assert main(["regimes", "--config", write_cfg(tmp_path, cfg)]) == 0
        header, rows = read_csv(out / "regimes.csv")
        c0 = [float(r[1]) for r in rows]
        c1 = [float(r[2]) for r in rows]
        assert all(a > b for a, b in zip(c0, c1))

    def test_power_law_at_alpha_200(self, tmp_path):
        # each power in (alpha-1)**(alpha-1) / alpha**alpha overflows from
        # alpha ~ 145; the ladder's finest rung, delta = 1/32, keeps
        # A * delta**199 inside the normal floats, and delta = 1/64 does not
        model = {"kind": "power", "lam": 1.0, "alpha": 200.0}
        finite, inf = {"r": 0.1, "horizon": 1.0}, {"r": 0.1, "horizon": "inf"}
        runs = {
            "solve": (finite, {"n_max": 20}),
            "simulate": (finite, {"n_units": 3, "n_paths": 50, "curve_points": 3}),
            "curves": (finite, {"n_units": 3,
                                "t_grid": {"start": 0.0, "stop": 0.9, "count": 4}}),
            "converge": (inf, {"x_probe": 5.0, "k_max": 5}),
        }
        for command, (market, section) in runs.items():
            cfg = {"model": model, "market": market, command: section,
                   "output": {"directory": str(tmp_path / command), "formats": "json"}}
            path = write_cfg(tmp_path, cfg, command + ".yaml")
            assert main([command, "--config", path]) == 0, command
        payoff = float(mpmath.mpf(199) ** 199 / mpmath.mpf(200) ** 200)
        solve = json.loads((tmp_path / "solve" / "solve.json").read_text())["columns"]
        np.testing.assert_allclose(solve["coefficient"],
                                   bracketed_power_recursion(payoff, 0.1, 200.0, 20),
                                   rtol=1e-13, atol=0.0)
        ladder = json.loads((tmp_path / "converge" / "converge.json").read_text())["columns"]
        # the reference's bracket in m overflows on the finest rung
        for delta, value in zip(ladder["delta"][:-1], ladder["value"]):
            n = round(5.0 / delta)
            ref = bracketed_power_recursion(payoff * delta ** 199, 0.1, 200.0, n)
            assert math.isclose(value, ref[n], rel_tol=1e-13)
        # past the normal floats c_1 comes from log b: the ladders run on to
        # delta = 1/64 at alpha = 200 and to delta = 1/512 at alpha = 150
        # (TestPowerCoefficients checks those rungs against mpmath)
        for alpha, k_max in ((200.0, 6), (150.0, 9)):
            out = tmp_path / f"edge{k_max}"
            cfg = {"model": dict(model, alpha=alpha), "market": inf,
                   "converge": {"x_probe": 5.0, "k_max": k_max},
                   "output": {"directory": str(out), "formats": "json"}}
            path = write_cfg(tmp_path, cfg, f"edge{k_max}.yaml")
            assert main(["converge", "--config", path]) == 0, alpha
            edge = json.loads((out / "converge.json").read_text())
            case = resolve(PowerLawIntensity(lam=1.0, alpha=alpha), MarketParams(r=0.1))
            finest = case.solve(0.5 ** k_max, 5 * 2 ** k_max).values
            assert edge["columns"]["value"][-1] == finest[-1]
            assert edge["monotone_ok"]


class TestModuleEntryPoint:
    """``python -m lobliq`` runs the CLI from a checkout with no install."""

    @staticmethod
    def run(*args):
        src = os.path.dirname(os.path.dirname(lobliq.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "lobliq", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_help(self):
        proc = self.run("--help")
        assert proc.returncode == 0
        assert "simulate" in proc.stdout

    def test_missing_config_exits_2(self, tmp_path):
        proc = self.run("solve", "--config", str(tmp_path / "absent.yaml"))
        assert proc.returncode == 2
        assert "cannot read config" in proc.stderr
