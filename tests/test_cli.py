import json
import math
import os

import numpy as np
import pytest
import yaml

from lobliq.cli import main
from lobliq.config import ConfigError, load_config, parse_config

BASE = {
    "model": {"kind": "power", "lam": 1.0, "alpha": 2.0},
    "market": {"r": 0.1, "horizon": "inf"},
    "solve": {"n_max": 10},
    "output": {"formats": "both"},
    "seed": 42,
}


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
        assert os.path.exists(tmp_path / "out" / "solve.schema.json")
        assert os.path.exists(tmp_path / "out" / "manifest.json")

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
        import lobliq.discrete
        from lobliq.discrete import solve_power_coefficients
        monkeypatch.setattr(lobliq.discrete, "_NEWTON_STEPS", 1)
        with pytest.raises(ArithmeticError, match="did not converge"):
            solve_power_coefficients(1.0, 2.0, 0.1, 3)
        cfg = dict(BASE, output={"directory": str(tmp_path / "out")})
        assert main(["solve", "--config", write_cfg(tmp_path, cfg)]) == 3
        assert "did not converge" in capsys.readouterr().err

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
