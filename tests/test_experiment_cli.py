"""Config parsing, the sweep runner's artifact layout, and the CLI surface."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from metricfl.accounting import PrivacyLedger, ledger_summary
from metricfl.cli import main
from metricfl.experiment import (
    ConfigError,
    effective_dict,
    format_value,
    load_config,
    run_sweep,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def small_synthetic_config(tmp_path, **overrides):
    doc = {
        "experiment": "synthetic",
        "name": "mini",
        "federation": {"T": 4, "U": 3, "E": 1, "s": 0.1, "B_s": 10,
                       "validation_every": 1, "validation_patience": 6},
        "model": {"kind": "linear", "input_dim": 2},
        "data": {"n_clients": 12, "samples_per_client": 10, "validation_fraction": 0.3},
        "sweep": {"nu": [5.0], "k": [2], "seeds": [0]},
    }
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            doc[section][field] = value
        else:
            doc[section] = value
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def read_ledger(path):
    ledger = PrivacyLedger()
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            ledger.record_participation(
                int(row["client_id"]),
                round=int(row["round"]),
                epsilon=float(row["epsilon"]),
                radius=float(row["radius"]),
                cluster_id=int(row["cluster_id"]),
                leakage=float(row["leakage"]),
            )
    return ledger


class TestLoadConfig:
    def test_defaults_applied(self, tmp_path):
        doc = {
            "experiment": "synthetic",
            "federation": {"T": 2, "U": 2, "E": 1, "s": 0.1, "B_s": 5},
            "model": {"kind": "linear", "input_dim": 2},
            "sweep": {"nu": [0.0], "k": [1], "seeds": [0]},
        }
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(doc))
        config = load_config(path)
        assert config.name == "synthetic"
        federation = config.federation_config(nu=0.0, k=1, seed=0)
        assert federation.validation_every == 1
        assert federation.validation_patience == 6
        assert federation.budget_cap is None
        assert config.data.n_clients == 100
        assert config.data.thetas == ((5.0, 6.0), (4.0, -4.5))

    @pytest.mark.parametrize(
        "override,needle",
        [
            ({"federation.T": -1}, "federation.T"),
            ({"federation.s": 0.0}, "federation.s"),
            ({"model.kind": "tree"}, "model"),
            ({"sweep.nu": []}, "sweep.nu"),
            ({"sweep.seeds": [-1]}, "sweep.seeds"),
            ({"data.validation_fraction": 1.5}, "validation_fraction"),
            ({"federation.bogus": 1}, "federation.bogus"),
            ({"objective": "cross_entropy"}, "objective"),
            ({"federation.validation_patience": 0}, "federation.validation_patience"),
            ({"federation.budget_cap": -1.0}, "federation.budget_cap"),
            ({"federation.budget_cap": 1.0, "sweep.nu": [0.0, 5.0]}, "federation.budget_cap"),
        ],
    )
    def test_errors_carry_field_paths(self, tmp_path, override, needle):
        path = small_synthetic_config(tmp_path, **override)
        with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
            load_config(path)

    @pytest.mark.parametrize(
        "objective,output_dim",
        [("rmse", 3), ("rmse", 4)],
    )
    def test_objective_must_fit_output_dim(self, tmp_path, objective, output_dim):
        model = {"kind": "mlp", "input_dim": 2, "hidden": [2], "output_dim": output_dim}
        path = small_synthetic_config(tmp_path, model=model, objective=objective)
        with pytest.raises(ConfigError, match=r"objective.*model\.output_dim"):
            load_config(path)

    def test_model_dimension_must_match_generators(self, tmp_path):
        path = small_synthetic_config(tmp_path, **{"model.input_dim": 3})
        with pytest.raises(ConfigError, match="input_dim"):
            load_config(path)

    def test_tabular_path_checked_at_load(self, tmp_path):
        doc = {
            "experiment": "tabular",
            "federation": {"T": 2, "U": 2, "E": 1, "s": 0.1, "B_s": 4},
            "model": {"kind": "mlp", "input_dim": 3, "hidden": [2]},
            "data": {"path": "missing.csv"},
            "sweep": {"nu": [0.0], "k": [1], "seeds": [0]},
        }
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match="data.path"):
            load_config(path)

    def test_shipped_configs_load(self):
        synthetic = load_config(CONFIG_DIR / "synthetic.yaml")
        assert synthetic.experiment == "synthetic"
        tabular = load_config(CONFIG_DIR / "tabular.yaml")
        assert tabular.experiment == "tabular"
        # the shipped tabular model is the 11-parameter two-layer network
        from metricfl.models import n_params

        assert n_params(tabular.model) == 11


def echo(config):
    return yaml.safe_dump(effective_dict(config), sort_keys=True)


class TestEcho:
    @pytest.mark.parametrize("name", ["synthetic.yaml", "tabular.yaml"])
    def test_echo_reloads_to_the_same_echo(self, tmp_path, name):
        first = echo(load_config(CONFIG_DIR / name))
        path = tmp_path / name
        path.write_text(first)
        assert echo(load_config(path)) == first

    @pytest.mark.parametrize("experiment", ["synthetic", "tabular"])
    def test_omitted_defaults_echo_as_if_spelled_out(self, tmp_path, experiment):
        sweep = {"nu": [0.0, 2.0], "k": [1], "seeds": [0]}
        federation = {"T": 2, "U": 2, "E": 1, "s": 0.1, "B_s": 5}
        defaults = {"validation_every": 1, "validation_patience": 6, "budget_cap": None}
        if experiment == "synthetic":
            model = {"kind": "linear", "input_dim": 2}
            model_defaults = {"hidden": []}
            data = {}
            data_defaults = {
                "n_clients": 100,
                "samples_per_client": 10,
                "thetas": [[5.0, 6.0], [4.0, -4.5]],
            }
        else:
            model = {"kind": "mlp", "input_dim": 3, "hidden": [2]}
            model_defaults = {}
            data = {"path": str(CONFIG_DIR / "fixture.csv")}
            data_defaults = {"scales": dict.fromkeys(
                ["service_id", "longitude", "latitude", "payment"], 1.0
            )}
        minimal = {"experiment": experiment, "federation": federation, "model": model,
                   "data": data, "sweep": sweep}
        full = {
            "experiment": experiment,
            "name": experiment,
            "federation": {**federation, **defaults},
            "model": {**model, **model_defaults, "output_dim": 1},
            "objective": "rmse",
            "data": {**data, **data_defaults, "validation_fraction": 0.3},
            "sweep": sweep,
        }
        echoes = []
        for label, doc in (("minimal", minimal), ("full", full)):
            path = tmp_path / f"{label}.yaml"
            path.write_text(yaml.safe_dump(doc))
            echoes.append(echo(load_config(path)))
        assert echoes[0] == echoes[1]
        assert yaml.safe_load(echoes[1]) == full


class TestRunSweep:
    def test_directory_layout_and_summary_shape(self, tmp_path):
        path = small_synthetic_config(
            tmp_path, sweep={"nu": [0.0, 5.0], "k": [1, 2], "seeds": [0, 1, 2]}
        )
        out = tmp_path / "out"
        exp_dir = run_sweep(load_config(path), out)
        run_dirs = [p for p in exp_dir.iterdir() if p.is_dir()]
        assert len(run_dirs) == 12
        for run_dir in run_dirs:
            for artifact in ("config.yaml", "metrics.csv", "ledger.csv", "hypotheses.txt"):
                assert (run_dir / artifact).exists()
        with open(exp_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert set(rows[0]) == {"nu", "k", "runs", "mean_validation_loss", "std_validation_loss"}
        assert all(row["runs"] == "3" for row in rows)

    def test_ledger_rows_cost_two_fifths(self, tmp_path):
        path = small_synthetic_config(tmp_path)
        exp_dir = run_sweep(load_config(path), tmp_path / "out")
        with open(exp_dir / "5_2_0" / "ledger.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(float(row["leakage"]) == 2 / 5.0 for row in rows)

    def test_rerun_is_byte_identical(self, tmp_path):
        path = small_synthetic_config(tmp_path)
        config = load_config(path)
        dir_a = run_sweep(config, tmp_path / "a")
        dir_b = run_sweep(config, tmp_path / "b")
        for name in ("5_2_0/metrics.csv", "5_2_0/ledger.csv", "5_2_0/hypotheses.txt",
                     "summary.csv", "budget_summary.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_echoed_config_reproduces_the_run(self, tmp_path):
        path = small_synthetic_config(
            tmp_path, sweep={"nu": [0.0, 5.0], "k": [2], "seeds": [0, 1]}
        )
        exp_dir = run_sweep(load_config(path), tmp_path / "out")
        echo = load_config(exp_dir / "5_2_1" / "config.yaml")
        assert echo.sweep_nu == (5.0,)
        assert echo.sweep_k == (2,)
        assert echo.seeds == (1,)
        redo_dir = run_sweep(echo, tmp_path / "redo")
        assert (redo_dir / "5_2_1" / "metrics.csv").read_bytes() == (
            exp_dir / "5_2_1" / "metrics.csv"
        ).read_bytes()
        assert (redo_dir / "5_2_1" / "ledger.csv").read_bytes() == (
            exp_dir / "5_2_1" / "ledger.csv"
        ).read_bytes()

    def test_budget_summary_marks_unsanitized_runs_infinite(self, tmp_path):
        path = small_synthetic_config(tmp_path, sweep={"nu": [0.0], "k": [1], "seeds": [0]})
        exp_dir = run_sweep(load_config(path), tmp_path / "out")
        with open(exp_dir / "budget_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"noise_multiplier", "hypotheses", "median_budget", "max_budget"}
        assert math.isinf(float(rows[0]["median_budget"]))
        assert math.isinf(float(rows[0]["max_budget"]))

    def test_metrics_csv_has_plot_series(self, tmp_path):
        path = small_synthetic_config(tmp_path)
        exp_dir = run_sweep(load_config(path), tmp_path / "out")
        with open(exp_dir / "5_2_0" / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {
            "round", "mean_train_loss", "validation_loss",
            "hypothesis_0_norm", "hypothesis_1_norm",
            "cluster_0_max_leakage", "cluster_1_max_leakage",
        }
        trajectory = ledger_summary(read_ledger(exp_dir / "5_2_0" / "ledger.csv")).max_trajectory
        for j in range(2):
            series = [float(row[f"cluster_{j}_max_leakage"]) for row in rows]
            assert all(b >= a for a, b in zip(series, series[1:]))
            assert series == trajectory.get(j, [0.0] * len(rows))

    def test_exhausted_budget_ends_the_run_with_all_artifacts(self, tmp_path):
        # 8 training clients, U=3 and a cap of two 0.4 releases: the pool
        # cannot field U long before T=400 and patience=400 run out
        path = small_synthetic_config(
            tmp_path,
            federation={"T": 400, "U": 3, "E": 1, "s": 0.1, "B_s": 10,
                        "validation_patience": 400, "budget_cap": 1.0},
            sweep={"nu": [5.0], "k": [1, 2], "seeds": [0]},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        for cell in ("5_1_0", "5_2_0"):
            run_dir = out / "mini" / cell
            for artifact in ("config.yaml", "metrics.csv", "ledger.csv",
                             "hypotheses.txt", "hypotheses_final.txt"):
                assert (run_dir / artifact).is_file()
            with open(run_dir / "metrics.csv", newline="") as fh:
                rounds = len(list(csv.DictReader(fh)))
            assert 1 <= rounds < 400
            with open(run_dir / "ledger.csv", newline="") as fh:
                ledger_rows = list(csv.DictReader(fh))
            assert len(ledger_rows) == 3 * rounds
            assert max(float(row["composed_leakage"]) for row in ledger_rows) <= 1.0


class TestCli:
    def test_run_exit_codes(self, tmp_path, capsys):
        good = small_synthetic_config(tmp_path)
        assert main(["run", "--config", str(good), "--out", str(tmp_path / "out")]) == 0

        bad = tmp_path / "bad.yaml"
        bad.write_text("experiment: nope\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out2")]) == 1
        assert "config error" in capsys.readouterr().err

        # parseable config that fails at runtime: U larger than the population
        runtime = small_synthetic_config(tmp_path, **{"federation.U": 9})
        assert main(["run", "--config", str(runtime), "--out", str(tmp_path / "out3")]) == 2

    @pytest.mark.parametrize(
        "override",
        [{"federation.budget_cap": -1.0}, {"federation.budget_cap": 1.0, "sweep.nu": [0.0, 5.0]}],
    )
    def test_bad_budget_cap_fails_before_any_output(self, tmp_path, capsys, override):
        path = small_synthetic_config(tmp_path, **override)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert "federation.budget_cap" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]) == 1

    def test_verify_mechanism_report(self, tmp_path, capsys):
        out = tmp_path / "report"
        code = main([
            "verify-mechanism", "--dim", "2", "--epsilon", "1.0",
            "--samples", "20000", "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "mean_radius" in printed
        with open(out / "mechanism_report.csv", newline="") as fh:
            rows = {row["statistic"]: row for row in csv.DictReader(fh)}
        assert set(rows) == {"mean_radius", "radius_variance", "component_variance"}
        assert float(rows["mean_radius"]["theoretical"]) == 2.0
        for row in rows.values():
            assert float(row["abs_error"]) == pytest.approx(
                abs(float(row["empirical"]) - float(row["theoretical"])), rel=1e-12
            )

    @pytest.mark.parametrize(
        "dim,statistic,expected,rel",
        [
            (2, "mean_radius", 2.0, 0.02),
            (1, "component_variance", 2.0, 0.05),
            (11, "component_variance", 12.0, 0.05),
        ],
    )
    def test_verify_mechanism_hits_documented_tolerances(
        self, tmp_path, dim, statistic, expected, rel
    ):
        out = tmp_path / "report"
        assert main([
            "verify-mechanism", "--dim", str(dim), "--epsilon", "1.0",
            "--samples", "100000", "--seed", "0", "--out", str(out),
        ]) == 0
        with open(out / "mechanism_report.csv", newline="") as fh:
            rows = {row["statistic"]: float(row["empirical"]) for row in csv.DictReader(fh)}
        assert rows[statistic] == pytest.approx(expected, rel=rel)

    def test_verify_mechanism_rejects_bad_flags(self):
        assert main(["verify-mechanism", "--dim", "0", "--epsilon", "1.0"]) == 1
        assert main(["verify-mechanism", "--dim", "2", "--epsilon", "-1.0"]) == 1

    def test_make_fixture(self, tmp_path, capsys):
        out = tmp_path / "fixture.csv"
        code = main([
            "make-fixture", "--providers", "5", "--services", "4",
            "--clusters", "2", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert "20 rows" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 21

        again = tmp_path / "fixture2.csv"
        main([
            "make-fixture", "--providers", "5", "--services", "4",
            "--clusters", "2", "--seed", "3", "--out", str(again),
        ])
        assert out.read_bytes() == again.read_bytes()

    def test_make_fixture_rejects_bad_flags(self, tmp_path):
        assert main([
            "make-fixture", "--providers", "2", "--clusters", "5",
            "--out", str(tmp_path / "f.csv"),
        ]) == 1


def test_format_value_compacts_floats():
    assert format_value(5.0) == "5"
    assert format_value(0.1) == "0.1"
    assert format_value(3) == "3"
