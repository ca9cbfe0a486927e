"""Config parsing, the sweep runner's artifact layout, and the CLI surface."""

import csv
import hashlib
import math
import os
import statistics
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import metricfl.experiment as experiment
import metricfl.federation as federation
from metricfl.accounting import PrivacyLedger, ledger_summary
from metricfl.cli import main
from metricfl.data import CSV_COLUMNS, ingest_csv, write_fixture
from metricfl.experiment import (
    ConfigError,
    format_value,
    load_config,
    run_sweep,
)
from metricfl.models import ModelSpec, init_params
from metricfl.rng import substream

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


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


def small_tabular_config(tmp_path, providers=5, **federation):
    """A tabular sweep of 2 nu x 2 seeds on a fresh fixture; 5 providers
    leave 3 training clients at validation_fraction 0.3."""
    write_fixture(tmp_path / "table.csv", providers, 4, 2, substream(0, "fixture"))
    doc = {
        "experiment": "tabular",
        "name": "tab",
        "federation": {"T": 3, "U": 2, "E": 1, "s": 0.05, "B_s": 4, **federation},
        "model": {"kind": "mlp", "input_dim": 3, "hidden": [2]},
        "data": {"path": "table.csv"},
        "sweep": {"nu": [0.0, 3.0], "k": [2], "seeds": [0, 1]},
    }
    path = tmp_path / "tab.yaml"
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
            # values that would share a run directory
            ({"sweep.nu": [1.0, 1.0000001]}, "sweep.nu: 1.0 and 1.0000001"),
            ({"sweep.k": [2, 1, 2]}, "sweep.k: 2 and 2"),
            ({"sweep.seeds": [0, 0]}, "sweep.seeds: 0 and 0"),
            # strings that are not an exponent float stay strings
            ({"federation.s": "5e-"}, "federation.s: expected float"),
            ({"federation.s": "inf"}, "federation.s: expected float"),
            # names that would leave --out or write straight into it
            ({"name": "../escaped"}, "name: "),
            ({"name": ""}, "name: "),
            ({"name": "a\0b"}, "name: "),
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

    def test_exponent_floats_are_accepted(self, tmp_path):
        # PyYAML reads these plain scalars as strings: no dot, or an unsigned exponent.
        assert yaml.safe_load("[5e-2, 1e3, 1.5e3]") == ["5e-2", "1e3", "1.5e3"]
        path = tmp_path / "c.yaml"
        path.write_text(
            "experiment: synthetic\n"
            "federation: {T: 4, U: 3, E: 1, s: 5e-2, B_s: 10, budget_cap: 1e3}\n"
            "model: {kind: linear, input_dim: 2}\n"
            "data: {n_clients: 12, validation_fraction: 3E-1,\n"
            "       thetas: [[5e0, 6.0], [4.0, -4.5e0]]}\n"
            "sweep: {nu: [1e0, 5e-1, 1.5e3], k: [2], seeds: [0]}\n"
        )
        config = load_config(path)
        federation = config.document["federation"]
        assert (federation["s"], federation["budget_cap"]) == (0.05, 1000.0)
        assert config.data.validation_fraction == 0.3
        assert config.data.thetas == ((5.0, 6.0), (4.0, -4.5))
        assert config.sweep_nu == (1.0, 0.5, 1500.0)

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
    return yaml.safe_dump(config.document, sort_keys=True)


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

    @pytest.mark.parametrize("federation", [{"T": 0}, {"T": 3, "validation_every": 5}])
    def test_seeds_without_an_evaluation_summarize_to_inf_and_nan(
        self, tmp_path, capsys, federation
    ):
        # No cell is ever evaluated, so every best loss is inf: the summary
        # reads mean inf and, over two seeds, a std of nan.
        path = small_synthetic_config(
            tmp_path,
            federation={"U": 3, "E": 1, "s": 0.1, "B_s": 10, **federation},
            data={"n_clients": 20, "samples_per_client": 10, "validation_fraction": 0.3},
            sweep={"nu": [0.0, 5.0], "k": [2], "seeds": [0, 1]},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        summary = (out / "mini" / "summary.csv").read_text().splitlines()
        assert summary[1:] == ["0,2,2,inf,nan", "5,2,2,inf,nan"]
        # metrics.csv: the header alone at T 0, else a row per round, each
        # with an empty validation_loss.
        cells = sorted(p for p in (out / "mini").iterdir() if p.is_dir())
        assert [cell.name for cell in cells] == ["0_2_0", "0_2_1", "5_2_0", "5_2_1"]
        for cell in cells:
            with open(cell / "metrics.csv", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert header[:3] == ["round", "mean_train_loss", "validation_loss"]
            assert len(header) == 3 + 2 * 2
            assert [row[0] for row in rows] == [str(t) for t in range(federation["T"])]
            assert all(len(row) == len(header) and row[2] == "" for row in rows)
            assert all(float(value) >= 0 for row in rows for value in row[3:])

    def test_summary_std_is_nan_only_where_a_loss_is_inf(self, tmp_path):
        # A row of finite losses keeps statistics.stdev's bits; a row with
        # one inf among finite losses gets nan; one seed's spread is 0.0.
        results = {
            (0.0, 1): [(0.25, 0.0, 0.0), (0.5, 0.0, 0.0), (2.0, 0.0, 0.0)],
            (0.0, 2): [(1.0, 1.0, 1.0), (math.inf, 0.0, 0.0)],
            (5.0, 1): [(math.inf, 0.0, 0.0)],
        }
        experiment._write_summaries(results, tmp_path)
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = [(row["mean_validation_loss"], row["std_validation_loss"])
                    for row in csv.DictReader(fh)]
        assert rows == [("0.9166666666666666", repr(statistics.stdev([0.25, 0.5, 2.0]))),
                        ("inf", "nan"), ("inf", "0.0")]

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
        summary = ledger_summary(read_ledger(exp_dir / "5_2_0" / "ledger.csv"))
        for j in range(2):
            series = [float(row[f"cluster_{j}_max_leakage"]) for row in rows]
            assert all(b >= a for a, b in zip(series, series[1:]))
            assert series == summary.max_leakage([j], range(len(rows)))[0].tolist()

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


class TestPopulations:
    def test_shipped_tabular_sweep_splits_once_per_seed(self, tmp_path, monkeypatch):
        splits, calls, built = [], [], {}
        real, build = experiment.split_population, experiment.build_population
        monkeypatch.setattr(
            experiment, "split_population", lambda *a: splits.append(a) or real(*a)
        )
        monkeypatch.setattr(experiment, "build_population",
                            lambda config, seed, table: built.setdefault(seed, build(config, seed,
                                                                                    table)))

        def run_experiments(views, spec, configs):
            calls.append([(c.nu, c.k, c.master_seed) for c in configs])
            assert all(view is built[c.master_seed] for view, c in zip(views, configs))
            return ((c, None) for c in range(len(configs)))

        monkeypatch.setattr(experiment, "run_experiments", run_experiments)
        monkeypatch.setattr(experiment, "write_cell", lambda *a: (1.0, 0.0, 0.0))
        config = load_config(CONFIG_DIR / "tabular.yaml")
        run_sweep(config, tmp_path / "out")
        assert len(config.seeds) == len(splits) == len(built) == 5
        # One call for the whole sweep, seed by seed: each seed's four cells
        # run on that seed's views, not on a split of their own.
        assert calls == [
            [(nu, 5, seed) for seed in config.seeds for nu in config.sweep_nu]
        ]

    def test_a_table_is_ingested_once_per_sweep(self, tmp_path, monkeypatch):
        calls = []
        real = experiment.ingest_csv
        monkeypatch.setattr(experiment, "ingest_csv", lambda *a: calls.append(a) or real(*a))
        exp_dir = run_sweep(load_config(small_tabular_config(tmp_path)), tmp_path / "out")
        assert len(calls) == 1
        assert len([p for p in exp_dir.iterdir() if p.is_dir()]) == 4

    def test_synthetic_data_is_generated_once_per_seed(self, tmp_path, monkeypatch):
        seeds = []
        real = experiment.generate_synthetic
        monkeypatch.setattr(
            experiment, "generate_synthetic", lambda **kw: seeds.append(kw) or real(**kw)
        )
        path = small_synthetic_config(tmp_path, sweep={"nu": [0.0, 5.0], "k": [1, 2],
                                                       "seeds": [0, 1, 2]})
        run_sweep(load_config(path), tmp_path / "out")
        assert len(seeds) == 3

    def test_cells_match_their_solo_runs(self, tmp_path):
        path = small_tabular_config(tmp_path)
        exp_dir = run_sweep(load_config(path), tmp_path / "out")
        echo = load_config(exp_dir / "3_2_1" / "config.yaml")
        redo_dir = run_sweep(echo, tmp_path / "redo")
        for name in ("metrics.csv", "ledger.csv", "hypotheses_final.txt"):
            solo = (redo_dir / "3_2_1" / name).read_bytes()
            assert solo == (exp_dir / "3_2_1" / name).read_bytes()


    def test_capped_cells_group_by_seed_and_nu_and_match_their_solo_runs(
        self, tmp_path, monkeypatch
    ):
        # Under a cap the pool follows the composed leakage, which nu sets: a
        # group is one (seed, nu), seen here in the cells of each group's
        # first round.  Cost 2/nu against a cap of 2 allows one to four
        # releases per client, and a patience of 3 stops some cells earlier;
        # each cell's artifacts are those of its own one-cell sweep.
        groups = []
        real = federation.server_round

        def recording(table, draws, blocks, vectors, spec, configs, ledgers, round_index):
            if round_index == 0:
                groups.extend([(c.nu, c.k, c.master_seed)
                               for c, b in zip(configs, blocks) if b == at]
                              for at in range(len(draws)))
            return real(table, draws, blocks, vectors, spec, configs, ledgers, round_index)

        monkeypatch.setattr(federation, "server_round", recording)
        path = small_synthetic_config(
            tmp_path,
            federation={"T": 40, "U": 3, "E": 1, "s": 0.1, "B_s": 4, "validation_every": 1,
                        "validation_patience": 3, "budget_cap": 2.0},
            data={"n_clients": 15, "samples_per_client": 10, "validation_fraction": 0.3},
            sweep={"nu": [1.0, 4.0], "k": [1, 2, 3], "seeds": [0, 1]},
        )
        exp_dir = run_sweep(load_config(path), tmp_path / "out")
        assert groups == [
            [(nu, k, seed) for k in (1, 2, 3)] for seed in (0, 1) for nu in (1.0, 4.0)
        ]
        rounds = set()
        for cell in sorted(p for p in exp_dir.iterdir() if p.is_dir()):
            redo = run_sweep(load_config(cell / "config.yaml"), tmp_path / "redo" / cell.name)
            for name in ("metrics.csv", "ledger.csv", "hypotheses.txt", "hypotheses_final.txt"):
                assert (redo / cell.name / name).read_bytes() == (cell / name).read_bytes()
            rounds.add(len((cell / "metrics.csv").read_text().splitlines()) - 1)
        assert len(rounds) > 2


# SHA-256 of a small sweep's artifacts as the per-round SeedSequence and
# per-client sanitization code wrote them; the stream table and the stacked
# release must reproduce them bit for bit.  Any change to a stream or to the
# float operations of a round shows up here.  The aggregate tables and the
# config echoes are pinned too; the nu = 0 cells give infinite budgets.
GOLDEN = {
    "0_2_3/ledger.csv": "eb4435b8b43a6d0470b7b653442f466636481512d7b099d8c40208e91db56cbd",
    "0_2_4294967303/ledger.csv": "477fb5642478f749d25733441e3a4d70c48b4237c836cb6ffef37aab3ca17278",
    "5_2_3/ledger.csv": "d228acb23a2e3270738625e44da16fbb452a86c3ef84050248dadbffffa64f93",
    "5_2_4294967303/ledger.csv": "7af79797930aa4b56237c573f1deeeb33a01e824074448b09e94b27390237551",
    "0_2_3/hypotheses_final.txt": "3f57d70b3f8d4460a5643467fff06d7dff2ac5c74d655d17d455da22e29e4488",
    "0_2_4294967303/hypotheses_final.txt": (
        "b178322827d445e1d1209ce447557e2549d2a7640e966ae16bfa49144bc352af"
    ),
    "5_2_3/hypotheses_final.txt": "cd0a84b6732fe2b3dfdf42c9fdc1b87d6728204a5e3637d83c522f38fa62331b",
    "5_2_4294967303/hypotheses_final.txt": (
        "602f0cc5cec29f260cd7a01f8ba1f4d79b60d04eaf8d80a4e37b1129b4bc8d36"
    ),
    "summary.csv": "634ff89d0b21c5e090df9a429aa9782c3da775ee5c13c2c569e38d294c4e33b4",
    "budget_summary.csv": "9644fad1c30a6d5e43ce4495c16a50a974c3254ee76a61a74f2db111e5bbe287",
    "config.yaml": "819bf4e4a2498e3434d7de31c1e6dad906166cd8df1de3df7b80be1c9800cce7",
    "5_2_4294967303/config.yaml": (
        "eb27c9f15512553e0ab57ccd68918b8bc6b5ce7259c112d769be27085b6b60cf"
    ),
}


def test_golden_digests(tmp_path):
    # Seed 2**32 + 7 takes two words, so its keys run SeedSequence's extra mixing.
    path = small_synthetic_config(
        tmp_path,
        name="golden",
        federation={"T": 12, "U": 5, "E": 2, "s": 0.1, "B_s": 4,
                    "validation_every": 1, "validation_patience": 12},
        data={"n_clients": 24, "samples_per_client": 10, "validation_fraction": 0.3},
        sweep={"nu": [0.0, 5.0], "k": [2], "seeds": [3, 2**32 + 7]},
    )
    exp_dir = run_sweep(load_config(path), tmp_path / "out")
    digests = {
        name: hashlib.sha256((exp_dir / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN


# The same pin for the MLP path: the shipped 3-2-1 network on the shipped
# provider table (four rows per client) with k = 5, 8 rounds without early stop.
GOLDEN_MLP = {
    "0_5_0/metrics.csv": "d2e7f123a205ee56da0b76ac45e283cef902cf6fba34e8fe42367a6c7a3d2f3f",
    "0_5_0/ledger.csv": "530c0f37687d6ac285702427d8b3b741d5baa6bd58a811688bb71605dbd52bc9",
    "0_5_0/hypotheses_final.txt": (
        "5ac2a8e34740653231b03e4d20f78aa512a0a56383148c222340b0b4d7cc76d3"
    ),
    "3_5_0/metrics.csv": "d5c1ca90052601df91fa1e768a2349325d13ffe7863050fce3fcda41c66714bc",
    "3_5_0/ledger.csv": "1463764f39eadfc7cc341860bb9163737d0c0c86d1f7f04b9fb07f99dc8994c7",
    "3_5_0/hypotheses_final.txt": (
        "1fa78a440b6eca59e2fa91ef43a7cd7cce2f2bf17c87078b92adcc4309435b1e"
    ),
}


def test_golden_digests_mlp(tmp_path):
    doc = {
        "experiment": "tabular",
        "name": "golden_mlp",
        "federation": {"T": 8, "U": 15, "E": 2, "s": 0.05, "B_s": 4,
                       "validation_every": 1, "validation_patience": 8},
        "model": {"kind": "mlp", "input_dim": 3, "hidden": [2]},
        "data": {"path": str(CONFIG_DIR / "fixture.csv"),
                 "scales": {"service_id": 1.0, "longitude": 100.0, "latitude": 100.0,
                            "payment": 40.0},
                 "validation_fraction": 0.3},
        "sweep": {"nu": [0.0, 3.0], "k": [5], "seeds": [0]},
    }
    path = tmp_path / "golden_mlp.yaml"
    path.write_text(yaml.safe_dump(doc))
    exp_dir = run_sweep(load_config(path), tmp_path / "out")
    digests = {
        name: hashlib.sha256((exp_dir / name).read_bytes()).hexdigest() for name in GOLDEN_MLP
    }
    assert digests == GOLDEN_MLP


# The same pin for the budget-cap path: cost n/nu = 0.4 and a cap of 1.6 allow
# four releases per client, so the pool of 10 training clients shrinks from
# round 9 on and training ends on the cap after 13 of T = 40 rounds.
GOLDEN_CAPPED = {
    "5_2_0/ledger.csv": "2fac6d192706ca26b9706eb839e382bda3f17b099d487f4d45815ae03732e697",
    "5_2_0/metrics.csv": "857e9a7a49195b0cafca496ea89e06f19ef4288424ac952a280e7e719ea94aa9",
    "5_2_0/hypotheses_final.txt": (
        "6ee11d8c54510261be8b3b4056af757db152b58e4d2177d5ced309abdc17b6f0"
    ),
    "5_2_1/ledger.csv": "181af4b48ed1de3c91c2e05a1fce766d097fccffdd31938b50f5f929fd400114",
    "5_2_1/metrics.csv": "a938f0494e2b014a4dc95d714c86f8c2d70d7626c43edfa4195ea9b21c054d4d",
    "5_2_1/hypotheses_final.txt": (
        "9ce936295c419936487b1feed1b303d22596fd890301da6d35d3151c8c395eb8"
    ),
}


def test_golden_digests_budget_cap(tmp_path):
    path = small_synthetic_config(
        tmp_path,
        federation={"T": 40, "U": 3, "E": 2, "s": 0.1, "B_s": 4, "validation_every": 1,
                    "validation_patience": 40, "budget_cap": 1.6},
        data={"n_clients": 15, "samples_per_client": 10, "validation_fraction": 0.3},
        sweep={"nu": [5.0], "k": [2], "seeds": [0, 1]},
    )
    exp_dir = run_sweep(load_config(path), tmp_path / "out")
    for cell in ("5_2_0", "5_2_1"):
        with open(exp_dir / cell / "ledger.csv", newline="") as fh:
            releases = [row["client_id"] for row in csv.DictReader(fh)]
        per_client = sorted(releases.count(cid) for cid in set(releases))
        assert len(releases) == 13 * 3
        assert per_client == [3] + [4] * 9
    digests = {
        name: hashlib.sha256((exp_dir / name).read_bytes()).hexdigest() for name in GOLDEN_CAPPED
    }
    assert digests == GOLDEN_CAPPED


# The same pin for a group whose cells stop in different rounds: at a patience
# of 2 the three nu = 5 cells stop after 3 (k = 2), 4 (k = 1) and 21 (k = 3)
# rounds and the nu = 0 cells run all T = 30, so the group's rows leave its
# stack from the middle, one cell at a time, while the others keep running.
GOLDEN_STAGGERED = {
    "0_1_1/metrics.csv": "01c26f1c7e4f47dd7b1207d48245e2efdf73d42bc1e28a3aad3845938e3f86fb",
    "0_1_1/ledger.csv": "5a86e9af70ab2436cedb262798bde38e134f69316a839089a5974277de57b83f",
    "0_1_1/hypotheses.txt": "17e8d5fe5083363e4168fdbde1452e8f1c8689df18b68bab52d4bd3a91509d11",
    "0_1_1/hypotheses_final.txt": (
        "17e8d5fe5083363e4168fdbde1452e8f1c8689df18b68bab52d4bd3a91509d11"
    ),
    "0_2_1/metrics.csv": "bfb0f320c1926d20b4e415b7df31cca9d943f20c65913435d46b598bc9e97646",
    "0_2_1/ledger.csv": "4acc5deaadaea379dba0efa63f99f25364bbe8e11afafadd7f415999e5f1cb28",
    "0_2_1/hypotheses.txt": "6824c2dfcda020772284421aeb6ce5f5cafac023277bb1783fca2597862e8abf",
    "0_2_1/hypotheses_final.txt": (
        "6824c2dfcda020772284421aeb6ce5f5cafac023277bb1783fca2597862e8abf"
    ),
    "0_3_1/metrics.csv": "d5c0c89492eff7cf1fe198178af2714851b64bccf9e3a234c270ad9553035922",
    "0_3_1/ledger.csv": "a465c4e6c428fac456f27b18a57fda08da64743f80becb5909713389590a5bb4",
    "0_3_1/hypotheses.txt": "b1cb2c7827249d0321c38059e930d6fc7d20a2266799a8434300b37009f069c8",
    "0_3_1/hypotheses_final.txt": (
        "b1cb2c7827249d0321c38059e930d6fc7d20a2266799a8434300b37009f069c8"
    ),
    "5_1_1/metrics.csv": "5761bb85ffdbb96da8591589481c71a7e1dc2a5d1cca33a4c52e57f063803e6b",
    "5_1_1/ledger.csv": "744242bfb8ccfb6d57876e97876a4122ba6a220524a1a1f454e7a03c823f6aec",
    "5_1_1/hypotheses.txt": "efcc119f963d8c735d9981908c7d748fed9a6e9d08d606ed56b5e1aa83b90be6",
    "5_1_1/hypotheses_final.txt": (
        "60a763a04e510ed88eae240e6249656a02e2d34cc0d2ce983a2a6f05035ca0cd"
    ),
    "5_2_1/metrics.csv": "6d77d0526304161f6c8f1b0c4f88eab2bf2ae818ab1cab8dfe0c6ef2c3d7c915",
    "5_2_1/ledger.csv": "937cbef85583e934907855915265247a927b4d26530677fcdf11b60c5c9eb2b4",
    "5_2_1/hypotheses.txt": "3d4de79065f4a70aebebe9b4d778652d201bd3bd6eda25640f75affe53269688",
    "5_2_1/hypotheses_final.txt": (
        "0332a5bc7fae7b7645f413df8468c227294fdfc894bb2c3971985b7426f4521f"
    ),
    "5_3_1/metrics.csv": "152de944e84bf9d0b4a0fa13c730306ed074bb03bd1a70392547e33e8198be60",
    "5_3_1/ledger.csv": "11ebcdb732c8be06ff4011e6ecbfd847c2a04122af5a8bcd7fd3cdc98b7436fa",
    "5_3_1/hypotheses.txt": "c9f74c90e5a1f37363c77a05ef4ad310957d4ef2466b5a425322eae3e91ff3ff",
    "5_3_1/hypotheses_final.txt": (
        "44ea7b9d167b755ed4f43220970bbeab786ba366bc426f9d128b7e84c852f061"
    ),
}


def test_golden_digests_cells_stopping_in_different_rounds(tmp_path):
    path = small_synthetic_config(
        tmp_path,
        federation={"T": 30, "U": 3, "E": 1, "s": 0.1, "B_s": 10,
                    "validation_every": 1, "validation_patience": 2},
        sweep={"nu": [0.0, 5.0], "k": [1, 2, 3], "seeds": [1]},
    )
    exp_dir = run_sweep(load_config(path), tmp_path / "out")
    rounds = {
        cell.name: len((cell / "metrics.csv").read_text().splitlines()) - 1
        for cell in exp_dir.iterdir() if cell.is_dir()
    }
    assert len(set(rounds.values())) >= 3
    assert rounds == {"0_1_1": 30, "0_2_1": 30, "0_3_1": 30, "5_1_1": 4, "5_2_1": 3, "5_3_1": 21}
    digests = {
        name: hashlib.sha256((exp_dir / name).read_bytes()).hexdigest()
        for name in GOLDEN_STAGGERED
    }
    assert digests == GOLDEN_STAGGERED


# The same pin for clients of unequal size: ten providers of 1 to 34 rows, so
# the selection and training losses pad each round's stack to its largest
# client and local SGD masks the steps of the smaller ones.  The 3-2-1 MLP
# with k = 1 and 3 runs all T = 8 rounds at nu 0 and 3.
RAGGED_SIZES = (1, 2, 3, 5, 8, 13, 21, 34, 4, 6)
GOLDEN_RAGGED = {
    "0_1_0/metrics.csv": "f60708b4f29ddf6ec2632e14a5f21ecb67feed5b3572cfff766441faa982f9ee",
    "0_1_0/ledger.csv": "40309160c420ec7f46c2c80ac8448d29c1db0c6f8e01697f39135fecf41edd74",
    "0_1_0/hypotheses_final.txt": (
        "e043e6cdc6dd6f2a4ace14443979f47076b91bb311fd5b28a6ca711096de6e7c"
    ),
    "0_3_0/metrics.csv": "60cfb1693f2f643c5555249598f68e5ba2251dca7564743c3b525c1daec52563",
    "0_3_0/ledger.csv": "4e03def6cd08469436782da12424f8cb535d324137a55d8a6109cfe623d2d723",
    "0_3_0/hypotheses_final.txt": (
        "400ee7e227b7bec919ace27be03e815d51a99ee9b3ec8f5776c70a448c8d133b"
    ),
    "3_1_0/metrics.csv": "5a49d592b28af6c25b559ac075b0d154c1d9849d9c4402d32e48ef6fa0b93992",
    "3_1_0/ledger.csv": "477378541367a8bcd453cfc96f9f458dacb9d0e3a77e3ef61ccb33c2a5544c60",
    "3_1_0/hypotheses_final.txt": (
        "199b8b657c4eec7cbc9d00ce93706b0f7cbee5a033fc05c000580a582f44fbf6"
    ),
    "3_3_0/metrics.csv": "5558a09878cc5eddcd319eaee5b79485b278bbdbafb4de87ad3eab777ceee9a5",
    "3_3_0/ledger.csv": "1cd3be6f548ba41e6ef178c7dcda51a7aa7997a7b5d2479b4925519ea399baf0",
    "3_3_0/hypotheses_final.txt": (
        "beab7c7d16440e01fe09b3f5927b91d9632caf30ea0172b6fbbaa687b58a3fbb"
    ),
}


def ragged_table(path):
    """A provider table of ``RAGGED_SIZES`` rows per provider in three cost tiers."""
    gen = np.random.default_rng(17)
    lines = [",".join(CSV_COLUMNS)]
    for p, size in enumerate(RAGGED_SIZES):
        tier = p % 3
        lon, lat = -120 + 20 * tier + gen.normal(), 30 + 6 * tier + gen.normal()
        for row in range(size):
            payment = 1 + 9 * tier + gen.random()
            lines.append(f"P{p:04d},{row % 4 + 1},{float(lon)!r},{float(lat)!r},"
                         f"{float(payment)!r}")
    path.write_text("\n".join(lines) + "\n")


def test_golden_digests_unequal_client_sizes(tmp_path):
    ragged_table(tmp_path / "ragged.csv")
    doc = {
        "experiment": "tabular",
        "name": "golden_ragged",
        "federation": {"T": 8, "U": 5, "E": 2, "s": 0.05, "B_s": 4,
                       "validation_every": 1, "validation_patience": 8},
        "model": {"kind": "mlp", "input_dim": 3, "hidden": [2]},
        "data": {"path": "ragged.csv",
                 "scales": {"service_id": 1.0, "longitude": 100.0, "latitude": 100.0,
                            "payment": 40.0},
                 "validation_fraction": 0.3},
        "sweep": {"nu": [0.0, 3.0], "k": [1, 3], "seeds": [0]},
    }
    path = tmp_path / "golden_ragged.yaml"
    path.write_text(yaml.safe_dump(doc))
    exp_dir = run_sweep(load_config(path), tmp_path / "out")
    clients = ingest_csv(tmp_path / "ragged.csv").clients
    assert [len(client.data) for client in clients] == list(RAGGED_SIZES)
    for cell in ("0_1_0", "0_3_0", "3_1_0", "3_3_0"):
        assert len((exp_dir / cell / "metrics.csv").read_text().splitlines()) == 1 + 8
    digests = {
        name: hashlib.sha256((exp_dir / name).read_bytes()).hexdigest()
        for name in GOLDEN_RAGGED
    }
    assert digests == GOLDEN_RAGGED


def test_import_and_config_load_leave_heavy_modules_unloaded():
    # perfbench's setup_s times exactly this path; numpy.random, numpy.ma and
    # scipy would add to it on every run, so nothing on it may import them.
    code = "\n".join([
        "import sys",
        "import metricfl",
        "from metricfl import cli",
        "from metricfl.experiment import load_config",
        f"load_config({str(CONFIG_DIR / 'tabular.yaml')!r})",
        "print(sorted(m for m in ('numpy.random', 'numpy.ma', 'scipy') if m in sys.modules))",
    ])
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.stdout.strip() == "[]"


class TestCli:
    @pytest.mark.parametrize("s", [1e300, 1e150])
    def test_diverging_sgd_exits_2_and_says_so(self, tmp_path, s):
        # The shipped tabular sweep at a step size where local SGD overflows in
        # round 0.  At s = 1e150 an overflowed RMSE gradient is a zero step
        # unless the overflow raises; at s = 1e300 the norms turn non-finite
        # after numpy has warned.  A separate process runs it as a user would,
        # with numpy's warnings as warnings: the error is the one stderr line.
        doc = yaml.safe_load((CONFIG_DIR / "tabular.yaml").read_text())
        doc["data"]["path"] = str(CONFIG_DIR / "fixture.csv")
        doc["federation"]["s"] = s
        doc["sweep"]["seeds"] = [0]
        path = tmp_path / "diverging.yaml"
        path.write_text(yaml.safe_dump(doc))
        env_path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "metricfl", "run", "--config", str(path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": env_path},
        )
        assert done.returncode == 2
        assert len(done.stderr.splitlines()) == 1
        assert "run 0_5_0: round 0: " in done.stderr and "diverged" in done.stderr

    @pytest.mark.parametrize(
        "nu,failure",
        [
            ([1e160], "run 1e+160_2_0: round 0: a release overflowed (overflow encountered in"),
            ([1e300], "run 1e+300_2_0: round 0: a release overflowed (overflow encountered in"),
            ([0.0, 1e160], "run 1e+160_2_0: round 0: a release overflowed (overflow"),
            ([1e155], "run 1e+155_2_0: round 0: a hypothesis overflowed (overflow"),
            ([0.0, 1e155], "run 1e+155_2_0: round 0: a hypothesis overflowed (overflow"),
            ([1e150], None),
            ([2.0, 5e-324], "run 4.94066e-324_2_0: round 0: a release overflowed (divide by zero"),
            ([1e155, 1e160], "run 1e+155_2_0: round 0: a hypothesis overflowed (overflow"),
        ],
    )
    def test_huge_nu_exits_2_naming_the_overflowing_cell(
        self, tmp_path, capsys, nu, failure
    ):
        # Noise at these nu overflows k-means' squared distances (1e160 and
        # up) or, one step later, the validation loss of the new hypotheses
        # (1e155); at a subnormal nu, nu * radius underflows to 0 and the
        # calibration divides by it.  The run stops in round 0 with one stderr
        # line that names the first cell in sweep order that fails the round
        # alone, not the group's first, even when a later cell's release
        # overflows before its validation does; at 1e150 nothing overflows.
        # Warnings are recorded, not raised, so that a run that only warns
        # and exits 0 fails here.
        path = small_synthetic_config(
            tmp_path,
            federation={"T": 5, "U": 3, "E": 1, "s": 0.1, "B_s": 10,
                        "validation_every": 1, "validation_patience": 6},
            data={"n_clients": 20, "samples_per_client": 10, "validation_fraction": 0.3},
            sweep={"nu": nu, "k": [2], "seeds": [0]},
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        if failure is None:
            assert (code, err) == (0, [])
        else:
            assert code == 2
            assert len(err) == 1
            assert failure in err[0]

    def test_divergence_in_a_group_names_the_cell_and_writes_none_of_it(
        self, tmp_path, capsys, monkeypatch
    ):
        # Cells k = 1 and k = 2 of one seed run as one group; only the second
        # holds hypothesis 1, and a stub turns every update from it into NaNs.
        # The error names that cell; no cell of the group was written.
        linear = ModelSpec("linear", input_dim=2)
        rng_hyp = substream(0, "hypotheses")
        second = [init_params(linear, rng_hyp) for _ in range(2)][1]
        real = federation.local_updates

        def from_second_diverges(spec, params, *rest):
            updated = real(spec, params, *rest)
            updated[(params == second).all(axis=-1)] = np.nan
            return updated

        monkeypatch.setattr(federation, "local_updates", from_second_diverges)
        path = small_synthetic_config(tmp_path, sweep={"nu": [5.0], "k": [1, 2], "seeds": [0]})
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "run 5_2_0: round 0: a local update diverged" in err
        assert [p.name for p in (out / "mini").iterdir()] == ["config.yaml"]

    def test_divergence_of_one_seed_names_its_cell_and_writes_no_cell(
        self, tmp_path, capsys, monkeypatch
    ):
        # Seeds 0 and 1 run in one stacked round; a stub turns every update
        # from seed 1's one hypothesis into NaNs, so only seed 1 diverges in
        # round 0.  The error names seed 1's cell, and since the sweep stops
        # at that round, which no cell had stopped before, no cell is written.
        linear = ModelSpec("linear", input_dim=2)
        seed_1 = init_params(linear, substream(1, "hypotheses"))
        real = federation.local_updates

        def seed_1_diverges(spec, params, *rest):
            updated = real(spec, params, *rest)
            updated[(params == seed_1).all(axis=-1)] = np.nan
            return updated

        monkeypatch.setattr(federation, "local_updates", seed_1_diverges)
        path = small_synthetic_config(tmp_path, sweep={"nu": [5.0], "k": [1], "seeds": [0, 1]})
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "run 5_1_1: round 0: a local update diverged" in err
        assert [p.name for p in (out / "mini").iterdir()] == ["config.yaml"]

    def test_run_exit_codes(self, tmp_path, capsys):
        good = small_synthetic_config(tmp_path)
        assert main(["run", "--config", str(good), "--out", str(tmp_path / "out")]) == 0

        bad = tmp_path / "bad.yaml"
        bad.write_text("experiment: nope\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out2")]) == 1
        assert "config error" in capsys.readouterr().err

        # U larger than the 8 training clients: caught at load, nothing written
        too_many = small_synthetic_config(tmp_path, **{"federation.U": 9})
        assert main(["run", "--config", str(too_many), "--out", str(tmp_path / "out3")]) == 1
        assert "federation.U" in capsys.readouterr().err
        assert not (tmp_path / "out3").exists()

        # parseable config that fails at runtime: a table with a non-numeric row
        runtime = small_tabular_config(tmp_path)
        with open(tmp_path / "table.csv", "a") as fh:
            fh.write("p9,1,not-a-number,30.0,2.5\n")
        assert main(["run", "--config", str(runtime), "--out", str(tmp_path / "out4")]) == 2
        assert "non-numeric" in capsys.readouterr().err

    def test_colliding_sweep_values_leave_no_tree(self, tmp_path, capsys):
        path = small_synthetic_config(tmp_path, **{"sweep.nu": [1.0, 1.0000001]})
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert "sweep.nu" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override,needle",
        [
            ({"sweep.nu": [0.0, math.inf]}, "sweep.nu[1]: expected a finite float, got inf"),
            ({"sweep.nu": [math.nan]}, "sweep.nu[0]: expected a finite float, got nan"),
            ({"federation.s": math.inf}, "federation.s: expected a finite float, got inf"),
            ({"federation.budget_cap": math.inf}, "federation.budget_cap: expected a finite"),
            ({"data.validation_fraction": math.nan}, "data.validation_fraction: expected a"),
            ({"data.thetas": [[5.0, math.inf], [4.0, -4.5]]}, "data.thetas[0]: expected a finite"),
        ],
    )
    def test_non_finite_floats_leave_no_tree(self, tmp_path, capsys, override, needle):
        path = small_synthetic_config(tmp_path, **override)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert needle in capsys.readouterr().err
        assert not out.exists()

    def test_exponent_step_runs_like_its_decimal(self, tmp_path):
        trees = []
        for label, spelled in (("decimal", "0.05"), ("exponent", "5e-2")):
            (tmp_path / label).mkdir()
            path = small_synthetic_config(tmp_path / label, **{"federation.s": 0.05})
            text = path.read_text()
            assert text.count("  s: 0.05\n") == 1
            path.write_text(text.replace("  s: 0.05\n", f"  s: {spelled}\n"))
            out = tmp_path / label / "out"
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
            exp_dir = out / "mini"
            trees.append({p.relative_to(exp_dir): p.read_bytes()
                          for p in sorted(exp_dir.rglob("*")) if p.is_file()})
        assert len(trees[0]) == 8
        assert trees[0] == trees[1]

    def test_tabular_U_above_training_clients_leaves_no_tree(self, tmp_path, capsys):
        path = small_tabular_config(tmp_path, U=4)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert "federation.U: 4 exceeds the 3 training clients" in capsys.readouterr().err
        assert not out.exists()

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

    def test_verify_mechanism_rejects_bad_flags(self, tmp_path, capsys):
        assert main(["verify-mechanism", "--dim", "0", "--epsilon", "1.0"]) == 1
        assert main(["verify-mechanism", "--dim", "2", "--epsilon", "-1.0"]) == 1
        assert main(["verify-mechanism", "--dim", "2", "--epsilon", "1.0", "--samples", "1"]) == 1
        capsys.readouterr()
        # The message names the flag the user passed, and nothing is written.
        out = tmp_path / "report"
        assert main(["verify-mechanism", "--dim", "2", "--epsilon", "1.0", "--seed", "-1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: --seed must be >= 0\n"
        assert not out.exists()

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

    def test_make_fixture_rejects_bad_flags(self, tmp_path, capsys):
        assert main([
            "make-fixture", "--providers", "2", "--clusters", "5",
            "--out", str(tmp_path / "f.csv"),
        ]) == 1
        capsys.readouterr()
        assert main(["make-fixture", "--seed", "-1", "--out", str(tmp_path / "f.csv")]) == 1
        assert capsys.readouterr().err == "config error: --seed must be >= 0\n"
        # A rejected call writes nothing, not even the output's directory.
        assert main([
            "make-fixture", "--providers", "2", "--clusters", "5",
            "--out", str(tmp_path / "new" / "f.csv"),
        ]) == 1
        assert list(tmp_path.iterdir()) == []


def test_format_value_compacts_floats():
    assert format_value(5.0) == "5"
    assert format_value(0.1) == "0.1"
    assert format_value(3) == "3"
