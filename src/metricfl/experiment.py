"""Experiment configuration files and the sweep runner behind `run`.

A config file is a YAML document with sections mirroring the engine's
dataclasses.  The sweep executes every (nu, k, seed) combination, writes one
directory per run, and aggregates per-cell statistics afterwards.

Run layout under ``<out>/<name>/``:

    <nu>_<k>_<seed>/config.yaml        effective config, rerunnable as-is
    <nu>_<k>_<seed>/metrics.csv        per-round losses and leakage series
    <nu>_<k>_<seed>/ledger.csv         one row per privacy-leakage event
    <nu>_<k>_<seed>/hypotheses.txt     best-round hypothesis vectors
    <nu>_<k>_<seed>/hypotheses_final.txt
    summary.csv                        mean +- std of final loss per (nu, k)
    budget_summary.csv                 median/max privacy budgets per (nu, k)
"""

from __future__ import annotations

import copy
import csv
import math
import statistics
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, Hashable, Mapping

import yaml

from .accounting import ledger_summary, write_budget_table, write_ledger_csv
from .data import (
    DEFAULT_THETAS,
    ClientPopulation,
    FeatureScaling,
    generate_synthetic,
    ingest_csv,
    split_population,
)
from .federation import (
    FederationConfig,
    run_experiment,
    write_hypotheses,
    write_metrics_csv,
)
from .models import Batch, ModelSpec
from .rng import substream

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "run_sweep"]

# YAML types of the federation section; FederationConfig holds the defaults
# and judges the values.  k, nu and master_seed come from the sweep.
_FEDERATION_KINDS = {
    "T": int,
    "U": int,
    "E": int,
    "s": float,
    "B_s": int,
    "validation_every": int,
    "validation_patience": int,
    "budget_cap": float,
}


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


@dataclass(frozen=True)
class SyntheticDataConfig:
    n_clients: int
    samples_per_client: int
    thetas: tuple
    validation_fraction: float


@dataclass(frozen=True)
class TabularDataConfig:
    path: Path
    scales: FeatureScaling
    validation_fraction: float


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str  # "synthetic" | "tabular"
    name: str
    model: ModelSpec
    data: SyntheticDataConfig | TabularDataConfig
    sweep_nu: tuple[float, ...]
    sweep_k: tuple[int, ...]
    seeds: tuple[int, ...]
    # Every accepted value as parsed, defaults applied: what config.yaml echoes.
    document: dict

    def federation_config(self, nu: float, k: int, seed: int) -> FederationConfig:
        return FederationConfig(k=k, nu=nu, master_seed=seed, **self.document["federation"])


def _coerce(value: Any, kind, where: str):
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")
    return value


class _Section:
    """Typed accessor over one mapping level; errors carry full field paths.

    Each accepted value is stored in ``record`` after coercion, defaults
    applied, so the records of all sections form the effective document.
    """

    def __init__(self, mapping: Any, path: str):
        if mapping is None:
            mapping = {}
        if not isinstance(mapping, dict):
            raise ConfigError(f"{path}: expected a mapping")
        self.mapping = dict(mapping)
        self.path = path
        self.record: dict = {}

    def child(self, key: str) -> "_Section":
        section = _Section(self.mapping.pop(key, None), f"{self.path}{key}.")
        self.record[key] = section.record
        return section

    def take(self, key: str, kind, default=MISSING, minimum=None):
        value = self.mapping.pop(key, None)
        if value is None:
            if default is MISSING:
                raise ConfigError(f"{self.path}{key}: required field is missing")
            value = default
        else:
            value = _coerce(value, kind, f"{self.path}{key}")
            if minimum is not None and value < minimum:
                raise ConfigError(f"{self.path}{key}: must be >= {minimum}, got {value!r}")
        self.record[key] = value
        return value

    def take_list(self, key: str, kind, default=MISSING, nonempty=True) -> tuple:
        value = self.take(key, list, default)
        if nonempty and not value:
            raise ConfigError(f"{self.path}{key}: list must be nonempty")
        value = [_coerce(item, kind, f"{self.path}{key}[{i}]") for i, item in enumerate(value)]
        self.record[key] = value
        return tuple(value)

    def finish(self) -> None:
        if self.mapping:
            key = sorted(self.mapping)[0]
            raise ConfigError(f"{self.path}{key}: unknown field")


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError on any problem.

    Every sweep cell's FederationConfig is built here, so a value that one
    cell rejects fails the load rather than the sweep.
    """
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from None

    root = _Section(raw, "")
    experiment = root.take("experiment", str)
    if experiment not in ("synthetic", "tabular"):
        raise ConfigError(f"experiment: must be 'synthetic' or 'tabular', got {experiment!r}")
    name = root.take("name", str, default=experiment)

    fed = root.child("federation")
    for f in fields(FederationConfig):
        if f.name in _FEDERATION_KINDS:
            fed.take(f.name, _FEDERATION_KINDS[f.name], default=f.default)
    fed.finish()

    model_sec = root.child("model")
    kind = model_sec.take("kind", str)
    input_dim = model_sec.take("input_dim", int, minimum=1)
    hidden = model_sec.take_list("hidden", int, default=[], nonempty=False)
    output_dim = model_sec.take("output_dim", int, default=1)
    model_sec.finish()
    try:
        model = ModelSpec(kind=kind, input_dim=input_dim, hidden=hidden)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None

    # RMSE regression is the only objective; the key stays for explicit configs.
    objective = root.take("objective", str, default="rmse")
    if objective != "rmse":
        raise ConfigError(f"objective: only 'rmse' is supported, got {objective!r}")
    if output_dim != 1:
        raise ConfigError(
            f"objective: rmse needs model.output_dim == 1 (one prediction per row), "
            f"got {output_dim}"
        )

    data_sec = root.child("data")
    validation_fraction = data_sec.take("validation_fraction", float, default=0.3)
    if not 0 < validation_fraction < 1:
        raise ConfigError("data.validation_fraction: must be in (0, 1)")
    data: SyntheticDataConfig | TabularDataConfig
    if experiment == "synthetic":
        thetas_raw = data_sec.take("thetas", list, default=[list(v) for v in DEFAULT_THETAS])
        if not thetas_raw:
            raise ConfigError("data.thetas: expected a nonempty list of vectors")
        thetas = []
        for i, vec in enumerate(thetas_raw):
            if not isinstance(vec, list) or not vec:
                raise ConfigError(f"data.thetas[{i}]: expected a nonempty vector")
            thetas.append(tuple(_coerce(v, float, f"data.thetas[{i}]") for v in vec))
        if len({len(v) for v in thetas}) != 1:
            raise ConfigError("data.thetas: vectors must share one dimension")
        data_sec.record["thetas"] = [list(v) for v in thetas]
        data = SyntheticDataConfig(
            n_clients=data_sec.take("n_clients", int, default=100, minimum=1),
            samples_per_client=data_sec.take("samples_per_client", int, default=10, minimum=1),
            thetas=tuple(thetas),
            validation_fraction=validation_fraction,
        )
        if model.input_dim != len(thetas[0]):
            raise ConfigError(
                f"model.input_dim: {model.input_dim} does not match the "
                f"{len(thetas[0])}-dimensional generating vectors"
            )
    else:
        csv_path = Path(data_sec.take("path", str))
        if not csv_path.is_absolute():
            csv_path = (path.parent / csv_path).resolve()
        if not csv_path.exists():
            raise ConfigError(f"data.path: file does not exist: {csv_path}")
        data_sec.record["path"] = str(csv_path)
        scales_sec = data_sec.child("scales")
        scale_kwargs = {
            f.name: scales_sec.take(f.name, float, default=f.default)
            for f in fields(FeatureScaling)
        }
        scales_sec.finish()
        try:
            scaling = FeatureScaling(**scale_kwargs)
        except ValueError as exc:
            raise ConfigError(f"data.scales: {exc}") from None
        data = TabularDataConfig(csv_path, scaling, validation_fraction)
        if model.input_dim != 3:
            raise ConfigError("model.input_dim: tabular data has 3 features per row")
    data_sec.finish()

    sweep = root.child("sweep")
    sweep_nu = sweep.take_list("nu", float)
    sweep_k = sweep.take_list("k", int)
    seeds = sweep.take_list("seeds", int)
    sweep.finish()
    root.finish()
    if any(nu < 0 for nu in sweep_nu):
        raise ConfigError("sweep.nu: noise multipliers must be >= 0")
    if any(k < 1 for k in sweep_k):
        raise ConfigError("sweep.k: hypothesis counts must be >= 1")
    if any(seed < 0 for seed in seeds):
        raise ConfigError("sweep.seeds: seeds must be >= 0")

    config = ExperimentConfig(
        experiment=experiment,
        name=name,
        model=model,
        data=data,
        sweep_nu=sweep_nu,
        sweep_k=sweep_k,
        seeds=seeds,
        document=root.record,
    )
    for nu in sweep_nu:
        for k in sweep_k:
            for seed in seeds:
                try:
                    config.federation_config(nu, k, seed)
                except ValueError as exc:
                    # FederationConfig's messages start with the field name.
                    raise ConfigError(
                        f"federation.{exc} (sweep cell nu={nu:g}, k={k}, seed={seed})"
                    ) from None
    return config


def effective_dict(
    config: ExperimentConfig,
    nu: float | None = None,
    k: int | None = None,
    seed: int | None = None,
) -> dict:
    """Config as a plain dict with all defaults applied.

    When a sweep cell is given, the sweep lists are narrowed to it so the
    echoed file reproduces exactly that run.
    """
    document = copy.deepcopy(config.document)
    if nu is not None:
        document["sweep"] = {"nu": [nu], "k": [k], "seeds": [seed]}
    return document


def build_population(
    config: ExperimentConfig, seed: int
) -> tuple[Mapping[Hashable, Batch], Mapping[Hashable, Batch]]:
    """Materialize and split the population for one run.

    The population depends only on the seed (not on nu or k), so sweep cells
    sharing a seed train on identical data.
    """
    if isinstance(config.data, SyntheticDataConfig):
        population = generate_synthetic(
            n_clients=config.data.n_clients,
            samples_per_client=config.data.samples_per_client,
            thetas=config.data.thetas,
            rng=substream(seed, "data"),
        )
    else:
        population = ingest_csv(config.data.path, config.data.scales)
    train, val = split_population(
        population, config.data.validation_fraction, substream(seed, "split")
    )
    return train.federation_view(), val.federation_view()


@dataclass(frozen=True)
class CellRun:
    """What the sweep keeps of a finished cell; the ledger is not kept."""

    nu: float
    k: int
    seed: int
    run_dir: Path
    best_validation_loss: float
    budget_median: float
    budget_max: float


def format_value(value: float) -> str:
    """Compact run-directory token for a sweep value (5.0 -> "5")."""
    return f"{value:g}"


def run_cell(config: ExperimentConfig, nu: float, k: int, seed: int, run_dir: Path) -> CellRun:
    """Execute one sweep cell and write its artifacts."""
    run_dir.mkdir(parents=True, exist_ok=True)
    train, val = build_population(config, seed)
    fed_config = config.federation_config(nu=nu, k=k, seed=seed)
    result = run_experiment(train, val, config.model, fed_config)

    (run_dir / "config.yaml").write_text(
        yaml.safe_dump(effective_dict(config, nu=nu, k=k, seed=seed), sort_keys=True)
    )
    summary = ledger_summary(result.ledger)
    write_metrics_csv(result.history, summary.max_trajectory, k, run_dir / "metrics.csv")
    write_ledger_csv(result.ledger, run_dir / "ledger.csv")
    write_hypotheses(result.best_hypotheses, run_dir / "hypotheses.txt")
    write_hypotheses(result.final_hypotheses, run_dir / "hypotheses_final.txt")

    budget_median = summary.overall.median if summary.overall else 0.0
    budget_max = summary.overall.maximum if summary.overall else 0.0
    return CellRun(
        nu=nu,
        k=k,
        seed=seed,
        run_dir=run_dir,
        best_validation_loss=result.best_validation_loss,
        budget_median=budget_median,
        budget_max=budget_max,
    )


def run_sweep(config: ExperimentConfig, out_root: str | Path) -> Path:
    """Run every (nu, k, seed) combination and write the aggregate tables."""
    exp_dir = Path(out_root) / config.name
    exp_dir.mkdir(parents=True, exist_ok=True)
    (exp_dir / "config.yaml").write_text(yaml.safe_dump(effective_dict(config), sort_keys=True))

    cells: list[CellRun] = []
    for nu in config.sweep_nu:
        for k in config.sweep_k:
            for seed in config.seeds:
                run_dir = exp_dir / f"{format_value(nu)}_{k}_{seed}"
                try:
                    cells.append(run_cell(config, nu, k, seed, run_dir))
                except Exception as exc:
                    raise RuntimeError(f"run {run_dir.name}: {exc}") from exc

    _write_summary(config, cells, exp_dir / "summary.csv")
    _write_budget_summary(config, cells, exp_dir / "budget_summary.csv")
    return exp_dir


def _cell_groups(config: ExperimentConfig, cells: list[CellRun]):
    for nu in config.sweep_nu:
        for k in config.sweep_k:
            yield nu, k, [c for c in cells if c.nu == nu and c.k == k]


def _write_summary(config: ExperimentConfig, cells: list[CellRun], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["nu", "k", "runs", "mean_validation_loss", "std_validation_loss"])
        for nu, k, group in _cell_groups(config, cells):
            losses = [c.best_validation_loss for c in group]
            mean = statistics.fmean(losses)
            std = statistics.stdev(losses) if len(losses) > 1 else 0.0
            writer.writerow([format_value(nu), k, len(group), repr(mean), repr(std)])


def _write_budget_summary(config: ExperimentConfig, cells: list[CellRun], path: Path) -> None:
    rows = []
    for nu, k, group in _cell_groups(config, cells):
        medians = [c.budget_median for c in group]
        maxima = [c.budget_max for c in group]
        rows.append((nu, k, _mean_or_inf(medians), _mean_or_inf(maxima)))
    write_budget_table(rows, path)


def _mean_or_inf(values: list[float]) -> float:
    if any(math.isinf(v) for v in values):
        return math.inf
    return statistics.fmean(values)
