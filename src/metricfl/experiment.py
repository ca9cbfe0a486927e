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

import csv
import math
import os
import re
import statistics
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, Hashable, Mapping

import yaml

from .accounting import LedgerSummary, ledger_summary, write_ledger_csv
from .data import (
    DEFAULT_THETAS,
    ClientPopulation,
    FeatureScaling,
    generate_synthetic,
    ingest_csv,
    split_population,
    validation_size,
)
from .federation import (
    Diverged,
    ExperimentResult,
    FederationConfig,
    History,
    HypothesisSet,
    run_experiments,
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

# A float without a dot or a signed exponent ("5e-2", "1e3") is a string to PyYAML.
_EXPONENT_FLOAT = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+")


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
    if kind is float and isinstance(value, str) and _EXPONENT_FLOAT.fullmatch(value):
        value = float(value)
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite float, got {value!r}")
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
    if name in ("", ".", "..") or any(c and c in name for c in ("/", "\0", os.sep, os.altsep)):
        raise ConfigError(f"name: must be one directory name inside --out, got {name!r}")

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
    if isinstance(data, SyntheticDataConfig):
        _check_training_clients(fed.record["U"], data.n_clients, validation_fraction)

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
    # Each value names its cells' run directories, so no two may share a token.
    for key, values, token in (("nu", sweep_nu, format_value), ("k", sweep_k, str),
                               ("seeds", seeds, str)):
        tokens = [token(value) for value in values]
        for i, shared in enumerate(tokens):
            if shared in tokens[:i]:
                first = values[tokens.index(shared)]
                raise ConfigError(f"sweep.{key}: {first!r} and {values[i]!r} share the "
                                  f"run-directory token {shared!r}")

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


def _check_training_clients(U: int, n_clients: int, validation_fraction: float) -> None:
    n_train = n_clients - validation_size(n_clients, validation_fraction)
    if U > n_train:
        raise ConfigError(
            f"federation.U: {U} exceeds the {n_train} training clients left of "
            f"{n_clients} after holding out validation_fraction={validation_fraction:g}"
        )


def build_population(
    config: ExperimentConfig, seed: int, table: ClientPopulation | None
) -> tuple[Mapping[Hashable, Batch], Mapping[Hashable, Batch]]:
    """The training and validation views of ``seed``'s runs: ``table`` (the
    ingested table; None for synthetic data, generated here from ``seed``),
    split by ``seed``.  ``run_sweep`` calls this once per seed, not per cell."""
    population = table
    if isinstance(config.data, SyntheticDataConfig):
        population = generate_synthetic(
            n_clients=config.data.n_clients,
            samples_per_client=config.data.samples_per_client,
            thetas=config.data.thetas,
            rng=substream(seed, "data"),
        )
    train, val = split_population(
        population, config.data.validation_fraction, substream(seed, "split")
    )
    return train.federation_view(), val.federation_view()


def format_value(value: float) -> str:
    """Compact run-directory token for a sweep value (5.0 -> "5")."""
    return f"{value:g}"


def write_metrics_csv(history: History, summary: LedgerSummary, k: int, path: str | Path) -> None:
    """Per-round series: losses (no validation loss where a round was not
    evaluated), hypothesis norms and the per-cluster running-max leakage
    used for privacy plots.

    ``summary`` is ``ledger_summary`` of the run's ledger, read at each
    round; a cluster with no release yet reads 0.0.
    """
    rounds = len(history.train_loss)
    series = summary.max_leakage(range(k), range(rounds)).tolist()
    header = (
        ["round", "mean_train_loss", "validation_loss"]
        + [f"hypothesis_{j}_norm" for j in range(k)]
        + [f"cluster_{j}_max_leakage" for j in range(k)]
    )
    validation = ["" if math.isnan(v) else repr(v) for v in history.validation_loss.tolist()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(
            range(rounds), map(repr, history.train_loss.tolist()), validation,
            *(map(repr, column) for column in history.hypothesis_norms.T.tolist() + series),
            strict=True,
        ))


def write_hypotheses(hypotheses: HypothesisSet, path: str | Path) -> None:
    """Flat text export: a `k=<k> n=<n>` header, then one vector per line."""
    with open(path, "w") as fh:
        k, n = hypotheses.vectors.shape
        fh.write(f"k={k} n={n}\n")
        for vec in hypotheses.vectors:
            fh.write(" ".join(repr(float(v)) for v in vec) + "\n")


def write_cell(
    head: str,
    nu: float,
    k: int,
    seed: int,
    run_dir: Path,
    result: ExperimentResult,
) -> tuple[float, float, float]:
    """Write one sweep cell's artifacts from its ``run_experiments`` result;
    returns the best validation loss and the median and largest leakage.
    ``head`` is the sorted dump of the sweep document but its last key,
    ``sweep``, which the cell's own completes."""
    run_dir.mkdir(parents=True, exist_ok=True)
    sweep = {"sweep": {"nu": [nu], "k": [k], "seeds": [seed]}}
    (run_dir / "config.yaml").write_text(head + yaml.safe_dump(sweep, sort_keys=True))
    summary = ledger_summary(result.ledger)
    write_metrics_csv(result.history, summary, k, run_dir / "metrics.csv")
    write_ledger_csv(result.ledger, run_dir / "ledger.csv")
    write_hypotheses(result.best_hypotheses, run_dir / "hypotheses.txt")
    write_hypotheses(result.final_hypotheses, run_dir / "hypotheses_final.txt")

    if summary.overall is None:
        return result.best_validation_loss, 0.0, 0.0
    return result.best_validation_loss, summary.overall.median, summary.overall.maximum


def run_sweep(config: ExperimentConfig, out_root: str | Path) -> Path:
    """Run every (nu, k, seed) combination and write the aggregate tables.

    Each seed's views are built once, and all cells, seed by seed, go to one
    ``run_experiments`` call, which runs every seed's groups in lockstep; a
    cell is written as soon as it stops.  A table is ingested once per sweep
    and checked against ``federation.U`` before anything is written.  A
    failure names its cell by its index in that order.
    """
    table = None
    if not isinstance(config.data, SyntheticDataConfig):
        table = ingest_csv(config.data.path, config.data.scales)
        U = config.document["federation"]["U"]
        _check_training_clients(U, len(table), config.data.validation_fraction)

    exp_dir = Path(out_root) / config.name
    exp_dir.mkdir(parents=True, exist_ok=True)
    # Every other key sorts before "sweep": one dump of them serves every config.yaml.
    head = yaml.safe_dump({key: value for key, value in config.document.items() if key != "sweep"},
                          sort_keys=True)
    (exp_dir / "config.yaml").write_text(
        head + yaml.safe_dump({"sweep": config.document["sweep"]}, sort_keys=True))

    # write_cell's results per (nu, k), in seed order.
    grid = [(nu, k) for nu in config.sweep_nu for k in config.sweep_k]
    results = {(nu, k): [None] * len(config.seeds) for nu, k in grid}
    sweep = [(nu, k, seed) for seed in config.seeds for nu, k in grid]  # seed by seed
    names = [f"{format_value(nu)}_{k}_{seed}" for nu, k, seed in sweep]
    cells = [config.federation_config(*cell) for cell in sweep]
    at, views = 0, []  # the cell whose views or artifacts are being made
    try:
        for at in range(0, len(sweep), len(grid)):
            views += [build_population(config, sweep[at][2], table)] * len(grid)
        at = 0
        for at, result in run_experiments(views, config.model, cells):
            results[sweep[at][:2]][at // len(grid)] = write_cell(
                head, *sweep[at], exp_dir / names[at], result)
            at = 0
    except Exception as exc:
        failed = cells.index(exc.config) if isinstance(exc, Diverged) else at
        raise RuntimeError(f"run {names[failed]}: {exc}") from exc
    _write_summaries(results, exp_dir)
    return exp_dir


def _write_summaries(results: dict[tuple[float, int], list], exp_dir: Path) -> None:
    """summary.csv and budget_summary.csv, a row per (nu, k) of ``results``.
    fmean sums with math.fsum, so budgets that hold an inf average to inf."""
    with open(exp_dir / "summary.csv", "w", newline="") as fh, \
            open(exp_dir / "budget_summary.csv", "w", newline="") as budget_fh:
        summary, budget = csv.writer(fh), csv.writer(budget_fh)
        summary.writerow(["nu", "k", "runs", "mean_validation_loss", "std_validation_loss"])
        budget.writerow(["noise_multiplier", "hypotheses", "median_budget", "max_budget"])
        for (nu, k), cells in results.items():
            losses, medians, maxima = zip(*cells)
            finite = all(map(math.isfinite, losses))  # statistics.stdev raises on an inf
            std = (statistics.stdev(losses) if finite else math.nan) if len(losses) > 1 else 0.0
            summary.writerow([format_value(nu), k, len(cells), repr(statistics.fmean(losses)),
                              repr(std)])
            # Unlike summary.csv, nu is written by repr: 5.0, not 5.
            budget.writerow([repr(nu), k, repr(statistics.fmean(medians)),
                             repr(statistics.fmean(maxima))])
