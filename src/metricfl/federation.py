"""Round orchestration: sampling, local training, sanitization, clustering
and model averaging, with validation-based early stopping.

Each round the simulated server samples clients, broadcasts the current
hypothesis vectors, and receives back one full sanitized parameter vector per
client.  Only that vector crosses the client boundary: the raw update, the
local dataset size and the client's own idea of its cluster never do.  The
server groups the received vectors with k-means seeded at the hypotheses and
averages within groups.

A group maps client ids to positions once and builds one
``models.ClientTable`` (concatenated rows and targets, each client's row
offset and size) of the training clients and one of the validation clients.  Only ``_client_steps``
(one gather per round) and validation read them; the server half of
``server_round`` sees positions, sanitized vectors and the ledger's columns,
never a dataset size.  Ids appear only where the ledger is read and in CSVs.

The cells of one seed, or of one (seed, nu) under a budget cap, run as a
group in lockstep (``run_experiments``): they sample the same clients and
load the same streams every round, so a round is one stacked computation
(selection, local SGD, training loss, release) over cells by clients, in
ascending client-id order.  A client draws its permutations and raw noise
once, from its own stream, for all cells.  k-means, averaging and the ledger
checks are shared too (one Lloyd run per k); early stopping and history stay
per cell.  No operation mixes two rows or two cells, so each release and
each cell's result is bit-identical to the one it gets alone: the
outcome depends neither on a client's round-mates nor on a cell's group.
Only the reported training loss (``models.client_losses``) may move in the
last ulp with the client's round-mates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from itertools import accumulate
from pathlib import Path
from typing import Hashable, Iterator, Mapping, Sequence

import numpy as np

from .accounting import _REL_TOL, RADIUS_FLOOR, PrivacyLedger, _fmt, heuristic_epsilons
from .accounting import record_rounds
from .clustering import lloyd
from .mechanism import sanitize_rows
from .models import (
    Batch,
    ClientTable,
    ModelSpec,
    client_losses,
    init_params,
    local_updates,
    loss_matrix,
    n_params,
)
from .rng import RoundStreams, substream

__all__ = [
    "FederationConfig",
    "HypothesisSet",
    "RoundMetrics",
    "ExperimentResult",
    "Diverged",
    "server_round",
    "run_experiments",
    "run_experiment",
    "write_metrics_csv",
    "write_hypotheses",
]


@dataclass(frozen=True)
class FederationConfig:
    """Knobs of the training loop.

    k    number of hypotheses / clusters
    T    maximum number of rounds
    U    clients sampled per round (uniform, without replacement)
    E    local epochs per participation
    s    local SGD step size
    B_s  local mini-batch size
    nu   noise multiplier; 0 disables sanitization entirely

    ``budget_cap`` (optional) removes a client from the sampling pool as soon
    as one more participation would push its composed leakage above the cap
    (beyond a relative float tolerance of 1e-12).  Training ends before the
    first round whose pool cannot field U clients.
    """

    k: int
    T: int
    U: int
    E: int
    s: float
    B_s: int
    nu: float
    validation_every: int = 1
    validation_patience: int = 6
    master_seed: int = 0
    budget_cap: float | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if self.U < 1:
            raise ValueError("U must be >= 1")
        if self.E < 1:
            raise ValueError("E must be >= 1")
        if not 0 < self.s < math.inf:
            raise ValueError("s must be positive and finite")
        if self.B_s < 1:
            raise ValueError("B_s must be >= 1")
        if not 0 <= self.nu < math.inf:
            raise ValueError("nu must be >= 0 and finite")
        if self.validation_every < 1:
            raise ValueError("validation_every must be >= 1")
        if self.validation_patience < 1:
            raise ValueError("validation_patience must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if self.budget_cap is not None:
            if self.nu == 0:
                raise ValueError("budget_cap requires nu > 0 (leakage is infinite otherwise)")
            if not self.budget_cap > 0:
                raise ValueError("budget_cap must be positive")


@dataclass
class HypothesisSet:
    """The k candidate parameter vectors at a given round."""

    vectors: np.ndarray  # (k, n)

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be a (k, n) array")

    def copy(self) -> "HypothesisSet":
        return HypothesisSet(self.vectors.copy())


@dataclass(frozen=True)
class _ClientSteps:
    """The outcome of several clients' steps as columns, row i for client i."""

    sanitized: np.ndarray
    epsilon: np.ndarray
    radius: np.ndarray
    leakage: float
    train_loss: np.ndarray


@dataclass
class RoundMetrics:
    round: int
    mean_train_loss: float
    validation_loss: float | None
    hypothesis_norms: list[float]


@dataclass
class ExperimentResult:
    best_hypotheses: HypothesisSet
    final_hypotheses: HypothesisSet
    best_validation_loss: float
    best_round: int | None
    history: list[RoundMetrics]
    ledger: PrivacyLedger


class Diverged(FloatingPointError):
    """A local update of the cell of ``config`` diverged in the round named."""

    def __init__(self, message: str, config: FederationConfig):
        super().__init__(message)
        self.config = config


def _stacked(hypotheses: Sequence[HypothesisSet]) -> tuple[np.ndarray, list[slice]]:
    """The cells' hypotheses as one (sum of k, n) array (a lone cell's as it
    is) and each cell's rows of it."""
    vectors = [h.vectors for h in hypotheses]
    ends = accumulate(len(v) for v in vectors)
    rows = [slice(end - len(v), end) for v, end in zip(vectors, ends)]
    return (vectors[0] if len(vectors) == 1 else np.concatenate(vectors)), rows


def _by_cell(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The cells' arrays along a new first axis; a lone array as a view of it."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """sqrt(d.dot(d)) per row d, np.linalg.norm(d) to the bit, in one call."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _client_steps(
    spec: ModelSpec,
    table: ClientTable,
    positions: np.ndarray,
    hypotheses: Sequence[HypothesisSet],
    configs: Sequence[FederationConfig],
    rngs: list[np.random.Generator],
    round_index: int,
) -> list[_ClientSteps]:
    """Select, train and release for the clients at ``positions`` of
    ``table`` in each cell c of a group (``hypotheses[c]``, ``configs[c]``),
    one row per client.

    In each cell, each client picks the hypothesis with the lowest loss on
    its full local dataset (ties to the lowest index), trains it, and
    releases the updated vector with noise calibrated to the update norm
    (as-is, at infinite leakage, when nu = 0).  The rows are gathered once;
    selection, local SGD, the training loss and the release each run once
    for the stack of cells by clients.  A client's stream draws its SGD
    permutations, then its raw noise, once for all cells.  A zero update
    norm is floored to ``RADIUS_FLOOR``; an overflow or invalid value in
    training, or a non-finite norm, raises.
    """
    local = table.take(positions)
    vectors, columns = _stacked(hypotheses)
    losses = loss_matrix(spec, vectors, local)
    chosen = [np.argmin(losses[:, cols], axis=1) + cols.start for cols in columns]
    received = vectors[chosen[0] if len(chosen) == 1 else np.concatenate(chosen)]
    config = configs[0]
    try:
        with np.errstate(over="raise", invalid="raise"):
            updated = local_updates(spec, received, local, config.s, config.E, config.B_s, rngs)
            train_losses = client_losses(spec, updated, local)
            update_norms = _row_norms(updated - received)
    except FloatingPointError as exc:
        raise FloatingPointError(f"round {round_index}: a local update diverged ({exc})") from None
    if not np.isfinite(update_norms).all():
        raise FloatingPointError(f"round {round_index}: a local update diverged (non-finite norm)")
    dim, n_clients = n_params(spec), len(positions)
    blocks = [slice(c * n_clients, (c + 1) * n_clients) for c in range(len(configs))]
    radii = np.where(update_norms == 0, RADIUS_FLOOR, update_norms)
    nus = np.array([cell.nu for cell in configs])
    if nus.all():  # every row is released with noise: whole arrays, no gathers
        epsilons = heuristic_epsilons(radii.reshape(len(nus), -1), dim, nus[:, None]).ravel()
        updated = sanitize_rows(updated, epsilons, rngs)
    else:
        nus = np.repeat(nus, n_clients)
        noisy, epsilons = nus > 0, np.full(len(updated), math.inf)
        if noisy.any():
            epsilons[noisy] = heuristic_epsilons(radii[noisy], dim, nus[noisy])
            updated[noisy] = sanitize_rows(updated[noisy], epsilons[noisy], rngs)
    # One division, not epsilon*radius: keeps the recorded cost exact.
    costs = [(radii, dim / cell.nu) if cell.nu else (update_norms, math.inf) for cell in configs]
    return [
        _ClientSteps(updated[rows], epsilons[rows], radius[rows], leakage, train_losses[rows])
        for rows, (radius, leakage) in zip(blocks, costs)
    ]


def _eligible(ledger: PrivacyLedger, spec: ModelSpec, config: FederationConfig) -> np.ndarray:
    """Positions of the clients that can afford one more release under the
    budget cap, ascending: one comparison over the ledger's composed vector."""
    composed = ledger.composed
    if config.budget_cap is None:
        return np.arange(len(composed))
    cost = n_params(spec) / config.nu  # a cap requires nu > 0
    # The tolerance lets a cap of m releases admit all m despite float drift.
    cap = config.budget_cap * (1 + _REL_TOL)
    return np.flatnonzero(composed + cost <= cap)


def server_round(
    table: ClientTable,
    pool: np.ndarray,
    hypotheses: Sequence[HypothesisSet],
    spec: ModelSpec,
    configs: Sequence[FederationConfig],
    ledgers: Sequence[PrivacyLedger],
    round_index: int,
    streams: RoundStreams,
) -> list[tuple[HypothesisSet, float]]:
    """One full round of each cell c of a group (``hypotheses[c]``,
    ``configs[c]``, ``ledgers[c]``): sample, collect sanitized vectors,
    cluster, average.  The cells share the sample and the client streams.

    ``table`` holds the run's training clients by position, ``pool`` the
    ascending positions eligible this round, and ``streams`` is the run's
    stream table.  Returns each cell's new hypotheses and sampled clients'
    mean training loss.  Who was sampled and which cluster each release was
    aggregated into is recorded in the cell's ledger as one round of rows;
    the cluster a client chose for itself is never kept.  Raises
    RuntimeError when the pool holds fewer than U clients, and ``Diverged``
    when a local update diverges.
    """
    U = configs[0].U
    if len(pool) < U:
        raise RuntimeError(f"round {round_index}: only {len(pool)} eligible clients, need U={U}")
    picked = streams.sampling(round_index).choice(len(pool), size=U, replace=False)
    sampled = np.sort(pool[picked])
    positions = sampled.tolist()

    rngs = streams.clients(round_index, positions)
    try:
        steps = _client_steps(spec, table, sampled, hypotheses, configs, rngs, round_index)
    except FloatingPointError as exc:
        # Name the first cell that diverges alone, on fresh copies of the streams.
        for c, config in enumerate(configs):
            try:
                rngs = streams.clients(round_index, positions)
                _client_steps(spec, table, sampled, [hypotheses[c]], [config], rngs, round_index)
            except FloatingPointError as alone:
                raise Diverged(str(alone), config) from None
        raise Diverged(str(exc), configs[0]) from None

    # One Lloyd run per k; its means of the final labels are the new hypotheses.
    labels, new_vectors = np.empty((len(steps), U), dtype=np.intp), {}
    for k in dict.fromkeys(len(hyps.vectors) for hyps in hypotheses):
        cells = [c for c, hyps in enumerate(hypotheses) if len(hyps.vectors) == k]
        fit = lloyd(_by_cell([steps[c].sanitized for c in cells]),
                    _by_cell([hypotheses[c].vectors for c in cells]))
        labels[cells] = fit.labels
        new_vectors.update(zip(cells, fit.means))
    epsilon, radius = _by_cell([c.epsilon for c in steps]), _by_cell([c.radius for c in steps])
    costs = [[cell.leakage] for cell in steps]  # one per cell
    record_rounds(ledgers, round_index, sampled, epsilon, radius, labels, costs)
    train_losses = _by_cell([cell.train_loss for cell in steps]).mean(axis=1).tolist()
    return [(HypothesisSet(new_vectors[c]), loss) for c, loss in enumerate(train_losses)]


def _validation_loss(losses: np.ndarray, starts: Sequence[int]) -> list[float]:
    """Each cell's mean over validation clients of the loss at their best-fitting
    hypothesis (no single global model exists); cell c's columns start at
    ``starts[c]``.  A cell's minima are one contiguous row, summed as alone."""
    best = np.ascontiguousarray(np.minimum.reduceat(losses, starts, axis=1).T)
    return best.mean(axis=1).tolist()


def run_experiments(
    train: Mapping[Hashable, Batch],
    validation: Mapping[Hashable, Batch],
    spec: ModelSpec,
    configs: Sequence[FederationConfig],
) -> Iterator[tuple[int, ExperimentResult]]:
    """Drive a group of cells (``configs``) in lockstep, each for up to T
    rounds with early stopping on its validation loss.

    The cells may differ in k, and in nu without a budget cap.  Their pools
    are then equal, so they sample the same clients with the same streams:
    each round is one ``server_round`` and one validation pass for all cells
    still running.  A cell sees the float operations it sees alone, so its
    result does not depend on its group.  Yields ``(c, result)`` for
    ``configs[c]`` when that cell stops, and drops it.

    Every ``validation_every`` rounds the validation clients are scored at
    their per-client best hypothesis; a cell stops after
    ``validation_patience`` consecutive evaluations without a strict
    round-over-round improvement, or before a round in which the budget cap
    leaves fewer than U eligible clients.  Either way the result's model is
    the hypothesis set of the best evaluation, not the last round.
    """
    config = configs[0]
    if len({replace(c, k=1, nu=c.nu if c.budget_cap else 0.0) for c in configs}) > 1:
        raise ValueError("the cells of a group may differ only in k, and in nu without a cap")
    if config.U > len(train):
        raise ValueError(f"U={config.U} exceeds the {len(train)} training clients")
    # Ids become positions here; the ledger maps them back when it is read.
    ids = sorted(train)
    table = ClientTable.from_batches(spec, [train[cid] for cid in ids])
    val_table = None
    if validation:
        val_table = ClientTable.from_batches(spec, [validation[cid] for cid in sorted(validation)])
    streams = RoundStreams(config.master_seed, len(ids), config.T)

    running: dict[int, ExperimentResult] = {}  # by index in configs
    for c, cell in enumerate(configs):
        rng_hyp = substream(cell.master_seed, "hypotheses")
        hypotheses = HypothesisSet(np.stack([init_params(spec, rng_hyp) for _ in range(cell.k)]))
        ledger = PrivacyLedger(ids)
        running[c] = ExperimentResult(hypotheses, hypotheses, math.inf, None, [], ledger)
    stale_evaluations = [0] * len(configs)
    previous_val = [math.inf] * len(configs)
    for t in range(config.T):
        cells = list(running)
        if not cells:
            break
        pool = _eligible(running[cells[0]].ledger, spec, config)
        if len(pool) < config.U:
            break
        results = [running[c] for c in cells]
        rounds = server_round(
            table, pool, [result.final_hypotheses for result in results], spec,
            [configs[c] for c in cells], [result.ledger for result in results], t, streams,
        )

        vectors, columns = _stacked([hypotheses for hypotheses, _ in rounds])
        val_losses: list[float | None] = [None] * len(cells)
        if val_table is not None and (t + 1) % config.validation_every == 0:
            losses = loss_matrix(spec, vectors, val_table)
            val_losses = _validation_loss(losses, [cols.start for cols in columns])
        norms = _row_norms(vectors).tolist()

        for c, result, (hypotheses, mean_train_loss), val_loss, cols in zip(
            cells, results, rounds, val_losses, columns
        ):
            result.final_hypotheses = hypotheses
            if result.best_round is None:
                # Until an evaluation improves on inf (never without validation
                # clients), the best set is the latest.
                result.best_hypotheses = hypotheses
            if val_loss is not None:
                if val_loss < result.best_validation_loss:
                    result.best_validation_loss = val_loss
                    result.best_hypotheses = hypotheses.copy()
                    result.best_round = t
                # Convergence means no round-over-round decrease anymore; a noisy
                # but still-descending loss sequence must not trigger the stop.
                if val_loss < previous_val[c]:
                    stale_evaluations[c] = 0
                else:
                    stale_evaluations[c] += 1
                previous_val[c] = val_loss
            result.history.append(RoundMetrics(t, mean_train_loss, val_loss, norms[cols]))
            if stale_evaluations[c] >= configs[c].validation_patience:
                yield c, running.pop(c)
    for c in list(running):
        yield c, running.pop(c)


def run_experiment(
    train: Mapping[Hashable, Batch],
    validation: Mapping[Hashable, Batch],
    spec: ModelSpec,
    config: FederationConfig,
) -> ExperimentResult:
    """The group of one cell: ``run_experiments`` for ``config`` alone."""
    ((_, result),) = run_experiments(train, validation, spec, [config])
    return result


def write_metrics_csv(
    history: list[RoundMetrics],
    leakage: Mapping[int | None, list[float]],
    k: int,
    path: str | Path,
) -> None:
    """Per-round series: losses, hypothesis norms and the per-cluster
    running-max leakage used for privacy plots.

    ``leakage`` is ``max_leakage_series`` of the run's ledger; a cluster
    with no release yet reads 0.0.
    """
    no_release = [0.0] * len(history)
    series = [leakage.get(j, no_release) for j in range(k)]
    header = (
        ["round", "mean_train_loss", "validation_loss"]
        + [f"hypothesis_{j}_norm" for j in range(k)]
        + [f"cluster_{j}_max_leakage" for j in range(k)]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in history:
            writer.writerow(
                [row.round, _fmt(row.mean_train_loss), _fmt(row.validation_loss)]
                + [_fmt(v) for v in row.hypothesis_norms]
                + [_fmt(values[row.round]) for values in series]
            )


def write_hypotheses(hypotheses: HypothesisSet, path: str | Path) -> None:
    """Flat text export: a `k=<k> n=<n>` header, then one vector per line."""
    with open(path, "w") as fh:
        k, n = hypotheses.vectors.shape
        fh.write(f"k={k} n={n}\n")
        for vec in hypotheses.vectors:
            fh.write(" ".join(repr(float(v)) for v in vec) + "\n")
