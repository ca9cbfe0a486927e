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
offset and size) of the training clients and one of the validation clients.
Only ``_client_steps`` (one gather per round) and validation read them; the
server half of ``server_round`` sees positions, sanitized vectors and the
ledger's columns, never a dataset size.  Ids appear only where the ledger is
read and in CSVs.

Cells that share one sampling draw (they differ only in k, and in nu without
a budget cap) run as a group in lockstep; ``run_experiments`` forms the
groups.  They sample the same clients and load the same streams every round,
so a round is one stacked computation (selection, local SGD, training loss,
release) over a (cells, clients, n) stack, clients in ascending id order;
a solo run's stack has one cell.  The state is one (sum of k, n) array of
the running cells' hypotheses, cell by cell, and a stopped cell's rows leave
it.  A client's rows, and the permutations and raw noise it draws once from
its own stream, are broadcast over the cells axis.  k-means, averaging and the
ledger checks are shared too (one Lloyd run per k), and so are early stopping
(one step over arrays by cell) and the history (a column per cell, grown with
the rounds run); a cell's result is built once, when it stops.  No operation
mixes two rows or two cells, so each release and each cell's result is
bit-identical to the one it gets alone: the outcome depends neither on a
client's round-mates nor on a cell's group.  Only the reported training loss
(``models.client_losses``) may move in the last ulp with the client's
round-mates.  An overflow in local SGD, the release, k-means or validation
raises; each cell then reruns the whole round alone, and ``Diverged`` names
the first to fail.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import accumulate, compress
from typing import Hashable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .accounting import _REL_TOL, RADIUS_FLOOR, PrivacyLedger, heuristic_epsilons
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
    "History",
    "ExperimentResult",
    "Diverged",
    "server_round",
    "run_experiments",
    "run_experiment",
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


class _ClientSteps(NamedTuple):
    """The outcome of a group's client steps by cell, then client:
    ``sanitized`` (G, U, n); ``epsilon``, ``radius`` and ``train_loss``
    (G, U); ``leakage`` (G, 1), one cost per cell."""

    sanitized: np.ndarray
    epsilon: np.ndarray
    radius: np.ndarray
    leakage: np.ndarray
    train_loss: np.ndarray


class History(NamedTuple):
    """A cell's rounds 0..R-1 as columns: the sampled clients' mean training
    loss (R,), the validation loss (R,), NaN where the round was not
    evaluated, and the norm of each hypothesis (R, k)."""

    train_loss: np.ndarray
    validation_loss: np.ndarray
    hypothesis_norms: np.ndarray


@dataclass
class ExperimentResult:
    best_hypotheses: HypothesisSet
    final_hypotheses: HypothesisSet
    best_validation_loss: float
    best_round: int | None
    history: History
    ledger: PrivacyLedger


class Diverged(FloatingPointError):
    """Raised by ``run_experiments``: a round of the cell of ``config``, rerun
    alone, overflowed or diverged, as named."""

    def __init__(self, message: str, config: FederationConfig):
        super().__init__(message)
        self.config = config


def _offsets(configs: Sequence[FederationConfig]) -> list[int]:
    """Cell c's rows of the group's stacked hypotheses: ``[c]`` up to ``[c + 1]``."""
    return list(accumulate((config.k for config in configs), initial=0))


@contextmanager
def _raising(round_index: int, what: str) -> Iterator[None]:
    """Raise an overflow, a division by zero or an invalid value as one naming
    the round and ``what``."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise FloatingPointError(f"round {round_index}: {what} ({exc})") from None


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """sqrt(d.dot(d)) per row d (last axis), np.linalg.norm(d) to the bit, in one call."""
    return np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0])


def _client_steps(
    spec: ModelSpec, table: ClientTable, positions: np.ndarray, vectors: np.ndarray,
    configs: Sequence[FederationConfig], rngs: list[np.random.Generator], round_index: int,
) -> _ClientSteps:
    """Select, train and release for the clients at ``positions`` of
    ``table`` in each cell c of a group (``configs[c]``, with its rows of
    the stacked ``vectors``, see ``_offsets``).

    In each cell, each client picks the hypothesis with the lowest loss on
    its full local dataset (ties to the lowest index), trains it, and
    releases the updated vector with noise calibrated to the update norm
    (as-is, at infinite leakage, when nu = 0).  The rows are gathered once;
    selection, local SGD, the training loss and the release each run once
    for the (G, U, ...) stack of cells by clients.  A client's stream draws
    its SGD permutations, then its raw noise, once for all cells.  A zero
    update norm is floored to ``RADIUS_FLOOR``; an overflow, a division by
    zero or an invalid value, or a non-finite update norm, raises.
    """
    local = table.take(positions)
    rows, config = _offsets(configs), configs[0]
    with _raising(round_index, "a local update diverged"):
        losses = loss_matrix(spec, vectors, local)
        chosen = [np.argmin(losses[:, a:b], axis=1) + a for a, b in zip(rows, rows[1:])]
        received = vectors[np.stack(chosen)]
        updated = local_updates(spec, received, local, config.s, config.E, config.B_s, rngs)
        train_losses = client_losses(spec, updated, local)
        norms = _row_norms(updated - received)
    if not np.isfinite(norms).all():
        raise FloatingPointError(f"round {round_index}: a local update diverged (non-finite norm)")
    dim, nus = n_params(spec), np.array([[cell.nu] for cell in configs])
    radius = np.where((norms == 0) & (nus > 0), RADIUS_FLOOR, norms)
    epsilon, released = np.full(norms.shape, math.inf), updated
    if noisy := [c for c, cell in enumerate(configs) if cell.nu]:
        with _raising(round_index, "a release overflowed"):
            epsilon[noisy] = heuristic_epsilons(radius[noisy], dim, nus[noisy])
            released[noisy] = sanitize_rows(released[noisy], epsilon[noisy], rngs)
    # One division, not epsilon*radius: keeps the recorded cost exact.
    leakage = np.array([[dim / cell.nu if cell.nu else math.inf] for cell in configs])
    return _ClientSteps(released, epsilon, radius, leakage, train_losses)


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
    vectors: np.ndarray,
    spec: ModelSpec,
    configs: Sequence[FederationConfig],
    ledgers: Sequence[PrivacyLedger],
    round_index: int,
    streams: RoundStreams,
) -> tuple[np.ndarray, np.ndarray]:
    """One full round of each cell c of a group (``configs[c]``,
    ``ledgers[c]``, its rows of the stacked ``vectors``): sample, collect
    sanitized vectors, cluster, average.  The cells share the sample and the
    client streams.

    ``table`` holds the run's training clients by position, ``pool`` the
    ascending positions eligible this round, and ``streams`` is the run's
    stream table.  Returns the new hypotheses, stacked as ``vectors``, and
    the (G,) sampled clients' mean training loss by cell.  Who was sampled
    and which cluster each release was aggregated into is recorded in the
    cell's ledger as one round of rows; the cluster a client chose for
    itself is never kept.  Raises RuntimeError when the pool holds fewer
    than U clients, and a FloatingPointError naming the round and the step
    when the round overflows or diverges; then nothing is recorded.
    """
    U = configs[0].U
    if len(pool) < U:
        raise RuntimeError(f"round {round_index}: only {len(pool)} eligible clients, need U={U}")
    picked = streams.sampling(round_index).choice(len(pool), size=U, replace=False)
    sampled = np.sort(pool[picked])
    rngs = streams.clients(round_index, sampled.tolist())
    steps = _client_steps(spec, table, sampled, vectors, configs, rngs, round_index)
    rows = _offsets(configs)
    labels, means = np.empty(steps.epsilon.shape, dtype=np.intp), np.empty_like(vectors)
    with _raising(round_index, "a release overflowed"):
        for k in dict.fromkeys(config.k for config in configs):
            cells = [c for c, config in enumerate(configs) if config.k == k]
            at = [row for c in cells for row in range(rows[c], rows[c + 1])]
            fit = lloyd(steps.sanitized[cells], vectors[at].reshape(len(cells), k, -1))
            labels[cells], means[at] = fit.labels, fit.means.reshape(len(at), -1)
    record_rounds(ledgers, round_index, sampled, steps.epsilon, steps.radius, labels, steps.leakage)
    return means, steps.train_loss.mean(axis=1)


def _validation_loss(losses: np.ndarray, starts: Sequence[int]) -> np.ndarray:
    """Each cell's mean over validation clients of the loss at their best-fitting
    hypothesis (no single global model exists); cell c's columns start at
    ``starts[c]``.  A cell's minima are one contiguous row, summed as alone."""
    best = np.ascontiguousarray(np.minimum.reduceat(losses, starts, axis=1).T)
    return best.mean(axis=1)


def _evaluate(
    vectors: np.ndarray, configs: Sequence[FederationConfig], spec: ModelSpec,
    table: ClientTable | None, round_index: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The norm of each stacked hypothesis and, given a validation ``table``,
    each cell's ``_validation_loss``; an overflow raises."""
    with _raising(round_index, "a hypothesis overflowed"):
        norms = _row_norms(vectors)
        if table is None:
            return norms, None
        return norms, _validation_loss(loss_matrix(spec, vectors, table), _offsets(configs)[:-1])


def run_experiments(
    train: Mapping[Hashable, Batch],
    validation: Mapping[Hashable, Batch],
    spec: ModelSpec,
    configs: Sequence[FederationConfig],
) -> Iterator[tuple[int, ExperimentResult]]:
    """Drive cells of one population (``configs``) in lockstep groups, each
    cell for up to T rounds with early stopping on its validation loss.

    A group is the cells that share one sampling draw: they differ only in
    k, and in nu without a budget cap (under a cap the pool follows the
    composed leakage, which nu sets).  Groups run one after another, in the
    order of their first cell.  A group's round is one ``server_round`` and
    one validation pass for its running cells, whose results do not depend
    on the group.  Yields ``(c, result)`` for ``configs[c]`` when that cell
    stops, and drops it.  A round that overflows or diverges is rerun whole
    by each running cell alone, on the group's pool and a scratch ledger;
    ``Diverged`` names the first cell that fails (else the group's first).

    Every ``validation_every`` rounds the validation clients are scored at
    their per-client best hypothesis; a cell stops after
    ``validation_patience`` consecutive evaluations without a strict
    round-over-round improvement, before a round in which the budget cap
    leaves fewer than U eligible clients, or after round T - 1; its model is
    the hypothesis set of the best evaluation, not of the last round.
    """
    groups: dict[FederationConfig, list[int]] = {}
    for c, cell in enumerate(configs):
        groups.setdefault(replace(cell, k=1, nu=cell.nu if cell.budget_cap else 0.0), []).append(c)
    if len(groups) > 1:
        for cells in groups.values():
            for at, result in run_experiments(train, validation, spec, [configs[c] for c in cells]):
                yield cells[at], result
        return
    config = configs[0]
    if config.U > len(train):
        raise ValueError(f"U={config.U} exceeds the {len(train)} training clients")
    # Ids become positions here; the ledger maps them back when it is read.
    ids = sorted(train)
    table = ClientTable.from_batches(spec, [train[cid] for cid in ids])
    val_table = None
    if validation:
        val_table = ClientTable.from_batches(spec, [validation[cid] for cid in sorted(validation)])
    streams = RoundStreams(config.master_seed, len(ids), config.T)

    cells, group = list(range(len(configs))), list(configs)  # the running cells
    ledgers = [PrivacyLedger(ids) for _ in group]
    # Each cell starts from the first k draws of the group's one hypotheses stream.
    rng_hyp = substream(config.master_seed, "hypotheses")
    initial = np.stack([init_params(spec, rng_hyp) for _ in range(max(cell.k for cell in group))])
    vectors = np.concatenate([initial[:cell.k] for cell in group])
    best, rows = vectors.copy(), _offsets(group)  # the best hypotheses; each cell's rows
    # By running cell: best loss, its round (-1: none yet), last loss, evaluations since it fell.
    best_loss, previous = np.full(len(group), math.inf), np.full(len(group), math.inf)
    best_round, stale = np.full(len(group), -1), np.zeros(len(group), dtype=int)
    columns = History(*(np.full((1, n), np.nan) for n in (len(group), len(group), len(vectors))))
    t = 0  # the next round
    while cells:
        if t == config.T or len(pool := _eligible(ledgers[0], spec, config)) < config.U:
            stops = np.ones(len(cells), dtype=bool)
        else:
            validated = val_table if (t + 1) % config.validation_every == 0 else None
            try:
                new, train_loss = server_round(table, pool, vectors, spec, group, ledgers, t,
                                               streams)
                norms, losses = _evaluate(new, group, spec, validated, t)
            except FloatingPointError as exc:
                for c, cell in enumerate(group):
                    try:
                        alone, _ = server_round(table, pool, vectors[rows[c]:rows[c + 1]], spec,
                                                [cell], [PrivacyLedger(ids)], t, streams)
                        _evaluate(alone, [cell], spec, validated, t)
                    except FloatingPointError as failure:
                        raise Diverged(str(failure), cell) from None
                raise Diverged(str(exc), group[0]) from None
            vectors = new
            if t == len(columns.train_loss):  # doubled as needed: T may be far off
                columns = History(*(np.concatenate([c, np.full_like(c, np.nan)]) for c in columns))
            columns.train_loss[t], columns.hypothesis_norms[t] = train_loss, norms
            if losses is not None:
                columns.validation_loss[t] = losses
                improved = losses < best_loss
                if np.count_nonzero(improved):  # a C call; .any() goes through Python
                    best_loss, best_round[improved] = np.where(improved, losses, best_loss), t
                    at = np.repeat(improved, np.diff(rows))
                    best[at] = vectors[at]
                # Convergence means no round-over-round decrease anymore; a noisy
                # but still-descending loss sequence must not trigger the stop.
                stale, previous = np.where(losses < previous, 0, stale + 1), losses
            t += 1
            stops = stale >= config.validation_patience  # one value per group
        if not np.count_nonzero(stops):
            continue
        for i in np.flatnonzero(stops).tolist():
            a, b, found = rows[i], rows[i + 1], best_round[i] >= 0
            yield cells[i], ExperimentResult(
                HypothesisSet(best[a:b] if found else vectors[a:b]), HypothesisSet(vectors[a:b]),
                float(best_loss[i]), int(best_round[i]) if found else None,
                History(columns.train_loss[:t, i].copy(), columns.validation_loss[:t, i].copy(),
                        columns.hypothesis_norms[:t, a:b].copy()),
                ledgers[i],
            )
        keep, kept_rows = ~stops, np.repeat(~stops, np.diff(rows))
        cells, group, ledgers = (list(compress(seq, keep)) for seq in (cells, group, ledgers))
        vectors, best, rows = vectors[kept_rows], best[kept_rows], _offsets(group)
        columns = History(columns.train_loss[:, keep], columns.validation_loss[:, keep],
                          columns.hypothesis_norms[:, kept_rows])
        best_loss, best_round, previous, stale = (
            state[keep] for state in (best_loss, best_round, previous, stale))


def run_experiment(
    train: Mapping[Hashable, Batch],
    validation: Mapping[Hashable, Batch],
    spec: ModelSpec,
    config: FederationConfig,
) -> ExperimentResult:
    """The group of one cell: ``run_experiments`` for ``config`` alone."""
    ((_, result),) = run_experiments(train, validation, spec, [config])
    return result
