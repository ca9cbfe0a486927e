"""Round orchestration: sampling, local training, sanitization, clustering
and model averaging, with validation-based early stopping.

Each round the simulated server samples clients, broadcasts the current
hypothesis vectors, and receives back one full sanitized parameter vector per
client.  Only that vector crosses the client boundary: the raw update, the
local dataset size and the client's own idea of its cluster never do.  The
server groups the received vectors with k-means seeded at the hypotheses and
averages within groups.

Cells that share one sampling draw (one population and seed; they differ
only in k, and in nu without a budget cap) form a group with its own pool,
streams and ledgers, and all groups of a call run in lockstep.  Each group's
ids map to positions once; one ``models.ClientTable`` holds the groups'
training clients, group by group, and one their validation clients.  A round
samples per group; the sampled clients form one table of blocks, and the
rest of the round is one stacked computation (selection, local SGD,
training loss, release) over a (cells, clients, n) stack in which each cell
reads its group's block, clients in ascending id order.  The state is one
(sum of k, n) array of the running cells' hypotheses, cell by cell.  A
client's rows, permutations and raw noise serve every cell of its group.
k-means (one Lloyd run per k), the ledger record, validation, early
stopping and the history (a column per cell) are shared too; a stopped
cell's result is built once and its rows leave the stack.  Only
``_client_steps`` and validation read a table: the server half of
``server_round`` sees positions, sanitized vectors and the ledgers, never
a dataset size.  No operation mixes two rows, cells or blocks, so each
release and each cell's result is bit-identical to the one it gets alone,
but for two cases: the reported training loss (``models.client_losses``)
may move in the last ulp with the client's round-mates, and in a table of
several blocks one one-row client (U = 1) is no 1-row matmul, so its
selection or validation loss may move by one ulp.  An overflow in local SGD, the
release, k-means or validation stops the stacked round; each running cell
reruns it alone, and ``Diverged`` names the first to fail.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import compress
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
    """The outcome of a round's client steps by cell, then client:
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


class _Cells(tuple):
    """Cells' configs and what a round reads of them, built when they change:
    cell c's rows of the stacked hypotheses, ``rows[c]`` up to ``rows[c + 1]``;
    ``ks`` and the ``k`` all share (else 0); (G, 1) ``nus`` and ``leakage``
    (one division, not epsilon * radius: exact); ``by_k``, each k's cells
    and rows.  Given cells, returns them."""

    def __new__(cls, configs: Sequence[FederationConfig], spec: ModelSpec) -> "_Cells":
        if isinstance(configs, _Cells):
            return configs
        cells = super().__new__(cls, configs)
        cells.ks = np.array([cell.k for cell in cells], dtype=np.intp)
        cells.nus = np.array([[cell.nu] for cell in cells])
        cells.rows, ks = [0, *np.cumsum(cells.ks).tolist()], list(dict.fromkeys(cells.ks.tolist()))
        cells.leakage = np.array([[n_params(spec) / c.nu if c.nu else math.inf] for c in cells])
        cells.k = ks[0] if len(ks) == 1 else 0
        cells.by_k = [(cells.k, slice(None), slice(None))] if cells.k else [
            (k, np.flatnonzero(cells.ks == k), np.flatnonzero(np.repeat(cells.ks, cells.ks) == k))
            for k in ks]
        return cells


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
    spec: ModelSpec, table: ClientTable, blocks: np.ndarray, vectors: np.ndarray,
    configs: Sequence[FederationConfig], rngs: list[np.random.Generator], round_index: int,
) -> _ClientSteps:
    """Select, train and release for the round's clients, ``table``, in
    each cell c (``configs[c]``, with its rows of the stacked ``vectors``,
    see ``_Cells``) on block ``blocks[c]`` of the table.

    In each cell, each client picks the hypothesis with the lowest loss on
    its full local dataset (ties to the lowest index), trains it, and
    releases the updated vector with noise calibrated to the update norm
    (as-is, at infinite leakage, when nu = 0), each step once for the
    (G, U, ...) stack.  A client's stream (``rngs`` by table client) draws
    its SGD permutations, then its raw noise, once for all cells.  A zero
    update norm is floored to ``RADIUS_FLOOR``; an overflow, a division by
    zero or an invalid value, or a non-finite update norm, raises.
    """
    cells, config = _Cells(configs, spec), configs[0]
    with _raising(round_index, "a local update diverged"):
        losses = loss_matrix(spec, vectors, table, np.repeat(blocks, cells.ks))
        rows = cells.rows
        if cells.k:  # one argmin for all cells, over (U, G, k)
            chosen = (losses.reshape(len(losses), -1, cells.k).argmin(axis=2) + rows[:-1]).T
        else:
            chosen = np.stack([np.argmin(losses[:, a:b], 1) + a for a, b in zip(rows, rows[1:])])
        received = vectors[chosen]
        updated = local_updates(spec, received, table, config.s, config.E, config.B_s, rngs,
                                blocks)
        train_losses = client_losses(spec, updated, table, blocks)
        norms = _row_norms(updated - received)
    if not np.isfinite(norms).all():
        raise FloatingPointError(f"round {round_index}: a local update diverged (non-finite norm)")
    dim, nus = n_params(spec), cells.nus
    radius = np.where((norms == 0) & (nus > 0), RADIUS_FLOOR, norms)
    epsilon, released = np.full(norms.shape, math.inf), updated
    if nus.any():  # the noisy cells' rows, or whole arrays when every cell is noisy
        noisy = slice(None) if nus.all() else np.flatnonzero(nus)
        with _raising(round_index, "a release overflowed"):
            epsilon[noisy] = heuristic_epsilons(radius[noisy], dim, nus[noisy])
            released[noisy] = sanitize_rows(released[noisy], epsilon[noisy], rngs, blocks[noisy])
    return _ClientSteps(released, epsilon, radius, cells.leakage, train_losses)


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
    draws: Sequence[tuple[np.ndarray, int, RoundStreams]],
    blocks: np.ndarray,
    vectors: np.ndarray,
    spec: ModelSpec,
    configs: Sequence[FederationConfig],
    ledgers: Sequence[PrivacyLedger],
    round_index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One full round of each cell c (``configs[c]``, ``ledgers[c]``, its
    rows of the stacked ``vectors``) of group ``draws[blocks[c]]``: each
    group's ``(pool, base, streams)`` samples U of its eligible positions
    (clients ``base`` on of ``table``); then collect sanitized vectors,
    cluster, average.  Returns the new hypotheses, stacked as ``vectors``,
    and the (G,) sampled clients' mean training loss.  Who was sampled and
    which cluster each release was aggregated into is recorded in the cell's
    ledger as one round of rows; the cluster a client chose for itself is
    never kept.  Raises RuntimeError when a pool holds fewer than U clients,
    and a FloatingPointError naming the round and the step when the round
    overflows or diverges; then nothing is recorded.
    """
    U, sampled, rngs = configs[0].U, [], []
    for pool, _, streams in draws:
        if len(pool) < U:
            raise RuntimeError(
                f"round {round_index}: only {len(pool)} eligible clients, need U={U}")
        picked = streams.sampling(round_index).choice(len(pool), size=U, replace=False)
        sampled.append(np.sort(pool[picked]))
        rngs += streams.clients(round_index, sampled[-1].tolist())
    sampled = np.array(sampled)  # (groups, U): positions in each group's population
    local = table.take(sampled + np.array([[base] for _, base, _ in draws]))
    configs = _Cells(configs, spec)
    steps = _client_steps(spec, local, blocks, vectors, configs, rngs, round_index)
    labels, means = np.empty(steps.epsilon.shape, dtype=np.intp), np.empty_like(vectors)
    with _raising(round_index, "a release overflowed"):
        for k, cells, at in configs.by_k:
            points = steps.sanitized[cells]
            fit = lloyd(points, vectors[at].reshape(len(points), k, -1))
            labels[cells], means[at] = fit.labels, fit.means.reshape(-1, vectors.shape[1])
    record_rounds(ledgers, round_index, sampled[blocks], steps.epsilon, steps.radius, labels,
                  steps.leakage)
    return means, steps.train_loss.mean(axis=1)


def _validation_loss(losses: np.ndarray, starts: Sequence[int]) -> np.ndarray:
    """Each cell's mean over validation clients of the loss at their best-fitting
    hypothesis (no single global model exists); cell c's columns start at
    ``starts[c]``.  A cell's minima are one contiguous row, summed as alone."""
    best = np.ascontiguousarray(np.minimum.reduceat(losses, starts, axis=1).T)
    return best.mean(axis=1)


def _evaluate(
    vectors: np.ndarray, configs: Sequence[FederationConfig], spec: ModelSpec,
    table: ClientTable | None, blocks: np.ndarray, round_index: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The norm of each stacked hypothesis and, given a validation ``table``,
    each cell's ``_validation_loss`` on its block ``blocks[c]``; an overflow
    raises."""
    with _raising(round_index, "a hypothesis overflowed"):
        norms = _row_norms(vectors)
        if table is None:
            return norms, None
        cells = _Cells(configs, spec)
        losses = loss_matrix(spec, vectors, table, np.repeat(blocks, cells.ks))
        return norms, _validation_loss(losses, cells.rows[:-1])


def run_experiments(
    views: Sequence[tuple[Mapping[Hashable, Batch], Mapping[Hashable, Batch]]],
    spec: ModelSpec,
    configs: Sequence[FederationConfig],
) -> Iterator[tuple[int, ExperimentResult]]:
    """Drive cells (``configs[c]`` on ``views[c]``, its training and
    validation clients) in lockstep, each for up to T rounds with early
    stopping on its validation loss.

    A group is the cells that share one sampling draw: one population (the
    same two mappings) and seed, differing only in k, and in nu without a
    budget cap (under a cap the pool follows the composed leakage, which nu
    sets).  A round is one ``server_round`` and one validation pass for
    every running cell; groups that differ in U, E, s, B_s, T, the
    validation settings or the number of validation clients run in separate
    passes.  Yields ``(c, result)`` for ``configs[c]`` when that cell stops.
    A round that overflows or diverges is rerun whole by each running cell
    alone, on its group's pool and streams and a scratch ledger; ``Diverged``
    names the first that fails (else the first running one).

    Every ``validation_every`` rounds the validation clients are scored at
    their per-client best hypothesis; a cell stops after
    ``validation_patience`` consecutive evaluations without a strict
    round-over-round improvement, before a round in which the budget cap
    leaves fewer than U eligible clients, or after round T - 1; its model is
    the hypothesis set of the best evaluation, not of the last round.
    """
    passes: dict[tuple, dict[tuple, list[int]]] = {}
    for c, (cell, (train, validation)) in enumerate(zip(configs, views, strict=True)):
        draw = replace(cell, k=1, nu=cell.nu if cell.budget_cap else 0.0)
        shared = (replace(draw, nu=0.0, budget_cap=None, master_seed=0), len(validation))
        passes.setdefault(shared, {}).setdefault((draw, id(train), id(validation)), []).append(c)
    for groups in passes.values():
        yield from _lockstep(views, spec, configs, list(groups.values()))


def _lockstep(
    views: Sequence[tuple[Mapping[Hashable, Batch], Mapping[Hashable, Batch]]],
    spec: ModelSpec, configs: Sequence[FederationConfig], groups: list[list[int]],
) -> Iterator[tuple[int, ExperimentResult]]:
    """A pass of ``run_experiments``: ``groups[g]`` lists group g's cells."""
    cells = sorted((c, g) for g, members in enumerate(groups) for c in members)
    cells, owner = [c for c, _ in cells], np.array([g for _, g in cells])  # and each one's group
    config, leads = configs[cells[0]], [m[0] for m in groups]
    group = _Cells([configs[c] for c in cells], spec)
    # Each group is one block of both tables; its population's ids become positions here.
    trains, validations = zip(*(views[c] for c in leads))
    ids = [sorted(train) for train in trains]
    if config.U > min(map(len, ids)):
        raise ValueError(f"U={config.U} exceeds the {min(map(len, ids))} training clients")
    table = ClientTable.from_batches(spec, [t[i] for t, cids in zip(trains, ids) for i in cids])
    val_table = None
    if validations[0]:
        batches = [v[i] for v in validations for i in sorted(v)]
        val_table = replace(ClientTable.from_batches(spec, batches), n_blocks=len(leads))
    bases = np.cumsum([0] + [len(cids) for cids in ids]).tolist()
    streams = [RoundStreams(configs[c].master_seed, len(cids), config.T)
               for c, cids in zip(leads, ids)]
    ledgers = [PrivacyLedger(ids[g]) for g in owner.tolist()]
    # Each cell starts from the first k draws of its group's one hypotheses stream.
    rngs = [substream(configs[c].master_seed, "hypotheses") for c in leads]
    most = max(cell.k for cell in group)
    initial = [np.stack([init_params(spec, rng) for _ in range(most)]) for rng in rngs]
    vectors = np.concatenate([initial[g][:cell.k] for cell, g in zip(group, owner.tolist())])
    best = vectors.copy()  # the best hypotheses
    # By running cell: best loss, its round (-1: none yet), last loss, evaluations since it fell.
    best_loss, previous = np.full(len(group), math.inf), np.full(len(group), math.inf)
    best_round, stale = np.full(len(group), -1), np.zeros(len(group), dtype=int)
    columns = History(*(np.full((1, n), np.nan) for n in (len(group), len(group), len(vectors))))
    t, blocks = 0, owner[:0]  # the next round; each running cell's among the running groups
    while cells:
        if len(blocks) != len(cells):  # cells stopped: the running groups and their first cells
            live, first, blocks = np.unique(owner, return_index=True, return_inverse=True)
        pools = [_eligible(ledgers[i], spec, group[i]) for i in first.tolist()]
        short = np.array([len(pool) < config.U for pool in pools])
        if t == config.T or short.any():
            stops = short[blocks] | (t == config.T)
        else:
            draws = [(pool, bases[g], streams[g]) for pool, g in zip(pools, live.tolist())]
            validated = val_table if (t + 1) % config.validation_every == 0 else None
            try:
                new, train_loss = server_round(table, draws, blocks, vectors, spec, group,
                                               ledgers, t)
                norms, losses = _evaluate(new, group, spec, validated, owner, t)
            except FloatingPointError as exc:
                for c, (cell, g) in enumerate(zip(group, owner.tolist())):
                    try:
                        alone, _ = server_round(table, [draws[blocks[c]]], np.zeros(1, np.intp),
                                                vectors[slice(*group.rows[c:c + 2])], spec,
                                                [cell], [PrivacyLedger(ids[g])], t)
                        _evaluate(alone, [cell], spec, validated, owner[c:c + 1], t)
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
                    at = np.repeat(improved, group.ks)
                    best[at] = vectors[at]
                # Convergence means no round-over-round decrease anymore; a noisy
                # but still-descending loss sequence must not trigger the stop.
                stale, previous = np.where(losses < previous, 0, stale + 1), losses
            t += 1
            stops = stale >= config.validation_patience  # one value per pass
        if not np.count_nonzero(stops):
            continue
        for i in np.flatnonzero(stops).tolist():
            a, b, found = group.rows[i], group.rows[i + 1], best_round[i] >= 0
            yield cells[i], ExperimentResult(
                HypothesisSet(best[a:b] if found else vectors[a:b]), HypothesisSet(vectors[a:b]),
                float(best_loss[i]), int(best_round[i]) if found else None,
                History(columns.train_loss[:t, i].copy(), columns.validation_loss[:t, i].copy(),
                        columns.hypothesis_norms[:t, a:b].copy()),
                ledgers[i],
            )
        keep, kept_rows = ~stops, np.repeat(~stops, group.ks)
        cells, group, ledgers = (list(compress(seq, keep)) for seq in (cells, group, ledgers))
        owner, vectors, best = owner[keep], vectors[kept_rows], best[kept_rows]
        group = _Cells(group, spec)
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
    ((_, result),) = run_experiments([(train, validation)], spec, [config])
    return result
