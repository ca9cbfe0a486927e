"""Round orchestration: sampling, local training, sanitization, clustering
and model averaging, with validation-based early stopping.

Each round the simulated server samples clients, broadcasts the current
hypothesis vectors, and receives back one full sanitized parameter vector per
client.  Only that vector crosses the client boundary: the raw update, the
local dataset size and the client's own idea of its cluster never do.  The
server groups the received vectors with k-means seeded at the hypotheses and
averages within groups.

A run maps client ids to positions once and builds one ``models.ClientTable``
(concatenated rows and targets, each client's row offset and size) of the
training clients and one of the validation clients.  Only ``_client_steps``
(one gather per round) and validation read them; the server half of
``server_round`` sees positions, sanitized vectors and the ledger's columns,
never a dataset size.  Ids appear only where the ledger is read and in CSVs.

The sampled clients' steps run as one stacked computation (selection, local
SGD, training loss, release), in ascending client-id order; every random
draw comes from the client's own stream.  No operation mixes two clients'
rows, so each client's release is bit-identical to the one it makes when
stepped alone: the outcome does not depend on which clients share a round.
Only the reported training loss (``models.client_losses``) is exempt: it may
move in the last ulp with the client's round-mates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Mapping

import numpy as np

from .accounting import _REL_TOL, RADIUS_FLOOR, PrivacyLedger, _fmt, heuristic_epsilons
from .clustering import cluster_means, kmeans_from_hypotheses
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
    "server_round",
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


def _client_steps(
    spec: ModelSpec,
    table: ClientTable,
    positions: np.ndarray,
    hypotheses: HypothesisSet,
    config: FederationConfig,
    rngs: list[np.random.Generator],
    round_index: int,
) -> _ClientSteps:
    """Select, train and release for the clients at ``positions`` of
    ``table``, one row per client.

    Each client picks the hypothesis with the lowest loss on its full local
    dataset (ties to the lowest index), trains it, and releases the updated
    vector with noise calibrated to the update norm (as-is, at infinite
    leakage, when nu = 0).  The clients' rows are gathered once; selection,
    local SGD, the training loss and the release each run once for the whole
    stack.  Each client draws its noise from its own stream after its SGD
    permutations.  A zero update norm is floored to ``RADIUS_FLOOR``; an
    overflow or invalid value in training, or a non-finite norm, raises.
    """
    local = table.take(positions)
    chosen = np.argmin(loss_matrix(spec, hypotheses.vectors, local), axis=1)
    received = hypotheses.vectors[chosen]
    try:
        with np.errstate(over="raise", invalid="raise"):
            updated = local_updates(spec, received, local, config.s, config.E, config.B_s, rngs)
            train_losses = client_losses(spec, updated, local)
            # sqrt(d.dot(d)) per row is what np.linalg.norm(d) computes, to the bit.
            update_norms = np.sqrt([d.dot(d) for d in updated - received])
    except FloatingPointError as exc:
        raise FloatingPointError(f"round {round_index}: a local update diverged ({exc})") from None
    if not np.isfinite(update_norms).all():
        raise FloatingPointError(f"round {round_index}: a local update diverged (non-finite norm)")
    if config.nu == 0:
        infinite = np.full(len(rngs), math.inf)
        return _ClientSteps(updated, infinite, update_norms, math.inf, train_losses)
    radii = np.where(update_norms == 0, RADIUS_FLOOR, update_norms)
    dim = n_params(spec)
    epsilons = heuristic_epsilons(radii, dim, config.nu)
    sanitized = sanitize_rows(updated, epsilons, rngs)
    # One division, not epsilon*radius: keeps the recorded cost exact.
    return _ClientSteps(sanitized, epsilons, radii, dim / config.nu, train_losses)


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
    hypotheses: HypothesisSet,
    spec: ModelSpec,
    config: FederationConfig,
    ledger: PrivacyLedger,
    round_index: int,
    streams: RoundStreams,
) -> tuple[HypothesisSet, float]:
    """One full round: sample, collect sanitized vectors, cluster, average.

    ``table`` holds the run's training clients by position, ``pool`` the
    ascending positions eligible this round, and ``streams`` is the run's
    stream table.  Returns the new hypotheses and the sampled clients' mean
    training loss.  Who was sampled and which cluster each release was
    aggregated into is recorded in ``ledger`` as one round of rows; the
    cluster a client chose for itself is never kept.  Raises RuntimeError
    when the pool holds fewer than U clients.
    """
    if len(pool) < config.U:
        raise RuntimeError(
            f"round {round_index}: only {len(pool)} eligible clients, need U={config.U}"
        )
    picked = streams.sampling(round_index).choice(len(pool), size=config.U, replace=False)
    sampled = np.sort(pool[picked])

    rngs = streams.clients(round_index, sampled.tolist())
    steps = _client_steps(spec, table, sampled, hypotheses, config, rngs, round_index)

    released = steps.sanitized
    points = list(zip(sampled.tolist(), released))
    labels = kmeans_from_hypotheses(points, hypotheses.vectors).labels
    # Labels, not k-means' centroids: a cluster Lloyd empties keeps a mean of releases it lost.
    new_vectors = cluster_means(released, labels, hypotheses.vectors)
    ledger.record_round(round_index, sampled, steps.epsilon, steps.radius, labels, steps.leakage)
    return HypothesisSet(new_vectors), float(np.mean(steps.train_loss))


def _validation_loss(table: ClientTable, hypotheses: HypothesisSet, spec: ModelSpec) -> float:
    """Mean over validation clients of the loss at their best-fitting
    hypothesis; with personalization there is no single global model."""
    per_client = loss_matrix(spec, hypotheses.vectors, table).min(axis=1)
    return float(np.mean(per_client))


def run_experiment(
    train: Mapping[Hashable, Batch],
    validation: Mapping[Hashable, Batch],
    spec: ModelSpec,
    config: FederationConfig,
) -> ExperimentResult:
    """Drive up to T rounds with early stopping on the validation loss.

    Every ``validation_every`` rounds the validation clients are scored at
    their per-client best hypothesis; training stops after
    ``validation_patience`` consecutive evaluations without a strict
    round-over-round improvement, or before a round in which the budget cap
    leaves fewer than U eligible clients.  Either way the returned model is
    the hypothesis set of the best evaluation, not the last round.
    """
    if config.U > len(train):
        raise ValueError(f"U={config.U} exceeds the {len(train)} training clients")
    # Ids become positions here; the ledger maps them back when it is read.
    ids = sorted(train)
    table = ClientTable.from_batches(spec, [train[cid] for cid in ids])
    val_table = None
    if validation:
        val_table = ClientTable.from_batches(spec, [validation[cid] for cid in sorted(validation)])
    streams = RoundStreams(config.master_seed, len(ids), config.T)

    rng_hyp = substream(config.master_seed, "hypotheses")
    vectors = np.stack([init_params(spec, rng_hyp) for _ in range(config.k)])
    hypotheses = HypothesisSet(vectors)

    ledger = PrivacyLedger(ids)
    history: list[RoundMetrics] = []
    best = ExperimentResult(
        best_hypotheses=hypotheses.copy(),
        final_hypotheses=hypotheses,
        best_validation_loss=math.inf,
        best_round=None,
        history=history,
        ledger=ledger,
    )

    stale_evaluations = 0
    previous_val = math.inf
    for t in range(config.T):
        pool = _eligible(ledger, spec, config)
        if len(pool) < config.U:
            break
        hypotheses, mean_train_loss = server_round(
            table, pool, hypotheses, spec, config, ledger, t, streams
        )

        val_loss: float | None = None
        if val_table is not None and (t + 1) % config.validation_every == 0:
            val_loss = _validation_loss(val_table, hypotheses, spec)
            if val_loss < best.best_validation_loss:
                best.best_validation_loss = val_loss
                best.best_hypotheses = hypotheses.copy()
                best.best_round = t
            # Convergence means no round-over-round decrease anymore; a noisy
            # but still-descending loss sequence must not trigger the stop.
            if val_loss < previous_val:
                stale_evaluations = 0
            else:
                stale_evaluations += 1
            previous_val = val_loss

        history.append(
            RoundMetrics(
                round=t,
                mean_train_loss=mean_train_loss,
                validation_loss=val_loss,
                # sqrt(v.dot(v)) is np.linalg.norm(v) to the bit, without its overhead.
                hypothesis_norms=np.sqrt([v.dot(v) for v in hypotheses.vectors]).tolist(),
            )
        )
        if stale_evaluations >= config.validation_patience:
            break

    best.final_hypotheses = hypotheses
    if best.best_round is None:
        # No evaluation ever ran (T=0 or no validation clients).
        best.best_hypotheses = hypotheses.copy()
    return best


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
