"""Round orchestration: sampling, local training, sanitization, clustering
and model averaging, with validation-based early stopping.

Each round the simulated server samples clients, broadcasts the current
hypothesis vectors, and receives back one full sanitized parameter vector per
client.  Only that vector crosses the client boundary: the raw update, the
local dataset size and the client's own idea of its cluster never do.  The
server groups the received vectors with k-means seeded at the hypotheses and
averages within groups.

The sampled clients' steps run as one stacked computation (selection, local
SGD, training loss), in ascending client-id order; sanitization runs per
client on the client's own stream.  No operation mixes two clients' rows,
so each client's release is bit-identical to the one it makes when stepped
alone: the outcome does not depend on which clients share a round.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Mapping

import numpy as np

from .accounting import _REL_TOL, RADIUS_FLOOR, PrivacyLedger, _fmt, heuristic_epsilon
from .clustering import kmeans_from_hypotheses
from .mechanism import NoiseScale, sanitize
from .models import (
    Batch,
    ModelSpec,
    client_losses,
    init_params,
    local_updates,
    loss_matrix,
    n_params,
)
from .rng import substream

__all__ = [
    "FederationConfig",
    "HypothesisSet",
    "RoundMetrics",
    "ClientStepResult",
    "ExperimentResult",
    "client_step",
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
        if not self.s > 0:
            raise ValueError("s must be positive")
        if self.B_s < 1:
            raise ValueError("B_s must be >= 1")
        if self.nu < 0:
            raise ValueError("nu must be >= 0")
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
    round_index: int = 0

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be a (k, n) array")

    @property
    def k(self) -> int:
        return len(self.vectors)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def copy(self) -> "HypothesisSet":
        return HypothesisSet(self.vectors.copy(), self.round_index)


@dataclass(frozen=True)
class ClientStepResult:
    chosen: int
    sanitized: np.ndarray
    epsilon: float
    radius: float
    leakage: float
    train_loss: float


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


def client_step(
    spec: ModelSpec,
    dataset: Batch,
    hypotheses: HypothesisSet,
    config: FederationConfig,
    rng: np.random.Generator,
) -> ClientStepResult:
    """Select, train and release: the client-side half of one round.

    The client picks the hypothesis with the lowest loss on its full local
    dataset (ties to the lowest index), trains it locally, and releases the
    full updated vector perturbed by noise calibrated to the update norm.
    With nu = 0 the updated vector is released as-is and the leakage is
    recorded as infinite.  This is the one-client case of ``_client_steps``.
    """
    return _client_steps(spec, [dataset], hypotheses, config, [rng])[0]


def _client_steps(
    spec: ModelSpec,
    datasets: list[Batch],
    hypotheses: HypothesisSet,
    config: FederationConfig,
    rngs: list[np.random.Generator],
) -> list[ClientStepResult]:
    """``client_step`` for several clients at once, one result per client.

    Selection, local SGD and the training loss each run once for the whole
    stack; the update norm, epsilon and the noise draw run per client, the
    noise from the client's own stream after its SGD permutations.
    """
    chosen = np.argmin(loss_matrix(spec, hypotheses.vectors, datasets), axis=1)
    received = hypotheses.vectors[chosen]
    updated = local_updates(spec, received, datasets, config.s, config.E, config.B_s, rngs)
    train_losses = client_losses(spec, updated, datasets)
    dim = n_params(spec)

    results = []
    for i, rng in enumerate(rngs):
        update_norm = float(np.linalg.norm(updated[i] - received[i]))
        if config.nu == 0:
            sanitized = updated[i]
            epsilon = math.inf
            radius = update_norm
            leakage = math.inf
        else:
            radius = update_norm if update_norm > 0 else RADIUS_FLOOR
            epsilon = heuristic_epsilon(radius, dim, config.nu)
            sanitized = sanitize(updated[i], NoiseScale(epsilon, dim), rng)
            # One division, not epsilon*radius: keeps the recorded cost exact.
            leakage = dim / config.nu
        results.append(
            ClientStepResult(
                chosen=int(chosen[i]),
                sanitized=sanitized,
                epsilon=epsilon,
                radius=radius,
                leakage=leakage,
                train_loss=float(train_losses[i]),
            )
        )
    return results


def _eligible_ids(
    clients: Mapping[Hashable, Batch],
    spec: ModelSpec,
    config: FederationConfig,
    ledger: PrivacyLedger,
) -> list[Hashable]:
    """Clients that can afford one more release under the budget cap."""
    ids = sorted(clients)
    if config.budget_cap is None:
        return ids
    cost = n_params(spec) / config.nu  # a cap requires nu > 0
    # The tolerance lets a cap of m releases admit all m despite float drift.
    cap = config.budget_cap * (1 + _REL_TOL)
    return [cid for cid in ids if ledger.composed_leakage(cid) + cost <= cap]


def server_round(
    clients: Mapping[Hashable, Batch],
    hypotheses: HypothesisSet,
    spec: ModelSpec,
    config: FederationConfig,
    ledger: PrivacyLedger,
    round_index: int,
    client_indices: Mapping[Hashable, int],
) -> tuple[HypothesisSet, float]:
    """One full round: sample, collect sanitized vectors, cluster, average.

    Returns the new hypotheses and the sampled clients' mean training loss.
    Who was sampled and which cluster each release was aggregated into is
    recorded in ``ledger`` as the round's events; the cluster a client chose
    for itself is never kept.  Raises RuntimeError when fewer than U clients
    are eligible under the budget cap.
    """
    pool = _eligible_ids(clients, spec, config, ledger)
    if len(pool) < config.U:
        raise RuntimeError(
            f"round {round_index}: only {len(pool)} eligible clients, need U={config.U}"
        )
    rng_sampling = substream(config.master_seed, "sampling", round_index=round_index)
    picked = rng_sampling.choice(len(pool), size=config.U, replace=False)
    sampled = sorted(pool[i] for i in picked)

    rngs = [
        substream(
            config.master_seed, "client", client_index=client_indices[cid], round_index=round_index
        )
        for cid in sampled
    ]
    datasets = [clients[cid] for cid in sampled]
    steps = _client_steps(spec, datasets, hypotheses, config, rngs)

    released = np.stack([res.sanitized for res in steps])
    grouping = kmeans_from_hypotheses(list(zip(sampled, released)), hypotheses.vectors)
    labels = np.array([grouping.assignment[cid] for cid in sampled])

    new_vectors = hypotheses.vectors.copy()
    for j in range(config.k):
        members = labels == j
        if members.any():
            new_vectors[j] = released[members].mean(axis=0)

    for cid, res, label in zip(sampled, steps, labels):
        ledger.record_participation(
            client_id=cid,
            round=round_index,
            epsilon=res.epsilon,
            radius=res.radius,
            cluster_id=int(label),
            leakage=res.leakage,
        )

    mean_train_loss = float(np.mean([res.train_loss for res in steps]))
    return HypothesisSet(new_vectors, round_index + 1), mean_train_loss


def _validation_loss(
    validation: Mapping[Hashable, Batch],
    hypotheses: HypothesisSet,
    spec: ModelSpec,
) -> float:
    """Mean over validation clients of the loss at their best-fitting
    hypothesis; with personalization there is no single global model."""
    batches = [validation[cid] for cid in sorted(validation)]
    per_client = loss_matrix(spec, hypotheses.vectors, batches).min(axis=1)
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
    client_indices = {cid: i for i, cid in enumerate(sorted(train))}

    rng_hyp = substream(config.master_seed, "hypotheses")
    vectors = np.stack([init_params(spec, rng_hyp) for _ in range(config.k)])
    hypotheses = HypothesisSet(vectors, 0)

    ledger = PrivacyLedger()
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
        if len(_eligible_ids(train, spec, config, ledger)) < config.U:
            break
        hypotheses, mean_train_loss = server_round(
            train, hypotheses, spec, config, ledger, t, client_indices
        )

        val_loss: float | None = None
        if validation and (t + 1) % config.validation_every == 0:
            val_loss = _validation_loss(validation, hypotheses, spec)
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
                hypothesis_norms=[float(np.linalg.norm(v)) for v in hypotheses.vectors],
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
        fh.write(f"k={hypotheses.k} n={hypotheses.dimension}\n")
        for vec in hypotheses.vectors:
            fh.write(" ".join(repr(float(v)) for v in vec) + "\n")
