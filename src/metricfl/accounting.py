"""Per-client privacy-leakage bookkeeping.

Each release of a sanitized parameter vector costs the releasing client
``epsilon * radius`` in pure differential-privacy terms with respect to the
ball of that radius around its update.  Choosing
``epsilon = n / (noise_multiplier * radius)`` makes the per-release cost the
constant ``n / noise_multiplier`` whatever the update norm was.  Independent
releases compose additively, so a ledger holding one row per release (round,
client, cluster, epsilon, radius, leakage), kept as columns, is a complete
account of each client's exposure.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "RADIUS_FLOOR",
    "heuristic_epsilon",
    "heuristic_epsilons",
    "PrivacyLedger",
    "record_rounds",
    "LedgerSummary",
    "ledger_summary",
    "write_ledger_csv",
]

# Substituted for a zero update norm: the guarantee is stated for the ball of
# radius r, and a vanishing ball still costs the nominal per-round budget.
RADIUS_FLOOR = 1e-9

_REL_TOL = 1e-12

_INT64_MAX = np.iinfo(np.int64).max


def heuristic_epsilons(
    update_norms: np.ndarray, dimension: int, noise_multiplier: float | np.ndarray
) -> np.ndarray:
    """epsilon_i = n / (noise_multiplier * update_norms[i]) for a stack of updates.

    With this choice every release costs exactly n / noise_multiplier within
    its own neighborhood, independent of the realized update norm.
    """
    if np.any(np.asarray(noise_multiplier) <= 0):
        raise ValueError("noise_multiplier must be positive")
    update_norms = np.asarray(update_norms, dtype=float)
    if not np.all(np.isfinite(update_norms)):
        raise ValueError("update_norm must be finite: a diverged update has no radius")
    if np.any(update_norms < 0):
        raise ValueError("update_norm must be nonnegative")
    if np.any(update_norms == 0):
        raise ValueError("zero-norm update: epsilon would be infinite")
    return dimension / (noise_multiplier * update_norms)


def heuristic_epsilon(update_norm: float, dimension: int, noise_multiplier: float) -> float:
    """The one-update case of ``heuristic_epsilons``."""
    return float(heuristic_epsilons(np.array([update_norm]), dimension, noise_multiplier)[0])


def _check_events(round: int, clusters: np.ndarray, epsilon: np.ndarray, radius: np.ndarray,
                  leakage: np.ndarray) -> None:
    """Reject rows that no release can have: a round or a cluster that is not
    a nonnegative int64, a negative radius, a finite epsilon that is not
    positive or whose leakage is not ``math.isclose`` to epsilon * radius at
    ``_REL_TOL``, or a non-finite one at finite leakage."""
    if not isinstance(round, (int, np.integer)) or not 0 <= round <= _INT64_MAX:
        raise ValueError(f"round must be a nonnegative integer, got {round!r}")
    if clusters.dtype.kind not in "iu" or not ((clusters >= 0) & (clusters <= _INT64_MAX)).all():
        raise ValueError(f"clusters must be nonnegative integers, got {clusters.ravel()!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        expected = epsilon * radius
        gap = abs(leakage - expected)
        # expected is >= 0 or NaN, so max() stands in for isclose's max of abs().
        tolerance = np.maximum(_REL_TOL * np.maximum(leakage, expected), 1e-300)
        close = (leakage == expected) | (np.isfinite(gap) & (gap <= tolerance))
        finite = np.isfinite(epsilon)
        # ~(radius < 0), not radius >= 0: a NaN radius is judged by the cost.
        valid = ~(radius < 0) & np.where(finite, (epsilon > 0) & close, np.isinf(leakage))
    if not valid.all():
        i = int(np.argmin(valid))
        raise ValueError(
            f"round {round}, row {i}: a release at epsilon {float(epsilon[i])!r} and radius "
            f"{float(radius[i])!r} cannot cost {float(leakage[i])!r}"
        )


class _Columns(NamedTuple):
    """Ledger rows as columns; ``composed`` is the client's total after its row.

    ``cluster`` is the server-side cluster the release was aggregated into;
    it is bookkeeping for summaries, not part of the guarantee.
    """

    round: np.ndarray
    position: np.ndarray
    cluster: np.ndarray
    epsilon: np.ndarray
    radius: np.ndarray
    leakage: np.ndarray
    composed: np.ndarray


class PrivacyLedger:
    """Per-client record of releases and their running sums, as columns.

    Clients are held by position: ``client_ids`` (a run passes its sorted
    training ids) take the first ones, and ``record_participation`` appends
    an id it has not seen; ids appear again only where rows are read.  The
    rows are columns that grow by doubling; each recorded round is a chunk
    of them whose round is kept once.  Composed leakage is one vector by
    position, grown by one ``+=`` per round, so each client's sum keeps its
    order.  Single writer.
    """

    def __init__(self, client_ids: Sequence[Hashable] = ()) -> None:
        self._ids = list(client_ids)
        self._position = {cid: i for i, cid in enumerate(self._ids)}
        if len(self._position) != len(self._ids):
            raise ValueError("duplicate client ids")
        self._composed = np.zeros(len(self._ids))
        # Columns but the round, kept per chunk with its first row: _n rows, _m chunks.
        self._rows = (np.empty(0, np.intp), np.empty(0, np.int64), *np.empty((4, 0)))
        self._chunks, self._n, self._m, self._last = np.empty((0, 2), np.int64), 0, 0, -1

    def record_participation(
        self,
        client_id: Hashable,
        round: int,
        epsilon: float,
        radius: float,
        cluster_id: int,
        leakage: float | None = None,
    ) -> None:
        """Append one row: the one-row case of ``record_rounds``.

        ``leakage`` defaults to epsilon * radius.  Callers using the
        heuristic pass the algebraically cancelled n / noise_multiplier so
        the recorded cost is exact.  A rejected call leaves the ledger as
        it was.
        """
        if leakage is None:
            leakage = epsilon * radius
        clusters = np.array([cluster_id])
        values = np.array([[epsilon], [radius], [leakage]], dtype=float)
        _check_events(round, clusters, *values)
        if client_id not in self._position:
            self._position[client_id] = len(self._ids)
            self._ids.append(client_id)
            self._composed = np.append(self._composed, 0.0)
        positions = np.array([self._position[client_id]])
        self._check_room(round, positions)
        self._append(round, positions, clusters.astype(np.int64), *values)

    def _check_room(self, round: int, positions: np.ndarray) -> None:
        """Reject ascending positions out of range or with a row in ``round``."""
        if positions[0] < 0 or positions[-1] >= len(self._ids):
            raise ValueError(f"client positions must lie in [0, {len(self._ids)})")
        if round > self._last:  # past every recorded round
            return
        held, rows = np.zeros(len(self._ids), dtype=bool), self._columns(sort=False)
        held[rows.position[rows.round == round]] = True
        if len(again := positions[held[positions]]):
            cid = self._ids[int(again[0])]
            raise ValueError(f"client {cid!r} already has a row for round {round}")

    def _append(self, round, positions, clusters, epsilon, radius, leakage) -> None:
        """Append rows whose values and positions passed the checks."""
        start, end = self._n, self._n + len(positions)
        if end > len(self._rows[0]):
            size = max(2 * len(self._rows[0]), end)
            self._rows = tuple(np.concatenate([c, np.empty(size - len(c), c.dtype)])
                               for c in self._rows)
        if self._m == len(self._chunks):
            self._chunks = np.concatenate([self._chunks, np.empty((self._m + 1, 2), np.int64)])
        self._composed[positions] += leakage
        values = (positions, clusters, epsilon, radius, leakage, self._composed[positions])
        for column, value in zip(self._rows, values):
            column[start:end] = value
        self._chunks[self._m] = round, start
        self._n, self._m, self._last = end, self._m + 1, max(self._last, round)

    @property
    def composed(self) -> np.ndarray:
        """Composed leakage per client position; callers must not write to it."""
        return self._composed

    def clients(self) -> list[Hashable]:
        """Ids of the clients with at least one row, sorted."""
        held = np.bincount(self._columns().position, minlength=len(self._ids)) > 0
        return sorted(self._ids[p] for p in np.flatnonzero(held).tolist())

    def composed_leakage(self, client_id: Hashable) -> float:
        position = self._position.get(client_id)
        return 0.0 if position is None else float(self._composed[position])

    def __len__(self) -> int:
        return self._n

    def _columns(self, sort: bool = True) -> _Columns:
        """All rows in (round, client id) order (or, without ``sort``, as
        recorded), ``composed`` being the running total in that order.  Rows
        recorded in that order, as a run records them, are views, not sorted."""
        chunks = self._chunks[: self._m]
        rounds = np.repeat(chunks[:, 0], np.diff(chunks[:, 1], append=self._n))
        rows = _Columns(rounds, *(column[: self._n] for column in self._rows))
        if not sort:
            return rows
        rank = np.empty(len(self._ids), dtype=np.int64)
        rank[sorted(range(len(self._ids)), key=self._ids.__getitem__)] = range(len(self._ids))
        ranks, step = rank[rows.position], np.diff(rows.round)  # no wrap: rounds are >= 0
        if ((step > 0) | (step == 0) & (np.diff(ranks) > 0)).all():
            return rows
        rows = _Columns(*(column[np.lexsort((ranks, rows.round))] for column in rows))
        running = np.zeros(len(self._ids))
        for i, (p, amount) in enumerate(zip(rows.position.tolist(), rows.leakage.tolist())):
            running[p] += amount
            rows.composed[i] = running[p]
        return rows


def record_rounds(
    ledgers: Sequence[PrivacyLedger], round: int, positions: Sequence[int] | np.ndarray,
    epsilon: np.ndarray, radius: np.ndarray, clusters: np.ndarray, leakage: np.ndarray,
) -> None:
    """Append row c of the (G, U) ``epsilon``, ``radius``, ``clusters`` and
    ``leakage`` (a (G, 1) column is one cost per ledger) to the distinct
    ``ledgers[c]``, column i for the client at ascending ``positions[c, i]``
    (or ``positions[i]``).  The values are checked by ``_check_events`` in
    one pass, and every ledger's positions before any is appended to: a
    rejected call leaves every ledger as it was."""
    epsilon, radius = np.array(epsilon, dtype=float), np.array(radius, dtype=float)
    clusters, positions = np.asarray(clusters), np.array(positions, dtype=np.intp)
    if not (epsilon.shape == radius.shape == clusters.shape == (len(ledgers), positions.shape[-1])
            and positions.shape in (epsilon.shape, epsilon.shape[1:])):
        raise ValueError("need one row of values per ledger and one column per position")
    leakage = np.full(epsilon.shape, leakage, dtype=float)
    _check_events(round, clusters, epsilon.ravel(), radius.ravel(), leakage.ravel())
    if not positions.shape[-1] or (positions[..., 1:] <= positions[..., :-1]).any():
        raise ValueError("a round's client positions must be nonempty and ascend")
    if positions.ndim == 1:
        positions = [positions] * len(ledgers)
    for ledger, held in zip(ledgers, positions):
        ledger._check_room(round, held)
    for ledger, *rows in zip(ledgers, positions, clusters.astype(np.int64), epsilon, radius,
                             leakage):
        ledger._append(round, *rows)


@dataclass
class ClusterBudget:
    median: float
    maximum: float


@dataclass
class LedgerSummary:
    """Median/max composed leakage over the clients with rows, and each
    cluster's running max for plotting: at round t, the largest composed
    leakage any client held right after a release aggregated into c, over
    rounds 0..t (0.0 before c's first release).  It never decreases, also
    when clients move between clusters.  ``peaks[c][i + 1]`` is c's at
    ``rounds[i]`` (after a leading 0.0), the rounds with rows; clusters
    without a release are absent.  ``max_leakage`` reads it at any round.
    """

    overall: ClusterBudget | None
    rounds: list[int] = field(default_factory=list)
    peaks: dict[int, list[float]] = field(default_factory=dict)

    def max_leakage(self, clusters: Sequence[int], rounds: Sequence[int]) -> np.ndarray:
        """Row i: cluster ``clusters[i]``'s running max at each of ``rounds``
        (0.0 throughout for a cluster without a release), one searchsorted."""
        at = np.searchsorted(np.array(self.rounds, dtype=np.int64), rounds, side="right")
        zero = [0.0] * (len(self.rounds) + 1)
        return np.array([self.peaks.get(c, zero) for c in clusters]).reshape(-1, len(zero))[:, at]

    @property
    def max_trajectory(self) -> dict[int, list[float]]:
        """Each cluster's series at every round 0..last round: one float per round."""
        everything = range(self.rounds[-1] + 1 if self.rounds else 0)
        return dict(zip(self.peaks, self.max_leakage(list(self.peaks), everything).tolist()))


def ledger_summary(ledger: PrivacyLedger) -> LedgerSummary:
    """Summarize a ledger (its size follows the rows, not the last round);
    empty ledgers give an empty summary."""
    rows = ledger._columns()
    if not len(rows.round):
        return LedgerSummary(overall=None)
    # bincount, not np.unique, which imports numpy.ma (1.2 MB) on first use.
    held = np.bincount(rows.position, minlength=len(ledger.composed)) > 0
    composed = ledger.composed[held].tolist()
    overall = ClusterBudget(median=statistics.median(composed), maximum=max(composed))
    clusters, index = np.unique(rows.cluster, return_inverse=True)
    rounds, at = np.unique(rows.round, return_inverse=True)
    peaks = np.zeros((len(clusters), len(rounds) + 1))
    np.maximum.at(peaks, (index, at + 1), rows.composed)
    series = np.maximum.accumulate(peaks, axis=1).tolist()
    return LedgerSummary(overall, rounds.tolist(), dict(zip(clusters.tolist(), series)))


def write_ledger_csv(ledger: PrivacyLedger, path: str | Path) -> None:
    """One row per release, chronological, with the running composed total."""
    rows = ledger._columns()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["client_id", "cluster_id", "round", "epsilon", "radius", "leakage", "composed_leakage"]
        )
        writer.writerows(
            zip(
                [ledger._ids[p] for p in rows.position.tolist()],
                rows.cluster.tolist(),
                rows.round.tolist(),
                *(map(repr, column.tolist()) for column in rows[3:]),
            )
        )
