"""Per-client privacy-leakage bookkeeping.

Each release of a sanitized parameter vector costs the releasing client
``epsilon * radius`` in pure differential-privacy terms with respect to the
ball of that radius around its update.  Choosing
``epsilon = n / (noise_multiplier * radius)`` makes the per-release cost the
constant ``n / noise_multiplier`` whatever the update norm was.  Independent
releases compose additively, so a ledger of events per client is a complete
account of its exposure.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Any, Hashable, Iterator

import numpy as np

__all__ = [
    "RADIUS_FLOOR",
    "heuristic_epsilon",
    "heuristic_epsilons",
    "LeakageEvent",
    "PrivacyLedger",
    "LedgerSummary",
    "ledger_summary",
    "max_leakage_series",
    "write_ledger_csv",
]

# Substituted for a zero update norm: the guarantee is stated for the ball of
# radius r, and a vanishing ball still costs the nominal per-round budget.
RADIUS_FLOOR = 1e-9

_REL_TOL = 1e-12


def heuristic_epsilons(
    update_norms: np.ndarray, dimension: int, noise_multiplier: float
) -> np.ndarray:
    """epsilon_i = n / (noise_multiplier * update_norms[i]) for a stack of updates.

    With this choice every release costs exactly n / noise_multiplier within
    its own neighborhood, independent of the realized update norm.
    """
    if noise_multiplier <= 0:
        raise ValueError("noise_multiplier must be positive")
    update_norms = np.asarray(update_norms, dtype=float)
    if np.any(update_norms < 0):
        raise ValueError("update_norm must be nonnegative")
    if np.any(update_norms == 0):
        raise ValueError("zero-norm update: epsilon would be infinite")
    return dimension / (noise_multiplier * update_norms)


def heuristic_epsilon(update_norm: float, dimension: int, noise_multiplier: float) -> float:
    """The one-update case of ``heuristic_epsilons``."""
    return float(heuristic_epsilons(np.array([update_norm]), dimension, noise_multiplier)[0])


@dataclass(frozen=True)
class LeakageEvent:
    """One participation: the released vector's epsilon, radius and cost.

    ``cluster_id`` is the server-side cluster the release was aggregated
    into; it is bookkeeping for summaries, not part of the guarantee.
    """

    round: int
    epsilon: float
    radius: float
    leakage: float
    cluster_id: int | None = None

    def __post_init__(self) -> None:
        if self.round < 0:
            raise ValueError("round must be nonnegative")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if math.isfinite(self.epsilon):
            if self.epsilon <= 0:
                raise ValueError("epsilon must be positive")
            expected = self.epsilon * self.radius
            if not math.isclose(self.leakage, expected, rel_tol=_REL_TOL, abs_tol=1e-300):
                raise ValueError(
                    f"leakage {self.leakage} inconsistent with epsilon*radius {expected}"
                )
        elif not math.isinf(self.leakage):
            raise ValueError("infinite epsilon requires infinite leakage")


class PrivacyLedger:
    """Ordered per-client record of leakage events and their running sum.

    Single writer; the federation loop serializes writes at round end.
    """

    def __init__(self) -> None:
        self._events: dict[Hashable, list[LeakageEvent]] = {}
        self._rounds: dict[Hashable, set[int]] = {}
        self._composed: dict[Hashable, float] = {}

    def record_participation(
        self,
        client_id: Hashable,
        round: int,
        epsilon: float,
        radius: float,
        cluster_id: int | None = None,
        leakage: float | None = None,
    ) -> LeakageEvent:
        """Append one event; the composed total grows by its leakage.

        ``leakage`` defaults to epsilon * radius.  Callers using the
        heuristic pass the algebraically cancelled n / noise_multiplier so
        the recorded cost is exact.  A rejected call leaves the ledger as
        it was.
        """
        if round in self._rounds.get(client_id, ()):
            raise ValueError(f"client {client_id!r} already has an event for round {round}")
        if leakage is None:
            leakage = epsilon * radius
        event = LeakageEvent(
            round=round, epsilon=epsilon, radius=radius, leakage=leakage, cluster_id=cluster_id
        )
        self._events.setdefault(client_id, []).append(event)
        self._rounds.setdefault(client_id, set()).add(round)
        self._composed[client_id] = self._composed.get(client_id, 0.0) + event.leakage
        return event

    def clients(self) -> list[Hashable]:
        return sorted(self._events)

    def events(self, client_id: Hashable) -> list[LeakageEvent]:
        return list(self._events.get(client_id, []))

    def composed_leakage(self, client_id: Hashable) -> float:
        return self._composed.get(client_id, 0.0)

    def __len__(self) -> int:
        return sum(len(evs) for evs in self._events.values())

    def iter_rows(self) -> Iterator[tuple[Hashable, LeakageEvent, float]]:
        """All events in (round, client_id) order with the running composed value.

        Each call sorts the events anew; nothing is cached between calls.
        """
        flat = [(e.round, cid, e) for cid, evs in self._events.items() for e in evs]
        flat.sort(key=lambda item: (item[0], item[1]))
        running: dict[Hashable, float] = {}
        for _, cid, event in flat:
            running[cid] = running.get(cid, 0.0) + event.leakage
            yield cid, event, running[cid]


@dataclass
class ClusterBudget:
    median: float
    maximum: float


@dataclass
class LedgerSummary:
    """Median/max composed leakage over all clients, plus the per-cluster
    leakage series used for plotting.

    ``max_trajectory`` is ``max_leakage_series`` of the ledger.
    """

    overall: ClusterBudget | None
    max_trajectory: dict[int | None, list[float]] = field(default_factory=dict)


def max_leakage_series(ledger: PrivacyLedger) -> dict[int | None, list[float]]:
    """Running-max leakage per cluster, one value per round 0..last round.

    For cluster c at round t the value is the largest composed leakage any
    client held right after a release aggregated into c, over rounds 0..t;
    it is 0.0 before c's first release.  The series never decreases, also
    when clients move between clusters.  Clusters without any release are
    absent.
    """
    peaks: dict[int | None, dict[int, float]] = {}
    n_rounds = 0
    for _, event, composed in ledger.iter_rows():
        n_rounds = event.round + 1
        peak = peaks.setdefault(event.cluster_id, {})
        peak[event.round] = max(peak.get(event.round, 0.0), composed)
    return {
        cluster: list(accumulate((peak.get(t, 0.0) for t in range(n_rounds)), max))
        for cluster, peak in peaks.items()
    }


def ledger_summary(ledger: PrivacyLedger) -> LedgerSummary:
    """Summarize a ledger; empty ledgers give an empty summary."""
    clients = ledger.clients()
    if not clients:
        return LedgerSummary(overall=None)

    composed = {cid: ledger.composed_leakage(cid) for cid in clients}
    overall = ClusterBudget(
        median=statistics.median(composed.values()), maximum=max(composed.values())
    )
    return LedgerSummary(overall=overall, max_trajectory=max_leakage_series(ledger))


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_ledger_csv(ledger: PrivacyLedger, path: str | Path) -> None:
    """One row per event, chronological, with the running composed total."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["client_id", "cluster_id", "round", "epsilon", "radius", "leakage", "composed_leakage"]
        )
        for cid, event, composed in ledger.iter_rows():
            writer.writerow(
                [
                    cid,
                    _fmt(event.cluster_id),
                    event.round,
                    _fmt(event.epsilon),
                    _fmt(event.radius),
                    _fmt(event.leakage),
                    _fmt(composed),
                ]
            )

