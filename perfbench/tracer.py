"""Span tracer that wraps metricfl's public functions from the outside.

Nothing in ``src/`` is edited.  ``install`` replaces each traced function in
every ``metricfl`` module namespace that binds it (``federation`` imports
``loss``, ``sanitize`` and ``substream`` by name, ``experiment`` imports
``run_experiment`` and ``write_ledger_csv``, ...), and methods on their class,
so every internal call goes through exactly one wrapper.  Each call records a
span (name, start, end, parent) in flat in-memory arrays; ``save`` writes
them out once the traced sweep is over.  The hottest leaf calls
(``models.unpack`` and ``Batch`` construction) are counted, not timed, so
the trace stays affordable.

A target that a later version of the program no longer has is skipped and
listed in ``missing``; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# span name -> (module, attribute path of the traced callable)
SPANS = {
    "cli.main": ("metricfl.cli", "main"),
    "experiment.load_config": ("metricfl.experiment", "load_config"),
    "experiment.run_sweep": ("metricfl.experiment", "run_sweep"),
    "experiment.run_cell": ("metricfl.experiment", "run_cell"),
    # Population building for one cell: data generation or ingestion plus the split.
    "data.population": ("metricfl.experiment", "build_population"),
    "federation.run_experiment": ("metricfl.federation", "run_experiment"),
    "federation.server_round": ("metricfl.federation", "server_round"),
    "federation.client_step": ("metricfl.federation", "client_step"),
    "federation._validation_loss": ("metricfl.federation", "_validation_loss"),
    "federation.write_metrics_csv": ("metricfl.federation", "write_metrics_csv"),
    "accounting.record_participation": ("metricfl.accounting", "PrivacyLedger.record_participation"),
    "accounting.max_composed_per_cluster": (
        "metricfl.accounting",
        "PrivacyLedger.max_composed_per_cluster",
    ),
    "accounting.ledger_summary": ("metricfl.accounting", "ledger_summary"),
    "accounting.write_ledger_csv": ("metricfl.accounting", "write_ledger_csv"),
    "rng.substream": ("metricfl.rng", "substream"),
    "mechanism.sanitize": ("metricfl.mechanism", "sanitize"),
    "clustering.kmeans_from_hypotheses": ("metricfl.clustering", "kmeans_from_hypotheses"),
    "models.loss": ("metricfl.models", "loss"),
    "models.local_update": ("metricfl.models", "local_update"),
    "models.gradient": ("metricfl.models", "gradient"),
}

# counter name -> (module, attribute path); counted on every call, not timed
COUNTS = {
    "models.unpack": ("metricfl.models", "unpack"),
    "models.Batch": ("metricfl.models", "Batch.__init__"),
}


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute, original) for a dotted attribute, or None if absent."""
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self) -> None:
        self.names = list(SPANS)
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.kmeans_iterations = 0
        self.kmeans_clusters = 0
        self.kmeans_empty = 0
        self.ledger_bytes = 0
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        ident = self.names.index(name)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack
        )
        clock = time.perf_counter
        post = {
            "clustering.kmeans_from_hypotheses": self._after_kmeans,
            "accounting.write_ledger_csv": self._after_ledger_write,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(ident)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_kmeans(self, args, result) -> None:
        k = len(getattr(result, "centroids", ()))
        self.kmeans_iterations += int(getattr(result, "n_iterations", 0))
        self.kmeans_clusters += k
        self.kmeans_empty += k - len(set(getattr(result, "assignment", {}).values()))

    def _after_ledger_write(self, args, result) -> None:
        self.ledger_bytes += Path(args[1]).stat().st_size

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [
            m for n, m in sys.modules.items() if n == "metricfl" or n.startswith("metricfl.")
        ]
        targets = [(n, t, self._span) for n, t in SPANS.items()]
        targets += [(n, t, self._counter) for n, t in COUNTS.items()]
        for name, (module_name, attr_path), make in targets:
            resolved = _resolve(module_name, attr_path)
            if resolved is None:
                self.missing.append(name)
                continue
            owner, attr, original = resolved
            wrapper = make(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def _arrays(self):
        ids = np.asarray(self.name_id, dtype=np.intp)
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return ids, start, dur, dur - child, parent

    def save(self, path: Path) -> None:
        ids, start, dur, _, parent = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=ids, start=start, end=start + dur, parent=parent
        )

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, busy seconds, self seconds)."""
        ids, _, dur, self_time, _ = self._arrays()
        calls = np.bincount(ids, minlength=len(self.names))
        busy = np.bincount(ids, weights=dur, minlength=len(self.names))
        own = np.bincount(ids, weights=self_time, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(busy[i]), float(own[i])) for i, name in enumerate(self.names)
        }

    def layer_metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """``<span>.calls``, ``.busy_s`` and ``.self_s`` for every span, plus counts and ratios."""
        values: dict[str, float] = {}
        for span, (calls, busy, own) in self.span_totals().items():
            values.update({f"{span}.calls": calls, f"{span}.busy_s": busy, f"{span}.self_s": own})
        for name, count in self.counts.items():
            values[f"{name}.calls"] = count
        values["accounting.ledger_bytes"] = self.ledger_bytes
        kmeans_calls = values["clustering.kmeans_from_hypotheses.calls"]
        values["clustering.iterations_per_call"] = self.kmeans_iterations / max(kmeans_calls, 1)
        values["clustering.empty_cluster_frac"] = self.kmeans_empty / max(self.kmeans_clusters, 1)
        values["trace_overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
        return values
