"""Lloyd k-means over parameter vectors, seeded at the current hypotheses.

The aggregation step needs to group the sanitized vectors returned in a
round.  Seeding at the hypotheses (rather than random restarts) keeps the
cluster indices aligned with the hypotheses they update, and converges in a
handful of iterations when the points sit near their hypotheses.  ``lloyd``
solves a stack of such problems (the cells of a seed group) at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, NamedTuple, Sequence

import numpy as np

__all__ = ["ClusterAssignment", "Lloyd", "cluster_means", "kmeans_from_hypotheses", "lloyd"]


@dataclass(frozen=True)
class ClusterAssignment:
    """Partition of client ids over k clusters plus the final centroids.

    ``labels[i]`` is the cluster of the i-th point, ``assignment`` the same
    partition keyed by client id.
    """

    assignment: dict[Hashable, int]
    labels: np.ndarray
    centroids: np.ndarray
    n_iterations: int


class Lloyd(NamedTuple):
    labels: np.ndarray  # (g, m)
    centroids: np.ndarray  # (g, k, n)
    n_iterations: np.ndarray  # (g,)
    means: np.ndarray  # (g, k, n): of ``labels``; an empty cluster's is its initial centroid


def _nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # argmin returns the first minimum, i.e. ties break to the lowest index.
    d2 = ((points[..., :, None, :] - centroids[..., None, :, :]) ** 2).sum(axis=-1)
    return d2.argmin(axis=-1)


def cluster_means(points: np.ndarray, labels: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Row j: ``points[labels == j].mean(axis=0)``, computed as numpy's mean
    computes it (an add-reduce, then one division by the count), or
    ``fallback[j]`` if no point is labelled j.  Leading axes stack problems,
    all summed in one pass: (..., m, n) points give (..., k, n) means."""
    k, n = fallback.shape[-2:]
    if labels.size and not 0 <= labels.min() <= labels.max() < k:
        raise ValueError(f"labels must lie in [0, {k})")
    problems = fallback.size // (k * n)
    segments = (labels.reshape(problems, -1) + k * np.arange(problems)[:, None]).ravel()
    counts = np.bincount(segments, minlength=problems * k)
    sums = np.zeros((problems * k, n))
    if n > 1:  # from 0.0, row by row, as np.add.reduce sums rows
        np.add.at(sums, segments, points.reshape(-1, n))
    else:  # numpy sums a lone column pairwise, not row by row
        for s in np.flatnonzero(counts).tolist():
            sums[s] = np.add.reduce(points.reshape(-1, 1)[segments == s])
    means = sums / np.maximum(counts, 1)[:, None]
    return np.where(counts[:, None] > 0, means, fallback.reshape(-1, n)).reshape(fallback.shape)


def lloyd(points: np.ndarray, init: np.ndarray, max_iters: int = 100, tol: float = 1e-9) -> Lloyd:
    """Standard Lloyd iterations for g problems at once, (g, m, n) points,
    each initialized exactly at its (g, k, n) ``init`` centroids; row c of
    each field of the result is problem c's.

    A problem stops when its assignments repeat, when none of its centroids
    moved more than ``tol``, or after ``max_iters``; it then does no more
    arithmetic, so it sees the float operations it sees alone.  A cluster
    that loses all its points keeps its previous centroid.  Distance ties
    break toward the lowest cluster index.  A problem whose labels repeat at
    once returns its first iteration's means, the means of those labels.
    """
    centroids = init.copy()
    labels = _nearest(points, centroids)
    iterations, running = np.zeros(len(points), dtype=np.intp), np.arange(len(points))
    final, settled = np.empty_like(init), np.zeros(len(points), dtype=bool)
    for _ in range(max_iters):
        # All problems still running: basic slices, no copies.
        rows = slice(None) if len(running) == len(points) else running
        old = centroids[rows]
        means = cluster_means(points[rows], labels[rows], old)
        movement = np.linalg.norm(means - old, axis=-1).max(axis=-1)
        new_labels = _nearest(points[rows], means)
        repeated = (new_labels == labels[rows]).all(axis=-1)
        if not iterations.any():  # the first iteration, over every problem
            final, settled = means, repeated
        centroids[rows], labels[rows] = means, new_labels
        iterations[rows] += 1
        running = running[~(repeated | (movement < tol))]
        if not len(running):
            break
    if not settled.all():  # the other problems' means of their final labels
        redo = np.flatnonzero(~settled)
        final[redo] = cluster_means(points[redo], labels[redo], init[redo])
    return Lloyd(labels, centroids, iterations, final)


def kmeans_from_hypotheses(
    points: Sequence[tuple[Hashable, np.ndarray]],
    init_centroids: np.ndarray,
    max_iters: int = 100,
    tol: float = 1e-9,
) -> ClusterAssignment:
    """``lloyd`` for one problem whose points are (client id, vector) pairs."""
    init_centroids = np.asarray(init_centroids, dtype=float)
    if init_centroids.ndim != 2 or len(init_centroids) < 1:
        raise ValueError("init_centroids must be a (k, n) array with k >= 1")
    if not points:
        return ClusterAssignment({}, np.empty(0, dtype=np.intp), init_centroids.copy(), 0)
    ids = [cid for cid, _ in points]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate client ids in points")
    matrix = np.asarray([vec for _, vec in points], dtype=float)
    if matrix.shape[1] != init_centroids.shape[1]:
        raise ValueError(
            f"points have dimension {matrix.shape[1]}, centroids {init_centroids.shape[1]}"
        )
    fit = lloyd(matrix[None], init_centroids[None], max_iters, tol)
    assignment = {cid: int(label) for cid, label in zip(ids, fit.labels[0])}
    return ClusterAssignment(assignment, fit.labels[0], fit.centroids[0], int(fit.n_iterations[0]))
