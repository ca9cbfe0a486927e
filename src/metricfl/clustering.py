"""Lloyd k-means over parameter vectors, seeded at the current hypotheses.

The aggregation step needs to group the sanitized vectors returned in a
round.  Seeding at the hypotheses (rather than random restarts) keeps the
cluster indices aligned with the hypotheses they update, and converges in a
handful of iterations when the points sit near their hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

__all__ = ["ClusterAssignment", "kmeans_from_hypotheses"]


@dataclass(frozen=True)
class ClusterAssignment:
    """Partition of client ids over k clusters plus the final centroids."""

    assignment: dict[Hashable, int]
    centroids: np.ndarray
    n_iterations: int


def _nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # argmin returns the first minimum, i.e. ties break to the lowest index.
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def kmeans_from_hypotheses(
    points: Sequence[tuple[Hashable, np.ndarray]],
    init_centroids: np.ndarray,
    max_iters: int = 100,
    tol: float = 1e-9,
) -> ClusterAssignment:
    """Standard Lloyd iterations initialized exactly at the given centroids.

    Stops when assignments repeat, when no centroid moved more than ``tol``,
    or after ``max_iters``.  A cluster that loses all its points keeps its
    previous centroid, so the corresponding model persists unchanged.
    Distance ties break toward the lowest cluster index.
    """
    init_centroids = np.asarray(init_centroids, dtype=float)
    if init_centroids.ndim != 2 or len(init_centroids) < 1:
        raise ValueError("init_centroids must be a (k, n) array with k >= 1")
    if not points:
        return ClusterAssignment({}, init_centroids.copy(), 0)
    ids = [cid for cid, _ in points]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate client ids in points")
    matrix = np.asarray([vec for _, vec in points], dtype=float)
    if matrix.shape[1] != init_centroids.shape[1]:
        raise ValueError(
            f"points have dimension {matrix.shape[1]}, centroids {init_centroids.shape[1]}"
        )

    centroids = init_centroids.copy()
    labels = _nearest(matrix, centroids)
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        new_centroids = centroids.copy()
        for j in range(len(centroids)):
            mask = labels == j
            if mask.any():
                new_centroids[j] = matrix[mask].mean(axis=0)
        movement = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        new_labels = _nearest(matrix, centroids)
        converged = bool((new_labels == labels).all())
        labels = new_labels
        if converged or movement < tol:
            break

    return ClusterAssignment(
        assignment={cid: int(label) for cid, label in zip(ids, labels)},
        centroids=centroids,
        n_iterations=iterations,
    )
