"""Additive Laplace noise under the Euclidean metric in R^n.

The mechanism draws a perturbation whose density at distance r from the
center is proportional to exp(-epsilon * r).  Writing K for the normalization
constant, the density of a released point x around center x0 is

    K * exp(-epsilon * ||x - x0||_2),
    K = epsilon^n * Gamma(n/2) / (2 * pi^(n/2) * Gamma(n)).

Sampling exploits radial symmetry: the norm of the noise follows a gamma law
with shape n and scale 1/epsilon, and the direction is uniform on the unit
sphere.  All densities are computed in log space; epsilon^n and Gamma(n)
overflow already at modest n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "NoiseScale",
    "log_normalization_constant",
    "log_density",
    "sample_radius",
    "sample_direction",
    "sample_noise_batch",
    "sanitize_rows",
    "moment_report",
]

# Norms below this trigger a direction resample (measure-zero event).
_MIN_DIRECTION_NORM = 1e-300


@dataclass(frozen=True)
class NoiseScale:
    """Privacy parameter epsilon and ambient dimension n of the mechanism.

    Degenerate values are rejected here, at construction, rather than at
    sampling time.
    """

    epsilon: float
    dimension: int

    def __post_init__(self) -> None:
        if not isinstance(self.dimension, (int, np.integer)) or self.dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dimension!r}")
        if not math.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")


def log_normalization_constant(scale: NoiseScale) -> float:
    """log K for the density K * exp(-epsilon * r) to integrate to one."""
    n = scale.dimension
    eps = scale.epsilon
    return (
        n * math.log(eps)
        + math.lgamma(n / 2.0)
        - math.log(2.0)
        - (n / 2.0) * math.log(math.pi)
        - math.lgamma(n)
    )


def _check_dimension(arr: np.ndarray, scale: NoiseScale, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.shape[-1] != scale.dimension:
        raise ValueError(
            f"{name} has dimension {arr.shape[-1]}, mechanism expects {scale.dimension}"
        )
    return arr


def log_density(point: np.ndarray, center: np.ndarray, scale: NoiseScale) -> np.ndarray | float:
    """log density of releasing ``point`` when the true value is ``center``.

    Accepts stacked inputs: leading axes broadcast, the last axis must match
    the mechanism dimension.
    """
    point = _check_dimension(point, scale, "point")
    center = _check_dimension(center, scale, "center")
    dist = np.linalg.norm(point - center, axis=-1)
    out = log_normalization_constant(scale) - scale.epsilon * dist
    return float(out) if np.ndim(out) == 0 else out


def sample_radius(
    scale: NoiseScale, rng: np.random.Generator, size: int | None = None
) -> float | np.ndarray:
    """Draw the noise norm: gamma with shape n and scale 1/epsilon.

    The dimension is always an integer here, so the draw is the sum of n
    independent exponentials — exact and identical across platforms.
    """
    if size is None:
        return float(sample_radius(scale, rng, size=1)[0])
    return rng.standard_exponential((size, scale.dimension)).sum(axis=1) / scale.epsilon


def _unit_rows(v: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Unit vectors along the rows of ``v``, a stack of normal draws.

    A row whose norm is below the floor (a measure-zero event) is redrawn
    from its stream ``rngs[i]``, in row order, until none is.
    """
    norms = np.linalg.norm(v, axis=1)
    while np.any(norms < _MIN_DIRECTION_NORM):
        for i in np.flatnonzero(norms < _MIN_DIRECTION_NORM):
            v[i] = rngs[i].standard_normal(v.shape[1])
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]


def sample_direction(
    dimension: int, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Uniform unit vector(s) on the sphere in R^n: normalized standard normals."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if size is None:
        return sample_direction(dimension, rng, size=1)[0]
    return _unit_rows(rng.standard_normal((size, dimension)), [rng] * size)


def _noise_rows(
    dimension: int, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """Raw radius (the sum of n exponentials, not yet over epsilon) and unit
    direction of one perturbation per stream.

    Stream i draws its n exponentials, then its n normals; the arithmetic
    then runs once for all rows.
    """
    exponentials = np.array([rng.standard_exponential(dimension) for rng in rngs])
    normals = np.array([rng.standard_normal(dimension) for rng in rngs])
    return exponentials.sum(axis=1), _unit_rows(normals, rngs)


def sample_noise_batch(scale: NoiseScale, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, n) array of independent perturbations; used by diagnostics."""
    radii = sample_radius(scale, rng, size=size)
    directions = sample_direction(scale.dimension, rng, size=size)
    return radii[:, None] * directions


def sanitize_rows(
    vectors: np.ndarray, epsilons: np.ndarray, rngs: Sequence[np.random.Generator],
    blocks: np.ndarray | None = None,
) -> np.ndarray:
    """The (U, n) or (G, U, n) ``vectors``, each row [..., i, :] plus one
    noise draw at ``epsilons[..., i]`` from ``rngs[i]``: a stream draws once,
    and its draw serves client i in every cell, at each row's own epsilon.
    Given ``blocks``, cell c's row i takes stream i of block ``blocks[c]``
    of U streams.  Each row equals the release of that row alone."""
    vectors = np.asarray(vectors, dtype=float)
    epsilons = np.asarray(epsilons, dtype=float)
    shape = vectors.shape
    if not (vectors.ndim in (2, 3) and epsilons.shape == shape[:-1] and len(rngs)
            and len(rngs) % shape[-2] == 0 and (blocks is not None or len(rngs) == shape[-2])):
        raise ValueError("need a (U, n) stack or G of them, one epsilon and one stream per row")
    bad = ~(np.isfinite(epsilons) & (epsilons > 0))
    if bad.any():
        raise ValueError(f"epsilon must be positive and finite, got {float(epsilons[bad][0])!r}")
    raw, directions = _noise_rows(vectors.shape[-1], rngs)
    if blocks is not None:
        raw = raw.reshape(-1, shape[-2])[blocks]
        directions = directions.reshape(-1, *shape[-2:])[blocks]
    return vectors + (raw / epsilons)[..., None] * directions


def moment_report(
    scale: NoiseScale, samples: int, rng: np.random.Generator
) -> list[tuple[str, float, float]]:
    """Empirical vs. theoretical moments as (statistic, empirical, theoretical).

    Statistics: mean noise norm (n/eps), variance of the norm (n/eps^2) and
    per-component variance ((n+1)/eps^2, averaged over components).
    """
    n, eps = scale.dimension, scale.epsilon
    noise = sample_noise_batch(scale, rng, samples)
    radii = np.linalg.norm(noise, axis=1)
    component_var = float(np.mean(np.var(noise, axis=0, ddof=1)))
    return [
        ("mean_radius", float(radii.mean()), n / eps),
        ("radius_variance", float(radii.var(ddof=1)), n / eps**2),
        ("component_variance", component_var, (n + 1) / eps**2),
    ]
