"""Trainable predictors with analytic gradients and local mini-batch SGD.

Two model families: a linear map (no intercept) and a small fully connected
ReLU network.  Parameters live in a single flat vector so that sanitization
and clustering can treat a model as a point in R^n.  The packing order is
fixed: per layer, weights row-major then biases, layers in forward order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

__all__ = [
    "ModelSpec",
    "Batch",
    "n_params",
    "pack",
    "unpack",
    "init_params",
    "predict",
    "loss",
    "loss_matrix",
    "gradient",
    "local_update",
]

OBJECTIVES = ("rmse", "cross_entropy")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; the parameter count follows from it.

    ``kind`` is "linear" (x @ theta, scalar output, no intercept) or "mlp"
    (affine layers with ReLU between them, sizes input_dim -> hidden... ->
    output_dim).
    """

    kind: str
    input_dim: int
    hidden: tuple[int, ...] = ()
    output_dim: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "mlp"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be >= 1")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be >= 1")
        if self.kind == "linear" and (self.hidden or self.output_dim != 1):
            raise ValueError("linear models have no hidden layers and scalar output")

    # Derived values are cached in the instance dict on first use; the
    # dataclass equality and hash read the fields only, and pickling drops
    # the cache (``__getstate__``), so a spec pickles as its fields alone.

    @cached_property
    def layer_sizes(self) -> tuple[tuple[int, int], ...]:
        """(fan_out, fan_in) per affine layer, forward order (mlp only)."""
        widths = [self.input_dim, *self.hidden, self.output_dim]
        return tuple((widths[i + 1], widths[i]) for i in range(len(widths) - 1))

    @cached_property
    def layer_slices(self) -> tuple[tuple[int, int, slice, slice], ...]:
        """(fan_out, fan_in, weight slice, bias slice) of the flat vector per layer."""
        slices = []
        offset = 0
        for out, fin in self.layer_sizes:
            weights = slice(offset, offset + out * fin)
            offset += out * fin
            slices.append((out, fin, weights, slice(offset, offset + out)))
            offset += out
        return tuple(slices)

    @cached_property
    def n_params(self) -> int:
        if self.kind == "linear":
            return self.input_dim
        return self.layer_slices[-1][3].stop

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Batch:
    """Feature rows and aligned targets; regression targets are floats,
    classification targets integer class labels."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y)
        if x.ndim != 2:
            raise ValueError("features must be a 2-D array (rows = samples)")
        if len(x) != len(y):
            raise ValueError(f"row mismatch: {len(x)} feature rows, {len(y)} targets")
        if not np.all(np.isfinite(x)):
            raise ValueError("features contain non-finite values")
        if np.issubdtype(y.dtype, np.floating) and not np.all(np.isfinite(y)):
            raise ValueError("targets contain non-finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return len(self.x)

    def take(self, idx: np.ndarray) -> "Batch":
        """Row subset; its rows were validated with this batch, so the
        subset skips ``__post_init__``."""
        subset = object.__new__(Batch)
        object.__setattr__(subset, "x", self.x[idx])
        object.__setattr__(subset, "y", self.y[idx])
        return subset


def n_params(spec: ModelSpec) -> int:
    return spec.n_params


def pack(spec: ModelSpec, layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Flatten (weight, bias) pairs into one vector, layer by layer."""
    parts = []
    for weight, bias in layers:
        parts.append(np.asarray(weight, dtype=float).ravel())
        parts.append(np.asarray(bias, dtype=float).ravel())
    return np.concatenate(parts)


def unpack(spec: ModelSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Inverse of pack: recover (weight, bias) per layer."""
    params = _check_params(spec, params)
    return [
        (params[weights].reshape(out, fin), params[biases])
        for out, fin, weights, biases in spec.layer_slices
    ]


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Fresh parameter vector for one hypothesis.

    Linear models draw standard-normal coefficients; MLP layers draw weights
    and biases uniformly in +-1/sqrt(fan_in).
    """
    if spec.kind == "linear":
        return rng.standard_normal(spec.input_dim)
    parts = []
    for out, fin in spec.layer_sizes:
        bound = 1.0 / math.sqrt(fin)
        parts.append((rng.uniform(-bound, bound, (out, fin)), rng.uniform(-bound, bound, out)))
    return pack(spec, parts)


def _check_params(spec: ModelSpec, params: np.ndarray) -> np.ndarray:
    params = np.asarray(params, dtype=float)
    if params.shape != (spec.n_params,):
        raise ValueError(
            f"parameter vector has shape {params.shape}, spec needs ({spec.n_params},)"
        )
    return params


def _check_features(spec: ModelSpec, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"features must have shape (m, {spec.input_dim})")


def _forward(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray):
    """Return (output, per-layer input cache for backprop)."""
    inputs = []
    a = x
    for i, (weight, bias) in enumerate(layers):
        inputs.append(a)
        z = a @ weight.T + bias
        a = np.maximum(z, 0.0) if i < len(layers) - 1 else z
    return a, inputs


def predict(spec: ModelSpec, params: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Model outputs per feature row; scalar-output models return a 1-D array."""
    params = _check_params(spec, params)
    x = np.asarray(features, dtype=float)
    _check_features(spec, x)
    if spec.kind == "linear":
        return x @ params
    out, _ = _forward(unpack(spec, params), x)
    return out[:, 0] if spec.output_dim == 1 else out


def loss(spec: ModelSpec, params: np.ndarray, batch: Batch, objective: str) -> float:
    """RMSE (residual norm over sqrt(batch size)) or mean cross entropy."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    pred = predict(spec, params, batch.x)
    if objective == "rmse":
        residual = np.asarray(batch.y, dtype=float) - pred
        return float(np.linalg.norm(residual) / math.sqrt(len(batch)))
    if objective == "cross_entropy":
        logits = _as_logits(spec, pred)
        targets = _as_classes(spec, batch.y)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
        return float(np.mean(logsumexp - logits[np.arange(len(batch)), targets]))
    raise ValueError(f"unknown objective {objective!r}")


def loss_matrix(
    spec: ModelSpec, hypotheses: np.ndarray, batches: Sequence[Batch], objective: str
) -> np.ndarray:
    """Loss of every hypothesis on every batch, from one forward pass.

    ``hypotheses`` is a (k, n_params(spec)) array with k >= 1 and ``batches``
    a non-empty sequence of non-empty batches.  Returns a float array of
    shape (len(batches), k) whose entry [i, j] is
    ``loss(spec, hypotheses[j], batches[i], objective)`` up to rounding in
    the last bits.  All k hypotheses run over the concatenated rows as
    (k, rows, width) matmuls; per-row losses are then summed per batch.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    h = np.asarray(hypotheses, dtype=float)
    if h.ndim != 2 or len(h) == 0 or h.shape[1] != spec.n_params:
        raise ValueError(f"hypotheses must be a (k, {spec.n_params}) array with k >= 1")
    sizes = [len(batch) for batch in batches]
    if not sizes:
        raise ValueError("no batches")
    if min(sizes) == 0:
        raise ValueError("empty batch")
    if len(batches) == 1:
        x, y = batches[0].x, batches[0].y
    else:
        x = np.concatenate([batch.x for batch in batches])
        y = np.concatenate([batch.y for batch in batches])
    _check_features(spec, x)

    if spec.kind == "linear":
        pred = (x @ h.T).T
    else:
        a = x
        last = len(spec.layer_slices) - 1
        for i, (out, fin, weights, biases) in enumerate(spec.layer_slices):
            stacked = h[:, weights].reshape(-1, out, fin).transpose(0, 2, 1)
            z = a @ stacked + h[:, None, biases]
            a = np.maximum(z, 0.0) if i < last else z
        pred = a[..., 0] if spec.output_dim == 1 else a
    # pred: (k, rows) for scalar outputs, (k, rows, classes) for logits

    starts = list(accumulate(sizes[:-1], initial=0))
    if objective == "rmse":
        residual = np.asarray(y, dtype=float) - pred
        totals = np.add.reduceat(residual * residual, starts, axis=1)
        return (np.sqrt(totals) / np.sqrt(sizes)).T
    logits = _as_logits(spec, pred)
    targets = _as_classes(spec, y)
    top = logits.max(axis=2)
    logsumexp = np.log(np.exp(logits - top[..., None]).sum(axis=2)) + top
    per_row = logsumexp - logits[:, np.arange(len(targets)), targets]
    return (np.add.reduceat(per_row, starts, axis=1) / np.array(sizes)).T


def _as_logits(spec: ModelSpec, pred: np.ndarray) -> np.ndarray:
    if spec.output_dim < 2:
        raise ValueError("cross_entropy needs output_dim >= 2 (one logit per class)")
    return pred


def _as_classes(spec: ModelSpec, y: np.ndarray) -> np.ndarray:
    targets = np.asarray(y)
    if not np.issubdtype(targets.dtype, np.integer):
        raise ValueError("cross_entropy targets must be integer class labels")
    if targets.min() < 0 or targets.max() >= spec.output_dim:
        raise ValueError("class label out of range")
    return targets


def gradient(spec: ModelSpec, params: np.ndarray, batch: Batch, objective: str) -> np.ndarray:
    """Analytic gradient of the batch objective w.r.t. the flat vector.

    The RMSE gradient at an exactly-zero residual is the zero vector (a valid
    subgradient; avoids dividing by the residual norm).
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    params = _check_params(spec, params)
    _check_features(spec, batch.x)
    m = len(batch)
    if spec.kind == "linear":
        pred = batch.x @ params
    else:
        layers = unpack(spec, params)
        out, inputs = _forward(layers, batch.x)
        pred = out[:, 0] if spec.output_dim == 1 else out

    if objective == "rmse":
        residual = np.asarray(batch.y, dtype=float) - pred
        res_norm = float(np.linalg.norm(residual))
        if res_norm == 0.0:
            return np.zeros_like(params)
        d_pred = -residual / (math.sqrt(m) * res_norm)
    elif objective == "cross_entropy":
        logits = _as_logits(spec, pred)
        targets = _as_classes(spec, batch.y)
        shifted = logits - logits.max(axis=1, keepdims=True)
        expz = np.exp(shifted)
        probs = expz / expz.sum(axis=1, keepdims=True)
        probs[np.arange(m), targets] -= 1.0
        d_pred = probs / m
    else:
        raise ValueError(f"unknown objective {objective!r}")

    if spec.kind == "linear":
        return batch.x.T @ d_pred

    d_out = d_pred.reshape(m, spec.output_dim) if d_pred.ndim == 1 else d_pred
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        a_in = inputs[i]
        grads.append((d_out.T @ a_in, d_out.sum(axis=0)))
        if i > 0:
            d_out = (d_out @ layers[i][0]) * (a_in > 0)
    grads.reverse()
    return pack(spec, grads)


def local_update(
    spec: ModelSpec,
    params: np.ndarray,
    dataset: Batch,
    step_size: float,
    epochs: int,
    batch_size: int,
    objective: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mini-batch SGD over the local dataset; the input vector is untouched.

    Each epoch reshuffles with the caller's stream and walks batches of
    ``batch_size`` rows (the last one may be smaller).
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    params = _check_params(spec, params).copy()
    m = len(dataset)
    for _ in range(epochs):
        order = rng.permutation(m)
        for start in range(0, m, batch_size):
            minibatch = dataset.take(order[start : start + batch_size])
            params -= step_size * gradient(spec, params, minibatch, objective)
    return params
