"""Regression predictors with analytic RMSE gradients and local mini-batch SGD.

Two model families: a linear map (no intercept) and a small fully connected
ReLU network.  The objective is RMSE, the residual norm over the square root
of the row count, so every model predicts one value per row.  Parameters
live in a single flat vector so that sanitization and clustering can treat a
model as a point in R^n.  The packing order is fixed: per layer, weights
row-major then biases, layers in forward order.
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
    "client_losses",
    "gradient",
    "local_update",
    "local_updates",
]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; the parameter count follows from it.

    ``kind`` is "linear" (x @ theta, no intercept) or "mlp" (affine layers
    with ReLU between them, sizes input_dim -> hidden... -> 1).  Both
    predict one value per row.
    """

    kind: str
    input_dim: int
    hidden: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "mlp"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be >= 1")
        if self.kind == "linear" and self.hidden:
            raise ValueError("linear models have no hidden layers")

    # Derived values are cached in the instance dict on first use; the
    # dataclass equality and hash read the fields only, and pickling drops
    # the cache (``__getstate__``), so a spec pickles as its fields alone.

    @cached_property
    def layer_sizes(self) -> tuple[tuple[int, int], ...]:
        """(fan_out, fan_in) per affine layer, forward order (mlp only)."""
        widths = [self.input_dim, *self.hidden, 1]
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
    """Feature rows (m, input_dim) and their float regression targets (m,),
    checked once here."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2:
            raise ValueError("features must be a 2-D array (rows = samples)")
        if y.shape != (len(x),):
            raise ValueError(
                f"targets must be a 1-D array with one entry per feature row: "
                f"{len(x)} feature rows, targets of shape {y.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("features contain non-finite values")
        if not np.all(np.isfinite(y)):
            raise ValueError("targets contain non-finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return len(self.x)


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


def _check_stack(spec: ModelSpec, stack: np.ndarray, name: str) -> np.ndarray:
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 2 or len(stack) == 0 or stack.shape[1] != spec.n_params:
        raise ValueError(f"{name} must be a (k, {spec.n_params}) array with k >= 1")
    return stack


def _check_features(spec: ModelSpec, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"features must have shape (m, {spec.input_dim})")


def _require_rmse(objective: str) -> None:
    if objective != "rmse":
        raise ValueError(f"objective must be 'rmse', the only one, got {objective!r}")


def _rows(spec: ModelSpec, batches: Sequence[Batch]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Concatenated rows and targets of the batches, and their sizes.

    Everything a pass over these rows needs checked is checked here, once:
    non-empty batches and the feature width.
    """
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
    return x, y, sizes


def _forward(spec: ModelSpec, stack: np.ndarray, x: np.ndarray):
    """Stacked forward pass: (outputs, per-layer input cache for backprop).

    ``stack`` holds G parameter vectors as a (G, n) array; ``x`` holds each
    vector's rows as a (G, rows, input_dim) array, or (1, rows, input_dim)
    to run all G vectors on the same rows.  Outputs are (G, rows, 1).  Every
    product is one matmul per stacked vector, so a vector's outputs do not
    depend on what else is stacked with it.
    """
    if spec.kind == "linear":
        return x @ stack[:, :, None], [x]
    inputs = []
    a = x
    last = len(spec.layer_slices) - 1
    for i, (out, fin, weights, biases) in enumerate(spec.layer_slices):
        inputs.append(a)
        z = a @ stack[:, weights].reshape(-1, out, fin).transpose(0, 2, 1) + stack[:, None, biases]
        a = np.maximum(z, 0.0) if i < last else z
    return a, inputs


def _output_gradient(
    out: np.ndarray, y: np.ndarray, mask: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Derivative of each stacked block's RMSE w.r.t. its outputs.

    ``out`` is (G, rows, 1), ``y`` (G, rows) targets, ``mask`` (G, rows)
    marks real rows and ``counts`` (G,) holds their number per block.
    Masked rows get an exactly zero derivative.  Also returns which blocks
    take a step: those with a nonzero residual.  At a zero residual, and in
    a block without rows, the zero vector is the subgradient, so the step is
    skipped rather than divided by the zero norm.
    """
    residual = np.where(mask, y - out[..., 0], 0.0)
    res_norm = np.sqrt(np.sum(residual * residual, axis=1))
    flat = res_norm == 0.0
    scale = np.where(flat, 1.0, np.sqrt(counts) * res_norm)
    return (-residual / scale[:, None])[..., None], ~flat


def _backward(
    spec: ModelSpec, stack: np.ndarray, inputs: list[np.ndarray], d_out: np.ndarray
) -> np.ndarray:
    """Stacked backward pass: the (G, n) gradient from the output derivative."""
    if spec.kind == "linear":
        return (inputs[0].transpose(0, 2, 1) @ d_out)[:, :, 0]
    grad = np.empty_like(stack)
    for i in range(len(spec.layer_slices) - 1, -1, -1):
        out, fin, weights, biases = spec.layer_slices[i]
        a_in = inputs[i]
        grad[:, weights] = (d_out.transpose(0, 2, 1) @ a_in).reshape(len(grad), -1)
        grad[:, biases] = d_out.sum(axis=1)
        if i > 0:
            d_out = (d_out @ stack[:, weights].reshape(-1, out, fin)) * (a_in > 0)
    return grad


def predict(spec: ModelSpec, params: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Model outputs per feature row, as a 1-D array."""
    params = _check_params(spec, params)
    x = np.asarray(features, dtype=float)
    _check_features(spec, x)
    out = _forward(spec, params[None], x[None])[0][0]
    return out[:, 0]


def loss(spec: ModelSpec, params: np.ndarray, batch: Batch, objective: str) -> float:
    """RMSE (residual norm over sqrt(batch size)): the single-vector,
    single-batch entry of ``loss_matrix``.  ``objective`` must be "rmse"."""
    _require_rmse(objective)
    return float(loss_matrix(spec, _check_params(spec, params)[None], [batch])[0, 0])


def loss_matrix(spec: ModelSpec, hypotheses: np.ndarray, batches: Sequence[Batch]) -> np.ndarray:
    """Loss of every hypothesis on every batch, from one forward pass.

    ``hypotheses`` is a (k, n_params(spec)) array with k >= 1 and ``batches``
    a non-empty sequence of non-empty batches.  Returns a float array of
    shape (len(batches), k) whose entry [i, j] is the loss of
    ``hypotheses[j]`` on ``batches[i]``.  All k hypotheses run over the
    concatenated rows as (k, rows, width) matmuls; per-row losses are then
    summed per batch.
    """
    h = _check_stack(spec, hypotheses, "hypotheses")
    x, y, sizes = _rows(spec, batches)
    out, _ = _forward(spec, h, x[None])
    starts = list(accumulate(sizes[:-1], initial=0))
    totals = np.add.reduceat(_squared_residuals(out, y), starts, axis=1)
    return (np.sqrt(totals) / np.sqrt(np.array(sizes))).T


def client_losses(spec: ModelSpec, params: np.ndarray, batches: Sequence[Batch]) -> np.ndarray:
    """Loss of ``params[i]`` on ``batches[i]`` for each i, from one forward
    pass: the batches are stacked, padded to the largest one, each under its
    own vector."""
    stack = _check_stack(spec, params, "params")
    if len(batches) != len(stack):
        raise ValueError("need one batch per parameter vector")
    x, y, sizes = _rows(spec, batches)
    sizes = np.array(sizes)
    slot = np.arange(sizes.max())
    mask = slot < sizes[:, None]
    rows = (np.cumsum(sizes) - sizes)[:, None] + np.where(mask, slot, 0)
    out, _ = _forward(spec, stack, x[rows])
    totals = np.sum(np.where(mask, _squared_residuals(out, y[rows]), 0.0), axis=1)
    return np.sqrt(totals) / np.sqrt(sizes)


def _squared_residuals(out: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row squared residuals of outputs (..., rows, 1) against targets
    (rows,) or (..., rows)."""
    residual = y - out[..., 0]
    return residual * residual


def gradient(spec: ModelSpec, params: np.ndarray, batch: Batch, objective: str) -> np.ndarray:
    """Analytic gradient of the batch RMSE w.r.t. the flat vector.

    ``objective`` must be "rmse".  The gradient at an exactly-zero residual
    is the zero vector (a valid subgradient; avoids dividing by the residual
    norm).
    """
    _require_rmse(objective)
    params = _check_params(spec, params)
    x, y, (m,) = _rows(spec, [batch])
    out, inputs = _forward(spec, params[None], x[None])
    d_out, moving = _output_gradient(out, y[None], np.ones((1, m), bool), np.array([m]))
    if not moving[0]:
        return np.zeros_like(params)
    return _backward(spec, params[None], inputs, d_out)[0]


def local_updates(
    spec: ModelSpec,
    params: np.ndarray,
    datasets: Sequence[Batch],
    step_size: float,
    epochs: int,
    batch_size: int,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Mini-batch SGD for U clients at once; row i of the result is client i's.

    ``params`` is a (U, n_params(spec)) array of starting vectors and
    ``datasets`` and ``rngs`` hold the U local datasets and streams; the
    input array is untouched.  Each epoch every client reshuffles with its
    own stream, in stack order, and walks blocks of ``batch_size`` rows (its
    last one may be smaller).  All clients step together: step j of an
    epoch takes block j of every client, padded to ``batch_size`` rows with
    copies of the client's first row.  A padded row, and a step past a
    client's last block, leave that client's vector exactly as it was.
    Blocks are ``batch_size`` rows wide whatever the stack, and no operation
    mixes clients, so row i is bit-identical to ``local_update`` on client i
    alone; the price is that a ``batch_size`` above the largest dataset
    computes padding rows.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    stack = _check_stack(spec, params, "params").copy()
    if not len(datasets) == len(rngs) == len(stack):
        raise ValueError("need one dataset and one stream per parameter vector")
    x, y, sizes = _rows(spec, datasets)
    sizes = np.array(sizes)
    n_clients = len(sizes)
    steps = -(-sizes.max() // batch_size)
    slots = steps * batch_size
    mask = (np.arange(slots) < sizes[:, None]).reshape(n_clients, steps, batch_size)
    counts = mask.sum(axis=2)
    starts = np.cumsum(sizes) - sizes
    for _ in range(epochs):
        rows = np.repeat(starts[:, None], slots, axis=1)
        for i, rng in enumerate(rngs):
            rows[i, : sizes[i]] += rng.permutation(sizes[i])
        xs = x[rows].reshape(n_clients, steps, batch_size, -1)
        ys = y[rows].reshape(n_clients, steps, batch_size)
        for j in range(steps):
            out, inputs = _forward(spec, stack, xs[:, j])
            d_out, moving = _output_gradient(out, ys[:, j], mask[:, j], counts[:, j])
            stepped = stack - step_size * _backward(spec, stack, inputs, d_out)
            stack = np.where(moving[:, None], stepped, stack)
    return stack


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
    """Mini-batch SGD on the RMSE over the local dataset; the input vector is
    untouched.  ``objective`` must be "rmse".

    Each epoch reshuffles with the caller's stream and walks batches of
    ``batch_size`` rows (the last one may be smaller).  This is the
    one-client case of ``local_updates``.
    """
    _require_rmse(objective)
    params = _check_params(spec, params)
    return local_updates(spec, params[None], [dataset], step_size, epochs, batch_size, [rng])[0]
