"""Regression predictors with analytic RMSE gradients and local mini-batch SGD.

Two model families: a linear map (no intercept) and a small fully connected
ReLU network.  The objective is RMSE, the residual norm over the square root
of the row count, so every model predicts one value per row.  Parameters
live in a single flat vector so that sanitization and clustering can treat a
model as a point in R^n.  The packing order is fixed: per layer, weights
row-major then biases, layers in forward order.  Every kernel runs one
stacked forward (and backward) pass over per-layer views into a stack of
such vectors, built once per call; local SGD steps that stack in place.  The
per-client kernels take one vector per client of a ``ClientTable`` as a
(U, n) stack, or G cells of them as (G, U, n), each client's rows broadcast.
Cell (or hypothesis) c may read block ``blocks[c]`` of a table of several.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "ModelSpec",
    "Batch",
    "ClientTable",
    "n_params",
    "pack",
    "unpack",
    "init_params",
    "predict",
    "loss",
    "loss_matrix",
    "client_losses",
    "gradient",
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


@dataclass(frozen=True, eq=False)
class ClientTable:
    """Several clients' rows in one array: client i holds rows
    ``offsets[i]:offsets[i] + sizes[i]`` of ``x`` and ``y``.

    Built once per run from batches (``from_batches``), which checks what a
    pass over the rows needs: at least one client, no empty one, the feature
    width.  The kernels below take a table, so no pass concatenates batches.
    """

    x: np.ndarray
    y: np.ndarray
    sizes: np.ndarray
    offsets: np.ndarray
    n_blocks: int = 1  # the clients form this many equal runs, the blocks

    @classmethod
    def from_batches(cls, spec: ModelSpec, batches: Sequence[Batch]) -> "ClientTable":
        sizes = np.array([len(batch) for batch in batches], dtype=np.intp)
        if not len(sizes):
            raise ValueError("no batches")
        if sizes.min() == 0:
            raise ValueError("empty batch")
        x = np.concatenate([batch.x for batch in batches])
        _check_features(spec, x)
        y = np.concatenate([batch.y for batch in batches])
        return cls(x, y, sizes, np.cumsum(sizes) - sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    def take(self, positions: np.ndarray) -> "ClientTable":
        """The clients at ``positions`` ((B, U): B blocks), in order: one gather."""
        blocks, positions = len(np.atleast_2d(positions)), np.ravel(positions)
        sizes = self.sizes[positions]
        offsets = np.cumsum(sizes) - sizes
        rows = np.repeat(self.offsets[positions] - offsets, sizes) + np.arange(sizes.sum())
        return ClientTable(self.x.take(rows, axis=0), self.y[rows], sizes, offsets, blocks)



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


def _check_cells(spec: ModelSpec, params: np.ndarray, table: ClientTable,
                 blocks: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | slice]:
    """The stack, and the clients its (..., U) vectors run on: a one-block
    table's, broadcast over the cells, or the (G, U) of cell c's block."""
    params, n, per = np.asarray(params, dtype=float), spec.n_params, len(table) // table.n_blocks
    if params.ndim not in (2, 3) or params.shape[-2:] != (per, n):
        raise ValueError(f"params must be a (U, {n}) or (G, U, {n}) stack, U a block's clients")
    return params, slice(None) if table.n_blocks == 1 else blocks[:, None] * per + np.arange(per)


def _check_features(spec: ModelSpec, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"features must have shape (m, {spec.input_dim})")


def _require_rmse(objective: str) -> None:
    if objective != "rmse":
        raise ValueError(f"objective must be 'rmse', the only one, got {objective!r}")


def _layers(spec: ModelSpec, stack: np.ndarray) -> list[tuple]:
    """Each layer's (weights (..., out, fin), their transpose (..., fin, out),
    biases (..., 1, out)) as views into the (..., n) ``stack``, built once
    per call; writing through them writes the stack.  A linear model is one
    layer (None, theta as (..., n, 1), None)."""
    if spec.kind == "linear":
        return [(None, stack[..., None], None)]
    layers = []
    for out, fin, weights, biases in spec.layer_slices:
        w = stack[..., weights].reshape(*stack.shape[:-1], out, fin)
        layers.append((w, w.swapaxes(-1, -2), stack[..., None, biases]))
    return layers


def _forward(layers: list[tuple], x: np.ndarray):
    """Stacked forward pass: (outputs, per-layer input cache for backprop).

    ``layers`` holds the views (``_layers``) of a (..., n) stack of parameter
    vectors; ``x`` holds rows as (..., rows, input_dim), its leading axes
    broadcast against the stack's (one client's rows serve it in every
    cell).  Outputs are (..., rows, 1).  Every product is one matmul per
    stacked vector, so a vector's outputs do not depend on what else is
    stacked with it.
    """
    inputs = []
    a = x
    for i, (_, w_t, b) in enumerate(layers):
        inputs.append(a)
        a = a @ w_t
        if b is not None:
            a += b
            if i < len(layers) - 1:
                np.maximum(a, 0.0, out=a)
    return a, inputs


def _output_gradient(out: np.ndarray, y: np.ndarray, mask: np.ndarray, roots: np.ndarray,
                     residual: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Derivative of each stacked block's RMSE w.r.t. its outputs, into ``d_out``.

    ``out`` is (..., rows, 1); the targets ``y`` and ``mask`` (real rows),
    (..., rows, 1), and ``roots``, (..., 1, 1), minus the square root of
    each block's real row count (r / -s is -(r / s) to the bit), broadcast
    against it.  ``residual``, shaped as ``out``, holds 0.0 in masked rows,
    so they get an exactly zero derivative.  Returns which blocks take a
    step, (..., 1, 1): those with a nonzero residual.  At a zero residual,
    and in a block without rows, the zero vector is the subgradient, so the
    step is skipped rather than divided by the zero norm.
    """
    np.subtract(y, out, out=residual, where=mask)
    scale = roots * np.sqrt(np.add.reduce(residual * residual, axis=-2, keepdims=True))
    moving = scale != 0.0
    np.divide(residual, np.where(moving, scale, -1.0), out=d_out)
    return moving


def _backward(
    layers: list[tuple], grads: list[tuple], inputs: list[np.ndarray], d_out: np.ndarray
) -> None:
    """Stacked backward pass from the output derivative: writes each layer's
    gradient into its views in ``grads`` (``_layers`` of a buffer shaped as
    the stack)."""
    for i in range(len(layers) - 1, -1, -1):
        (w, _, _), (g_w, g_wt, g_b), a_in = layers[i], grads[i], inputs[i]
        if w is None:  # linear: theta's gradient is x^T d_out
            np.matmul(a_in.swapaxes(-1, -2), d_out, out=g_wt)
        else:
            np.matmul(d_out.swapaxes(-1, -2), a_in, out=g_w)
            np.add.reduce(d_out, axis=-2, keepdims=True, out=g_b)
        if i > 0:
            d_out = d_out @ w
            d_out *= a_in > 0


def predict(spec: ModelSpec, params: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Model outputs per feature row, as a 1-D array."""
    params = _check_params(spec, params)
    x = np.asarray(features, dtype=float)
    _check_features(spec, x)
    out = _forward(_layers(spec, params[None]), x[None])[0][0]
    return out[:, 0]


def loss(spec: ModelSpec, params: np.ndarray, batch: Batch, objective: str) -> float:
    """RMSE (residual norm over sqrt(batch size)): the single-vector,
    single-batch entry of ``loss_matrix``.  ``objective`` must be "rmse"."""
    _require_rmse(objective)
    table = ClientTable.from_batches(spec, [batch])
    return float(loss_matrix(spec, _check_params(spec, params)[None], table)[0, 0])


def loss_matrix(spec: ModelSpec, hypotheses: np.ndarray, table: ClientTable,
                blocks: np.ndarray | None = None) -> np.ndarray:
    """Loss of every hypothesis on every client of ``table`` (of its block
    ``blocks[j]`` for hypothesis j), from one forward pass.

    ``hypotheses`` is a (k, n_params(spec)) array with k >= 1.  Returns a
    float array of shape (clients per block, k) whose entry [i, j] is the
    loss of ``hypotheses[j]`` on client i.  All k hypotheses run over the
    rows (each over its block's, padded with its first row to the longest
    block and one more) as (k, rows, width) matmuls; per-row losses are
    then summed per client, over its own rows only.  (A block of one one-row
    client is no 1-row matmul then, so it may move in the last ulp.)
    """
    h = _check_stack(spec, hypotheses, "hypotheses")
    if table.n_blocks == 1:  # measured: a gather costs a ragged run about 6%
        out, _ = _forward(_layers(spec, h), table.x[None])
        totals = np.add.reduceat(_squared_residuals(out, table.y), table.offsets, axis=1)
        return (np.sqrt(totals) / np.sqrt(table.sizes)).T
    sizes, first = (column.reshape(table.n_blocks, -1) for column in (table.sizes, table.offsets))
    local = first - first[:, :1]  # each client's first row among its block's
    reach = (local[:, -1:] + sizes[:, -1:])[blocks]
    slot = np.arange(reach.max() + 1)
    rows = first[blocks, :1] + np.where(slot < reach, slot, 0)
    out, _ = _forward(_layers(spec, h), table.x.take(rows, axis=0))
    starts = local[blocks] + len(slot) * np.arange(len(h))[:, None]
    bounds = np.stack([starts, starts + sizes[blocks]], axis=-1).ravel()
    totals = np.add.reduceat(_squared_residuals(out, table.y[rows]).ravel(), bounds)[::2]
    return (np.sqrt(totals.reshape(starts.shape)) / np.sqrt(sizes[blocks])).T


def client_losses(spec: ModelSpec, params: np.ndarray, table: ClientTable,
                  blocks: np.ndarray | None = None) -> np.ndarray:
    """Loss of each client's vector on that client's rows: entry [..., i] of
    the result is ``params[..., i, :]``'s on client i of ``table``, for a
    (U, n) or (G, U, n) ``params`` (of block ``blocks[c]`` in cell c).  One
    forward pass: the clients are stacked, padded to the largest one, each
    under its own vector.  A client's sum is ``np.sum``'s over its rows and
    zeros up to its block's largest client (0, then numpy's pairwise sum,
    which reduceat repeats), so on ragged clients an entry can move in the
    last ulp with the other clients of its block.
    """
    stack, clients = _check_cells(spec, params, table, blocks)
    slot = np.arange(table.sizes.max())
    rows = table.offsets[:, None] + np.where(slot < table.sizes[:, None], slot, 0)
    sizes = table.sizes[clients]
    mask = slot < sizes[..., None]
    out, _ = _forward(_layers(spec, stack), table.x.take(rows, axis=0)[clients])
    squared = _squared_residuals(out, table.y[rows][clients])
    padded = np.zeros((*squared.shape[:-1], len(slot) + 2))  # a leading 0, a spare column
    np.copyto(padded[..., 1:-1], squared, where=mask)
    starts = np.arange(0, padded.size, padded.shape[-1]).reshape(squared.shape[:-1])
    bounds = np.stack([starts, starts + 1 + sizes.max(axis=-1, keepdims=True)], axis=-1)
    totals = np.add.reduceat(padded.ravel(), bounds.ravel())[::2].reshape(starts.shape)
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
    table = ClientTable.from_batches(spec, [batch])
    layers = _layers(spec, params[None])
    out, inputs = _forward(layers, table.x[None])
    roots, d_out = -np.sqrt(table.sizes)[:, None, None], np.empty_like(out)
    moving = _output_gradient(out, table.y[None, :, None], True, roots, np.empty_like(out), d_out)
    grad = np.zeros((1, len(params)))
    if moving[0, 0, 0]:
        _backward(layers, _layers(spec, grad), inputs, d_out)
    return grad[0]


def local_updates(
    spec: ModelSpec,
    params: np.ndarray,
    table: ClientTable,
    step_size: float,
    epochs: int,
    batch_size: int,
    rngs: Sequence[np.random.Generator],
    blocks: np.ndarray | None = None,
) -> np.ndarray:
    """Mini-batch SGD of U clients, in each of G cells: entry [..., i, :] of
    the result is client i's update of ``params[..., i, :]``.

    ``params`` is a (U, n_params(spec)) or (G, U, n_params(spec)) stack of
    starting vectors, left untouched; ``table`` holds the U local datasets
    (cell c trains on block ``blocks[c]`` of several) and ``rngs`` their
    streams.  Each epoch every client reshuffles once with its own stream,
    in client order, for every cell, and walks blocks of ``batch_size`` rows
    (its last one may be smaller).  Step j of an epoch takes block j of
    every client, padded to ``batch_size`` rows with copies of its first
    row; a padded row, and a step past a client's last block, leave the
    vector exactly as it was.  No operation mixes vectors, so each is
    bit-identical to a stack of it alone.  Each step writes its gradient
    into one buffer and subtracts it from a copy of ``params`` in place,
    through layer views of both built once per call.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    params, clients = _check_cells(spec, params, table, blocks)
    if len(rngs) != len(table):
        raise ValueError("need one stream per client of the table")
    # One cell of a one-block table steps as its (U, n) view: measured 3% faster on ragged.
    alone = params.ndim == 3 and len(params) == 1 and table.n_blocks == 1
    params = params[0] if alone else params
    x, y, sizes, starts = table.x, table.y, table.sizes, table.offsets
    stack = params.copy()
    steps = -(-sizes.max() // batch_size)
    slots = steps * batch_size
    shape = (*sizes[clients].shape, steps, batch_size)  # (..., U, steps, batch_size)
    own, counts = np.arange(slots) < sizes[:, None], sizes.tolist()  # each client's slots
    mask = own[clients].reshape(*shape, 1)
    at = mask.ndim - 3  # the steps axis, moved first
    steps_first = (at, *range(at), at + 1, at + 2)
    masks = mask.transpose(steps_first)
    roots = -np.sqrt(masks.sum(axis=-2, keepdims=True))
    d_out = np.empty((*stack.shape[:-1], batch_size, 1))
    residuals = np.zeros((steps, *d_out.shape))  # a step's masked rows stay 0.0
    layers, grad = _layers(spec, stack), np.empty_like(stack)
    grads, vectors, deltas = _layers(spec, grad), stack[..., None, :], grad[..., None, :]
    for _ in range(epochs):
        rows = np.repeat(starts[:, None], slots, axis=1)
        rows[own] += np.concatenate([rng.permutation(n) for rng, n in zip(rngs, counts)])
        xs = x.take(rows, axis=0)[clients].reshape(*shape, -1).transpose(steps_first)
        ys = y[rows][clients].reshape(*shape, 1).transpose(steps_first)
        for x_j, y_j, mask_j, root_j, residual_j in zip(xs, ys, masks, roots, residuals):
            out, inputs = _forward(layers, x_j)
            moving = _output_gradient(out, y_j, mask_j, root_j, residual_j, d_out)
            _backward(layers, grads, inputs, d_out)
            np.multiply(step_size, grad, out=grad)
            np.subtract(vectors, deltas, out=vectors, where=moving)
    return stack[None] if alone else stack
