"""Plain-loop local SGD reference used to cross-check the stacked version.

Deliberately written per client, per mini-batch and per row with scalar
arithmetic; shares only the contract: each epoch draws one permutation of
the client's rows from its stream and walks blocks of ``batch_size`` rows
(the last one may be smaller); the block objective is RMSE (residual norm
over sqrt(block size), no step at an exactly-zero residual) or mean cross
entropy; parameters are packed per layer, weights row-major then biases.
"""

import math


def layer_shapes(spec):
    """(fan_out, fan_in) per affine layer; a linear model is one layer
    without biases."""
    if spec.kind == "linear":
        return [(1, spec.input_dim)]
    widths = [spec.input_dim, *spec.hidden, spec.output_dim]
    return [(widths[i + 1], widths[i]) for i in range(len(widths) - 1)]


def unpack_layers(spec, flat):
    layers = []
    offset = 0
    for out, fin in layer_shapes(spec):
        weights = [[flat[offset + o * fin + f] for f in range(fin)] for o in range(out)]
        offset += out * fin
        if spec.kind == "linear":
            biases = [0.0]
        else:
            biases = [flat[offset + o] for o in range(out)]
            offset += out
        layers.append((weights, biases))
    return layers


def forward_row(layers, row):
    """Outputs of one row and the input of every layer."""
    inputs = []
    a = list(row)
    for index, (weights, biases) in enumerate(layers):
        inputs.append(a)
        z = []
        for o in range(len(weights)):
            total = biases[o]
            for f in range(len(a)):
                total += weights[o][f] * a[f]
            z.append(total)
        a = z if index == len(layers) - 1 else [max(v, 0.0) for v in z]
    return a, inputs


def output_derivatives(outputs, targets, objective):
    """d objective / d output per row, or None for a zero-residual block."""
    m = len(outputs)
    if objective == "rmse":
        residuals = [float(y) - out[0] for out, y in zip(outputs, targets)]
        norm = math.sqrt(sum(r * r for r in residuals))
        if norm == 0.0:
            return None
        return [[-r / (math.sqrt(m) * norm)] for r in residuals]
    derivatives = []
    for logits, label in zip(outputs, targets):
        top = max(logits)
        exps = [math.exp(v - top) for v in logits]
        total = sum(exps)
        probs = [e / total for e in exps]
        probs[int(label)] -= 1.0
        derivatives.append([p / m for p in probs])
    return derivatives


def block_gradient(spec, flat, rows, targets, objective):
    layers = unpack_layers(spec, flat)
    outputs, caches = [], []
    for row in rows:
        out, inputs = forward_row(layers, row)
        outputs.append(out)
        caches.append(inputs)
    derivatives = output_derivatives(outputs, targets, objective)
    if derivatives is None:
        return None
    grads = [
        ([[0.0] * len(weights[0]) for _ in weights], [0.0] * len(biases))
        for weights, biases in layers
    ]
    for d_out, inputs in zip(derivatives, caches):
        for index in range(len(layers) - 1, -1, -1):
            weights, _ = layers[index]
            g_weights, g_biases = grads[index]
            a_in = inputs[index]
            for o in range(len(weights)):
                g_biases[o] += d_out[o]
                for f in range(len(a_in)):
                    g_weights[o][f] += d_out[o] * a_in[f]
            if index > 0:
                d_out = [
                    sum(d_out[o] * weights[o][f] for o in range(len(weights)))
                    if a_in[f] > 0
                    else 0.0
                    for f in range(len(a_in))
                ]
    flat_grad = []
    for g_weights, g_biases in grads:
        for weight_row in g_weights:
            flat_grad.extend(weight_row)
        if spec.kind != "linear":
            flat_grad.extend(g_biases)
    return flat_grad


def sgd_reference(spec, params, x, y, step_size, epochs, batch_size, objective, rng):
    """One client's local SGD; returns the updated vector as a list."""
    flat = [float(v) for v in params]
    m = len(x)
    for _ in range(epochs):
        order = rng.permutation(m)
        for start in range(0, m, batch_size):
            block = order[start : start + batch_size]
            rows = [x[i] for i in block]
            grad = block_gradient(spec, flat, rows, [y[i] for i in block], objective)
            if grad is not None:
                flat = [p - step_size * g for p, g in zip(flat, grad)]
    return flat
