"""Local models, lockstep chain SGD, and evaluation.

Two desk-scale architectures: multinomial logistic regression
(``softmax_linear``) and a one-hidden-layer tanh MLP (``mlp_one_hidden``).
Parameters live in a single flat float64 vector with a layout table, so
chaining, averaging and checkpointing never have to understand layer shapes.

Training is plain SGD on softmax cross-entropy: per epoch, a seeded
permutation of the client's samples is cut into batches of ``batch_size``;
the final short batch is kept and its gradient averaged over its own size.
All math is float64 and the functions are pure, which is what makes a
sequential chain of clients bit-reproducible and equal to centralized SGD
over the concatenated data under a matched batch schedule.

A round trains G chains of L clients, and every client holds n samples, so
:func:`train_chains` advances all G chains in lockstep: step t of every chain
is one stacked update on a (G, P) parameter array, with batched matrix
products in place of G separate ones. Each chain's result is bit-identical
to training its clients one at a time with :func:`train_one_client`, which
stays as that one-client reference (acceptance criterion 5). Each epoch's
batches are gathered once, subtracting a one-hot of the labels equals the
indexed subtraction bit for bit, and a failed divergence screen is re-checked
exactly before anything is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, TrainingDivergedError
from .rng import generator

KIND_SOFTMAX_LINEAR = "softmax_linear"
KIND_MLP_ONE_HIDDEN = "mlp_one_hidden"


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    feature_dim: int
    num_classes: int
    hidden_units: int | None = None
    init_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (KIND_SOFTMAX_LINEAR, KIND_MLP_ONE_HIDDEN):
            raise ConfigurationError(f"unknown model kind {self.kind!r}")
        if self.feature_dim < 1 or self.num_classes < 2:
            raise ConfigurationError("model dimensions are inconsistent")
        if self.kind == KIND_MLP_ONE_HIDDEN:
            if self.hidden_units is None or self.hidden_units < 1:
                raise ConfigurationError(
                    f"mlp_one_hidden needs positive hidden_units, got {self.hidden_units}"
                )


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float = 0.01
    batch_size: int = 5
    local_epochs: int = 1

    def __post_init__(self) -> None:
        if self.learning_rate < 0.0:
            raise ConfigurationError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.local_epochs < 1:
            raise ConfigurationError(f"local_epochs must be >= 1, got {self.local_epochs}")


@dataclass(frozen=True)
class ModelParams:
    """Flat float64 parameter vector plus its layer layout.

    ``layout`` is a tuple of ``(name, shape)`` pairs in storage order; the
    names identify the architecture (``w, b`` for the linear model,
    ``w1, b1, w2, b2`` for the MLP).
    """

    values: np.ndarray
    layout: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        expected = sum(math.prod(shape) for _, shape in self.layout)
        if values.ndim != 1 or values.size != expected:
            raise ValueError(f"expected {expected} parameters, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("parameters must be finite")


def _layout(spec: ModelSpec) -> tuple[tuple[str, tuple[int, ...]], ...]:
    if spec.kind == KIND_SOFTMAX_LINEAR:
        return (
            ("w", (spec.num_classes, spec.feature_dim)),
            ("b", (spec.num_classes,)),
        )
    return (
        ("w1", (spec.hidden_units, spec.feature_dim)),
        ("b1", (spec.hidden_units,)),
        ("w2", (spec.num_classes, spec.hidden_units)),
        ("b2", (spec.num_classes,)),
    )


def init_model(spec: ModelSpec) -> ModelParams:
    """Seeded init: weights uniform in [-s, s] with s = 1/sqrt(fan_in), biases zero."""
    rng = generator(spec.init_seed, "model-init")
    layout = _layout(spec)
    chunks = []
    for name, shape in layout:
        if name.startswith("w"):
            bound = 1.0 / math.sqrt(shape[1])
            chunks.append(rng.uniform(-bound, bound, size=shape).ravel())
        else:
            chunks.append(np.zeros(shape))
    return ModelParams(values=np.concatenate(chunks), layout=layout)


def _split(values: np.ndarray, layout) -> dict[str, np.ndarray]:
    """Layer views of a (P,) vector, or (G, *shape) views of a (G, P) stack."""
    views = {}
    offset = 0
    for name, shape in layout:
        size = math.prod(shape)
        views[name] = values[..., offset : offset + size].reshape(values.shape[:-1] + shape)
        offset += size
    return views


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def _forward(layers: dict[str, np.ndarray], features: np.ndarray):
    """Return (logits, hidden activation or None) for split parameter layers.

    Takes one model and (b, d) features, or a stack of G models and
    (G, b, d) features.
    """
    if "w1" in layers:
        hidden = np.tanh(features @ _transposed(layers["w1"]) + layers["b1"][..., None, :])
        return hidden @ _transposed(layers["w2"]) + layers["b2"][..., None, :], hidden
    return features @ _transposed(layers["w"]) + layers["b"][..., None, :], None


def _transposed(weights: np.ndarray) -> np.ndarray:
    return weights.swapaxes(-1, -2)


def loss_and_gradient(
    params: ModelParams, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its analytic gradient (flat)."""
    layers = _split(params.values, params.layout)
    batch = len(labels)
    logits, hidden = _forward(layers, features)
    log_probs = _log_softmax(logits)
    loss = -float(log_probs[np.arange(batch), labels].mean())

    delta = np.exp(log_probs)
    delta[np.arange(batch), labels] -= 1.0
    delta /= batch

    if hidden is None:
        grads = {"w": delta.T @ features, "b": delta.sum(axis=0)}
    else:
        upstream = (delta @ layers["w2"]) * (1.0 - hidden * hidden)
        grads = {
            "w1": upstream.T @ features,
            "b1": upstream.sum(axis=0),
            "w2": delta.T @ hidden,
            "b2": delta.sum(axis=0),
        }
    flat = np.concatenate([grads[name].ravel() for name, _ in params.layout])
    return loss, flat


def train_one_client(
    params: ModelParams, dataset, config: SgdConfig, batch_seed: int
) -> ModelParams:
    """Run ``local_epochs`` of mini-batch SGD on one client's data.

    The batch order of epoch ``e`` is the seeded permutation
    ``generator(batch_seed, "batch-order", e)``; the input parameters and the
    dataset are never mutated.

    Raises:
        TrainingDivergedError: On a non-finite loss or gradient.
    """
    values = params.values.copy()
    working = ModelParams(values=values, layout=params.layout)
    features, labels = dataset.features, dataset.labels
    n = len(labels)
    if n == 0:
        raise ValueError("dataset is empty")
    for epoch in range(config.local_epochs):
        order = generator(batch_seed, "batch-order", epoch).permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grad = loss_and_gradient(working, features[idx], labels[idx])
            if not math.isfinite(loss) or not np.all(np.isfinite(grad)):
                raise TrainingDivergedError(
                    f"non-finite loss/gradient at epoch {epoch}, "
                    f"batch {start // config.batch_size} (learning-rate blowup?)"
                )
            values -= config.learning_rate * grad
    return ModelParams(values=values, layout=params.layout)


def train_chains(
    params: ModelParams, clients, groups: np.ndarray, batch_seeds, config: SgdConfig
) -> np.ndarray:
    """Train G client chains from ``params`` in lockstep; returns their (G, P) outputs.

    Row g of the (G, L) ``groups`` is one chain: clients ``groups[g, 0..L-1]``
    train one after another, client ``groups[g, l]`` with batch seed
    ``batch_seeds[g, l]``, each as :func:`train_one_client` would. Every
    client of ``clients`` holds n samples, so all chains take the same steps,
    and step t of every chain runs as one stacked update. Row g of the result
    equals the parameter vector of chain g trained alone, bit for bit.

    Each step repeats :func:`loss_and_gradient` op for op on basic slices of
    the epoch's gathered batches, except that it subtracts a float64 one-hot
    in place of indexing the label entries (``x - 0.0 == x``), and that it
    computes no loss unless its one-reduction screen is non-finite.

    Raises:
        TrainingDivergedError: On a non-finite loss, gradient or parameter,
            naming the chain (row of ``groups``), its client and position,
            and the epoch and batch.
    """
    groups = np.asarray(groups)
    batch_seeds = np.asarray(batch_seeds, dtype=np.uint64)
    features, labels = clients.features, clients.labels
    n = labels.shape[1]
    values = np.tile(params.values, (len(groups), 1))
    grads = np.empty_like(values)
    # Views into values and grads: they follow the in-place updates.
    layers = _split(values, params.layout)
    grad_layers = _split(grads, params.layout)
    transposed = {name: _transposed(view) for name, view in layers.items() if name[0] == "w"}
    biases = {name: view[..., None, :] for name, view in layers.items() if name[0] == "b"}
    mlp = "w1" in layers
    classes = np.arange(layers["b2" if mlp else "b"].shape[-1])

    def diverged(finite: np.ndarray, position: int, where: str) -> TrainingDivergedError:
        chain = int(np.argmin(finite))
        return TrainingDivergedError(
            f"chain {chain} (client {groups[chain, position]}, position {position}): "
            f"non-finite {where} (learning-rate blowup?)"
        )

    for position in range(groups.shape[1]):
        members = groups[:, position, None]
        for epoch in range(config.local_epochs):
            orders = np.stack(
                [
                    generator(int(seed), "batch-order", epoch).permutation(n)
                    for seed in batch_seeds[:, position]
                ]
            )
            xs = features[members, orders]
            ys = labels[members, orders]
            onehots = (ys[..., None] == classes).astype(np.float64)
            for start in range(0, n, config.batch_size):
                batch_slice = slice(start, start + config.batch_size)
                x = xs[:, batch_slice]
                onehot = onehots[:, batch_slice]
                batch = x.shape[1]
                if mlp:
                    hidden = np.tanh(x @ transposed["w1"] + biases["b1"])
                    logits = hidden @ transposed["w2"] + biases["b2"]
                else:
                    logits = x @ transposed["w"] + biases["b"]
                shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
                log_probs = shifted - np.log(
                    np.add.reduce(np.exp(shifted), axis=-1, keepdims=True)
                )

                delta = np.exp(log_probs)
                delta -= onehot
                delta /= batch
                if mlp:
                    upstream = (delta @ layers["w2"]) * (1.0 - hidden * hidden)
                    np.matmul(_transposed(upstream), x, out=grad_layers["w1"])
                    np.add.reduce(upstream, axis=1, out=grad_layers["b1"])
                    np.matmul(_transposed(delta), hidden, out=grad_layers["w2"])
                    np.add.reduce(delta, axis=1, out=grad_layers["b2"])
                else:
                    np.matmul(_transposed(delta), x, out=grad_layers["w"])
                    np.add.reduce(delta, axis=1, out=grad_layers["b"])

                # A non-finite entry makes this sum non-finite; a finite sum
                # that overflows is re-checked exactly before anything raises.
                if not math.isfinite(np.vdot(log_probs, onehot) + np.add.reduce(grads, axis=None)):
                    picked = (np.arange(len(groups))[:, None], np.arange(batch), ys[:, batch_slice])
                    loss = -log_probs[picked].mean(axis=1)
                    finite = np.isfinite(loss) & np.isfinite(grads).all(axis=1)
                    if not finite.all():
                        raise diverged(
                            finite,
                            position,
                            f"loss/gradient at epoch {epoch}, batch {start // config.batch_size}",
                        )
                grads *= config.learning_rate
                values -= grads
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            raise diverged(finite, position, "parameters after local training")
    return values


def evaluate(params: ModelParams, dataset) -> tuple[float, float]:
    """Accuracy (argmax-match fraction) and mean cross-entropy on a dataset."""
    logits, _ = _forward(_split(params.values, params.layout), dataset.features)
    log_probs = _log_softmax(logits)
    predictions = np.argmax(logits, axis=1)
    accuracy = float(np.mean(predictions == dataset.labels))
    loss = -float(log_probs[np.arange(len(dataset.labels)), dataset.labels].mean())
    return accuracy, loss
