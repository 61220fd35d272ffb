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

Each architecture's forward pass (:func:`_forward`), backward pass
(:func:`_backward`) and the label cross-entropy (:func:`_cross_entropy`) are
written once, for one model's (b, ...) arrays or a stack of G models'
(G, b, ...) arrays. A round trains G chains of L clients, and every client
holds n samples, so :func:`train_chains` advances all G chains in lockstep:
step t of every chain is one stacked update on a (G, P) parameter array.
It is the one SGD loop; :func:`train_one_client` runs one client through it.
Its independent oracles (a client-at-a-time loop on :func:`loss_and_gradient`,
per-sample centralized SGD, finite differences) live in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import Dataset
from .errors import ConfigurationError, TrainingDivergedError
from .rng import generator, stream_generators, stream_id

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
    values = np.zeros(sum(math.prod(shape) for _, shape in layout))
    for name, view in _split(values, layout).items():
        if name.startswith("w"):
            bound = 1.0 / math.sqrt(view.shape[1])
            view[...] = rng.uniform(-bound, bound, size=view.shape)
    return ModelParams(values=values, layout=layout)


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
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def _forward(layers: dict[str, np.ndarray], features: np.ndarray):
    """Return (logits, hidden activation or None) for split parameter layers.

    Takes one model and (b, d) features, or a stack of G models and
    (G, b, d) features.
    """
    # Bias and activation work in place (same bits as out-of-place), so a
    # forward pass holds one (b, H) buffer where it held two. With two, an
    # evaluation on a 1000-row test set could peak past glibc's heap-trim
    # threshold, and every later round then faulted its pages in afresh.
    if "w1" in layers:
        hidden = features @ _transposed(layers["w1"])
        hidden += layers["b1"][..., None, :]
        np.tanh(hidden, out=hidden)
        logits = hidden @ _transposed(layers["w2"])
        logits += layers["b2"][..., None, :]
        return logits, hidden
    logits = features @ _transposed(layers["w"])
    logits += layers["b"][..., None, :]
    return logits, None


def _transposed(weights: np.ndarray) -> np.ndarray:
    return weights.swapaxes(-1, -2)


def _backward(layers, x, hidden, log_probs, onehot, grad_layers) -> None:
    """Write the batch-mean cross-entropy gradient into the ``grad_layers`` views.

    ``layers``, ``x`` and ``hidden`` are :func:`_forward`'s, for one model or a
    stack; ``onehot`` is the labels as float64 one-hot rows.
    """
    delta = np.exp(log_probs)
    delta -= onehot
    delta /= x.shape[-2]
    if hidden is not None:
        upstream = (delta @ layers["w2"]) * (1.0 - hidden * hidden)
        np.matmul(_transposed(upstream), x, out=grad_layers["w1"])
        np.add.reduce(upstream, axis=-2, out=grad_layers["b1"])
        x = hidden  # the output layer's input
    *_, weights, bias = grad_layers.values()  # the output layer is stored last
    np.matmul(_transposed(delta), x, out=weights)
    np.add.reduce(delta, axis=-2, out=bias)


def _cross_entropy(log_probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean cross-entropy of the labels over the batch axis, one per model."""
    return -np.take_along_axis(log_probs, labels[..., None], axis=-1)[..., 0].mean(axis=-1)


def loss_and_gradient(
    params: ModelParams, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its analytic gradient (flat)."""
    layers = _split(params.values, params.layout)
    logits, hidden = _forward(layers, features)
    log_probs = _log_softmax(logits)
    grad = np.empty_like(params.values)
    onehot = np.eye(log_probs.shape[-1])[labels]
    _backward(layers, features, hidden, log_probs, onehot, _split(grad, params.layout))
    return float(_cross_entropy(log_probs, labels)), grad


def train_one_client(
    params: ModelParams, dataset, config: SgdConfig, batch_seed: int
) -> ModelParams:
    """Run ``local_epochs`` of mini-batch SGD on one client's data.

    This is :func:`train_chains` on one chain of one client: epoch ``e``'s
    batch order is the permutation ``generator(batch_seed, "batch-order", e)``,
    and the input parameters and the dataset are never mutated.

    Raises:
        ValueError: If the dataset is empty.
        TrainingDivergedError: On a non-finite loss, gradient or parameter.
    """
    client = Dataset(features=dataset.features[None], labels=dataset.labels[None])
    # Any int seed: stream ids reduce it mod 2**64, and train_chains takes uint64.
    trained = train_chains(params, client, [[0]], [[batch_seed % 2**64]], config)
    return ModelParams(values=trained[0], layout=params.layout)


def train_chains(
    params: ModelParams, clients, groups: np.ndarray, batch_seeds, config: SgdConfig
) -> np.ndarray:
    """Train G client chains from ``params`` in lockstep; returns their (G, P) outputs.

    Row g of the (G, L) ``groups`` is one chain: clients ``groups[g, 0..L-1]``
    train one after another, client ``groups[g, l]`` with batch seed
    ``batch_seeds[g, l]`` seeding its epochs' batch orders. Every
    client of ``clients`` holds n samples, so all chains take the same steps,
    and step t of every chain runs as one stacked update. Row g of the result
    equals the parameter vector of chain g trained alone, bit for bit.

    Each step runs the shared ``_forward``, ``_log_softmax`` and
    ``_backward`` on basic slices of the epoch's gathered batches and one-hot
    labels. It computes no loss unless its one-reduction screen is
    non-finite, and re-checks a failed screen exactly before it raises.

    Raises:
        ValueError: If the clients hold no samples.
        TrainingDivergedError: On a non-finite loss, gradient or parameter,
            naming the chain (row of ``groups``), its client and position,
            and the epoch and batch.
    """
    groups = np.asarray(groups)
    batch_seeds = np.asarray(batch_seeds, dtype=np.uint64)
    features, labels = clients.features, clients.labels
    n = labels.shape[1]
    if n == 0:
        raise ValueError("dataset is empty")
    values = np.tile(params.values, (len(groups), 1))
    grads = np.empty_like(values)
    # Views into values and grads: they follow the in-place updates.
    layers = _split(values, params.layout)
    grad_layers = _split(grads, params.layout)
    identity = np.eye(params.layout[-1][1][0])  # C x C, C being the output bias's length

    def diverged(finite: np.ndarray, position: int, where: str) -> TrainingDivergedError:
        chain = int(np.argmin(finite))
        return TrainingDivergedError(
            f"chain {chain} (client {groups[chain, position]}, position {position}): "
            f"non-finite {where} (learning-rate blowup?)"
        )

    # Every batch-order stream of the call, seeded in one pass, in the order
    # the loop below takes them: by position, then epoch, then chain.
    epochs = range(config.local_epochs)
    streams = stream_generators(
        [
            stream_id(int(seed), "batch-order", epoch)
            for column in batch_seeds.T
            for epoch in epochs
            for seed in column
        ]
    )
    for position in range(groups.shape[1]):
        members = groups[:, position, None]
        for epoch in epochs:
            orders = np.stack([next(streams).permutation(n) for _ in groups])
            xs = features[members, orders]
            ys = labels[members, orders]
            onehots = identity[ys]
            for start in range(0, n, config.batch_size):
                batch_slice = slice(start, start + config.batch_size)
                x = xs[:, batch_slice]
                onehot = onehots[:, batch_slice]
                logits, hidden = _forward(layers, x)
                log_probs = _log_softmax(logits)
                _backward(layers, x, hidden, log_probs, onehot, grad_layers)

                # A non-finite entry makes this sum non-finite; a finite sum
                # that overflows is re-checked exactly before anything raises.
                if not math.isfinite(np.vdot(log_probs, onehot) + np.add.reduce(grads, axis=None)):
                    loss = _cross_entropy(log_probs, ys[:, batch_slice])
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
    # The hidden activation is dropped before the softmax temporaries exist.
    logits = _forward(_split(params.values, params.layout), dataset.features)[0]
    log_probs = _log_softmax(logits)
    accuracy = float(np.mean(np.argmax(logits, axis=1) == dataset.labels))
    return accuracy, float(_cross_entropy(log_probs, dataset.labels))
