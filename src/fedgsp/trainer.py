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

Each architecture's forward pass (:func:`_forward`), one batch's training
step (:func:`_step`: forward pass, log-softmax, backward pass) and the label
cross-entropy (:func:`_cross_entropy`) are written once, for one model's
(b, ...) arrays or a stack of G models' (G, b, ...) arrays, on layer views
(:func:`_views`) that a call builds once. A round trains G chains of L
clients, and every client holds n samples, so :func:`train_chains` advances
all G chains in lockstep: step t of every chain is one stacked update on a
(G, P) parameter array. It is the one SGD loop; :func:`train_one_client`
runs one client through it, and :func:`loss_and_gradient` is one model's
:func:`_step`. The independent oracles (a client-at-a-time loop on
:func:`loss_and_gradient`, per-sample centralized SGD, finite differences)
live in the tests. A call derives all its batch-order stream ids in one
``stream_ids`` call and shuffles all its batch orders in one pass.
:func:`evaluate` forms only the labels' log-probabilities, with the bits of
the full log-softmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import Dataset
from .errors import ConfigurationError, TrainingDivergedError
from .rng import generator, stream_generators, stream_ids

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


def _views(values: np.ndarray, layout) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(weights, transposed weights, row-broadcast bias) of each layer, input first.

    Views of a (P,) vector or of a (G, P) stack, so they follow in-place
    updates: a training call builds them once, not at every step.
    """
    split = list(_split(values, layout).values())
    return [(w, w.swapaxes(-1, -2), b[..., None, :]) for w, b in zip(split[::2], split[1::2])]


def _log_sum_exp(shifted: np.ndarray) -> np.ndarray:
    """log(sum(exp)) over the class axis of row-max-shifted logits, as a (..., 1) column."""
    return np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def _forward(layers, features: np.ndarray):
    """Return (logits, hidden activation or None) for :func:`_views` layers.

    Takes one model and (b, d) features, or a stack of G models and
    (G, b, d) features.
    """
    # Bias and activation work in place (same bits as out-of-place), so a
    # forward pass holds one (b, H) buffer where it held two. With two, an
    # evaluation on a 1000-row test set could peak past glibc's heap-trim
    # threshold, and every later round then faulted its pages in afresh.
    *hidden_layers, (_, out_transposed, out_bias) = layers
    if hidden_layers:
        [(_, in_transposed, in_bias)] = hidden_layers
        hidden = features @ in_transposed
        hidden += in_bias
        np.tanh(hidden, out=hidden)
        logits = hidden @ out_transposed
        logits += out_bias
        return logits, hidden
    logits = features @ out_transposed
    logits += out_bias
    return logits, None


def _step(layers, grad_layers, x: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    """One batch's forward pass, log-softmax and backward pass; returns the log-probabilities.

    ``layers`` and ``grad_layers`` are :func:`_views` of the parameters and
    of the gradient buffer, for one model and (b, ...) arrays or a stack of
    G models and (G, b, ...) arrays; ``onehot`` is the labels as float64
    one-hot rows. The batch-mean cross-entropy gradient is written into
    ``grad_layers``. The log-softmax shifts the logits in place, the same
    bits as out of place.
    """
    log_probs, hidden = _forward(layers, x)
    log_probs -= np.maximum.reduce(log_probs, axis=-1, keepdims=True)
    log_probs -= _log_sum_exp(log_probs)
    delta = np.exp(log_probs)
    delta -= onehot
    delta /= x.shape[-2]
    grad_weights, _, grad_bias = grad_layers[-1]  # the output layer
    np.matmul(delta.swapaxes(-1, -2), x if hidden is None else hidden, out=grad_weights)
    np.add.reduce(delta, axis=-2, keepdims=True, out=grad_bias)
    if hidden is not None:
        upstream = delta @ layers[1][0]
        hidden *= hidden  # tanh's derivative 1 - hidden², formed in hidden's buffer
        upstream *= np.subtract(1.0, hidden, out=hidden)
        grad_weights, _, grad_bias = grad_layers[0]
        np.matmul(upstream.swapaxes(-1, -2), x, out=grad_weights)
        np.add.reduce(upstream, axis=-2, keepdims=True, out=grad_bias)
    return log_probs


def _cross_entropy(log_probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean cross-entropy of the labels over the batch axis, one per model."""
    return -np.take_along_axis(log_probs, labels[..., None], axis=-1)[..., 0].mean(axis=-1)


def loss_and_gradient(
    params: ModelParams, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its analytic gradient (flat)."""
    grad = np.empty_like(params.values)
    onehot = np.eye(params.layout[-1][1][0])[labels]
    layers, grad_layers = _views(params.values, params.layout), _views(grad, params.layout)
    log_probs = _step(layers, grad_layers, features, onehot)
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

    The call builds the layer views and shuffles every batch order once;
    each (position, epoch) gathers its own batches and one-hot labels. Each
    step runs the shared ``_step`` on basic slices of them. It computes no
    loss unless its two-dot screen is non-finite, and re-checks a failed
    screen exactly before it raises.

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
    layers, grad_layers = _views(values, params.layout), _views(grads, params.layout)
    identity = np.eye(params.layout[-1][1][0])  # C x C, C being the output bias's length
    batches = [slice(start, start + config.batch_size) for start in range(0, n, config.batch_size)]

    def diverged(finite: np.ndarray, position: int, where: str) -> TrainingDivergedError:
        chain = int(np.argmin(finite))
        return TrainingDivergedError(
            f"chain {chain} (client {groups[chain, position]}, position {position}): "
            f"non-finite {where} (learning-rate blowup?)"
        )

    # Every batch order of the call, by position, then epoch, then chain,
    # seeded in one pass. permutation(n) is arange(n) shuffled: the same
    # draws, in place.
    epochs = range(config.local_epochs)
    seeds = [seed for column in batch_seeds.T.tolist() for _ in epochs for seed in column]
    chain_epochs = [epoch for epoch in epochs for _ in range(len(groups))] * groups.shape[1]
    streams = stream_generators(stream_ids(seeds, "batch-order", chain_epochs))
    orders = np.tile(np.arange(n), (groups.shape[1], len(epochs), len(groups), 1))
    for order, stream in zip(orders.reshape(-1, n), streams):
        stream.shuffle(order)
    # A blow-up overflows before the screens below raise it as
    # TrainingDivergedError; numpy would warn about it first.
    with np.errstate(over="ignore", invalid="ignore"):
        for position, position_orders in enumerate(orders):
            members = groups[:, position, None]
            for epoch, order in enumerate(position_orders):
                xs = features[members, order]
                ys = labels[members, order]
                onehots = identity[ys]
                for batch, rows in enumerate(batches):
                    onehot = onehots[:, rows]
                    log_probs = _step(layers, grad_layers, xs[:, rows], onehot)
                    # A non-finite entry makes a dot non-finite; a finite dot
                    # that overflows is re-checked exactly before anything raises.
                    screen = np.vdot(log_probs, onehot) + np.vdot(grads, grads)
                    if not math.isfinite(screen):
                        loss = _cross_entropy(log_probs, ys[:, rows])
                        finite = np.isfinite(loss) & np.isfinite(grads).all(axis=1)
                        if not finite.all():
                            where = f"loss/gradient at epoch {epoch}, batch {batch}"
                            raise diverged(finite, position, where)
                    grads *= config.learning_rate
                    values -= grads
            finite = np.isfinite(values).all(axis=1)
            if not finite.all():
                raise diverged(finite, position, "parameters after local training")
    return values


def evaluate(params: ModelParams, dataset) -> tuple[float, float]:
    """Accuracy (argmax-match fraction) and mean cross-entropy on a dataset.

    The loss has the bits of ``_cross_entropy`` of ``_step``'s log-softmax
    but forms only the labels' log-probabilities. The row maximum is read at
    the accuracy's argmax, which holds the same value as the reduced maximum,
    and shifts the logits in place. Only a ±0 tie at the maximum can flip
    the sign of a shifted zero, and such a row sums at least two ``exp(0)``,
    so its label entry is ``-lse`` either way.
    """
    # The hidden activation is dropped before the softmax temporaries exist.
    logits = _forward(_views(params.values, params.layout), dataset.features)[0]
    predicted = np.argmax(logits, axis=1)
    accuracy = float(np.mean(predicted == dataset.labels))
    rows = np.arange(len(logits))
    logits -= logits[rows, predicted, None]
    label_log_probs = logits[rows, dataset.labels] - _log_sum_exp(logits)[:, 0]
    return accuracy, float(-label_log_probs.mean())
