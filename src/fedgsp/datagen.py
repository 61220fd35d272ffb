"""Synthetic non-i.i.d. client data.

A task is a set of clients holding class-skewed samples of a shared
classification problem. Label skew comes in two flavors: per-client Dirichlet
class proportions (smaller concentration = more skew) or shard dealing (sort
a global pool by label, slice it into shards, deal a few shards to each
client). Features are class-conditioned Gaussian blobs: one mean vector per
class, drawn once from the task seed, plus unit-covariance noise, so the task
is learnable but not trivial.

Generation is a pure function of the task spec: the same spec produces
bit-identical datasets on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .rng import dirichlet_proportions, generator, generators

TEST_SAMPLES_PER_CLASS = 100

SKEW_DIRICHLET = "dirichlet"
SKEW_SHARDS = "shards"


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Everything needed to regenerate a task deterministically.

    Exactly one skew mode applies: ``concentration`` parameterizes
    ``dirichlet``, ``shards_per_client`` parameterizes ``shards``.
    """

    num_classes: int
    num_clients: int
    samples_per_client: int
    feature_dim: int
    skew: str = SKEW_DIRICHLET
    concentration: float = 0.3
    shards_per_client: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ConfigurationError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.num_clients < 2:
            raise ConfigurationError(f"num_clients must be >= 2, got {self.num_clients}")
        if self.samples_per_client < 1:
            raise ConfigurationError(
                f"samples_per_client must be >= 1, got {self.samples_per_client}"
            )
        if self.feature_dim < 1:
            raise ConfigurationError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.skew == SKEW_DIRICHLET:
            if not self.concentration > 0.0:
                raise ConfigurationError(
                    f"dirichlet concentration must be > 0, got {self.concentration}"
                )
        elif self.skew == SKEW_SHARDS:
            if self.shards_per_client < 1:
                raise ConfigurationError(
                    f"shards_per_client must be >= 1, got {self.shards_per_client}"
                )
            if self.samples_per_client % self.shards_per_client != 0:
                raise ConfigurationError(
                    "infeasible shard arithmetic: samples_per_client "
                    f"({self.samples_per_client}) is not divisible by "
                    f"shards_per_client ({self.shards_per_client})"
                )
        else:
            raise ConfigurationError(
                f"skew must be '{SKEW_DIRICHLET}' or '{SKEW_SHARDS}', got {self.skew!r}"
            )


@dataclass(frozen=True)
class Dataset:
    """Features and labels of one sample set.

    A task's clients are one ``Dataset`` with a leading client axis:
    (K, n, d) features and (K, n) labels, row k = client k.
    """

    features: np.ndarray
    labels: np.ndarray


def largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Round proportions to integer counts that sum exactly to ``total``.

    Largest-remainder rule; ties go to the lower index so the result is
    reproducible. A (K, C) matrix rounds each row on its own; a row that
    does not sum to 1 raises ``ValueError``.
    """
    scaled = np.asarray(proportions, dtype=float) * total
    base = np.floor(scaled).astype(np.int64)
    short = total - base.sum(axis=-1, keepdims=True)
    if (short < 0).any() or (short > scaled.shape[-1]).any():
        raise ValueError("proportions must sum to 1")
    if (short > 0).any():
        # A stable sort keeps tied remainders in index order.
        order = np.argsort(-(scaled - base), axis=-1, kind="stable")
        raised = np.take_along_axis(base, order, axis=-1) + (np.arange(scaled.shape[-1]) < short)
        np.put_along_axis(base, order, raised, axis=-1)
    return base


def _dirichlet_label_counts(spec: SyntheticTaskSpec) -> np.ndarray:
    rngs = generators(spec.seed, "dirichlet-proportions", range(spec.num_clients))
    proportions = np.stack(
        [dirichlet_proportions(rng, spec.concentration, spec.num_classes) for rng in rngs]
    )
    return largest_remainder_counts(proportions, spec.samples_per_client)


def _shard_label_counts(spec: SyntheticTaskSpec) -> np.ndarray:
    """Sort a balanced global pool by label, slice into shards, deal them out."""
    pool_size = spec.num_clients * spec.samples_per_client
    per_class = largest_remainder_counts(
        np.full(spec.num_classes, 1.0 / spec.num_classes), pool_size
    )
    pool = np.repeat(np.arange(spec.num_classes), per_class)  # sorted by label
    shard_size = spec.samples_per_client // spec.shards_per_client
    num_shards = spec.num_clients * spec.shards_per_client
    deal = generator(spec.seed, "shard-deal").permutation(num_shards)
    # Client k holds shards deal[k * shards_per_client : (k + 1) * shards_per_client].
    owner = np.empty(num_shards, dtype=np.int64)
    owner[deal] = np.arange(num_shards) // spec.shards_per_client
    # One tally of (owner, label) cells over the pool; row r is in shard r // shard_size.
    cells = np.repeat(owner * spec.num_classes, shard_size)
    cells += pool
    counts = np.bincount(cells, minlength=spec.num_clients * spec.num_classes)
    return counts.reshape(spec.num_clients, spec.num_classes).astype(np.int64, copy=False)


def generate_task(spec: SyntheticTaskSpec) -> tuple[Dataset, np.ndarray, Dataset]:
    """Synthesize the client data, its class counts and the held-out test set.

    Returns:
        ``(clients, counts, test_set)``: ``clients`` holds (K, n, d) features
        and (K, n) labels with n = ``samples_per_client``; ``counts`` is the
        (K, C) int64 tally of each client's labels; the test set holds exactly
        ``100 * num_classes`` class-balanced samples.
    """
    if spec.skew == SKEW_DIRICHLET:
        label_counts = _dirichlet_label_counts(spec)
    else:
        label_counts = _shard_label_counts(spec)

    means = generator(spec.seed, "class-means").standard_normal(
        (spec.num_classes, spec.feature_dim)
    )

    # Every client's labels in class order, then each row shuffled in place by
    # its own stream: permutation(x) is a copy of x then shuffle, same draws.
    shape = (spec.num_clients, spec.samples_per_client)
    labels = np.repeat(
        np.tile(np.arange(spec.num_classes), spec.num_clients), label_counts.ravel()
    ).reshape(shape)
    features = np.empty(shape + (spec.feature_dim,))
    clients = range(spec.num_clients)
    label_rngs = generators(spec.seed, "label-order", clients)
    noise_rngs = generators(spec.seed, "features", clients)
    for row, block, label_rng, noise_rng in zip(labels, features, label_rngs, noise_rngs):
        label_rng.shuffle(row)
        # The noise is drawn in place; noise + mean has the bits of mean + noise.
        noise_rng.standard_normal(out=block)
        block += means[row]

    test_labels = np.repeat(np.arange(spec.num_classes), TEST_SAMPLES_PER_CLASS)
    test_rng = generator(spec.seed, "test-set")
    test_labels = test_rng.permutation(test_labels)
    test_features = means[test_labels] + test_rng.standard_normal(
        (test_labels.size, spec.feature_dim)
    )
    return Dataset(features, labels), label_counts, Dataset(test_features, test_labels)
