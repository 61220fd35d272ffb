import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgsp.datagen import (
    TEST_SAMPLES_PER_CLASS,
    SyntheticTaskSpec,
    generate_task,
    largest_remainder_counts,
)
from fedgsp.errors import ConfigurationError
from fedgsp.metrics import median_pairwise_cpd
from fedgsp.rng import dirichlet_proportions, generator


def make_spec(**kwargs):
    base = dict(
        num_classes=5,
        num_clients=12,
        samples_per_client=50,
        feature_dim=8,
        skew="dirichlet",
        concentration=0.3,
        seed=7,
    )
    base.update(kwargs)
    return SyntheticTaskSpec(**base)


class TestSpecValidation:
    def test_rejects_single_client(self):
        with pytest.raises(ConfigurationError):
            make_spec(num_clients=1)

    def test_rejects_nonpositive_concentration(self):
        with pytest.raises(ConfigurationError):
            make_spec(concentration=0.0)

    def test_rejects_infeasible_shards(self):
        # 50 samples cannot be cut into 7 equal shards.
        with pytest.raises(ConfigurationError):
            make_spec(skew="shards", shards_per_client=7)

    def test_rejects_unknown_skew(self):
        with pytest.raises(ConfigurationError):
            make_spec(skew="zipf")


def largest_remainder_row_oracle(proportions, total):
    """One row at a time, ties ordered by ``lexsort`` on (remainder, index)."""
    scaled = np.asarray(proportions, dtype=float) * total
    base = np.floor(scaled).astype(np.int64)
    short = int(total - base.sum())
    if short > 0:
        order = np.lexsort((np.arange(len(scaled)), -(scaled - base)))
        base[order[:short]] += 1
    return base


class TestLargestRemainder:
    @settings(max_examples=150, deadline=None)
    @given(
        weights=st.integers(min_value=1, max_value=8).flatmap(
            lambda classes: st.lists(
                st.lists(st.integers(min_value=1, max_value=6), min_size=classes, max_size=classes),
                min_size=1,
                max_size=6,
            )
        ),
        total=st.integers(min_value=0, max_value=120),
    )
    def test_matrix_rounds_each_row_as_the_row_rule(self, weights, total):
        # Small integer weights make equal remainders (ties) common.
        weights = np.array(weights, dtype=float)
        proportions = weights / weights.sum(axis=1, keepdims=True)
        counts = largest_remainder_counts(proportions, total)
        assert counts.dtype == np.int64
        for row, expected in zip(proportions, counts):
            assert np.array_equal(expected, largest_remainder_row_oracle(row, total))
            assert np.array_equal(largest_remainder_counts(row, total), expected)

    def test_matrix_rejects_a_row_over_one(self):
        with pytest.raises(ValueError):
            largest_remainder_counts(np.array([[0.5, 0.5], [0.75, 0.5]]), 4)

    @pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [0.1, 0.1, 0.1], [0.5, 0.25, 0.0]])
    def test_rejects_a_row_short_of_the_total(self, row):
        # Each row is short of 50 by more than its 3 entries could make up.
        with pytest.raises(ValueError):
            largest_remainder_counts(np.array([[1.0, 0.0, 0.0], row]), 50)

    def test_exact_total(self):
        counts = largest_remainder_counts(np.array([0.5, 0.3, 0.2]), 7)
        assert counts.sum() == 7

    def test_ties_prefer_lower_index(self):
        counts = largest_remainder_counts(np.array([0.25, 0.25, 0.25, 0.25]), 5)
        assert counts.tolist() == [2, 1, 1, 1]


class TestGenerateTask:
    def test_deterministic(self):
        a_clients, a_counts, a_test = generate_task(make_spec())
        b_clients, b_counts, b_test = generate_task(make_spec())
        assert np.array_equal(a_clients.labels, b_clients.labels)
        assert np.array_equal(a_clients.features, b_clients.features)
        assert np.array_equal(a_counts, b_counts)
        assert np.array_equal(a_test.features, b_test.features)

    def test_stacked_shapes(self):
        for skew in ("dirichlet", "shards"):
            clients, counts, _ = generate_task(make_spec(skew=skew))
            assert clients.features.shape == (12, 50, 8)
            assert clients.labels.shape == (12, 50)
            assert counts.shape == (12, 5) and counts.dtype == np.int64

    def test_conservation_and_tally_oracle(self):
        # Recount every client's labels by brute force and compare with its
        # row of the returned counts; the grand total must be K * n.
        clients, counts, _ = generate_task(make_spec())
        grand = 0
        for labels, row in zip(clients.labels, counts, strict=True):
            recount = np.zeros(5, dtype=np.int64)
            for label in labels:
                recount[label] += 1
            assert np.array_equal(recount, row)
            grand += recount.sum()
        assert grand == 12 * 50

    def test_near_infinite_concentration_is_uniform(self):
        _, counts, _ = generate_task(make_spec(concentration=1e6))
        for row in counts:
            proportions = row / 50
            assert np.max(np.abs(proportions - 1 / 5)) <= 0.01 + 1e-12

    def test_single_shard_gives_one_label_block(self):
        _, counts, _ = generate_task(
            make_spec(skew="shards", shards_per_client=1, num_classes=4)
        )
        for row in counts:
            nonzero = np.flatnonzero(row)
            # One contiguous run of classes: a single slice of the sorted pool.
            assert nonzero[-1] - nonzero[0] + 1 == len(nonzero)

    def test_shards_conserve_pool(self):
        _, counts, _ = generate_task(make_spec(skew="shards", shards_per_client=2))
        assert counts.sum() == 12 * 50
        per_class = counts.sum(axis=0)
        assert np.all(per_class == 12 * 50 // 5)

    def test_test_set_is_balanced(self):
        _, _, test = generate_task(make_spec())
        assert len(test.labels) == 100 * 5
        assert np.bincount(test.labels, minlength=5).tolist() == [100] * 5

    def test_labels_below_num_classes(self):
        clients, _, test = generate_task(make_spec())
        assert clients.labels.max() < 5
        assert test.labels.max() < 5

    @settings(max_examples=15, deadline=None)
    @given(
        num_classes=st.integers(2, 6),
        num_clients=st.integers(2, 10),
        samples=st.integers(1, 40),
        seed=st.integers(0, 2**32),
    )
    def test_conservation_property(self, num_classes, num_clients, samples, seed):
        spec = SyntheticTaskSpec(
            num_classes=num_classes,
            num_clients=num_clients,
            samples_per_client=samples,
            feature_dim=3,
            skew="dirichlet",
            concentration=0.5,
            seed=seed,
        )
        _, counts, _ = generate_task(spec)
        assert counts.sum() == num_clients * samples

    def test_skew_monotonicity(self):
        # Heavier skew must show up as larger pairwise divergence.
        spread = []
        for concentration in (0.1, 100.0):
            _, counts, _ = generate_task(make_spec(num_clients=20, concentration=concentration))
            spread.append(median_pairwise_cpd(counts))
        assert spread[0] > spread[1]


def shard_label_counts_oracle(spec):
    """Deal the sorted pool's shards and tally each one, shard by shard."""
    pool_size = spec.num_clients * spec.samples_per_client
    per_class = largest_remainder_counts(
        np.full(spec.num_classes, 1.0 / spec.num_classes), pool_size
    )
    pool = np.repeat(np.arange(spec.num_classes), per_class)
    shard_size = spec.samples_per_client // spec.shards_per_client
    num_shards = spec.num_clients * spec.shards_per_client
    deal = generator(spec.seed, "shard-deal").permutation(num_shards)
    counts = np.zeros((spec.num_clients, spec.num_classes), dtype=np.int64)
    for k in range(spec.num_clients):
        mine = deal[k * spec.shards_per_client : (k + 1) * spec.shards_per_client]
        for shard in mine:
            labels = pool[shard * shard_size : (shard + 1) * shard_size]
            counts[k] += np.bincount(labels, minlength=spec.num_classes)
    return counts


def generate_task_oracle(spec):
    """Build the task client by client, each from its own single streams."""
    if spec.skew == "dirichlet":
        proportions = [
            dirichlet_proportions(
                generator(spec.seed, "dirichlet-proportions", k),
                spec.concentration,
                spec.num_classes,
            )
            for k in range(spec.num_clients)
        ]
        label_counts = largest_remainder_counts(np.stack(proportions), spec.samples_per_client)
    else:
        label_counts = shard_label_counts_oracle(spec)
    means = generator(spec.seed, "class-means").standard_normal(
        (spec.num_classes, spec.feature_dim)
    )
    shape = (spec.num_clients, spec.samples_per_client)
    features = np.empty(shape + (spec.feature_dim,))
    labels = np.empty(shape, dtype=np.int64)
    for k in range(spec.num_clients):
        ordered = np.repeat(np.arange(spec.num_classes), label_counts[k])
        labels[k] = generator(spec.seed, "label-order", k).permutation(ordered)
        features[k] = means[labels[k]] + generator(spec.seed, "features", k).standard_normal(
            (spec.samples_per_client, spec.feature_dim)
        )
    test_rng = generator(spec.seed, "test-set")
    test_labels = test_rng.permutation(
        np.repeat(np.arange(spec.num_classes), TEST_SAMPLES_PER_CLASS)
    )
    test_features = means[test_labels] + test_rng.standard_normal(
        (test_labels.size, spec.feature_dim)
    )
    return (features, labels), label_counts, (test_features, test_labels)


@st.composite
def task_specs(draw):
    samples = draw(st.integers(1, 24))
    shards = draw(st.sampled_from([s for s in range(1, samples + 1) if samples % s == 0]))
    return SyntheticTaskSpec(
        num_classes=draw(st.integers(2, 7)),
        num_clients=draw(st.integers(2, 9)),
        samples_per_client=samples,
        feature_dim=draw(st.integers(1, 4)),
        skew=draw(st.sampled_from(["dirichlet", "shards"])),
        concentration=draw(st.sampled_from([0.01, 0.3, 5.0])),
        shards_per_client=shards,
        seed=draw(st.integers(0, 2**64 - 1)),
    )


def edge_spec(skew, **kwargs):
    base = dict(num_classes=2, num_clients=2, samples_per_client=1, feature_dim=1, seed=5)
    base.update(kwargs)
    return SyntheticTaskSpec(skew=skew, **base)


# K = 2, C = 2, n = 1 under both skews; one sample per shard
# (shards_per_client = n); a concentration that leaves classes at zero count.
EDGE_SPECS = [
    edge_spec("dirichlet"),
    edge_spec("shards", shards_per_client=1),
    edge_spec("shards", samples_per_client=6, shards_per_client=6, num_classes=4, num_clients=5),
    edge_spec("dirichlet", num_classes=6, num_clients=4, samples_per_client=9, concentration=0.01),
]


def test_small_concentration_edge_spec_leaves_zero_counts():
    _, counts, _ = generate_task(EDGE_SPECS[-1])
    assert (counts == 0).any()


@settings(max_examples=60, deadline=None)
@given(spec=task_specs())
@example(spec=EDGE_SPECS[0])
@example(spec=EDGE_SPECS[1])
@example(spec=EDGE_SPECS[2])
@example(spec=EDGE_SPECS[3])
def test_generate_task_matches_the_client_loop(spec):
    clients, counts, test = generate_task(spec)
    (features, labels), oracle_counts, (test_features, test_labels) = generate_task_oracle(spec)
    got = [clients.features, clients.labels, counts, test.features, test.labels]
    expected = [features, labels, oracle_counts, test_features, test_labels]
    for array, reference in zip(got, expected, strict=True):
        assert array.dtype == reference.dtype and array.shape == reference.shape
        assert array.tobytes() == reference.tobytes()
