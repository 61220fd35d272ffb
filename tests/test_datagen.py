import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgsp.datagen import SyntheticTaskSpec, generate_task, largest_remainder_counts
from fedgsp.errors import ConfigurationError
from fedgsp.metrics import median_pairwise_cpd


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
