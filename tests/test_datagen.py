import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgsp.datagen import (
    ClassDistribution,
    ClientDataset,
    SyntheticTaskSpec,
    generate_task,
    largest_remainder_counts,
)
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


class TestClassDistribution:
    def test_from_labels_tallies(self):
        dist = ClassDistribution.from_labels(np.array([0, 0, 1]), 2)
        assert dist.counts.tolist() == [2, 1]

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ClassDistribution(np.array([1, -1]))

    def test_empty_labels_rejected_at_dataset_construction(self):
        with pytest.raises(ValueError):
            ClientDataset(
                client_id=0,
                features=np.zeros((0, 3)),
                labels=np.array([], dtype=np.int64),
                distribution=ClassDistribution(np.zeros(2, dtype=np.int64)),
            )


class TestLargestRemainder:
    def test_exact_total(self):
        counts = largest_remainder_counts(np.array([0.5, 0.3, 0.2]), 7)
        assert counts.sum() == 7

    def test_ties_prefer_lower_index(self):
        counts = largest_remainder_counts(np.array([0.25, 0.25, 0.25, 0.25]), 5)
        assert counts.tolist() == [2, 1, 1, 1]


class TestGenerateTask:
    def test_deterministic(self):
        a_clients, a_test = generate_task(make_spec())
        b_clients, b_test = generate_task(make_spec())
        for a, b in zip(a_clients, b_clients):
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.features, b.features)
        assert np.array_equal(a_test.features, b_test.features)

    def test_conservation_and_tally_oracle(self):
        # Recount every label by brute force and compare with the stored
        # distributions; the grand total must be K * n.
        clients, _ = generate_task(make_spec())
        grand = 0
        for client in clients:
            recount = np.zeros(5, dtype=np.int64)
            for label in client.labels:
                recount[label] += 1
            assert np.array_equal(recount, client.distribution.counts)
            grand += recount.sum()
        assert grand == 12 * 50

    def test_near_infinite_concentration_is_uniform(self):
        clients, _ = generate_task(make_spec(concentration=1e6))
        for client in clients:
            proportions = client.distribution.counts / 50
            assert np.max(np.abs(proportions - 1 / 5)) <= 0.01 + 1e-12

    def test_single_shard_gives_one_label_block(self):
        clients, _ = generate_task(
            make_spec(skew="shards", shards_per_client=1, num_classes=4)
        )
        for client in clients:
            nonzero = np.flatnonzero(client.distribution.counts)
            # One contiguous run of classes: a single slice of the sorted pool.
            assert nonzero[-1] - nonzero[0] + 1 == len(nonzero)

    def test_shards_conserve_pool(self):
        clients, _ = generate_task(make_spec(skew="shards", shards_per_client=2))
        total = sum(c.distribution.total() for c in clients)
        assert total == 12 * 50
        per_class = sum(c.distribution.counts for c in clients)
        assert np.all(per_class == 12 * 50 // 5)

    def test_test_set_is_balanced(self):
        _, test = generate_task(make_spec())
        assert len(test.labels) == 100 * 5
        assert np.bincount(test.labels, minlength=5).tolist() == [100] * 5

    def test_labels_below_num_classes(self):
        clients, test = generate_task(make_spec())
        for client in clients:
            assert client.labels.max() < 5
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
        clients, _ = generate_task(spec)
        assert sum(c.distribution.total() for c in clients) == num_clients * samples

    def test_skew_monotonicity(self):
        # Heavier skew must show up as larger pairwise divergence.
        spread = []
        for concentration in (0.1, 100.0):
            clients, _ = generate_task(
                make_spec(num_clients=20, concentration=concentration)
            )
            spread.append(median_pairwise_cpd([c.distribution.counts for c in clients]))
        assert spread[0] > spread[1]
