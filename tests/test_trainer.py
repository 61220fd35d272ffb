import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedgsp.trainer
from fedgsp.datagen import Dataset
from fedgsp.errors import ConfigurationError, TrainingDivergedError
from fedgsp.rng import generator, stream_id
from fedgsp.trainer import (
    KIND_MLP_ONE_HIDDEN,
    KIND_SOFTMAX_LINEAR,
    ModelParams,
    ModelSpec,
    SgdConfig,
    _split,
    evaluate,
    init_model,
    loss_and_gradient,
    train_chains,
    train_one_client,
)


def make_dataset(features, labels):
    return Dataset(
        features=np.asarray(features, dtype=float), labels=np.asarray(labels, dtype=np.int64)
    )


def random_dataset(rng, n, dim, num_classes):
    labels = rng.integers(0, num_classes, size=n)
    labels[: num_classes] = np.arange(num_classes)  # every class present
    return make_dataset(rng.standard_normal((n, dim)), labels)


def finite_difference_gradient(params, features, labels, step=1e-6):
    """Oracle: central differences on the mean cross-entropy."""
    grad = np.zeros_like(params.values)
    for i in range(params.values.size):
        for sign in (+1.0, -1.0):
            shifted = params.values.copy()
            shifted[i] += sign * step
            loss, _ = loss_and_gradient(
                ModelParams(values=shifted, layout=params.layout), features, labels
            )
            grad[i] += sign * loss
    return grad / (2.0 * step)


def sequential_sgd_oracle(params, dataset, config, batch_seed):
    """Oracle: one client's local SGD, one ``loss_and_gradient`` call per batch.

    The independent reference for ``train_chains``' lockstep stacked steps:
    a chain trained one client, and one batch, at a time.
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


def evaluate_oracle(params, dataset):
    """Oracle: evaluation through the full (N, C) log-softmax.

    The formula ``evaluate`` had before it took the row maximum at its
    argmax: shift by the reduced maximum, form every log-probability, pick
    the labels'. ``evaluate`` must give the same bits.
    """
    logits = fedgsp.trainer._forward(_split(params.values, params.layout), dataset.features)[0]
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    accuracy = float(np.mean(np.argmax(logits, axis=1) == dataset.labels))
    picked = np.take_along_axis(log_probs, dataset.labels[..., None], axis=-1)[..., 0]
    return accuracy, float(-picked.mean(axis=-1))


class TestInitModel:
    def test_deterministic(self):
        spec = ModelSpec(kind="softmax_linear", feature_dim=4, num_classes=3, init_seed=5)
        assert np.array_equal(init_model(spec).values, init_model(spec).values)

    def test_linear_parameter_count(self):
        spec = ModelSpec(kind="softmax_linear", feature_dim=4, num_classes=3)
        assert init_model(spec).values.size == 3 * 4 + 3

    def test_mlp_parameter_count(self):
        spec = ModelSpec(
            kind="mlp_one_hidden", feature_dim=4, num_classes=3, hidden_units=8
        )
        assert init_model(spec).values.size == 4 * 8 + 8 + 8 * 3 + 3

    def test_init_ranges(self):
        spec = ModelSpec(
            kind="mlp_one_hidden", feature_dim=16, num_classes=5, hidden_units=8
        )
        params = init_model(spec)
        layers = _split(params.values, params.layout)
        assert np.all(np.abs(layers["w1"]) <= 1 / math.sqrt(16))
        assert np.all(np.abs(layers["w2"]) <= 1 / math.sqrt(8))
        assert not layers["b1"].any()
        assert not layers["b2"].any()

    def test_rejects_mlp_without_hidden_units(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(kind="mlp_one_hidden", feature_dim=4, num_classes=3)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(kind="transformer", feature_dim=4, num_classes=3)


class TestModelParams:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(values=np.zeros(7), layout=(("w", (2, 3)),))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(values=np.array([1.0, np.inf]), layout=(("b", (2,)),))


class TestGradients:
    @pytest.mark.parametrize("kind,hidden", [("softmax_linear", None), ("mlp_one_hidden", 6)])
    def test_matches_finite_differences(self, kind, hidden):
        rng = np.random.default_rng(3)
        spec = ModelSpec(
            kind=kind, feature_dim=5, num_classes=3, hidden_units=hidden, init_seed=1
        )
        params = init_model(spec)
        dataset = random_dataset(rng, 12, 5, 3)
        _, analytic = loss_and_gradient(params, dataset.features, dataset.labels)
        numeric = finite_difference_gradient(params, dataset.features, dataset.labels)
        scale = max(float(np.max(np.abs(numeric))), 1e-12)
        assert float(np.max(np.abs(analytic - numeric))) / scale < 1e-5


class TestTrainOneClient:
    def test_empty_dataset_rejected(self):
        spec = ModelSpec(kind="softmax_linear", feature_dim=3, num_classes=2)
        with pytest.raises(ValueError, match="empty"):
            train_one_client(init_model(spec), make_dataset(np.zeros((0, 3)), []), SgdConfig(), 0)

    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(0)
        spec = ModelSpec(kind="softmax_linear", feature_dim=4, num_classes=3, init_seed=2)
        params = init_model(spec)
        dataset = random_dataset(rng, 10, 4, 3)
        out = train_one_client(params, dataset, SgdConfig(learning_rate=0.0), batch_seed=1)
        assert np.array_equal(out.values, params.values)

    def test_full_batch_step_equals_gradient_descent(self):
        rng = np.random.default_rng(1)
        spec = ModelSpec(kind="softmax_linear", feature_dim=4, num_classes=3, init_seed=3)
        params = init_model(spec)
        dataset = random_dataset(rng, 8, 4, 3)
        config = SgdConfig(learning_rate=0.05, batch_size=8, local_epochs=1)
        out = train_one_client(params, dataset, config, batch_seed=7)
        # One full-batch step; replicate with the same seeded sample order,
        # then verify the step direction against finite differences.
        order = generator(7, "batch-order", 0).permutation(8)
        feats, labels = dataset.features[order], dataset.labels[order]
        _, analytic = loss_and_gradient(params, feats, labels)
        assert np.allclose(out.values, params.values - 0.05 * analytic, atol=1e-15)
        numeric = finite_difference_gradient(params, feats, labels)
        scale = max(float(np.max(np.abs(numeric))), 1e-12)
        assert float(np.max(np.abs(analytic - numeric))) / scale < 1e-5

    def test_inputs_not_mutated(self):
        rng = np.random.default_rng(2)
        spec = ModelSpec(kind="softmax_linear", feature_dim=4, num_classes=3, init_seed=4)
        params = init_model(spec)
        before = params.values.copy()
        dataset = random_dataset(rng, 9, 4, 3)
        features_before = dataset.features.copy()
        train_one_client(params, dataset, SgdConfig(), batch_seed=5)
        assert np.array_equal(params.values, before)
        assert np.array_equal(dataset.features, features_before)

    def test_short_final_batch_is_trained(self):
        # 7 samples at batch size 5: two updates, the second averaged over 2.
        rng = np.random.default_rng(4)
        spec = ModelSpec(kind="softmax_linear", feature_dim=3, num_classes=2, init_seed=6)
        params = init_model(spec)
        dataset = random_dataset(rng, 7, 3, 2)
        config = SgdConfig(learning_rate=0.1, batch_size=5)
        out = train_one_client(params, dataset, config, batch_seed=11)
        order = generator(11, "batch-order", 0).permutation(7)
        manual = params.values.copy()
        for chunk in (order[:5], order[5:]):
            _, grad = loss_and_gradient(
                ModelParams(values=manual, layout=params.layout),
                dataset.features[chunk],
                dataset.labels[chunk],
            )
            manual = manual - 0.1 * grad
        assert np.array_equal(out.values, manual)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_loudly(self):
        rng = np.random.default_rng(5)
        spec = ModelSpec(kind="softmax_linear", feature_dim=4, num_classes=3, init_seed=8)
        params = init_model(spec)
        dataset = make_dataset(rng.standard_normal((6, 4)) * 1e150, [0, 1, 2, 0, 1, 2])
        with pytest.raises(TrainingDivergedError):
            train_one_client(params, dataset, SgdConfig(learning_rate=1e300), batch_seed=3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_update_is_divergence(self):
        # A finite gradient times a huge learning rate overflows the update.
        spec = ModelSpec(kind="softmax_linear", feature_dim=2, num_classes=2, init_seed=1)
        dataset = make_dataset(np.full((1, 2), 1e10), [1])
        config = SgdConfig(learning_rate=1e308, batch_size=1)
        with pytest.raises(TrainingDivergedError, match="non-finite parameters"):
            train_one_client(init_model(spec), dataset, config, batch_seed=7)

    def test_any_int_seed_reduces_mod_2_64(self):
        # Stream ids reduce a seed mod 2**64, so -1 and 2**64 - 1 train alike.
        rng = np.random.default_rng(3)
        spec = ModelSpec(kind="softmax_linear", feature_dim=4, num_classes=3, init_seed=5)
        params = init_model(spec)
        dataset = random_dataset(rng, 9, 4, 3)
        config = SgdConfig(learning_rate=0.1, batch_size=2)
        negative = train_one_client(params, dataset, config, batch_seed=-1)
        wrapped = train_one_client(params, dataset, config, batch_seed=2**64 - 1)
        oracle = sequential_sgd_oracle(params, dataset, config, batch_seed=-1)
        assert negative.values.tobytes() == wrapped.values.tobytes() == oracle.values.tobytes()

    def test_multi_epoch_uses_distinct_permutations(self):
        rng = np.random.default_rng(6)
        spec = ModelSpec(kind="softmax_linear", feature_dim=4, num_classes=3, init_seed=9)
        params = init_model(spec)
        dataset = random_dataset(rng, 10, 4, 3)
        two_epochs = train_one_client(
            params, dataset, SgdConfig(local_epochs=2), batch_seed=13
        )
        chained = train_one_client(params, dataset, SgdConfig(), batch_seed=13)
        # Epoch 1 of the two-epoch run matches a single-epoch run; epoch 2
        # continues from there with its own permutation, so results differ
        # from just repeating epoch 1.
        repeat_epoch_one = train_one_client(chained, dataset, SgdConfig(), batch_seed=13)
        assert not np.array_equal(two_epochs.values, repeat_epoch_one.values)


def chained_sgd_oracle(initial, chain, learning_rate, batch_size, batch_seeds):
    """Independent oracle: plain SGD over the concatenated per-client batches.

    Re-implements softmax regression updates with explicit per-sample loops
    (no shared code with the trainer beyond numpy).
    """
    layers = _split(initial.values, initial.layout)
    assert set(layers) == {"w", "b"}
    w = layers["w"].copy()
    b = layers["b"].copy()
    num_classes = w.shape[0]
    for dataset, seed in zip(chain, batch_seeds):
        order = generator(seed, "batch-order", 0).permutation(len(dataset.labels))
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            grad_w = np.zeros_like(w)
            grad_b = np.zeros_like(b)
            for i in idx:
                x = dataset.features[i]
                logits = w @ x + b
                shifted = logits - logits.max()
                probs = np.exp(shifted) / np.exp(shifted).sum()
                for c in range(num_classes):
                    err = probs[c] - (1.0 if c == dataset.labels[i] else 0.0)
                    grad_b[c] += err
                    grad_w[c] += err * x
            grad_w /= len(idx)
            grad_b /= len(idx)
            w = w - learning_rate * grad_w
            b = b - learning_rate * grad_b
    return np.concatenate([w.ravel(), b.ravel()])


class TestSequentialChainEquivalence:
    def test_two_client_chain_matches_centralized(self):
        rng = np.random.default_rng(7)
        spec = ModelSpec(kind="softmax_linear", feature_dim=5, num_classes=4, init_seed=10)
        params = init_model(spec)
        chain = [random_dataset(rng, 13, 5, 4) for _ in range(2)]
        seeds = [101, 102]
        config = SgdConfig(learning_rate=0.05, batch_size=5)
        current = params
        for dataset, seed in zip(chain, seeds):
            current = train_one_client(current, dataset, config, batch_seed=seed)
        expected = chained_sgd_oracle(params, chain, 0.05, 5, seeds)
        assert float(np.max(np.abs(current.values - expected))) <= 1e-12


class TestTrainChains:
    def test_single_chain_matches_centralized_oracle(self):
        # Criterion 5's task and seeds: the production lockstep step against
        # the per-sample oracle, which shares no training code with it.
        rng = np.random.default_rng(505)
        spec = ModelSpec(kind="softmax_linear", feature_dim=6, num_classes=4, init_seed=55)
        params = init_model(spec)
        chain = [random_dataset(rng, 23, 6, 4) for _ in range(5)]
        seeds = [stream_id(909, "batch", 1, 0, k) for k in range(5)]
        clients = Dataset(
            features=np.stack([dataset.features for dataset in chain]),
            labels=np.stack([dataset.labels for dataset in chain]),
        )
        trained = train_chains(
            params, clients, [list(range(5))], [seeds], SgdConfig(learning_rate=0.01, batch_size=5)
        )
        expected = chained_sgd_oracle(params, chain, 0.01, 5, seeds)
        assert trained.shape == (1, expected.size)
        assert float(np.max(np.abs(trained[0] - expected))) <= 1e-12

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_chain_train_one_client(self, data):
        # Batch sizes from 1 to n + 1 cover a batch of one, a short last
        # batch and a single batch holding every sample.
        kind = data.draw(st.sampled_from(["softmax_linear", "mlp_one_hidden"]), label="kind")
        num_clients = data.draw(st.integers(1, 5), label="K")
        samples = data.draw(st.integers(1, 12), label="n")
        chains = data.draw(st.integers(1, 4), label="G")
        length = data.draw(st.integers(1, 3), label="L")
        config = SgdConfig(
            learning_rate=data.draw(st.sampled_from([0.0, 0.05, 0.5]), label="lr"),
            batch_size=data.draw(st.integers(1, samples + 1), label="B"),
            local_epochs=data.draw(st.integers(1, 3), label="epochs"),
        )
        spec = ModelSpec(
            kind=kind,
            feature_dim=data.draw(st.integers(1, 4), label="d"),
            num_classes=data.draw(st.integers(2, 5), label="C"),
            hidden_units=data.draw(st.integers(1, 6), label="H"),
            init_seed=data.draw(st.integers(0, 99), label="init seed"),
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="data seed"))
        clients = Dataset(
            features=rng.standard_normal((num_clients, samples, spec.feature_dim)),
            labels=rng.integers(0, spec.num_classes, size=(num_clients, samples)),
        )
        groups = rng.integers(0, num_clients, size=(chains, length))
        seeds = rng.integers(0, 2**63, size=(chains, length), dtype=np.uint64) * np.uint64(2)
        params = init_model(spec)

        trained = train_chains(params, clients, groups, seeds, config)

        assert trained.shape == (chains, params.values.size)
        for chain, (members, chain_seeds) in enumerate(zip(groups, seeds)):
            current = params
            for client, seed in zip(members, chain_seeds):
                one = Dataset(clients.features[client], clients.labels[client])
                current = sequential_sgd_oracle(current, one, config, batch_seed=int(seed))
            assert trained[chain].tobytes() == current.values.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_chain(self):
        # Only chain 1 reaches the client with huge features, at position 1.
        rng = np.random.default_rng(5)
        spec = ModelSpec(kind="softmax_linear", feature_dim=4, num_classes=3, init_seed=8)
        features = np.zeros((2, 6, 4))
        features[1] = rng.standard_normal((6, 4)) * 1e150
        clients = Dataset(features=features, labels=np.tile([0, 1, 2, 0, 1, 2], (2, 1)))
        groups = [[0, 0], [0, 1], [0, 0]]
        seeds = [[1, 2], [3, 4], [5, 6]]
        named = r"^chain 1 \(client 1, position 1\): non-finite loss/gradient at epoch 0, batch 1"
        with pytest.raises(TrainingDivergedError, match=named):
            train_chains(init_model(spec), clients, groups, seeds, SgdConfig(learning_rate=1e300))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_update_is_divergence(self):
        # A finite gradient times a huge learning rate overflows the last
        # update; the chain must not return infinite parameters.
        spec = ModelSpec(kind="softmax_linear", feature_dim=2, num_classes=2, init_seed=1)
        clients = Dataset(features=np.full((1, 1, 2), 1e10), labels=np.array([[1]]))
        config = SgdConfig(learning_rate=1e308, batch_size=1)
        with pytest.raises(TrainingDivergedError, match=r"^chain 0 .*non-finite parameters"):
            train_chains(init_model(spec), clients, [[0]], [[7]], config)

    @staticmethod
    def assert_rows_match_train_one_client(params, clients, groups, seeds, config):
        trained = train_chains(params, clients, groups, seeds, config)
        for row, members, chain_seeds in zip(trained, groups, seeds):
            current = params
            for client, seed in zip(members, chain_seeds):
                one = Dataset(clients.features[client], clients.labels[client])
                current = sequential_sgd_oracle(current, one, config, batch_seed=seed)
            assert row.tobytes() == current.values.tobytes()

    @staticmethod
    def overflowing_logits(label):
        # Logits (1e308, -1e308): the shifted logits are (0, -inf), so the
        # log-probabilities are (0, -inf) and the gradient stays finite.
        spec = ModelSpec(kind="softmax_linear", feature_dim=1, num_classes=2)
        params = ModelParams(values=np.array([1.0, -1.0, 0.0, 0.0]), layout=init_model(spec).layout)
        clients = Dataset(features=np.full((1, 1, 1), 1e308), labels=np.array([[label]]))
        return params, clients

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_loss_with_finite_gradient_is_divergence(self):
        params, clients = self.overflowing_logits(label=1)
        _, grad = loss_and_gradient(params, clients.features[0], clients.labels[0])
        assert np.all(np.isfinite(grad))
        named = r"^chain 0 \(client 0, position 0\): non-finite loss/gradient at epoch 0, batch 0"
        with pytest.raises(TrainingDivergedError, match=named):
            train_chains(params, clients, [[0]], [[3]], SgdConfig(batch_size=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_step_with_infinite_log_probability_trains(self):
        # Label 0 picks the finite log-probability: the loss and the gradient
        # are 0, though the other class's log-probability is -inf.
        params, clients = self.overflowing_logits(label=0)
        self.assert_rows_match_train_one_client(
            params, clients, [[0]], [[3]], SgdConfig(batch_size=1)
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_gradients_with_overflowing_sum_train(self):
        # Every sample predicts class 0 and is labelled 2, so the class-0 row
        # of the gradient is the batch mean of features near 1e307: each
        # entry is finite, but the row's 64 entries add up past float64.
        rng = np.random.default_rng(11)
        spec = ModelSpec(kind="softmax_linear", feature_dim=64, num_classes=3)
        weights = np.repeat([[1.0], [0.0], [-1.0]], 64, axis=1) * 1e-9
        params = ModelParams(
            values=np.concatenate([weights.ravel(), np.zeros(3)]), layout=init_model(spec).layout
        )
        clients = Dataset(
            features=np.abs(rng.standard_normal((2, 4, 64))) * 1e307,
            labels=np.full((2, 4), 2),
        )
        _, grad = loss_and_gradient(params, clients.features[0], clients.labels[0])
        assert np.all(np.isfinite(grad))
        assert not math.isfinite(np.sum(grad))
        self.assert_rows_match_train_one_client(
            params, clients, [[0], [1]], [[5], [6]], SgdConfig(learning_rate=0.0, batch_size=2)
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_in_a_later_epoch_names_it(self):
        # Every step of the first epoch passes the check; chain 1 meets a
        # non-finite loss or gradient at the first step of its second epoch.
        spec = ModelSpec(
            kind="mlp_one_hidden", feature_dim=3, num_classes=3, hidden_units=4, init_seed=2
        )
        features = np.zeros((2, 6, 3))
        features[0] = np.random.default_rng(3).standard_normal((6, 3))
        clients = Dataset(features=features, labels=np.tile([0, 1, 2, 0, 1, 2], (2, 1)))
        config = SgdConfig(learning_rate=3e307, batch_size=3, local_epochs=2)
        named = r"^chain 1 \(client 1, position 0\): non-finite loss/gradient at epoch 1, batch 0"
        with pytest.raises(TrainingDivergedError, match=named):
            train_chains(init_model(spec), clients, [[1, 1], [1, 0]], [[1, 2], [3, 4]], config)

    def test_inputs_not_mutated(self):
        rng = np.random.default_rng(9)
        spec = ModelSpec(
            kind="mlp_one_hidden", feature_dim=3, num_classes=3, hidden_units=4, init_seed=1
        )
        params = init_model(spec)
        clients = Dataset(
            features=rng.standard_normal((3, 7, 3)), labels=rng.integers(0, 3, size=(3, 7))
        )
        groups = np.array([[0, 2], [1, 0]])
        seeds = np.array([[4, 5], [6, 7]], dtype=np.uint64)
        inputs = (params.values, clients.features, clients.labels, groups, seeds)
        before = [array.tobytes() for array in inputs]
        train_chains(params, clients, groups, seeds, SgdConfig(learning_rate=0.1, batch_size=3))
        assert [array.tobytes() for array in inputs] == before


class TestEvaluate:
    def test_zero_params_loss_is_log_classes(self):
        spec = ModelSpec(kind="softmax_linear", feature_dim=3, num_classes=4)
        params = ModelParams(values=np.zeros(3 * 4 + 4), layout=init_model(spec).layout)
        rng = np.random.default_rng(8)
        labels = np.repeat(np.arange(4), 25)
        test = Dataset(features=rng.standard_normal((100, 3)), labels=labels)
        accuracy, loss = evaluate(params, test)
        # Uniform logits: argmax ties resolve to class 0, which is 1/4 of a
        # balanced set; the loss is exactly ln(num_classes).
        assert accuracy == pytest.approx(0.25)
        assert loss == pytest.approx(math.log(4), abs=1e-12)

    def test_perfect_separation(self):
        # Oracle weights: rows are class indicator features.
        features = np.eye(3)[np.array([0, 1, 2, 0, 1, 2])] * 10.0
        labels = np.array([0, 1, 2, 0, 1, 2])
        layout = (("w", (3, 3)), ("b", (3,)))
        params = ModelParams(
            values=np.concatenate([np.eye(3).ravel(), np.zeros(3)]), layout=layout
        )
        accuracy, loss = evaluate(params, Dataset(features=features, labels=labels))
        assert accuracy == 1.0
        assert loss < 1e-3

    def test_loss_matches_independent_recomputation(self):
        rng = np.random.default_rng(9)
        spec = ModelSpec(kind="mlp_one_hidden", feature_dim=4, num_classes=3,
                         hidden_units=5, init_seed=12)
        params = init_model(spec)
        test = Dataset(
            features=rng.standard_normal((40, 4)), labels=rng.integers(0, 3, size=40)
        )
        _, loss = evaluate(params, test)
        layers = _split(params.values, params.layout)
        w1, b1, w2, b2 = (layers[name] for name in ("w1", "b1", "w2", "b2"))
        total = 0.0
        for x, y in zip(test.features, test.labels):
            hidden = np.tanh(w1 @ x + b1)
            logits = w2 @ hidden + b2
            shifted = logits - logits.max()
            total += -(shifted[y] - math.log(np.exp(shifted).sum()))
        assert loss == pytest.approx(total / 40, abs=1e-12)


class TestEvaluateMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from([KIND_SOFTMAX_LINEAR, KIND_MLP_ONE_HIDDEN]),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(-300, 300),
        integer_valued=st.booleans(),
        n=st.integers(1, 40),
        num_classes=st.integers(2, 6),
        dim=st.integers(1, 4),
    )
    def test_random_scaled_parameters(
        self, kind, seed, exponent, integer_valued, n, num_classes, dim
    ):
        # Integer-valued weights and features make tied logits (zeros
        # included); large scales overflow them to inf.
        rng = np.random.default_rng(seed)
        spec = ModelSpec(kind=kind, feature_dim=dim, num_classes=num_classes, hidden_units=3)
        layout = init_model(spec).layout
        size = init_model(spec).values.size
        if integer_valued:
            values = rng.integers(-2, 3, size).astype(float)
            features = rng.integers(-2, 3, (n, dim)).astype(float)
        else:
            values = rng.standard_normal(size)
            features = rng.standard_normal((n, dim))
        params = ModelParams(values=values * 10.0**exponent, layout=layout)
        test = make_dataset(features, rng.integers(0, num_classes, n))
        with np.errstate(all="ignore"):
            assert repr(evaluate(params, test)) == repr(evaluate_oracle(params, test))

    def test_logits_that_overflow(self):
        layout = (("w", (3, 2)), ("b", (3,)))
        values = np.array([1e300, 0, -1e300, 0, 1e300, 1e300, 0, 0, 0])
        params = ModelParams(values=values, layout=layout)
        test = make_dataset([[1e10, 0.0], [1e10, 1e10], [-1e10, 1.0]], [0, 1, 2])
        with np.errstate(all="ignore"):
            logits = fedgsp.trainer._forward(_split(values, layout), test.features)[0]
            assert np.isinf(logits).any()
            assert repr(evaluate(params, test)) == repr(evaluate_oracle(params, test))

    @pytest.mark.parametrize(
        "logits",
        [
            # A +-0 tie at the row maximum: the reduced maximum and the
            # argmax's entry can differ in sign.
            [[-0.0, 0.0, -1.0], [0.0, -0.0, -1.0], [-1.0, 0.0, -0.0], [-0.0, -2.0, 0.0]],
            # exp-sums of exactly 1.0: the other entries underflow to 0.
            [[0.0, -1000.0, -800.0], [-800.0, 5.0, -1000.0], [1e300, -1e300, 0.0]],
            # All-equal logits.
            [[3.0, 3.0, 3.0], [-0.0, -0.0, -0.0], [0.0, 0.0, 0.0], [-1e308, -1e308, -1e308]],
            # Logits that overflowed to inf.
            [[np.inf, 1.0, -np.inf], [np.inf, np.inf, 0.0], [-np.inf, -np.inf, -np.inf]],
        ],
        ids=["signed-zero-tie", "exp-sum-one", "all-equal", "infinite"],
    )
    @pytest.mark.parametrize("label_column", [0, 1, 2])
    def test_hand_cases(self, monkeypatch, logits, label_column):
        logits = np.array(logits)
        # _forward returns these logits; evaluate shifts its copy in place.
        monkeypatch.setattr(fedgsp.trainer, "_forward", lambda layers, x: (logits.copy(), None))
        params = ModelParams(values=np.zeros(6), layout=(("w", (3, 1)), ("b", (3,))))
        labels = (np.arange(len(logits)) + label_column) % 3
        test = make_dataset(np.zeros((len(logits), 1)), labels)
        with np.errstate(all="ignore"):
            assert repr(evaluate(params, test)) == repr(evaluate_oracle(params, test))


class TestSgdConfig:
    def test_defaults_match_contract(self):
        config = SgdConfig()
        assert (config.learning_rate, config.batch_size, config.local_epochs) == (0.01, 5, 1)

    def test_rejects_bad_batch(self):
        with pytest.raises(ConfigurationError):
            SgdConfig(batch_size=0)
