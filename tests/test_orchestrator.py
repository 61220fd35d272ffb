import functools
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgsp import metrics, orchestrator
from fedgsp.datagen import Dataset, SyntheticTaskSpec
from fedgsp.errors import ConfigurationError, TrainingDivergedError
from fedgsp.grouping import group_distributions, singleton_grouping
from fedgsp.metrics import CostModelParams, t_comp
from fedgsp.orchestrator import (
    CHECKPOINT_FORMAT_VERSION,
    GROWTH_CAP,
    ExperimentConfig,
    GrowthFunction,
    RoundRecord,
    config_fingerprint,
    group_count_for_round,
    growth_eval,
    load_checkpoint,
    new_experiment_state,
    preflight,
    run_experiment,
    run_round,
    run_rounds,
    save_checkpoint,
)
from fedgsp.rng import generator, stream_id
from fedgsp.trainer import ModelParams, ModelSpec, SgdConfig

from test_trainer import chained_sgd_oracle


def make_config(**kwargs):
    base = dict(
        algorithm="fedgsp",
        task=SyntheticTaskSpec(
            num_classes=4,
            num_clients=10,
            samples_per_client=20,
            feature_dim=6,
            skew="dirichlet",
            concentration=0.4,
            seed=5,
        ),
        model=ModelSpec(kind="softmax_linear", feature_dim=6, num_classes=4, init_seed=2),
        sgd=SgdConfig(),
        growth=GrowthFunction(kind="log", alpha=2.0, beta=2),
        kappa=0.5,
        rounds=3,
        run_seed=77,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


# Floats whose shortest repr sits at a format edge: signed zero, subnormals,
# the largest finite value and the switches to exponent notation.
REPR_EDGE_FLOATS = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
     1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 0.1, 1 / 3, -2.5e-310]
)


@functools.lru_cache(maxsize=1)
def checkpoint_state():
    return new_experiment_state(make_config(rounds=4))


def record_bytes(records):
    return np.array([tuple(r) for r in records], dtype=np.float64).tobytes()


class TestGrowthEval:
    def test_log_default_coefficients_round_one(self):
        assert growth_eval(GrowthFunction("log", 2.0, 10), 1) == 10

    def test_linear_identity(self):
        assert growth_eval(GrowthFunction("linear", 1.0, 1), 5) == 5

    def test_exp_example(self):
        # Frozen from direct evaluation: 2 * floor(2**3) = 16.
        assert growth_eval(GrowthFunction("exp", 1.0, 2), 4) == 16

    @pytest.mark.parametrize("kind", ["linear", "log", "exp"])
    def test_matches_closed_form_oracle(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(6):
            alpha = float(rng.uniform(0.1, 3.0))
            beta = int(rng.integers(1, 12))
            growth = GrowthFunction(kind, alpha, beta)
            for r in range(1, 101):
                if kind == "linear":
                    expected = beta * math.floor(alpha * (r - 1) + 1)
                elif kind == "log":
                    expected = beta * math.floor(alpha * math.log(r) + 1)
                else:
                    expected = beta * math.floor((1 + alpha) ** (r - 1))
                assert growth_eval(growth, r) == expected

    @pytest.mark.parametrize("kind", ["linear", "log", "exp"])
    def test_monotone_nondecreasing(self, kind):
        growth = GrowthFunction(kind, 0.7, 3)
        values = [growth_eval(growth, r) for r in range(1, 60)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] >= 1

    def test_exp_saturates_instead_of_overflowing(self):
        growth = GrowthFunction("exp", 1e4, 7)
        assert growth_eval(growth, 100) == GROWTH_CAP

    @pytest.mark.parametrize("kind", ["linear", "log", "exp"])
    def test_huge_alpha_saturates_instead_of_overflowing(self, kind):
        growth = GrowthFunction(kind, 1e308, 3)
        values = [growth_eval(growth, r) for r in range(1, 101)]
        assert values == [3] + [GROWTH_CAP] * 99

    @pytest.mark.parametrize(
        "kind, alpha, beta, round_index",
        [("exp", 1.0, 1, 100), ("linear", 1e18, 10, 3), ("log", 1e18, 10, 3)],
    )
    def test_exact_above_cap_before_saturation(self, kind, alpha, beta, round_index):
        # The float term is still below the saturation point, so the value is
        # the closed form, which here already exceeds GROWTH_CAP.
        inner = {
            "exp": (1 + alpha) ** (round_index - 1),
            "linear": alpha * (round_index - 1) + 1,
            "log": alpha * math.log(round_index) + 1,
        }[kind]
        value = growth_eval(GrowthFunction(kind, alpha, beta), round_index)
        assert value == beta * math.floor(inner) > GROWTH_CAP

    def test_rejects_round_zero(self):
        with pytest.raises(ValueError):
            growth_eval(GrowthFunction("log", 2.0, 10), 0)

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ConfigurationError):
            GrowthFunction("log", 0.0, 10)
        with pytest.raises(ConfigurationError):
            GrowthFunction("log", 1.0, 0)
        with pytest.raises(ConfigurationError):
            GrowthFunction("quadratic", 1.0, 1)


class TestConfigValidation:
    def test_naive_needs_fixed_group_count(self):
        with pytest.raises(ConfigurationError):
            make_config(algorithm="naive_gsp")

    def test_kappa_range(self):
        with pytest.raises(ConfigurationError):
            make_config(kappa=0.0)

    def test_model_task_consistency(self):
        with pytest.raises(ConfigurationError):
            make_config(
                model=ModelSpec(kind="softmax_linear", feature_dim=3, num_classes=4)
            )

    def test_cost_model_derived_from_task(self):
        config = make_config()
        assert config.cost.num_clients == 10
        assert config.cost.samples_per_client == 20
        assert config.cost.sampling_rate == 0.5

    def test_mismatched_cost_model_rejected(self):
        matching = dict(samples_per_client=20, num_clients=10, local_epochs=1, sampling_rate=0.5)
        assert make_config(cost=CostModelParams(**matching)).cost == CostModelParams(**matching)
        for name, value in (
            ("samples_per_client", 7),
            ("num_clients", 1),
            ("local_epochs", 3),
            ("sampling_rate", 1.0),
        ):
            with pytest.raises(ConfigurationError, match=name):
                make_config(cost=CostModelParams(**{**matching, name: value}))


class TestGroupCounts:
    def test_fedgsp_uses_growth_capped_at_clients(self):
        config = make_config(growth=GrowthFunction("linear", 5.0, 4))
        assert group_count_for_round(config, 1) == 4
        assert group_count_for_round(config, 3) == 10  # 44 capped at K

    def test_fedavg_always_full(self):
        config = make_config(algorithm="fedavg")
        assert group_count_for_round(config, 1) == 10

    def test_naive_fixed(self):
        config = make_config(algorithm="naive_gsp", fixed_group_count=3)
        assert group_count_for_round(config, 2) == 3


class TestRunRound:
    def test_round_record_fields(self):
        config = make_config()
        state = new_experiment_state(config)
        record = run_round(state, 1)
        assert record.round_index == 1
        assert record.group_count == 2
        assert record.sampled_groups == max(1, math.floor(0.5 * 2 + 0.5))
        assert 0.0 <= record.accuracy <= 1.0
        assert record.loss > 0.0
        assert state.records == [record]

    def test_rounds_run_in_order(self):
        # Round 3 first would price t_comp for one round and t_comm for three.
        state = new_experiment_state(make_config(rounds=4))
        params = state.params
        with pytest.raises(ValueError, match="round 3 does not follow the 0 completed rounds"):
            run_round(state, 3)
        assert state.records == [] and state.params is params
        run_round(state, 1)
        with pytest.raises(ValueError, match="round 1 does not follow the 1 completed rounds"):
            run_round(state, 1)
        assert [record.round_index for record in state.records] == [1]

    def test_sample_floor_is_one_group(self):
        config = make_config(kappa=0.05)
        state = new_experiment_state(config)
        record = run_round(state, 1)
        assert record.sampled_groups == 1

    def test_participation_matches_sampled_groups(self):
        config = make_config(rounds=1)
        state = new_experiment_state(config)
        record = run_round(state, 1)
        plan = state.last_plan
        sampled = generator(config.run_seed, "group-sample", 1).choice(
            plan.group_count, size=record.sampled_groups, replace=False
        )
        trained = [c for g in sampled for c in plan.groups[g]]
        assert len(trained) == len(set(trained))

    def test_single_chain_equals_centralized_oracle(self):
        # M=1, kappa=1: the round is one sequential pass over every grouped
        # client; its output must match plain SGD over the concatenated data.
        config = make_config(
            growth=GrowthFunction("linear", 1.0, 1),
            kappa=1.0,
            rounds=1,
        )
        state = new_experiment_state(config)
        initial = state.params
        run_round(state, 1)
        plan = state.last_plan
        assert plan.group_count == 1
        clients = state.clients
        chain = [Dataset(clients.features[c], clients.labels[c]) for c in plan.groups[0]]
        seeds = [
            stream_id(config.run_seed, "batch", 1, 0, c) for c in plan.groups[0]
        ]
        expected = chained_sgd_oracle(initial, chain, 0.01, 5, seeds)
        assert float(np.max(np.abs(state.params.values - expected))) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_average_is_divergence(self):
        # Every chain's model is finite, but their sum, and so the mean, is not.
        config = make_config(
            algorithm="fedavg",
            task=SyntheticTaskSpec(
                num_classes=2,
                num_clients=4,
                samples_per_client=5,
                feature_dim=2,
                skew="dirichlet",
                concentration=0.4,
                seed=5,
            ),
            model=ModelSpec(kind="softmax_linear", feature_dim=2, num_classes=2, init_seed=2),
            sgd=SgdConfig(learning_rate=1e308, batch_size=5),
            kappa=1.0,
            rounds=1,
        )
        state = new_experiment_state(config)
        params = state.params
        with pytest.raises(TrainingDivergedError, match=r"^round 1: non-finite averaged model"):
            run_round(state, 1)
        assert state.records == [] and state.params is params

    def test_aggregation_of_identical_models_is_exact(self):
        # lr=0 keeps every chain output equal to the global model; averaging
        # 2 (and 4) identical vectors must reproduce it bit-for-bit.
        for kappa, expected_groups in ((0.5, 2), (1.0, 4)):
            config = make_config(
                algorithm="naive_gsp",
                fixed_group_count=4,
                kappa=kappa,
                sgd=SgdConfig(learning_rate=0.0),
            )
            state = new_experiment_state(config)
            before = state.params.values.copy()
            record = run_round(state, 1)
            assert record.sampled_groups == expected_groups
            assert np.array_equal(state.params.values, before)

    def test_fedgsp_full_parallel_coincides_with_fedavg(self):
        # kappa=1, f(r) >= K, b=n, e=1: groups of size one, so the round is a
        # full-batch FedAvg round (same client set, order-independent mean).
        task = SyntheticTaskSpec(
            num_classes=3,
            num_clients=6,
            samples_per_client=8,
            feature_dim=4,
            skew="dirichlet",
            concentration=0.5,
            seed=9,
        )
        shared = dict(
            task=task,
            model=ModelSpec(kind="softmax_linear", feature_dim=4, num_classes=3, init_seed=3),
            sgd=SgdConfig(learning_rate=0.05, batch_size=8),
            kappa=1.0,
            rounds=1,
            run_seed=55,
        )
        gsp = ExperimentConfig(
            algorithm="fedgsp", growth=GrowthFunction("linear", 50.0, 6), **shared
        )
        avg = ExperimentConfig(algorithm="fedavg", **shared)
        gsp_state = new_experiment_state(gsp)
        avg_state = new_experiment_state(avg)
        run_round(gsp_state, 1)
        run_round(avg_state, 1)
        assert gsp_state.last_plan.group_count == 6
        assert np.allclose(
            gsp_state.params.values, avg_state.params.values, atol=1e-12
        )


class TestRunExperiment:
    def test_zero_rounds(self):
        config = make_config(rounds=0)
        records, params = run_experiment(config)
        assert records == []
        assert params.values.size > 0

    def test_deterministic_record_streams(self):
        first, _ = run_experiment(make_config())
        second, _ = run_experiment(make_config())
        assert first == second

    def test_costs_accumulate(self):
        records, _ = run_experiment(make_config())
        comp = [r.t_comp_cum_s for r in records]
        comm = [r.t_comm_cum_s for r in records]
        traffic = [r.d_comm_cum_mb for r in records]
        for series in (comp, comm, traffic):
            assert all(b > a for a, b in zip(series, series[1:]))

    def test_baselines_share_round_code_path(self):
        # fedgsp with a schedule frozen at M reproduces naive_gsp_icg exactly.
        frozen = make_config(growth=GrowthFunction("linear", 1e-9, 3))
        for r in (1, 2, 3):
            assert group_count_for_round(frozen, r) == 3
        icg = make_config(algorithm="naive_gsp_icg", fixed_group_count=3)
        a, _ = run_experiment(frozen)
        b, _ = run_experiment(icg)
        assert a == b

    @pytest.mark.parametrize("done", [0, 2])
    def test_run_rounds_yields_the_remaining_records_in_order(self, done):
        config = make_config(rounds=5)
        straight, _ = run_experiment(config)
        state = new_experiment_state(config)
        for round_index in range(1, done + 1):
            run_round(state, round_index)
        yielded = list(run_rounds(state))
        assert [r.round_index for r in yielded] == list(range(done + 1, 6))
        assert yielded == straight[done:] == state.records[done:]

    def test_run_rounds_checkpoints_before_yielding(self, tmp_path):
        config = make_config(rounds=5)
        checkpoint = str(tmp_path / "checkpoint.json")
        state = preflight(config, checkpoint_path=checkpoint, checkpoint_every=2)
        rounds = run_rounds(state, checkpoint, 2)
        assert next(rounds).round_index == 1
        assert not (tmp_path / "checkpoint.json").exists()
        assert next(rounds).round_index == 2
        measured = [[r.accuracy, r.loss, r.median_group_cpd] for r in state.records]
        assert load_checkpoint(checkpoint)[0] == measured[:2]
        assert len(state.records) == 2  # round 3 waits for the next request

    def test_checkpoint_resume_is_bit_identical(self, tmp_path):
        config = make_config(rounds=6)
        straight, straight_params = run_experiment(config)

        checkpoint = tmp_path / "checkpoint.json"
        half = make_config(rounds=3)
        run_experiment(half, checkpoint_path=str(checkpoint), checkpoint_every=3)
        records, fingerprint, _ = load_checkpoint(str(checkpoint))
        assert len(records) == 3
        assert fingerprint == config_fingerprint(config)

        resumed, resumed_params = run_experiment(config, resume_from=str(checkpoint))
        assert resumed == straight
        assert np.array_equal(resumed_params.values, straight_params.values)

    @pytest.mark.parametrize(
        "arm",
        [
            {"algorithm": "fedgsp"},
            {"algorithm": "naive_gsp", "fixed_group_count": 3},
            {"algorithm": "naive_gsp_icg", "fixed_group_count": 3},
            {"algorithm": "fedavg"},
        ],
        ids=lambda arm: arm["algorithm"],
    )
    def test_resume_from_any_round_matches_straight_run(self, tmp_path, arm):
        straight, straight_params = run_experiment(make_config(rounds=5, **arm))
        for stop in (1, 3, 5):
            checkpoint = tmp_path / f"after-{stop}.json"
            run_experiment(
                make_config(rounds=stop, **arm),
                checkpoint_path=str(checkpoint),
                checkpoint_every=stop,
            )
            resumed, params = run_experiment(
                make_config(rounds=5, **arm), resume_from=str(checkpoint)
            )
            assert record_bytes(resumed) == record_bytes(straight)
            assert params.values.tobytes() == straight_params.values.tobytes()

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (0, 1, "accuracy must be a finite float, got 1"),
            (2, None, "median_group_cpd must be a finite float, got None"),
            (0, math.nan, "accuracy must be a finite float, got nan"),
            (1, math.inf, "loss must be a finite float, got inf"),
        ],
        ids=["accuracy-int", "median_group_cpd-null", "accuracy-nan", "loss-inf"],
    )
    def test_resume_rejects_mistyped_record_values(self, tmp_path, column, value, message):
        # Resuming on JSON 1 would write "1" where a straight run writes
        # "1.0"; JSON NaN and Infinity parse as floats.
        checkpoint = tmp_path / "ck.json"
        run_experiment(
            make_config(rounds=2), checkpoint_path=str(checkpoint), checkpoint_every=2
        )
        payload = json.loads(checkpoint.read_text())
        payload["records"][1][column] = value
        checkpoint.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match=re.escape(f"round 2: {message}")):
            run_experiment(make_config(rounds=4), resume_from=str(checkpoint))

    @pytest.mark.parametrize("length", [2, 0, 4], ids=["two", "empty", "four"])
    def test_resume_rejects_record_rows_of_another_length(self, tmp_path, length):
        checkpoint = tmp_path / "ck.json"
        run_experiment(
            make_config(rounds=1), checkpoint_path=str(checkpoint), checkpoint_every=1
        )
        payload = json.loads(checkpoint.read_text())
        payload["records"][0] = (payload["records"][0] * 2)[:length]
        checkpoint.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="round 1: expected 3 values"):
            run_experiment(make_config(rounds=2), resume_from=str(checkpoint))

    def test_t_comp_running_sum_matches_full_recount(self):
        # Bitwise: the per-round running sum adds in the same order as t_comp
        # over every round so far. Resume seeding is covered by the
        # bit-identical resume test below.
        config = make_config(rounds=6)
        records, _ = run_experiment(config)
        for record in records:
            counts = [group_count_for_round(config, r) for r in range(1, record.round_index + 1)]
            assert record.t_comp_cum_s == t_comp(counts, config.cost)

    def test_checkpoint_format_versioned(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text('{"format_version": 99, "round": 1}')
        with pytest.raises(ValueError, match="unsupported checkpoint format"):
            load_checkpoint(str(path))

    def test_failed_checkpoint_write_keeps_previous(self, tmp_path, monkeypatch):
        state = new_experiment_state(make_config(rounds=2))
        run_round(state, 1)
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        before = path.read_bytes()
        run_round(state, 2)

        def torn_open(file, mode, **kwargs):
            with open(file, mode, **kwargs) as handle:
                handle.write('{"format_version": ')
            raise OSError("disk full")

        monkeypatch.setattr(orchestrator, "open", torn_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(state, str(path))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert len(load_checkpoint(str(path))[0]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_checkpoint_text_is_one_json_dumps(self, data):
        state = checkpoint_state()
        size = state.params.values.size
        floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False), REPR_EDGE_FLOATS)
        values = data.draw(st.lists(floats, min_size=size, max_size=size), label="values")
        state.params = ModelParams(np.array(values), state.params.layout)
        state.records = [
            RoundRecord(i + 1, *data.draw(st.tuples(*[st.integers(1, 2**62)] * 2, *[floats] * 6)))
            for i in range(data.draw(st.integers(0, 4), label="records"))
        ]
        measured = [[r.accuracy, r.loss, r.median_group_cpd] for r in state.records]
        payload = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "config": config_fingerprint(state.config),
            "values": values,
            "records": measured,
        }
        streamed = io.StringIO()
        json.dump(payload, streamed)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "ck.json"
            save_checkpoint(state, str(path))
            text = path.read_bytes()
            assert load_checkpoint(str(path))[0] == measured
        assert text == json.dumps(payload).encode() == streamed.getvalue().encode()

    def test_fedavg_computes_its_cpd_once_per_run(self, monkeypatch):
        config = make_config(algorithm="fedavg")
        state = new_experiment_state(config)
        expected = metrics.median_pairwise_cpd(
            group_distributions(singleton_grouping(10, 1), state.counts)
        )
        real, calls = metrics.median_pairwise_cpd, []

        def counted(distributions):
            calls.append(None)
            return real(distributions)

        monkeypatch.setattr(metrics, "median_pairwise_cpd", counted)
        records = list(run_rounds(state))
        assert len(calls) == 1
        assert [r.median_group_cpd for r in records] == [expected] * config.rounds

    def test_checkpoint_seed_mismatch_rejected(self, tmp_path):
        config = make_config(rounds=2)
        state = new_experiment_state(config)
        run_round(state, 1)
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        other = make_config(run_seed=123)
        with pytest.raises(ConfigurationError):
            run_experiment(other, resume_from=str(path))

    def test_fedavg_samples_expected_clients(self):
        config = make_config(algorithm="fedavg", kappa=0.3)
        state = new_experiment_state(config)
        record = run_round(state, 1)
        assert record.group_count == 10
        assert record.sampled_groups == 3
        assert all(len(g) == 1 for g in state.last_plan.groups)
