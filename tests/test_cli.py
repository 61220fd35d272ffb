import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedgsp.orchestrator
import fedgsp.trainer
from fedgsp.cli import ABLATION_ARMS, CSV_COLUMNS, main
from fedgsp.config import (
    _SCHEMA,
    canonical_serialization,
    load_config_file,
    parse_config_text,
    parse_override,
    resolve,
)
from fedgsp.errors import ConfigurationError, TrainingDivergedError
from fedgsp.metrics import cpd
from fedgsp.orchestrator import ALGORITHMS, GROWTH_KINDS, _build_plan, new_experiment_state

ROOT = Path(__file__).resolve().parent.parent

BASE_CONFIG = """\
# desk-scale smoke config
algorithm = fedgsp
seed = 3
rounds = 2
kappa = 0.5
task.num_classes = 3
task.num_clients = 8
task.samples_per_client = 12
task.feature_dim = 4
growth.kind = log
growth.alpha = 2
growth.beta = 2
"""

COST_KEYS = (
    "cost.calc_flops_per_sample",
    "cost.aggregation_flops",
    "cost.device_flops_per_second",
    "cost.model_size_megabytes",
    "cost.inbound_megabits_per_second",
    "cost.outbound_megabits_per_second",
)


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "smoke.cfg"
    path.write_text(BASE_CONFIG)
    return path


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


@pytest.fixture()
def live_states(monkeypatch):
    """How many run states were still alive as each new one was built."""
    refs = []
    counts = []
    original = fedgsp.orchestrator.new_experiment_state

    def tracked(config):
        counts.append(sum(ref() is not None for ref in refs))
        state = original(config)
        refs.append(weakref.ref(state))
        return state

    monkeypatch.setattr(fedgsp.orchestrator, "new_experiment_state", tracked)
    return counts


class TestConfigParsing:
    def test_parse_and_resolve(self):
        resolved = resolve(parse_config_text(BASE_CONFIG))
        assert resolved.experiment.algorithm == "fedgsp"
        assert resolved.experiment.rounds == 2
        assert resolved.experiment.task.num_clients == 8
        assert resolved.seed == 3

    def test_trailing_comment_stripped(self):
        settings = parse_config_text("algorithm = fedavg  # the baseline\n")
        assert settings["algorithm"] == "fedavg"

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigurationError, match="task.clients"):
            resolve(parse_config_text(BASE_CONFIG + "task.clients = 9\n"))

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_bad_value_names_field(self):
        with pytest.raises(ConfigurationError, match="rounds"):
            resolve(parse_config_text(BASE_CONFIG.replace("rounds = 2", "rounds = many")))

    def test_missing_algorithm_rejected(self):
        with pytest.raises(ConfigurationError, match="algorithm"):
            resolve({})

    def test_override_wins(self):
        resolved = resolve(parse_config_text(BASE_CONFIG), {"rounds": "5"})
        assert resolved.experiment.rounds == 5

    def test_override_parsing(self):
        assert parse_override("growth.beta=4") == ("growth.beta", "4")
        with pytest.raises(ConfigurationError):
            parse_override("growth.beta")

    def test_hash_matches_canonical_bytes(self):
        resolved = resolve(parse_config_text(BASE_CONFIG))
        digest = hashlib.sha256(
            canonical_serialization(resolved.snapshot).encode()
        ).hexdigest()
        assert digest == resolved.content_hash

    def test_readme_lists_every_config_key(self):
        # A cost key is listed by its field name; every other key in full.
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        missing = [key for key in _SCHEMA if key.removeprefix("cost.") not in readme]
        assert missing == []

    def test_seed_is_the_single_knob(self):
        a = resolve(parse_config_text(BASE_CONFIG))
        b = resolve(parse_config_text(BASE_CONFIG), {"seed": "4"})
        assert a.experiment.task.seed != b.experiment.task.seed
        assert a.experiment.model.init_seed != b.experiment.model.init_seed
        assert a.experiment.run_seed != b.experiment.run_seed


class TestCmdRun:
    def test_writes_all_artifacts(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        run_dir = out / "smoke"
        rows = read_rows(run_dir / "rounds.csv")
        assert rows[0] == [
            "round",
            "M",
            "sampled_groups",
            "accuracy",
            "loss",
            "median_group_cpd",
            "t_comp_cum_s",
            "t_comm_cum_s",
            "d_comm_cum_mb",
        ]
        assert len(rows) == 1 + 2  # header + R rounds
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "completed"
        assert manifest["numpy"] == np.__version__  # the byte contract rests on it
        assert manifest["config"]["rounds"] == "2"
        assert manifest["config_hash"] == hashlib.sha256(
            canonical_serialization(manifest["config"]).encode()
        ).hexdigest()
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["rounds"] == 2
        assert 0.0 <= summary["final_accuracy"] <= 1.0

    def test_row_count_follows_override(self, tmp_path, config_path):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out), "--set", "rounds=3"])
        assert len(read_rows(out / "smoke" / "rounds.csv")) == 4

    def test_identical_configs_identical_csv_bytes(self, tmp_path, config_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        main(["run", "--config", str(config_path), "--out", str(first)])
        main(["run", "--config", str(config_path), "--out", str(second)])
        a = (first / "smoke" / "rounds.csv").read_bytes()
        b = (second / "smoke" / "rounds.csv").read_bytes()
        assert a == b

    def test_unreached_target_is_null(self, tmp_path, config_path):
        out = tmp_path / "out"
        main(
            [
                "run",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--set",
                "target_accuracy=0.999",
                "--set",
                "rounds=1",
            ]
        )
        summary = json.loads((out / "smoke" / "summary.json").read_text())
        assert summary["rounds_to_target"] is None

    def test_config_error_exit_code(self, tmp_path, config_path):
        code = main(
            [
                "run",
                "--config",
                str(config_path),
                "--out",
                str(tmp_path / "x"),
                "--set",
                "task.num_clients=1",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "setting",
        [
            "cost.model_size_megabytes=inf",
            "growth.alpha=inf",
            "task.concentration=inf",
            "sgd.learning_rate=nan",
            "kappa=-inf",
        ],
    )
    def test_non_finite_float_is_config_error(self, tmp_path, config_path, capsys, setting):
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--out", str(out), "--set", setting])
        assert code == 1
        key, raw = setting.split("=")
        assert f"{key}: expected a finite float, got {raw!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting",
        [
            "cost.model_size_megabytes=0",
            "cost.device_flops_per_second=-1",
            "kappa=0",
            "cost.device_flops_per_second=1e-320",
            "cost.model_size_megabytes=1e308",
        ],
    )
    def test_bad_cost_constant_is_config_error(self, tmp_path, config_path, capsys, setting):
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--out", str(out), "--set", setting])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_cumulative_cost_overflow_is_config_error(self, tmp_path, config_path, capsys):
        # One round's costs are finite at this model size, but the cumulative
        # t_comm and d_comm columns pass float64's range well before round 60.
        run = ["run", "--config", str(config_path), "--set", "cost.model_size_megabytes=1e306"]
        out = tmp_path / "out"
        assert main(run + ["--out", str(out), "--set", "rounds=60"]) == 1
        assert "overflow the cumulative costs over 60 rounds" in capsys.readouterr().err
        assert not out.exists()
        # A round count past float range is the same config error.
        assert main(run + ["--out", str(out), "--set", f"rounds={10**400}"]) == 1
        assert "overflow the cumulative costs" in capsys.readouterr().err
        assert not out.exists()
        assert main(run + ["--out", str(out)]) == 0
        rows = read_rows(out / "smoke" / "rounds.csv")[1:]
        assert len(rows) == 2
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    @pytest.mark.parametrize("kappa", ["0", "-0.5"])
    def test_kappa_outside_range_names_kappa(self, tmp_path, config_path, capsys, kappa):
        out = tmp_path / "out"
        argv = ["run", "--config", str(config_path), "--out", str(out), "--set", f"kappa={kappa}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"kappa must be in (0, 1], got {float(kappa)}" in err
        assert "sampling_rate" not in err
        assert not out.exists()

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_config_boundary_fuzz(self, data):
        # Either a config error with no run directory, or a completed run
        # with finite rows; never a runtime failure.
        num_clients = data.draw(st.integers(2, 12), label="K")
        drawn = {
            "algorithm": data.draw(st.sampled_from(ALGORITHMS)),
            "rounds": data.draw(st.integers(0, 3)),
            "task.num_clients": num_clients,
            "task.samples_per_client": data.draw(st.integers(1, 10)),
            "fixed_group_count": data.draw(st.integers(-2, 2 * num_clients + 1)),
            "growth.kind": data.draw(st.sampled_from(GROWTH_KINDS)),
            "growth.alpha": data.draw(st.floats(0.0, 1e308)),
            "growth.beta": data.draw(st.integers(1, 4)),
            "kappa": data.draw(st.sampled_from([0.5, 1.0, 5e-324, 1e-9, 0.0, 1.0 + 2**-52])),
            "task.concentration": data.draw(st.sampled_from([5e-324, 0.3, 1e6, 1e308])),
            data.draw(st.sampled_from(COST_KEYS)): data.draw(
                st.sampled_from([1e-320, 1.0, 1e308])
            ),
        }
        overrides = [("--set", f"{key}={value}") for key, value in drawn.items()]
        with tempfile.TemporaryDirectory() as root:
            config = Path(root) / "fuzz.cfg"
            config.write_text(BASE_CONFIG)
            out = Path(root) / "out"
            argv = ["run", "--config", str(config), "--out", str(out)]
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main(argv + [arg for pair in overrides for arg in pair])
            assert code in (0, 1), stderr.getvalue()
            if code == 1:
                assert "config error" in stderr.getvalue()
                assert not out.exists()
                return
            manifest = json.loads((out / "fuzz" / "manifest.json").read_text())
            assert manifest["status"] == "completed"
            rows = read_rows(out / "fuzz" / "rounds.csv")[1:]
            assert len(rows) == drawn["rounds"]
            assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_env_var_out_root(self, tmp_path, config_path, monkeypatch):
        monkeypatch.setenv("FEDGSP_OUT_ROOT", str(tmp_path / "envroot"))
        main(["run", "--config", str(config_path)])
        assert (tmp_path / "envroot" / "smoke" / "rounds.csv").exists()

    def test_empty_env_var_out_root_is_unset(self, tmp_path, config_path, monkeypatch):
        monkeypatch.setenv("FEDGSP_OUT_ROOT", "")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(config_path), "--name", "zz"]) == 0
        assert (tmp_path / "runs" / "zz" / "rounds.csv").exists()
        assert not (tmp_path / "zz").exists()

    def test_dump_groupings(self, tmp_path, config_path):
        out = tmp_path / "out"
        main(
            [
                "run",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--dump-groupings",
            ]
        )
        lines = (out / "smoke" / "groupings.jsonl").read_text().splitlines()
        assert len(lines) == 2
        plan = json.loads(lines[0])
        assert plan["round"] == 1
        assert isinstance(plan["groups"], list)
        assert "unassigned" in plan

    def test_rerun_without_dump_deletes_the_earlier_plans(self, tmp_path, config_path):
        out = tmp_path / "out"
        run = ["run", "--config", str(config_path), "--out", str(out), "--name", "foo"]
        assert main(run + ["--set", "rounds=3", "--dump-groupings"]) == 0
        run_dir = out / "foo"
        assert len((run_dir / "groupings.jsonl").read_text().splitlines()) == 3
        assert main(run + ["--set", "rounds=1", "--set", "seed=9"]) == 0
        assert not (run_dir / "groupings.jsonl").exists()
        assert len((run_dir / "rounds.csv").read_text().splitlines()) == 2  # header + 1 round

    def test_checkpoint_and_resume(self, tmp_path, config_path):
        full = tmp_path / "full"
        run = ["run", "--config", str(config_path), "--dump-groupings"]
        main(run + ["--out", str(full), "--set", "rounds=4"])

        part = tmp_path / "part"
        main(run + ["--out", str(part), "--set", "rounds=2", "--checkpoint-every", "2"])
        resumed = tmp_path / "resumed"
        resume = ["--resume", str(part / "smoke" / "checkpoint.json")]
        code = main(run + ["--out", str(resumed), "--set", "rounds=4"] + resume)
        assert code == 0
        for name in ("rounds.csv", "summary.json", "groupings.jsonl"):
            assert (resumed / "smoke" / name).read_bytes() == (full / "smoke" / name).read_bytes()

    def test_resume_reads_checkpoint_and_builds_task_once(
        self, tmp_path, config_path, monkeypatch
    ):
        run = ["run", "--config", str(config_path), "--dump-groupings"]
        part = tmp_path / "part"
        assert main(run + ["--out", str(part), "--checkpoint-every", "2"]) == 0
        calls = {"load_checkpoint": 0, "generate_task": 0}
        for name in calls:
            original = getattr(fedgsp.orchestrator, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(fedgsp.orchestrator, name, counted)
        resume = ["--resume", str(part / "smoke" / "checkpoint.json")]
        assert main(run + ["--out", str(tmp_path / "resumed"), "--set", "rounds=4"] + resume) == 0
        assert calls == {"load_checkpoint": 1, "generate_task": 1}

    def test_resume_below_checkpoint_rounds_leaves_run_untouched(
        self, tmp_path, config_path, capsys
    ):
        out = tmp_path / "out"
        run = ["run", "--config", str(config_path), "--out", str(out)]
        assert main(run + ["--set", "rounds=3", "--checkpoint-every", "3"]) == 0
        run_dir = out / "smoke"
        before = {path.name: path.read_bytes() for path in run_dir.iterdir()}
        resume = ["--resume", str(run_dir / "checkpoint.json")]
        assert main(run + ["--set", "rounds=2"] + resume) == 1
        assert "checkpoint has 3 rounds; rounds = 2" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == before

    @pytest.mark.parametrize("version", [1, 3])
    def test_format_one_checkpoint_is_config_error(self, tmp_path, config_path, capsys, version):
        # Format 1 stored a round count in place of the round records; format
        # 3 stored every rounds.csv column of each record.
        run = ["run", "--config", str(config_path)]
        part = tmp_path / "part"
        assert main(run + ["--out", str(part), "--checkpoint-every", "2"]) == 0
        checkpoint = tmp_path / f"format{version}.json"
        payload = json.loads((part / "smoke" / "checkpoint.json").read_text())
        payload["format_version"] = version
        if version == 1:
            payload["round"] = len(payload.pop("records"))
        else:
            rows = read_rows(part / "smoke" / "rounds.csv")[1:]
            payload["records"] = [[json.loads(cell) for cell in row] for row in rows]
        checkpoint.write_text(json.dumps(payload))
        resumed = tmp_path / "resumed"
        resume = ["--out", str(resumed), "--set", "rounds=4", "--resume", str(checkpoint)]
        assert main(run + resume) == 1
        err = capsys.readouterr().err
        assert f"cannot load checkpoint {checkpoint}" in err
        assert f"unsupported checkpoint format: {version}" in err
        assert not resumed.exists()

    @pytest.mark.parametrize("every", ["0", "-2"])
    def test_non_positive_checkpoint_every_rejected(self, tmp_path, config_path, capsys, every):
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(config_path), "--out", str(out), "--checkpoint-every", every]
        )
        assert code == 1
        assert "checkpoint_every must be >= 1" in capsys.readouterr().err
        assert not (out / "smoke" / "checkpoint.json").exists()
        assert not (out / "smoke" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "contents",
        [None, '{"format_version": 1}', "[]", "null"]
        + [
            # The writer writes only finite floats; the value is checked
            # before the config fingerprint is compared.
            f'{{"format_version": 4, "config": "", "values": [{value}], "records": []}}'
            for value in ["1" + "0" * 400, "true", "1", "NaN"]
        ],
        ids=["missing", "no-params", "list", "null", "huge-int", "true", "int", "nan"],
    )
    def test_unloadable_checkpoint_is_config_error(
        self, tmp_path, config_path, capsys, contents
    ):
        checkpoint = tmp_path / "checkpoint.json"
        if contents is not None:
            checkpoint.write_text(contents)
        out = tmp_path / "out"
        run = ["run", "--config", str(config_path), "--out", str(out)]
        assert main(run + ["--resume", str(checkpoint)]) == 1
        assert f"cannot load checkpoint {checkpoint}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "changed",
        [
            ["seed=4"],
            ["model.kind=mlp_one_hidden"],
            ["algorithm=naive_gsp_icg", "fixed_group_count=2"],
            ["sgd.learning_rate=0.5"],
            ["task.concentration=5"],
            ["kappa=1.0"],
            ["growth.beta=1"],
            ["cost.device_flops_per_second=1e9"],
        ],
        ids=lambda changed: changed[0].split("=")[0].replace(".", "-"),
    )
    def test_resume_with_other_setting_leaves_run_untouched(
        self, tmp_path, config_path, capsys, changed
    ):
        out = tmp_path / "out"
        run = ["run", "--config", str(config_path), "--out", str(out)]
        assert main(run + ["--checkpoint-every", "2"]) == 0
        run_dir = out / "smoke"
        before = {name: (run_dir / name).read_bytes() for name in ("manifest.json", "rounds.csv")}
        overrides = [arg for setting in changed + ["rounds=4"] for arg in ("--set", setting)]
        resume = ["--resume", str(run_dir / "checkpoint.json")]
        assert main(run + overrides + resume) == 1
        assert "only rounds may change on resume" in capsys.readouterr().err
        assert {name: (run_dir / name).read_bytes() for name in before} == before

    def test_resume_with_edited_record_leaves_no_run_directory(
        self, tmp_path, config_path, capsys
    ):
        run = ["run", "--config", str(config_path)]
        part = tmp_path / "part"
        assert main(run + ["--out", str(part), "--checkpoint-every", "2"]) == 0
        checkpoint = part / "smoke" / "checkpoint.json"
        payload = json.loads(checkpoint.read_text())
        payload["records"][1][1] = None  # loss
        checkpoint.write_text(json.dumps(payload))
        resumed = tmp_path / "resumed"
        resume = ["--out", str(resumed), "--set", "rounds=4", "--resume", str(checkpoint)]
        assert main(run + resume) == 1
        assert "checkpoint round 2: loss must be a finite float, got None" in capsys.readouterr().err
        assert not resumed.exists()

    def test_resume_with_other_rounds_and_target_accuracy(self, tmp_path, config_path):
        out = tmp_path / "out"
        run = ["run", "--config", str(config_path), "--out", str(out)]
        assert main(run + ["--checkpoint-every", "2"]) == 0
        resume = ["--resume", str(out / "smoke" / "checkpoint.json")]
        others = ["--set", "rounds=3", "--set", "target_accuracy=0.1"]
        assert main(run + others + resume) == 0
        assert len(read_rows(out / "smoke" / "rounds.csv")) == 4
        summary = json.loads((out / "smoke" / "summary.json").read_text())
        assert summary["target_accuracy"] == 0.1

    def test_training_divergence_marks_manifest_failed(
        self, tmp_path, config_path, monkeypatch
    ):
        def diverge(*args, **kwargs):
            raise TrainingDivergedError("non-finite loss")

        monkeypatch.setattr(fedgsp.orchestrator, "train_chains", diverge)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        manifest = json.loads((out / "smoke" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == "TrainingDivergedError: non-finite loss"
        assert manifest["finished_at"] is not None
        assert manifest["failed_round"] == 1
        assert not (out / "smoke" / "rounds.csv").exists()

        calls = []
        train_chains = fedgsp.trainer.train_chains

        def diverge_on_third_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise TrainingDivergedError("non-finite loss")
            return train_chains(*args, **kwargs)

        monkeypatch.setattr(fedgsp.orchestrator, "train_chains", diverge_on_third_call)
        out = tmp_path / "third"
        argv = ["run", "--config", str(config_path), "--out", str(out), "--set", "rounds=4"]
        assert main(argv) == 2
        manifest = json.loads((out / "smoke" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failed_round"] == 3
        assert not (out / "smoke" / "rounds.csv").exists()

    def test_interrupted_run_marks_the_manifest_failed(
        self, tmp_path, config_path, monkeypatch
    ):
        run_round = fedgsp.orchestrator.run_round

        def interrupt_round_two(state, round_index):
            if round_index == 2:
                raise KeyboardInterrupt
            return run_round(state, round_index)

        monkeypatch.setattr(fedgsp.orchestrator, "run_round", interrupt_round_two)
        out = tmp_path / "out"
        argv = ["run", "--config", str(config_path), "--out", str(out), "--set", "rounds=3"]
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        manifest = json.loads((out / "smoke" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failed_round"] == 2
        assert manifest["finished_at"] is not None
        assert not (out / "smoke" / "rounds.csv").exists()

    def test_diverging_run_prints_only_the_error(self, tmp_path):
        # A fresh interpreter, so numpy's warnings reach stderr as they would
        # for a user (pytest records them instead).
        overrides = {
            "algorithm": "fedavg",
            "kappa": "1.0",
            "rounds": "1",
            "task.num_clients": "4",
            "task.samples_per_client": "5",
            "sgd.batch_size": "5",
            "sgd.learning_rate": "1e308",
            "task.feature_dim": "2",
            "task.num_classes": "2",
            "model.kind": "softmax_linear",
        }
        argv = ["run", "--config", str(ROOT / "demos" / "experiment.cfg")]
        argv += ["--out", str(tmp_path / "out")]
        for key, value in overrides.items():
            argv += ["--set", f"{key}={value}"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "fedgsp", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr == (
            "runtime failure: TrainingDivergedError: round 1: non-finite averaged model "
            "(learning-rate blowup?)\n"
        )

    def test_negative_fixed_group_count_is_config_error(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--config", str(config_path), "--out", str(out)]
        assert main(argv + ["--set", "fixed_group_count=-3"]) == 1
        assert "fixed_group_count must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_rerun_deletes_the_earlier_outputs(self, tmp_path, config_path, monkeypatch):
        out = tmp_path / "out"
        run = ["run", "--config", str(config_path), "--out", str(out), "--name", "foo"]
        assert main(run + ["--set", "rounds=3", "--checkpoint-every", "1"]) == 0
        run_dir = out / "foo"
        assert (run_dir / "rounds.csv").exists() and (run_dir / "summary.json").exists()

        calls = []
        train_chains = fedgsp.trainer.train_chains

        def diverge_on_second_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise TrainingDivergedError("non-finite loss")
            return train_chains(*args, **kwargs)

        monkeypatch.setattr(fedgsp.orchestrator, "train_chains", diverge_on_second_call)
        assert main(run + ["--set", "seed=8", "--set", "rounds=5"]) == 2
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert (manifest["status"], manifest["seed"], manifest["failed_round"]) == ("failed", 8, 2)
        assert not (run_dir / "rounds.csv").exists()
        assert not (run_dir / "summary.json").exists()
        assert (run_dir / "checkpoint.json").exists()  # a resume may still need it


class TestCmdAblation:
    def test_four_arms_and_comparison(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = main(
            [
                "ablation",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--set",
                "rounds=1",
            ]
        )
        assert code == 0
        root = out / "smoke-ablation"
        arms = ["fedavg", "naive_gsp", "naive_gsp_icg", "fedgsp"]
        for arm in arms:
            manifest = json.loads((root / arm / "manifest.json").read_text())
            assert manifest["status"] == "completed"
            assert manifest["config"]["algorithm"] == arm
        comparison = read_rows(root / "comparison.csv")
        assert comparison[0] == ["algorithm", "final_accuracy", "final_loss", "rounds_to_target"]
        assert [row[0] for row in comparison[1:]] == arms
        pairs = read_rows(root / "cpd_pairs.csv")
        assert pairs[0] == ["algorithm", "first", "second", "cpd"]
        by_arm = {arm: 0 for arm in arms}
        for row in pairs[1:]:
            by_arm[row[0]] += 1
        assert by_arm["fedavg"] == 8 * 7 // 2  # client pairs
        assert by_arm["naive_gsp"] == 2 * 1 // 2  # group pairs at M=2
        assert by_arm["fedgsp"] == 2 * 1 // 2

        expected = []
        for arm in arms:
            config = json.loads((root / arm / "manifest.json").read_text())["config"]
            state = new_experiment_state(resolve(config).experiment)
            units = [
                state.counts[list(group)].sum(axis=0)
                for group in _build_plan(state, 1).groups
            ]
            expected += [
                [arm, str(i), str(j), repr(cpd(units[i], units[j]))]
                for i in range(len(units))
                for j in range(i + 1, len(units))
            ]
        assert pairs[1:] == expected

    def test_each_arm_builds_its_task_once(self, tmp_path, config_path, monkeypatch):
        calls = []
        original = fedgsp.orchestrator.generate_task

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fedgsp.orchestrator, "generate_task", counted)
        argv = ["ablation", "--config", str(config_path), "--out", str(tmp_path / "out")]
        assert main(argv + ["--set", "rounds=1"]) == 0
        assert len(calls) == len(ABLATION_ARMS)

    def test_one_arm_state_alive_at_a_time(self, tmp_path, config_path, live_states):
        argv = ["ablation", "--config", str(config_path), "--out", str(tmp_path / "out")]
        assert main(argv + ["--set", "rounds=1"]) == 0
        assert live_states == [0] * len(ABLATION_ARMS)

    def test_zero_rounds_leaves_comparison_cells_empty(self, tmp_path, config_path):
        out = tmp_path / "out"
        argv = ["ablation", "--config", str(config_path), "--out", str(out)]
        assert main(argv + ["--set", "rounds=0"]) == 0
        comparison = read_rows(out / "smoke-ablation" / "comparison.csv")
        assert comparison[1:] == [[arm, "", "", ""] for arm in ABLATION_ARMS]

    @pytest.mark.parametrize("value", ["x", "-3"])
    def test_bad_fixed_group_count_fails_before_any_arm(
        self, tmp_path, config_path, capsys, value
    ):
        # "x" fails to parse; "-3" parses but no naive arm accepts it. Both
        # are config errors, found before the fedavg arm runs.
        out = tmp_path / "out"
        argv = ["ablation", "--config", str(config_path), "--out", str(out)]
        code = main(argv + ["--set", "rounds=1", "--set", f"fixed_group_count={value}"])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestCmdGrid:
    def test_grid_shape(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = main(
            [
                "grid",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--set",
                "rounds=1",
                "--kinds",
                "linear,log",
                "--alphas",
                "1,2",
                "--betas",
                "2",
            ]
        )
        assert code == 0
        rows = read_rows(out / "smoke-grid" / "grid.csv")
        assert rows[0] == ["kind", "alpha", "beta", "final_loss", "final_accuracy"]
        assert len(rows) == 1 + 2 * 2 * 1

    def test_every_cell_is_a_traceable_run(self, tmp_path, config_path):
        out = tmp_path / "out"
        argv = ["grid", "--config", str(config_path), "--out", str(out), "--set", "rounds=2"]
        assert main(argv + ["--kinds", "linear,exp", "--alphas", "0.5,3", "--betas", "1,2"]) == 0
        root = out / "smoke-grid"
        base = load_config_file(str(config_path))
        grid_rows = read_rows(root / "grid.csv")[1:]
        assert len(grid_rows) == 8
        for kind, alpha, beta, loss, accuracy in grid_rows:
            cell = {"rounds": "2", "growth.kind": kind, "growth.alpha": alpha,
                    "growth.beta": beta}
            run_dir = root / f"{kind}-{alpha}-{beta}"
            manifest = json.loads((run_dir / "manifest.json").read_text())
            assert manifest["status"] == "completed"
            assert manifest["config_hash"] == resolve(base, cell).content_hash
            last = read_rows(run_dir / "rounds.csv")[-1]
            assert [last[4], last[3]] == [loss, accuracy]

    def test_one_cell_state_alive_at_a_time(self, tmp_path, config_path, live_states):
        argv = ["grid", "--config", str(config_path), "--out", str(tmp_path / "out")]
        argv += ["--set", "rounds=1", "--kinds", "log,exp", "--alphas", "1,2", "--betas", "2"]
        assert main(argv) == 0
        assert live_states == [0] * 4

    def test_bad_cell_fails_before_any_cell_runs(self, tmp_path, config_path, capsys):
        # The log cell is valid; the second kind is not, so no cell may run.
        out = tmp_path / "out"
        argv = ["grid", "--config", str(config_path), "--out", str(out), "--set", "rounds=1"]
        assert main(argv + ["--kinds", "log,cubic", "--alphas", "1", "--betas", "2"]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_cell_is_config_error(self, tmp_path, config_path, capsys):
        # "1" and "1.0" resolve to the same alpha, hence the same cell.
        out = tmp_path / "out"
        argv = ["grid", "--config", str(config_path), "--out", str(out), "--set", "rounds=1"]
        assert main(argv + ["--kinds", "log", "--alphas", "1,1.0", "--betas", "2"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "log-1.0-2" in err
        assert not out.exists()

    @pytest.mark.parametrize("lists", [["--alphas", "1,x", "--betas", "2"],
                                       ["--alphas", "1", "--betas", "2.5"]])
    def test_bad_list_item_is_config_error(self, tmp_path, config_path, capsys, lists):
        out = tmp_path / "out"
        argv = ["grid", "--config", str(config_path), "--out", str(out), "--set", "rounds=1"]
        assert main(argv + ["--kinds", "log"] + lists) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "growth.alpha" in err or "growth.beta" in err
        assert not out.exists()

    def test_cell_reproducible_via_run(self, tmp_path, config_path):
        out = tmp_path / "out"
        main(
            [
                "grid",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--set",
                "rounds=1",
                "--kinds",
                "log",
                "--alphas",
                "2.0",
                "--betas",
                "2",
            ]
        )
        grid_rows = read_rows(out / "smoke-grid" / "grid.csv")
        main(
            [
                "run",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--name",
                "cell",
                "--set",
                "rounds=1",
                "--set",
                "growth.kind=log",
                "--set",
                "growth.alpha=2.0",
                "--set",
                "growth.beta=2",
            ]
        )
        cell_rows = read_rows(out / "cell" / "rounds.csv")
        assert grid_rows[1][3] == cell_rows[1][4]  # final_loss
        assert grid_rows[1][4] == cell_rows[1][3]  # final_accuracy


class TestCmdReport:
    def test_rederives_summary(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out)])
        capsys.readouterr()
        code = main(
            [
                "report",
                "--csv",
                str(out / "smoke" / "rounds.csv"),
                "--target-accuracy",
                "0.0",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        summary = json.loads((out / "smoke" / "summary.json").read_text())
        assert report["final_accuracy"] == summary["final_accuracy"]
        assert report["final_loss"] == summary["final_loss"]
        assert report["rounds_to_target"] == 1

    def test_rejects_foreign_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["report", "--csv", str(bad)]) == 1

    def test_missing_csv_is_config_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["report", "--csv", str(missing)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and str(missing) in err

    def test_non_numeric_cell_is_config_error(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out)])
        rows = read_rows(out / "smoke" / "rounds.csv")
        rows[1][3] = "high"
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(",".join(row) + "\n" for row in rows))
        capsys.readouterr()
        assert main(["report", "--csv", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and str(bad) in err

    @pytest.mark.parametrize(
        "rows",
        [
            ["1,10,3,nan,0.5,0.1,1,1,1"],
            ["1,10,3,0.5,inf,0.1,1,1,1"],
            ["1,10,3,0.5,1.5,0.1,1,1,1,7,8"],
            ["3,10,3,0.9,0.5,0.1,1,1,1", "1,10,3,0.5,1.5,0.1,1,1,1"],
            ["1,10,3,1.5,0.5,0.1,1,1,1"],
            ["1,10,3,0.5,0.5,0.1,1,1,1", "2,10,3,-0.25,0.5,0.1,1,1,1"],
            ["1,10,3,0.5,-2.0,0.1,1,1,1"],
        ],
        ids=[
            "nan-accuracy",
            "infinite-loss",
            "extra-cells",
            "rounds-out-of-order",
            "accuracy-above-one",
            "negative-accuracy",
            "negative-loss",
        ],
    )
    def test_malformed_row_is_config_error(self, tmp_path, capsys, rows):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(CSV_COLUMNS) + "\n" + "".join(row + "\n" for row in rows))
        assert main(["report", "--csv", str(bad), "--target-accuracy", "0.0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and str(bad) in captured.err

    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    def test_non_finite_target_accuracy_is_config_error(self, tmp_path, capsys, target):
        good = tmp_path / "rounds.csv"
        good.write_text(",".join(CSV_COLUMNS) + "\n1,10,3,0.5,1.5,0.1,1,1,1\n")
        assert main(["report", "--csv", str(good), f"--target-accuracy={target}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and "finite" in captured.err


class TestManifestReproducibility:
    def test_manifest_config_reproduces_csv_bytes(self, tmp_path, config_path):
        # Every emitted number must be recomputable from the manifest's
        # config snapshot alone.
        first = tmp_path / "first"
        main(["run", "--config", str(config_path), "--out", str(first)])
        manifest = json.loads((first / "smoke" / "manifest.json").read_text())

        rebuilt = tmp_path / "rebuilt.cfg"
        rebuilt.write_text(
            "".join(f"{k} = {v}\n" for k, v in manifest["config"].items())
        )
        second = tmp_path / "second"
        main(["run", "--config", str(rebuilt), "--out", str(second), "--name", "again"])
        assert (first / "smoke" / "rounds.csv").read_bytes() == (
            second / "again" / "rounds.csv"
        ).read_bytes()
