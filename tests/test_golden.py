"""Pinned output bytes: every arm of the shipped demo config, five rounds,
two of its SGD schedules, the shard-skew ICG path at K = 120, three rounds,
two ICG runs that reach one-member groups (L = 1), the tables an ablation
and a growth grid of the demo config write, and the synthetic task of the
demo config and of the shard-skew run.

A refactor that claims "output bytes unchanged" must keep these hashes. A
change that moves the bytes on purpose updates them here and says why in
CHANGES.md.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from fedgsp.cli import main
from fedgsp.config import load_config_file, resolve
from fedgsp.datagen import generate_task
from fedgsp.orchestrator import config_fingerprint

CONFIG = Path(__file__).resolve().parent.parent / "demos" / "experiment.cfg"

GOLDEN = {
    "fedavg": {
        "rounds.csv": "264832731dfa8340f8fc54124ded78d948f98b466ba2e25e196f57b2fe41050e",
        "groupings.jsonl": "592fa7c347b37a47e2433885b2768b1f275750c64fc2550bca91a704a4956e4a",
    },
    "naive_gsp": {
        "rounds.csv": "4a1b8a41a06c75db3829e10510cabdc2263d0e8ddb26a8c4f423b65346c6fd0e",
        "groupings.jsonl": "e04f2f5f1502b2e78ab0e4c6c9046df466b9f354503924c703c10908bfd6f0a0",
    },
    "naive_gsp_icg": {
        "rounds.csv": "77e07310160fab808def5054d2c7127f163a21868e23900daadb7aabc33c047f",
        "groupings.jsonl": "a09085b0130bfde18b67f483de6025f4d61c9436b64ba15ee256b3cf85b8fb62",
    },
    "fedgsp": {
        "rounds.csv": "9b115bda5e5cadc3fec28c2fa9648951ad195b1615299d004f0e7fa0d239630d",
        "groupings.jsonl": "973ce31a375954c5b81dd5a48c48feb34258d958fc62ee008b2128ee0ba625dd",
    },
}


# Shard skew leaves many clients with identical class counts, so the
# balanced assignment meets many equal-cost ties; this pins how they break.
SHARDS_K120 = {
    "algorithm": "naive_gsp_icg",
    "task.num_clients": "120",
    "task.skew": "shards",
    "fixed_group_count": "8",
    "model.kind": "softmax_linear",
}
GOLDEN_SHARDS_K120 = {
    "rounds.csv": "fcecc2041a98042322d92b27dc5537df6fea75e86faf0f9d3803fea29156ed45",
    "groupings.jsonl": "c61182b096caf5fb674080e60fb427d4c5ba8d780a88bb85a536bf155956c653",
}


# One-member groups (L = K // M = 1): the naive ICG arm at M = 40 of K = 60
# from round 1, and the fedgsp arm's growth past M = 30 in rounds 34-36.
GOLDEN_ONE_MEMBER = {
    "naive-icg-m40": (
        {"algorithm": "naive_gsp_icg", "fixed_group_count": "40", "rounds": "3"},
        {
            "rounds.csv": "f745a8da12d7a09c5d83bf083323300b33ac91bcc581e86f2db17b030592dcf3",
            "groupings.jsonl": "9ac474e4fb0f5a37492769f45f2da9dd7b7c99fcd6ef693ec7832f356f32e4c8",
        },
    ),
    "fedgsp-r36": (
        {"rounds": "36"},
        {
            "rounds.csv": "1279b508fd4d7afe4a10030d9fc5e6fe6c0634665de7c749cfed331e76b86931",
            "groupings.jsonl": "d30783c435d137a566fad7ba44bbc25a4c77d1be1d0a1ee050e81705a61da0b8",
        },
    ),
}


# Batch schedules the demo's batch size of 5 does not reach: a batch of one
# sample, and a short last batch (50 samples at 7) over two epochs.
GOLDEN_SGD = {
    "softmax-b7-e2": (
        {"sgd.batch_size": "7", "sgd.local_epochs": "2", "model.kind": "softmax_linear"},
        "dd653e8f9b37bcd9f731c7cc4d1a554defd6f877e4cfb5ed1ec41c833be285d7",
    ),
    "b1": (
        {"sgd.batch_size": "1"},
        "18885d8f19b4784c2e6a37d8b1b9bb0c2e773387f705b3cbb9aa4930b10e6841",
    ),
}


# The tables ``ablation`` and ``grid`` write over their runs; row order is
# part of the bytes (arms in ``ABLATION_ARMS`` order, cells kind-major).
GOLDEN_TABLES = {
    "ablation": (
        ["ablation", "--set", "rounds=3"],
        {
            "comparison.csv": "5ea1f68532f4ad9af29298e844d57f552a00f6759ade8704c48073c8b0c3fe0f",
            "cpd_pairs.csv": "a3308550cd20410a6c4e8acff3e72c9609883a714c71ea771ad3aec7acce35b7",
        },
    ),
    "grid": (
        ["grid", "--set", "rounds=2", "--kinds", "log,exp", "--alphas", "1,2", "--betas", "2,4"],
        {"grid.csv": "3e1b6d66b48b6874ec5d99f0a5fa483ae5bf5014de66a9d6c442d938e5e13abc"},
    ),
}


# Manifest identity (``ResolvedRun.content_hash``) and checkpoint
# compatibility (``config_fingerprint``) of the demo config and of the
# shard-skew run above.
GOLDEN_IDENTITY = {
    "desk": (
        {},
        "02d40ab49f5d97fcc661ab471ebae8a46dd1c5ba755ac282482e8849ace08ca9",
        "d4bad6d27f7aa221db64aef0e1f4125d0eb495b3fdbbb33c36352f33b2af3cfc",
    ),
    "shards-k120": (
        {**SHARDS_K120, "rounds": "3"},
        "f0e84f3aa8eda3a70fb6806b3629a3ef48409d44903956d39a63cf402cacb531",
        "f430dbe4ac7351a96dcf4ef8bd5804aec1db95482e053dd86c495a2e5c78ef25",
    ),
}


# SHA-256 over the bytes of ``generate_task``'s client features, client
# labels, class counts, test features and test labels, in that order.
GOLDEN_TASK = {
    "desk": ({}, "a87143b4de4c5e93f2bac5f89c36dbb39ba8680611843842ebf6132b5635c419"),
    "shards-k120": (
        SHARDS_K120,
        "6bf939ec55047b057a0d4b1ecd34b4cac14ac521d1ac7c5c0f6918d2013a1307",
    ),
}


def _digests(run_dir: Path, names) -> dict[str, str]:
    return {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in names
    }


@pytest.mark.parametrize("arm", sorted(GOLDEN))
def test_output_bytes_pinned(arm, tmp_path):
    # The naive arms run at the growth schedule's starting count, beta = 4,
    # as the ablation freezes them.
    argv = ["run", "--config", str(CONFIG), "--out", str(tmp_path), "--name", arm]
    argv += ["--set", f"algorithm={arm}", "--set", "rounds=5", "--dump-groupings"]
    if arm.startswith("naive"):
        argv += ["--set", "fixed_group_count=4"]
    assert main(argv) == 0
    assert _digests(tmp_path / arm, GOLDEN[arm]) == GOLDEN[arm]


def test_shard_skew_icg_bytes_pinned(tmp_path):
    argv = ["run", "--config", str(CONFIG), "--out", str(tmp_path), "--name", "shards"]
    for key, value in {**SHARDS_K120, "rounds": "3"}.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv + ["--dump-groupings"]) == 0
    assert _digests(tmp_path / "shards", GOLDEN_SHARDS_K120) == GOLDEN_SHARDS_K120


@pytest.mark.parametrize("name", sorted(GOLDEN_ONE_MEMBER))
def test_one_member_group_bytes_pinned(name, tmp_path):
    overrides, digests = GOLDEN_ONE_MEMBER[name]
    argv = ["run", "--config", str(CONFIG), "--out", str(tmp_path), "--name", name]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv + ["--dump-groupings"]) == 0
    assert _digests(tmp_path / name, digests) == digests


@pytest.mark.parametrize("name", sorted(GOLDEN_SGD))
def test_sgd_schedule_bytes_pinned(name, tmp_path):
    overrides, digest = GOLDEN_SGD[name]
    argv = ["run", "--config", str(CONFIG), "--out", str(tmp_path), "--name", name]
    for key, value in {**overrides, "rounds": "5"}.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == 0
    assert _digests(tmp_path / name, ["rounds.csv"]) == {"rounds.csv": digest}


@pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
def test_table_bytes_pinned(name, tmp_path):
    command, digests = GOLDEN_TABLES[name]
    argv = command + ["--config", str(CONFIG), "--out", str(tmp_path), "--name", name]
    assert main(argv) == 0
    assert _digests(tmp_path / name, digests) == digests


@pytest.mark.parametrize("name", sorted(GOLDEN_IDENTITY))
def test_config_identity_pinned(name):
    overrides, content_hash, fingerprint = GOLDEN_IDENTITY[name]
    resolved = resolve(load_config_file(str(CONFIG)), overrides)
    assert resolved.content_hash == content_hash
    assert config_fingerprint(resolved.experiment) == fingerprint


@pytest.mark.parametrize("name", sorted(GOLDEN_TASK))
def test_task_bytes_pinned(name):
    overrides, digest = GOLDEN_TASK[name]
    clients, counts, test_set = generate_task(
        resolve(load_config_file(str(CONFIG)), overrides).experiment.task
    )
    h = hashlib.sha256()
    for array in (clients.features, clients.labels, counts, test_set.features, test_set.labels):
        h.update(np.ascontiguousarray(array).tobytes())
    assert h.hexdigest() == digest
