"""Pinned output bytes: every arm of the shipped demo config, five rounds,
two of its SGD schedules, and the shard-skew ICG path at K = 120, three
rounds.

A refactor that claims "output bytes unchanged" must keep these hashes. A
change that moves the bytes on purpose updates them here and says why in
CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from fedgsp.cli import main

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
    "rounds.csv": "e5f37999e2b2739d918262fa1de33b19550d5f1edd68cbbb155fb571b6be58f9",
    "groupings.jsonl": "4c0b39c8b1ee1876e97f54b6f703df0771700f17ee3abc7d271bd6f31a75f6ca",
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


@pytest.mark.parametrize("name", sorted(GOLDEN_SGD))
def test_sgd_schedule_bytes_pinned(name, tmp_path):
    overrides, digest = GOLDEN_SGD[name]
    argv = ["run", "--config", str(CONFIG), "--out", str(tmp_path), "--name", name]
    for key, value in {**overrides, "rounds": "5"}.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == 0
    assert _digests(tmp_path / name, ["rounds.csv"]) == {"rounds.csv": digest}
