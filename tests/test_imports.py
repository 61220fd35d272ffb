"""Rounds import nothing: every module a run needs is loaded before round 1.

numpy loads some submodules lazily (``numpy.ma`` on the first ``np.median``,
``np.unique`` or ``np.setdiff1d`` call), and the first round of a process
would pay that import. Each case runs in a fresh interpreter, so an import
that an earlier test already paid cannot hide one here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "demos" / "experiment.cfg"
ARMS = ["fedavg", "fedgsp", "naive_gsp", "naive_gsp_icg"]

ROUNDS_SCRIPT = """
import json, sys
from fedgsp.config import load_config_file, resolve
from fedgsp.orchestrator import preflight, run_round

config_path, overrides = sys.argv[1], json.loads(sys.argv[2])
state = preflight(resolve(load_config_file(config_path), overrides).experiment)
before = set(sys.modules)
for round_index in (1, 2, 3):
    run_round(state, round_index)
    state.last_plan.to_json()
print(json.dumps(sorted(set(sys.modules) ^ before)))
"""

CLI_SCRIPT = """
import json, sys
from fedgsp.cli import main

def numpy_modules():
    return {name for name in sys.modules if name == "numpy" or name.startswith("numpy.")}

config_path, overrides, out = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
argv = ["run", "--config", config_path, "--out", out, "--name", "run", "--dump-groupings"]
for key, value in overrides.items():
    argv += ["--set", f"{key}={value}"]
before = numpy_modules()
code = main(argv)
print(json.dumps([code, sorted(numpy_modules() - before)]))
"""


def _overrides(arm: str) -> dict[str, str]:
    overrides = {"algorithm": arm, "rounds": "3"}
    if arm.startswith("naive"):
        overrides["fixed_group_count"] = "4"
    return overrides


def _run_fresh(script: str, *args: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("arm", ARMS)
def test_rounds_load_no_module(arm):
    assert _run_fresh(ROUNDS_SCRIPT, str(CONFIG), json.dumps(_overrides(arm))) == []


@pytest.mark.parametrize("arm", ARMS)
def test_run_with_dumped_groupings_loads_no_numpy_module(arm, tmp_path):
    code, loaded = _run_fresh(CLI_SCRIPT, str(CONFIG), json.dumps(_overrides(arm)), str(tmp_path))
    assert code == 0
    assert loaded == []
