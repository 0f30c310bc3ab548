"""Golden SHA-256 digests of `compare`'s outputs on the shipped configs.

A change that moves any bit of `trace_a.csv`, `trace_b.csv` or `report.json`
from `compare --config-a configs/mlp_adamw.cfg --template-b
configs/mlp_norm_control.cfg` (seed 0, as shipped) fails here. The digests
hold for the environment recorded beside them in golden.json (Python, numpy,
machine); anywhere else the tests skip and name the difference. A change
meant to move an output regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --update

and names each digest that moved, and why, in CHANGES.md.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from normcontrol.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")
OUTPUTS = ("trace_a.csv", "trace_b.csv", "report.json")


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def compare_digests(out_dir: Path) -> dict:
    """SHA-256 of each of `compare`'s outputs on the shipped configs, written to out_dir."""
    configs = ROOT / "configs"
    argv = ["compare", "--config-a", str(configs / "mlp_adamw.cfg"),
            "--template-b", str(configs / "mlp_norm_control.cfg"), "--out-dir", str(out_dir)]
    if main(argv) != 0:
        raise RuntimeError("compare failed on the shipped configs")
    return {f"compare/{name}": hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in OUTPUTS}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """(the recorded digests, this tree's), or a skip on another environment."""
    golden = json.loads(GOLDEN.read_text())
    here = environment()
    differences = [f"{key} {value} (here {here[key]})"
                   for key, value in golden["environment"].items() if here[key] != value]
    if differences:
        pytest.skip("golden digests were taken with " + ", ".join(differences))
    return golden["digests"], compare_digests(tmp_path_factory.mktemp("compare"))


@pytest.mark.parametrize("name", OUTPUTS)
def test_compare_output_matches_its_golden_digest(name, digests):
    recorded, current = digests
    assert current[f"compare/{name}"] == recorded[f"compare/{name}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    with tempfile.TemporaryDirectory() as tmp:
        record = {"environment": environment(), "digests": compare_digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
