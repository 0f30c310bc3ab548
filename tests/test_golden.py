"""Golden SHA-256 digests of the canonical outputs.

golden.json covers:

* ``compare/<file>``: `trace_a.csv`, `trace_b.csv` and `report.json` from
  `compare --config-a configs/mlp_adamw.cfg --template-b
  configs/mlp_norm_control.cfg` (seed 0, as shipped);
* ``run/<task>/<variant>``: the trace CSV of a `run` of each task under each
  optimizer variant, T = 301 (not a multiple of the sampler's block);
* ``step/<dtype>/<variant>``: the bytes of theta, m and v after 3 steps of
  each variant on a store of ``2 * optim._CHUNK + 7`` elements whose group
  cuts fall inside the step's parts, with float64, float32 and int64
  gradients.

A change that moves any of these bits fails here. The digests hold for the
environment recorded beside them in golden.json (Python, numpy, machine);
anywhere else the tests skip and name the difference. A change meant to move
an output regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --update

(which prints each digest that is new, moved or gone) and names each digest
that moved, and why, in CHANGES.md.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from test_optim import _chunked_store

from normcontrol import harness
from normcontrol.cli import main
from normcontrol.optim import OptimizerConfig, OptimizerState, Variant, step
from normcontrol.schedules import CosineSpec, PiecewiseLinearSpec, ScheduleSpec
from normcontrol.tasks import TASK_NAMES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")
OUTPUTS = ("trace_a.csv", "trace_b.csv", "report.json")
GRADIENT_DTYPES = ("float64", "float32", "int64")


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compare_digests(out_dir: Path) -> dict:
    """SHA-256 of each of `compare`'s outputs on the shipped configs, written to out_dir."""
    configs = ROOT / "configs"
    argv = ["compare", "--config-a", str(configs / "mlp_adamw.cfg"),
            "--template-b", str(configs / "mlp_norm_control.cfg"), "--out-dir", str(out_dir)]
    if main(argv) != 0:
        raise RuntimeError("compare failed on the shipped configs")
    return {f"compare/{name}": _sha256((out_dir / name).read_bytes()) for name in OUTPUTS}


RUN_SCHEDULE = ScheduleSpec(horizon=301, eta=CosineSpec(1.0, 0.1),
                            rt=PiecewiseLinearSpec.linear([(0, 1.0), (100, 1.5)]),
                            kt=PiecewiseLinearSpec.const(0.05))
STEP_SCHEDULE = ScheduleSpec(horizon=10, rt=PiecewiseLinearSpec.const(1.5),
                             kt=PiecewiseLinearSpec.const(0.3))


def run_trace(task: str, variant: Variant) -> bytes:
    """The trace CSV of a `run` of task under variant, T = 301."""
    config = harness.RunConfig(task=task, schedules=RUN_SCHEDULE, eval_every=50,
                               optimizer=OptimizerConfig(weight_decay=0.1, variant=variant))
    return harness.run(config).to_csv().encode()


def stepped_state(dtype: str, variant: Variant) -> bytes:
    """theta, m and v after 3 steps with gradients of dtype on a store of several parts."""
    rng = np.random.default_rng(19)
    store = _chunked_store(rng)
    state = OptimizerState.zeros(store.theta.size)
    cfg = OptimizerConfig(beta1=0.8, weight_decay=0.1, variant=variant)
    for t in (1, 2, 3):
        g = rng.normal(size=store.theta.size) * 3.0
        step(store, state, g.astype(dtype), t, STEP_SCHEDULE, cfg)
    return store.theta.tobytes() + state.m.tobytes() + state.v.tobytes()


def all_digests(out_dir: Path) -> dict:
    return {**compare_digests(out_dir),
            **{f"run/{task}/{v.value}": _sha256(run_trace(task, v))
               for task in TASK_NAMES for v in Variant},
            **{f"step/{dtype}/{v.value}": _sha256(stepped_state(dtype, v))
               for dtype in GRADIENT_DTYPES for v in Variant}}


@pytest.fixture(scope="module")
def recorded():
    """The recorded digests, or a skip on another environment."""
    golden = json.loads(GOLDEN.read_text())
    here = environment()
    differences = [f"{key} {value} (here {here[key]})"
                   for key, value in golden["environment"].items() if here[key] != value]
    if differences:
        pytest.skip("golden digests were taken with " + ", ".join(differences))
    return golden["digests"]


@pytest.fixture(scope="module")
def compared(recorded, tmp_path_factory):
    return compare_digests(tmp_path_factory.mktemp("compare"))


@pytest.mark.parametrize("name", OUTPUTS)
def test_compare_output_matches_its_golden_digest(name, recorded, compared):
    assert compared[f"compare/{name}"] == recorded[f"compare/{name}"]


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("task", TASK_NAMES)
def test_run_trace_matches_its_golden_digest(task, variant, recorded):
    assert _sha256(run_trace(task, variant)) == recorded[f"run/{task}/{variant.value}"]


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("dtype", GRADIENT_DTYPES)
def test_optimizer_state_matches_its_golden_digest(dtype, variant, recorded):
    assert _sha256(stepped_state(dtype, variant)) == recorded[f"step/{dtype}/{variant.value}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    old = json.loads(GOLDEN.read_text())["digests"] if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        record = {"environment": environment(), "digests": all_digests(Path(tmp))}
    for name, digest in record["digests"].items():
        if name not in old:
            print(f"new   {name} {digest}")
        elif old[name] != digest:
            print(f"moved {name} {old[name]} -> {digest}")
    for name in old.keys() - record["digests"].keys():
        print(f"gone  {name} {old[name]}")
    GOLDEN.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
