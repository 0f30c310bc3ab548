"""Golden SHA-256 digests of the canonical outputs.

golden.json covers:

* ``compare/<file>``: `trace_a.csv`, `trace_b.csv` and `report.json` from
  `compare --config-a configs/mlp_adamw.cfg --template-b
  configs/mlp_norm_control.cfg` (seed 0, as shipped), and
  ``compare/seed<s>/<file>`` the same at seeds 25 and 105;
* ``run/<task>/<variant>``: the trace CSV of a `run` of each task under each
  optimizer variant, T = 301 (not a multiple of the sampler's block), and
  ``run/<task>/norm_control/T<T>-batch<b>`` under norm control at T = 7
  with batch 5 (T below one sampler block) and at T = 3 with a batch of
  ``tasks._DRAW + 1`` (one step per block);
* ``schedule/<config>/stride<k>``: the `schedule` table of each shipped
  config at strides 7 and 100;
* ``check-grad``: the stdout of `check-grad --task all --properties 50`;
* ``property-suite``: ``verify.property_suite(0, 300).format()``;
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

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from test_optim import _chunked_store

from normcontrol import harness, tasks, verify
from normcontrol.cli import main
from normcontrol.optim import OptimizerConfig, OptimizerState, Variant, step
from normcontrol.schedules import CosineSpec, PiecewiseLinearSpec, ScheduleSpec
from normcontrol.tasks import TASK_NAMES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")
OUTPUTS = ("trace_a.csv", "trace_b.csv", "report.json")
COMPARE_SEEDS = (25, 105)
CONFIGS = ("mlp_adamw.cfg", "mlp_norm_control.cfg")
SHORT_RUNS = ((7, 5), (3, tasks._DRAW + 1))  # (T, batch size)
STRIDES = (7, 100)
GRADIENT_DTYPES = ("float64", "float32", "int64")


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(argv: list) -> str:
    """What `main(argv)` prints; raises if it does not exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if main(argv) != 0:
            raise RuntimeError(f"{' '.join(argv)} failed")
    return out.getvalue()


def compare_digests(out_dir: Path) -> dict:
    """SHA-256 of each of `compare`'s outputs on the shipped configs, as shipped (seed 0)
    and at each of COMPARE_SEEDS, written under out_dir."""
    digests = {}
    for seed in (0, *COMPARE_SEEDS):
        work = out_dir / f"seed{seed}"
        work.mkdir(parents=True)
        configs, prefix = [ROOT / "configs" / name for name in CONFIGS], "compare/"
        if seed != 0:
            prefix += f"seed{seed}/"
            for i, config in enumerate(configs):
                configs[i] = work / config.name
                configs[i].write_text(config.read_text().replace("seed = 0\n", f"seed = {seed}\n"))
        _stdout(["compare", "--config-a", str(configs[0]), "--template-b", str(configs[1]),
                 "--out-dir", str(work)])
        digests |= {prefix + name: _sha256((work / name).read_bytes()) for name in OUTPUTS}
    return digests


def schedule_table(config: str, stride: int, out_dir: Path) -> bytes:
    """The `schedule` table of a shipped config at stride."""
    out = out_dir / f"{config}.{stride}.csv"
    _stdout(["schedule", "--config", str(ROOT / "configs" / config), "--stride", str(stride),
             "--out", str(out)])
    return out.read_bytes()


def check_grad_stdout() -> bytes:
    return _stdout(["check-grad", "--task", "all", "--properties", "50"]).encode()


def suite_text() -> bytes:
    return verify.property_suite(0, 300).format().encode()


STEP_SCHEDULE = ScheduleSpec(horizon=10, rt=PiecewiseLinearSpec.const(1.5),
                             kt=PiecewiseLinearSpec.const(0.3))


def run_trace(task: str, variant: Variant, horizon: int = 301, batch_size: int = 32,
              eval_every: int = 50) -> bytes:
    """The trace CSV of a `run` of task under variant, T = 301 unless given."""
    schedules = ScheduleSpec(horizon=horizon, eta=CosineSpec(1.0, 0.1),
                             rt=PiecewiseLinearSpec.linear([(0, 1.0), (min(100, horizon), 1.5)]),
                             kt=PiecewiseLinearSpec.const(0.05))
    config = harness.RunConfig(task=task, schedules=schedules, batch_size=batch_size,
                               eval_every=eval_every,
                               optimizer=OptimizerConfig(weight_decay=0.1, variant=variant))
    return harness.run(config).to_csv().encode()


def short_run_trace(task: str, horizon: int, batch_size: int) -> bytes:
    """The trace CSV of a short `run` of task under norm control, logging every other step."""
    return run_trace(task, Variant.NORM_CONTROL, horizon, batch_size, eval_every=2)


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
            **{f"run/{task}/norm_control/T{horizon}-batch{batch}":
               _sha256(short_run_trace(task, horizon, batch))
               for task in TASK_NAMES for horizon, batch in SHORT_RUNS},
            **{f"schedule/{config}/stride{stride}": _sha256(schedule_table(config, stride, out_dir))
               for config in CONFIGS for stride in STRIDES},
            "check-grad": _sha256(check_grad_stdout()),
            "property-suite": _sha256(suite_text()),
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


@pytest.mark.parametrize("name", OUTPUTS)
@pytest.mark.parametrize("seed", COMPARE_SEEDS)
def test_compare_output_at_another_seed_matches_its_golden_digest(seed, name, recorded, compared):
    assert compared[f"compare/seed{seed}/{name}"] == recorded[f"compare/seed{seed}/{name}"]


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("task", TASK_NAMES)
def test_run_trace_matches_its_golden_digest(task, variant, recorded):
    assert _sha256(run_trace(task, variant)) == recorded[f"run/{task}/{variant.value}"]


@pytest.mark.parametrize("horizon, batch", SHORT_RUNS)
@pytest.mark.parametrize("task", TASK_NAMES)
def test_short_run_trace_matches_its_golden_digest(task, horizon, batch, recorded):
    key = f"run/{task}/norm_control/T{horizon}-batch{batch}"
    assert _sha256(short_run_trace(task, horizon, batch)) == recorded[key]


@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("config", CONFIGS)
def test_schedule_table_matches_its_golden_digest(config, stride, recorded, tmp_path):
    digest = _sha256(schedule_table(config, stride, tmp_path))
    assert digest == recorded[f"schedule/{config}/stride{stride}"]


def test_check_grad_stdout_matches_its_golden_digest(recorded):
    assert _sha256(check_grad_stdout()) == recorded["check-grad"]


def test_property_suite_text_matches_its_golden_digest(recorded):
    assert _sha256(suite_text()) == recorded["property-suite"]


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
