import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import normcontrol
import normcontrol.cli  # not imported by the package; the tracer wraps cli.main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    # the stand-in objective: 0.5 * ||theta - 1||^2
    namespace = {"compute_gradient": lambda theta: theta - 1.0}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].t == 1000
    assert namespace["tied"].kt_at(1) == namespace["decay_cfg"].decay_rate(
        namespace["sched"].eta_at(1))


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.match(r"\s*```sh\n(.*?)^```", section, re.M | re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("normcontrol ")]
    assert len(commands) == 4
    (tmp_path / "configs").symlink_to(ROOT / "configs")  # the block's relative config paths
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert normcontrol.cli.main(command[1:]) == 0, (command, capsys.readouterr().err)


def _benchmark_module(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_the_benchmark_traces_exists():
    # the benchmark's tracer wraps these by name; deleting one would break the benchmark
    targets = _benchmark_module("tracing").traced_targets(normcontrol)
    assert targets
    assert [(owner, attr) for owner, attr, _ in targets if not hasattr(owner, attr)] == []


def test_the_benchmark_workloads_run_on_the_package(tmp_path):
    # small store_1m and verify_suite, and mlp_compare: every call the benchmark makes into the
    # package still works
    workloads = _benchmark_module("workloads")

    class Store(workloads.Store1m):
        LAYERS, WEIGHTS, BIASES = 2, 9, 3

    class LargeStore(workloads.Store1m):  # above _EXACT_CUTOFF: the certified norm
        LAYERS, WEIGHTS, BIASES = 2, 600, 50

    class Suite(workloads.VerifySuite):
        CASES = 5

    for workload in (Store, LargeStore, Suite, workloads.MlpCompare):
        built = workload(normcontrol, workload.inputs(0, ROOT, tmp_path))
        assert built.op_ok(built.op()), workload
        assert [(name, detail) for name, ok, detail in built.checks() if not ok] == []


def test_importing_the_package_and_cli_does_not_import_multiprocessing():
    # property_suite and compare import it when called; set-up time would carry it otherwise
    code = "import sys, normcontrol, normcontrol.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "False\n"


def test_only_the_records_that_need_it_are_dataclasses():
    # Each @dataclass costs 0.5-2 ms of every import of the package, several times what a
    # NamedTuple of the same fields costs. So a new value record is a NamedTuple unless it
    # needs __post_init__ checks, dataclasses.replace, mutation or a dataclass subclass, as
    # each of these does.
    modules = [importlib.import_module(f"normcontrol.{info.name}")
               for info in pkgutil.iter_modules(normcontrol.__path__)]
    declared = {f"{module.__name__}.{name}" for module in modules
                for name, cls in vars(module).items()
                if isinstance(cls, type) and cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
                and "__dataclass_fields__" in vars(cls)}  # not inherited, as by _StreamedRt
    assert declared == {
        "normcontrol.harness.RunConfig",  # checks, replace, __dataclass_fields__ as schema
        "normcontrol.optim.OptimizerConfig",  # checks, __dataclass_fields__ as schema
        "normcontrol.schedules.ScheduleSpec",  # checks, replace, __dataclass_fields__ as schema
        "normcontrol.params.ParamGroup",  # checks
        "normcontrol.schedules.PiecewiseLinearSpec",  # _StreamedRt builds on its construction
        "normcontrol.optim.OptimizerState",  # checks, a mutable t
        "normcontrol.oracle.OracleState",  # mutable; oracle.py imports no typing (test_verify)
    }
