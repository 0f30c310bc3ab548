"""Benchmark for normcontrol: one closed-loop workload per process.

    python3 benchmarks/run.py --workload mlp_compare --seed 1 --seconds 30 --trace 0

One caller runs the workload's operation back to back for ``--seconds`` and
then checks the program's outputs. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it wraps the package's public
functions in spans (see tracing.py) and reports per-layer metrics instead,
with the tracing overhead measured against an untraced pass of the same run.
Human-readable lines come first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Details,
metadata and, when traced, every span go to ``.bench_out/`` in the checkout.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

import os

# One caller, one BLAS/OpenMP thread (<= nproc): set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 15  # setup_s is the median of this many full set-ups
MIN_OPS = 3     # per timed pass, however long one operation takes
# About the calibration kernel's time on the host the baseline was taken on
# (2 vCPUs, Python 3.11, numpy 2.4); setup_s is expressed at that speed.
REF_S = 0.03

END_TO_END = {"setup_s": "s", "op_cost": "ref", "peak_rss_mb": "MB"}
_FAILED = object()


class Calibration:
    """A fixed kernel that shares no code with the program, timed between operations.

    On a shared 2-vCPU VM the same operation's time drifted by a quarter and
    more over tens of seconds, and every kind of code drifted with it. Dividing
    each operation's time by the kernel's time on either side (``op_cost``, in
    units of "ref") cancels most of that drift; only a change to the program,
    or to numpy, moves the ratio. The kernel mixes what the workloads spend
    their time on: interpreted Python, numpy calls on small arrays, and
    streaming passes over two 2 MB arrays, more than a 2 MB L2 holds.
    """

    def __init__(self):
        self.big = np.linspace(0.0, 1.0, 1 << 18)
        self.out = np.empty_like(self.big)
        self.small = np.linspace(0.0, 1.0, 16)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(100_000):
            acc += math.sqrt(i)
        for _ in range(3000):
            acc += float((self.small * 1.5 + self.small).sum())
        for _ in range(32):
            np.multiply(self.big, self.big, out=self.out)
        return time.perf_counter() - t0


def fresh_import():
    """Import normcontrol from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "normcontrol" or m.startswith("normcontrol.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    nc = importlib.import_module("normcontrol")
    if not Path(nc.__file__).resolve().is_relative_to(src):
        raise ImportError(f"normcontrol was imported from {nc.__file__}, not from {src}")
    for sub in ("params", "schedules", "optim", "tasks", "harness", "verify", "cli"):
        importlib.import_module(f"normcontrol.{sub}")
    return nc


def set_up(cls, inputs, calibration, tracer=None):
    """Import and build the workload SETUP_REPS times, each between two calibration runs.

    Returns the package, the last build, and each set-up's time in seconds
    and in seconds at the reference speed: its time divided by the mean of
    the calibration times on either side, times REF_S. Raw set-up time
    drifts with the host as operation time does (a quarter between runs);
    the scaled time cancels that drift the way ``op_cost`` does.
    """
    times, scaled, workload = [], [], None
    ref = calibration()
    for _ in range(SETUP_REPS):
        workload = None
        gc.collect()
        t0 = time.perf_counter()
        nc = fresh_import()
        if tracer is not None:
            tracer.install(nc)
        try:
            workload = cls(nc, inputs)
        finally:
            if tracer is not None:
                tracer.uninstall()
        elapsed = time.perf_counter() - t0
        ref_after = calibration()
        times.append(elapsed)
        scaled.append(REF_S * elapsed / (0.5 * (ref + ref_after)))
        ref = ref_after
    return nc, workload, times, scaled


def run_op(workload):
    """One operation: (seconds, ok). A failing operation is counted, not fatal."""
    t0 = time.perf_counter()
    try:
        result = workload.op()
    except Exception:
        traceback.print_exc()
        result = _FAILED
    elapsed = time.perf_counter() - t0
    try:
        ok = result is not _FAILED and bool(workload.op_ok(result))
    except Exception:
        traceback.print_exc()
        ok = False
    return elapsed, ok


def measure(workload, seconds, calibration):
    """Closed loop for ``seconds``, each operation between two calibration runs.

    Returns per-operation times, their ratios to the mean of the calibration
    times on either side, and the failure count.
    """
    gc.collect()
    times, costs, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    ref = calibration()
    while len(times) < MIN_OPS or time.perf_counter() < deadline:
        elapsed, ok = run_op(workload)
        ref_after = calibration()
        times.append(elapsed)
        costs.append(elapsed / (0.5 * (ref + ref_after)))
        failed += not ok
        ref = ref_after
    return times, costs, failed


def run_checks(workload):
    try:
        return [(name, bool(ok), detail) for name, ok, detail in workload.checks()]
    except Exception:
        traceback.print_exc()
        return [("output checks ran", False, "raised, see stderr")]


def git_revision() -> str:
    # The ceiling keeps git from reporting a repository that merely encloses the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def describe(times) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(times)
    text = f"median of {n} operations"
    if n > 10:
        q = int(100 * (1 - 10 / n))
        text += f", p{q} {statistics.quantiles(times, n=100)[q - 1]:.6g}"
    return text


def end_to_end(workload, seconds, calibration, setup, steps_per_op):
    times, costs, failed = measure(workload, seconds, calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = run_checks(workload)
    op_s = statistics.median(times)
    setup_times, setup_scaled = setup
    metrics = {"setup_s": statistics.median(setup_scaled), "op_cost": statistics.median(costs),
               "peak_rss_mb": peak_rss_mb}
    notes = [f"setup_s: median of {len(setup_scaled)} set-ups at the reference speed; "
             f"all (s): " + " ".join(f"{t:.4g}" for t in setup_scaled),
             f"raw set-up {statistics.median(setup_times):.6g} s; all (s): "
             + " ".join(f"{t:.4g}" for t in setup_times),
             f"op_cost: {describe(costs)}; all (ref): " + " ".join(f"{c:.4g}" for c in costs),
             f"op_s {op_s:.6g} s: {describe(times)}; all (s): "
             + " ".join(f"{t:.4g}" for t in times),
             f"steps_per_s {steps_per_op / op_s:.6g} 1/s", *workload.notes(op_s)]
    return metrics, len(times), failed, checks, notes


def per_layer(nc, workload, seconds, tracer, spans_path):
    """Untraced and traced operations in turn for ``seconds``, then the checks.

    Taking turns cancels drift in machine speed out of the tracing overhead.
    The traced operations alternate between two passes whose count metrics
    must agree.
    """
    untraced, traced, passes = [], [], (set(), set())
    failed = 0
    gc.collect()
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 * MIN_OPS or time.perf_counter() < deadline:
        elapsed, ok = run_op(workload)
        untraced.append(elapsed)
        failed += not ok
        tracer.install(nc)
        tracer.op += 1
        passes[len(traced) % 2].add(tracer.op)
        elapsed, ok = run_op(workload)
        tracer.uninstall()
        traced.append(elapsed)
        failed += not ok
    tracer.install(nc)
    tracer.op += 1
    checks = run_checks(workload)
    tracer.uninstall()
    alloc = []
    for _ in range(2):
        oks = []
        peaks = tracing.step_alloc_peaks(nc, lambda: oks.append(run_op(workload)[1]))
        alloc.append(max(peaks, default=0))
        failed += not oks[0]
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["optim.step.alloc_bytes"] = alloc[0]
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    per_pass = [tracing.layer_metrics(tracer.spans, ops)["params.controlled_norm.calls_per_step"]
                for ops in passes]
    checks.append(("count metrics repeat on two traced passes",
                   per_pass[0] == per_pass[1] and alloc[0] == alloc[1],
                   f"calls_per_step {per_pass}, alloc_bytes {alloc}"))
    tracer.write_csv(spans_path)
    notes = [f"untraced op {statistics.median(untraced):.6g} s ({describe(untraced)}), "
             f"traced op {statistics.median(traced):.6g} s ({describe(traced)})",
             f"{len(tracer.spans)} spans; 2 untraced operations under tracemalloc"]
    return metrics, len(untraced) + len(traced) + 2, failed, checks, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    work = OUT / args.workload
    tracer = tracing.Tracer() if args.trace else None
    calibration = Calibration()
    cls = WORKLOADS[args.workload]
    try:
        work.mkdir(parents=True, exist_ok=True)
        inputs = cls.inputs(args.seed, ROOT, work)
        nc, workload, *setup = set_up(cls, inputs, calibration, tracer)
    except (ImportError, OSError, ValueError) as e:
        print(f"error: cannot set up {args.workload}: {e}", file=sys.stderr)
        return 2

    warm_ok = []
    steps_per_op = tracing.count_steps(nc, lambda: warm_ok.append(run_op(workload)[1]))
    if tracer is None:
        metrics, ops, failed, checks, notes = end_to_end(workload, args.seconds, calibration,
                                                         setup, steps_per_op)
        units = END_TO_END
    else:
        metrics, ops, failed, checks, notes = per_layer(
            nc, workload, args.seconds, tracer, OUT / f"{args.workload}.spans.csv.gz")
        units = tracing.PER_LAYER
    notes.insert(0, f"1 warm-up operation, {steps_per_op} optimizer steps per operation")

    attempted = 1 + ops + len(checks)
    failed += (not warm_ok[0]) + sum(not ok for _, ok, _ in checks)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_revision": git_revision(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "setup_reps": SETUP_REPS}
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(
        {"meta": meta, "result": result, "notes": notes, "checks": checks}, indent=1) + "\n")

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for line in notes:
        print(line)
    for name, ok, detail in checks:
        print(f"{'ok' if ok else 'FAIL':4s} {name}: {detail}")
    print(f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for k, u in units.items():
        print(f"{k:40s} {metrics[k]:.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
