"""Outside-in spans around the public functions of each normcontrol module.

The program itself carries no timers. A :class:`Tracer` replaces selected
functions and methods with wrappers that record one span per call (name,
start, end, parent span, operation id) in memory, and :meth:`Tracer.uninstall`
puts the originals back. :func:`layer_metrics` turns the spans into the
per-layer numbers listed in ``PER_LAYER``.

Each per-layer metric, and the end-to-end metric (workload) it should move:

* ``params.*``: norm calls per step and the norm/scale cost move ``op_cost``
  on store_1m, then on mlp_compare; store construction and snapshots move
  ``op_cost`` on verify_suite and ``setup_s`` on store_1m.
* ``schedules.lookup.us_per_step``: ``op_cost`` on mlp_compare only.
* ``optim.*``: ``op_cost`` and ``peak_rss_mb`` on store_1m.
* ``tasks.*``: per-step task calls move ``op_cost`` on mlp_compare;
  ``tasks.quadratic_loss_grad.ms`` is store_1m's gradient, which no optimizer
  change should move; ``tasks.build.ms`` moves ``setup_s``;
  ``tasks.finite_diff_check.ms`` moves ``op_cost`` on verify_suite.
* ``harness.*``: the loop and trace CSV move ``op_cost`` on mlp_compare;
  config parsing and run initialisation move ``setup_s``.
* ``verify.*``: the oracle and production shares of the property suite bound
  what a production speed-up can do for ``op_cost`` on verify_suite.
* ``cli.main.self_ms``: ``op_cost`` on mlp_compare.
* ``trace.overhead``: traced over untraced median operation time, minus 1.
"""

from __future__ import annotations

import contextlib
import gzip
import statistics
import sys
import time
import tracemalloc

PER_LAYER = {
    "params.controlled_norm.calls_per_step": "count",
    "params.controlled_norm.us": "us",
    "params.scale_controlled.us": "us",
    "params.store_init.us": "us",
    "params.snapshot.us": "us",
    "schedules.lookup.us_per_step": "us",
    "optim.step.us": "us",
    "optim.step.self_us": "us",
    "optim.adam_moment_update.us": "us",
    "optim.adam_param_update.us": "us",
    "optim.regularize.us": "us",
    "optim.step.alloc_bytes": "bytes",
    "tasks.sample_batch.us": "us",
    "tasks.loss_and_grad.us": "us",
    "tasks.val_loss.us": "us",
    "tasks.quadratic_loss_grad.ms": "ms",
    "tasks.build.ms": "ms",
    "tasks.finite_diff_check.ms": "ms",
    "harness.run.self_us_per_step": "us",
    "harness.trace_csv.ms": "ms",
    "harness.parse_run_config.us": "us",
    "harness.initialize_run.ms": "ms",
    "verify.oracle_step.us": "us",
    "verify.oracle_share": "ratio",
    "verify.production_share": "ratio",
    "cli.main.self_ms": "ms",
    "trace.overhead": "ratio",
}

# Count metrics: they must read the same on two traced passes of one run.
COUNT_METRICS = ("params.controlled_norm.calls_per_step", "optim.step.alloc_bytes")

_REGULARIZERS = ("regularize_decay", "regularize_norm_control", "sgd_step_coupled_decay")
_SCHEDULE_SPANS = ("schedules.eta_at", "schedules.rt_at", "schedules.kt_at")
_TASK_CLASSES = ("QuadraticTask", "LogisticTask", "MlpTask")


def traced_targets(nc):
    """(owner, attribute, span name) for every function the tracer wraps."""
    params, schedules, optim = nc.params, nc.schedules, nc.optim
    tasks, harness, verify, cli = nc.tasks, nc.harness, nc.verify, nc.cli
    targets = [
        (params.ParamStore, "__init__", "params.store_init"),
        (params.ParamStore, "controlled_norm", "params.controlled_norm"),
        (params.ParamStore, "scale_controlled", "params.scale_controlled"),
        (params.ParamStore, "snapshot", "params.snapshot"),
        (schedules.ScheduleSpec, "eta_at", "schedules.eta_at"),
        (schedules.ScheduleSpec, "rt_at", "schedules.rt_at"),
        (schedules.ScheduleSpec, "kt_at", "schedules.kt_at"),
        (optim, "step", "optim.step"),
        (optim, "adam_moment_update", "optim.adam_moment_update"),
        (optim, "adam_param_update", "optim.adam_param_update"),
        (tasks, "quadratic_loss_grad", "tasks.quadratic_loss_grad"),
        (tasks, "build_task", "tasks.build"),
        (tasks, "finite_diff_check", "tasks.finite_diff_check"),
        (harness, "run", "harness.run"),
        (harness, "parse_run_config", "harness.parse_run_config"),
        (harness, "initialize_run", "harness.initialize_run"),
        (harness.RunTrace, "to_csv", "harness.trace_csv"),
        (verify, "oracle_step", "verify.oracle_step"),
        (verify, "property_suite", "verify.property_suite"),
        (cli, "main", "cli.main"),
    ]
    targets += [(optim, name, "optim.regularize") for name in _REGULARIZERS]
    for cls_name in _TASK_CLASSES:
        cls = getattr(tasks, cls_name)
        for method in ("init_theta", "loss_and_grad", "sample_batch", "val_batch"):
            targets.append((cls, method, f"tasks.{method}"))
    return targets


def patch(nc, owner, attr, replacement):
    """Point every reference to ``owner.attr`` in the package at ``replacement``.

    Module functions are also re-exported by the package and imported by name
    into sibling modules, so each module namespace holding the original object
    is rebound. Returns (namespace owner, attribute, original) triples for
    :func:`unpatch`.
    """
    original = getattr(owner, attr)
    owners = [owner]
    if not isinstance(owner, type):
        owners = [mod for name, mod in list(sys.modules.items())
                  if (name == nc.__name__ or name.startswith(nc.__name__ + "."))
                  and getattr(mod, attr, None) is original]
    undo = []
    for o in owners:
        undo.append((o, attr, original))
        setattr(o, attr, replacement)
    return undo


def unpatch(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    """Records spans from wrappers it installs around the program's functions.

    A span is ``(name, start_ns, end_ns, parent_index, op)``; ``parent_index``
    is -1 for a span that no other traced call encloses, and ``op`` is the
    operation the benchmark was running when the span ended.
    """

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list = []

    def install(self, nc) -> None:
        for owner, attr, name in traced_targets(nc):
            self._undo += patch(nc, owner, attr, self._wrap(getattr(owner, attr), name))

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    def write_csv(self, path) -> None:
        """Write every span as gzip-compressed CSV (a traced run has ~10^6)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("index,name,start_ns,end_ns,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(f"{i},{name},{start},{end},{parent},{op}\n")


@contextlib.contextmanager
def patched(nc, owner, attr, replacement):
    """:func:`patch` for the duration of a ``with`` block."""
    undo = patch(nc, owner, attr, replacement)
    try:
        yield
    finally:
        unpatch(undo)


def count_steps(nc, run_op) -> int:
    """Number of ``optim.step`` calls one run of ``run_op`` makes."""
    original, calls = nc.optim.step, 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    with patched(nc, nc.optim, "step", counted):
        run_op()
    return calls


def step_alloc_peaks(nc, run_op, limit: int = 20) -> list[int]:
    """tracemalloc peak of each of the first ``limit`` norm-control steps of one op.

    tracemalloc is started fresh around each measured step, so a peak counts
    the bytes the step itself allocated and still held at its high point.
    """
    optim = nc.optim
    original = optim.step
    peaks: list[int] = []

    def probed(store, state, g, t, sched, cfg):
        if cfg.variant is not optim.Variant.NORM_CONTROL or len(peaks) >= limit:
            return original(store, state, g, t, sched, cfg)
        tracemalloc.start()
        try:
            return original(store, state, g, t, sched, cfg)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    with patched(nc, optim, "step", probed):
        run_op()
    return peaks


def _median_us(durations) -> float:
    return statistics.median(durations) / 1e3 if durations else 0.0


def layer_metrics(spans, ops=None) -> dict[str, float]:
    """Per-layer timings and counts from spans, optionally only those of ``ops``.

    Self time is a span's duration minus the durations of its direct children
    (calls are sequential, so children never overlap).
    """
    n = len(spans)
    child_ns = [0] * n
    step_of = [-1] * n    # enclosing optim.step span
    run_of = [-1] * n     # enclosing harness.run span
    suite_of = [-1] * n   # enclosing verify.property_suite span
    in_prod = [False] * n  # a params/optim span or inside one
    by_name: dict[str, list[int]] = {}
    norm_in_step = sched_in_step_ns = steps_in_run = 0
    oracle_in_suite_ns = prod_in_suite_ns = 0
    for i, (name, start, end, parent, op) in enumerate(spans):
        # A call tree never spans two operations, so filtering keeps whole trees.
        if ops is not None and op not in ops:
            continue
        dur = end - start
        prod = name.split(".", 1)[0] in ("params", "optim")
        if parent >= 0:
            child_ns[parent] += dur
            step_of[i], run_of[i], suite_of[i] = step_of[parent], run_of[parent], suite_of[parent]
            in_prod[i] = in_prod[parent]
            # harness.run evaluates loss_and_grad(theta, val_batch()).
            if name == "tasks.loss_and_grad" and spans[i - 1][0] == "tasks.val_batch" \
                    and spans[i - 1][3] == parent:
                name = "tasks.val_loss"
        by_name.setdefault(name, []).append(i)
        if step_of[i] >= 0:
            if name == "params.controlled_norm":
                norm_in_step += 1
            elif name in _SCHEDULE_SPANS:
                sched_in_step_ns += dur
        if suite_of[i] >= 0:
            if name == "verify.oracle_step":
                oracle_in_suite_ns += dur
            elif prod and not in_prod[i]:
                prod_in_suite_ns += dur
        in_prod[i] = in_prod[i] or prod
        if name == "optim.step":
            step_of[i] = i
            steps_in_run += run_of[i] >= 0
        elif name == "harness.run":
            run_of[i] = i
        elif name == "verify.property_suite":
            suite_of[i] = i

    def durations(name):
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, ())]

    def self_times(name):
        return [spans[i][2] - spans[i][1] - child_ns[i] for i in by_name.get(name, ())]

    steps = len(by_name.get("optim.step", ()))
    suite_ns = sum(durations("verify.property_suite"))
    run_self_ns = sum(self_times("harness.run"))
    return {
        "params.controlled_norm.calls_per_step": norm_in_step / steps if steps else 0.0,
        "params.controlled_norm.us": _median_us(durations("params.controlled_norm")),
        "params.scale_controlled.us": _median_us(durations("params.scale_controlled")),
        "params.store_init.us": _median_us(durations("params.store_init")),
        "params.snapshot.us": _median_us(durations("params.snapshot")),
        "schedules.lookup.us_per_step": sched_in_step_ns / 1e3 / steps if steps else 0.0,
        "optim.step.us": _median_us(durations("optim.step")),
        "optim.step.self_us": _median_us(self_times("optim.step")),
        "optim.adam_moment_update.us": _median_us(durations("optim.adam_moment_update")),
        "optim.adam_param_update.us": _median_us(durations("optim.adam_param_update")),
        "optim.regularize.us": _median_us(durations("optim.regularize")),
        "tasks.sample_batch.us": _median_us(durations("tasks.sample_batch")),
        "tasks.loss_and_grad.us": _median_us(durations("tasks.loss_and_grad")),
        "tasks.val_loss.us": _median_us(durations("tasks.val_loss")),
        "tasks.quadratic_loss_grad.ms": _median_us(durations("tasks.quadratic_loss_grad")) / 1e3,
        "tasks.build.ms": _median_us(durations("tasks.build")) / 1e3,
        "tasks.finite_diff_check.ms": _median_us(durations("tasks.finite_diff_check")) / 1e3,
        "harness.run.self_us_per_step": run_self_ns / 1e3 / steps_in_run if steps_in_run else 0.0,
        "harness.trace_csv.ms": _median_us(durations("harness.trace_csv")) / 1e3,
        "harness.parse_run_config.us": _median_us(durations("harness.parse_run_config")),
        "harness.initialize_run.ms": _median_us(durations("harness.initialize_run")) / 1e3,
        "verify.oracle_step.us": _median_us(durations("verify.oracle_step")),
        "verify.oracle_share": oracle_in_suite_ns / suite_ns if suite_ns else 0.0,
        "verify.production_share": prod_in_suite_ns / suite_ns if suite_ns else 0.0,
        "cli.main.self_ms": _median_us(self_times("cli.main")) / 1e3,
    }
