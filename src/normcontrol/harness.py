"""Run configuration, the training loop, calibration, and trace logging.

A run is fully determined by its config: same config and seed give a
byte-identical trace CSV on one platform. Config files use the same
line-oriented key=value format as schedule specs, with run keys added::

    task = mlp
    dim = 8
    hidden = 16
    batch_size = 32
    seed = 0
    eval_every = 100
    variant = norm_control
    T = 5000
    eta = cosine(1.0, 0.1)
    rt = linear(0:1.0, 250:2.0)
    kt = const(0.01)
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import optim
from .optim import OptimizerConfig, OptimizerState, Variant
from .params import ParamStore
from .schedules import (
    SCHEDULE_KEYS,
    ConfigError,
    PiecewiseLinearSpec,
    ScheduleSpec,
    is_integer,
    parse_assignments,
    parse_choice,
)
from .tasks import TASK_NAMES, build_task


@dataclass(frozen=True)
class RunConfig:
    """One run: the task and its sizes, the seed, the eval interval, the schedules
    and the optimizer. Each field is checked on construction; a bad one raises
    ConfigError naming it, as does a decay rate above 1 at eta_max."""

    task: str
    schedules: ScheduleSpec
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    dim: int = 8
    hidden: int = 16
    batch_size: int = 32
    seed: int = 0
    eval_every: int = 100
    control_biases: bool = False

    def __post_init__(self):
        if self.task not in TASK_NAMES:
            raise ConfigError("task", f"must be one of {TASK_NAMES}, got {self.task!r}")
        for name in ("dim", "hidden", "batch_size", "eval_every", "seed"):
            if not is_integer(getattr(self, name)):
                raise ConfigError(name, f"must be an integer, got {getattr(self, name)!r}")
        for name in ("dim", "hidden", "batch_size", "eval_every"):
            if getattr(self, name) < 1:
                raise ConfigError(name, f"must be a positive integer, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {self.seed}")
        if not isinstance(self.control_biases, (bool, np.bool_)):
            raise ConfigError("control_biases", f"must be a bool, got {self.control_biases!r}")
        # The rate peaks at eta_max; a rate above 1 would flip the weights' signs.
        rate = self.optimizer.decay_rate(self.schedules.eta.eta_max)
        if rate > 1.0:
            formula = {Variant.DECAY_COUPLED_LR: "eta_max * alpha * lambda",  # else coupled_sgd
                       Variant.DECAY_DECOUPLED: "eta_max * lambda"}.get(self.optimizer.variant, "lambda")
            raise ConfigError("weight_decay", f"decay rate {formula} = {rate:.6g} is above 1")


class TraceRow(NamedTuple):
    t: int
    train_loss: float
    val_loss: float
    eta_t: float
    r_t: float
    k_t: float
    target_norm: float
    actual_norm: float
    norm_ratio: float
    grad_norm: float


TRACE_HEADER = ",".join(TraceRow._fields)


class RunTrace(NamedTuple):
    rows: list[TraceRow]
    initial_norm: float

    def to_csv(self) -> str:
        return _csv(TRACE_HEADER, self.rows)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.to_csv())


def _csv(header: str, rows) -> str:
    """The header line, then one line per row: its integer t, then each float
    with 17 significant digits, so the text round-trips to the exact double."""
    lines = [header] + [f"{t}," + ",".join(format(x, ".17g") for x in xs) for t, *xs in rows]
    return "\n".join(lines) + "\n"


def _parse_bool(value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true or false, got {value!r}")


# Run-config text key -> (dataclass, field, value parser); with
# schedules.SCHEDULE_KEYS this is the whole config schema. Defaults and range
# checks live in the dataclasses; task is required because it has no default.
RUN_KEYS = {
    "task": (RunConfig, "task", str),
    "dim": (RunConfig, "dim", int),
    "hidden": (RunConfig, "hidden", int),
    "batch_size": (RunConfig, "batch_size", int),
    "seed": (RunConfig, "seed", int),
    "eval_every": (RunConfig, "eval_every", int),
    "control_biases": (RunConfig, "control_biases", _parse_bool),
    "variant": (OptimizerConfig, "variant", parse_choice(Variant)),
    "lambda": (OptimizerConfig, "weight_decay", float),
    "alpha": (OptimizerConfig, "alpha", float),
    "beta1": (OptimizerConfig, "beta1", float),
    "beta2": (OptimizerConfig, "beta2", float),
    "epsilon": (OptimizerConfig, "epsilon", float),
}

# The keys that optim.step never reads under each variant; parse_run_config
# warns about each one the text sets.
UNREAD_KEYS = {
    Variant.NONE: ("rt", "kt", "lambda"),
    Variant.DECAY_COUPLED_LR: ("rt", "kt"),
    Variant.DECAY_DECOUPLED: ("rt", "kt"),
    Variant.COUPLED_SGD: ("rt", "kt", "eta", "beta1", "beta2", "epsilon"),
    Variant.NORM_CONTROL: ("lambda",),
}


def parse_run_config(text: str) -> RunConfig:
    """Parse a full run config (run keys + schedule keys) in one pass.

    Warns (UserWarning) once for each key set in text that the variant never reads.
    """
    config, lines = parse_assignments(text, RUN_KEYS | SCHEDULE_KEYS, lambda fields: RunConfig(
        schedules=ScheduleSpec(**fields[ScheduleSpec]),
        optimizer=OptimizerConfig(**fields.get(OptimizerConfig, {})), **fields[RunConfig]))
    variant = config.optimizer.variant
    for key, line in lines.items():
        if key in UNREAD_KEYS[variant]:
            warnings.warn(f"line {line}: {key}: not read by variant {variant.value}; ignored",
                          stacklevel=2)
    return config


def initialize_run(config: RunConfig):
    """Build (task, store, rng) exactly as run() does, for mirrored replays."""
    rng = np.random.default_rng(config.seed)
    task = build_task(config.task, config.dim, config.hidden, rng,
                      control_biases=config.control_biases)
    theta0 = task.init_theta(rng)
    store = ParamStore(theta0, task.groups)
    return task, store, rng


def run(config: RunConfig) -> RunTrace:
    """Execute the full training loop (_logged_rows) and return the logged trace."""
    task, store, rng = initialize_run(config)
    return RunTrace(list(_logged_rows(config, task, store, rng)), store.initial_norm)


# The rule check's bound on |norm after - p| / p, p = (1 - k_t) * n + k_t * target, counted
# from the roundings between them, each at most u = 2**-53: three in each of the two
# norms (squares, sum, root), three in the factor (divide, product, sum), one in each
# element's scale and two in p (products, then sum). 1 - k_t and the target round alike
# in the rule and in p. So the ratio of the two lies within (1 + u)**7 / (1 - u)**5,
# about 1 + 12 u, of 1; a scale into the subnormals can lose more.
RULE_BOUND = math.expm1(7 * math.log1p(2.0**-53) - 5 * math.log1p(-2.0**-53))


def _logged_rows(config: RunConfig, task, store: ParamStore, rng):
    """The training loop: yield each trace row as soon as it is logged.

    Logs every eval_every steps and at the final step; the controlled norm
    is measured for those rows only. Any component error, or a non-finite
    loss or gradient, aborts with the failing step index before the
    optimizer sees that step's gradient; a logged row with a non-finite
    value aborts before it is yielded. So does a logged row of a step that
    scaled by the rule (a measured norm n, a factor other than 1.0) whose
    norm misses the paper's (1 - k_t) * n + k_t * target by more than
    RULE_BOUND of it: the check reuses both norms, and measures none.
    """
    state = OptimizerState.zeros(store.theta.size)
    sched = config.schedules
    batches = task.batches(rng, config.batch_size, sched.horizon)
    for t in range(1, sched.horizon + 1):
        logged = t % config.eval_every == 0 or t == sched.horizon
        try:
            batch = next(batches)
            train_loss, g = task.loss_and_grad(store.theta, batch)
            if not math.isfinite(train_loss):
                raise FloatingPointError(f"non-finite training loss {train_loss}")
            if not np.isfinite(g).all():
                raise FloatingPointError("non-finite gradient")
            report = optim.step(store, state, g, t, sched, config.optimizer)
            if logged:
                val_loss, _ = task.loss_and_grad(store.theta, task.val_batch())
                norm = store.controlled_norm()
                row = TraceRow(t, train_loss, val_loss, report.eta_t, report.r_t, report.k_t,
                               report.target_norm, norm, norm / store.initial_norm,
                               float(np.linalg.norm(g)))
                for name, value in zip(TraceRow._fields, row):
                    if not math.isfinite(value):
                        raise FloatingPointError(f"non-finite {name} {value}")
                if report.scale != 1.0 and math.isfinite(report.norm):
                    rule = (1.0 - report.k_t) * report.norm + report.k_t * report.target_norm
                    if not abs(norm - rule) <= RULE_BOUND * rule:
                        raise FloatingPointError(
                            f"controlled norm {norm!r} misses the rule's {rule!r}, "
                            f"(1 - k_t) * {report.norm!r} + k_t * {report.target_norm!r}")
        except Exception as e:
            raise RuntimeError(f"run aborted at step {t}: {e}") from e
        if logged:
            yield row


def _rt_breakpoints(reference_rows):
    """The calibration rule: (0, 1.0), then (t, norm_ratio) for every reference row."""
    yield 0, 1.0
    for row in reference_rows:
        if row.norm_ratio <= 0.0:
            raise ValueError(f"reference norm ratio must be > 0, got {row.norm_ratio} at t={row.t}")
        yield row.t, row.norm_ratio


def calibrate_rt_from_run(reference_trace: RunTrace) -> PiecewiseLinearSpec:
    """rt that follows the reference's measured norm ratio: linear between _rt_breakpoints."""
    return PiecewiseLinearSpec.linear(_rt_breakpoints(reference_trace.rows))


def _fork_allowed(start_methods, cpus: int, version: tuple) -> bool:
    """Whether a forked child may share the work: fork exists, a second CPU is
    there to run it, and Python is older than 3.12, which warns on a fork with threads."""
    return "fork" in start_methods and cpus > 1 and version < (3, 12)


@contextmanager
def forked(name: str, items, *args):
    """Yield an iterator over items(*args): from a child forked at once when
    _fork_allowed, else made here to their end, then the block. Leaving the block
    stops and joins the child; a child that ends early raises RuntimeError naming it."""
    import multiprocessing  # not on the import path of the package or the cli
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if not _fork_allowed(multiprocessing.get_all_start_methods(), cpus, sys.version_info):
        yield iter(list(items(*args)))
        return
    receive, send = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.get_context("fork").Process(target=_send_items, args=(send, items, args))
    child.start()
    send.close()
    try:
        yield _received(receive, name)
    finally:  # stops the child if it still runs, as after an error or an interrupt
        child.terminate()
        child.join()
        receive.close()


def _send_items(send, items, args) -> None:  # the forked child's body
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # on an interrupt, the parent stops this process
    try:
        for item in items(*args):
            send.send((item,))
        send.send(())  # the end; an item goes as a 1-tuple, so any item can be told from it
    except Exception as e:
        send.send(e)


def _received(receive, name: str):
    """The child's items as they arrive, until its end; then its error, if it raised one."""
    while True:
        try:
            message = receive.recv()
        except EOFError:
            raise RuntimeError(f"{name} ended without a result") from None
        if isinstance(message, Exception):
            raise message
        if not message:
            return
        yield message[0]


def _reference_rows(config: RunConfig):  # run A's rows, as compare reads them from forked()
    return _logged_rows(config, *initialize_run(config))


class _StreamedRt(PiecewiseLinearSpec):
    """calibrate_rt_from_run's rt for reference rows that are read as t needs them."""

    def __init__(self, reference_rows):
        self.reference_rows, self.rows, self.error = reference_rows, [], None
        self._breakpoints = _rt_breakpoints(self.arrivals())
        super().__init__([next(self._breakpoints)])

    def arrivals(self):
        """The reference rows as they are read; then their error, each time it is asked for."""
        if self.error is not None:
            raise self.error
        try:
            for row in self.reference_rows:
                self.rows.append(row)
                yield row
        except Exception as e:
            self.error = e
            raise

    def value_at(self, t: int) -> float:
        while self.points[-1][0] < t:
            self.points.append(next(self._breakpoints))
        return super().value_at(t)


class ComparisonReport(NamedTuple):
    trace_a: RunTrace
    trace_b: RunTrace
    final_ratio_a: float
    final_ratio_b: float
    ratio_gap: float
    final_val_loss_a: float
    final_val_loss_b: float
    rel_val_loss: list[tuple[int, float]]  # (t, val_loss_b / val_loss_a)


def _experiment(config: RunConfig) -> dict:
    """The config keys, by their text names, that fix what a run learns and logs:
    every RunConfig key of RUN_KEYS, in its order, then T and eta."""
    run_keys = {key: getattr(config, name)
                for key, (owner, name, _) in RUN_KEYS.items() if owner is RunConfig}
    return run_keys | {"T": config.schedules.horizon, "eta": config.schedules.eta}


def compare(config_a: RunConfig, config_b_template: RunConfig) -> ComparisonReport:
    """Run a decay reference, calibrate rt from it, run norm control, report.

    config_b_template must use the NORM_CONTROL variant and describe A's experiment:
    every key of _experiment equal to A's. Its rt schedule is replaced by A's measured
    norm trajectory (calibrate_rt_from_run). All of this is checked before config_a
    runs. A's rows come from forked: from a forked child beside B when
    _fork_allowed, else from this process, A to its end, then B. Either way
    the outputs and errors are those of running A, then B.
    """
    if config_a.optimizer.variant not in (Variant.DECAY_COUPLED_LR, Variant.DECAY_DECOUPLED,
                                          Variant.COUPLED_SGD):
        raise ConfigError("variant", "config A must use a weight-decay variant")
    if config_b_template.optimizer.variant is not Variant.NORM_CONTROL:
        raise ConfigError("variant", "template B must use the norm_control variant")
    experiment_a, experiment_b = _experiment(config_a), _experiment(config_b_template)
    for key, value_a in experiment_a.items():
        if experiment_b[key] != value_a:
            raise ConfigError(key, f"template B has {experiment_b[key]!r}, config A "
                                   f"{value_a!r}; both must describe the same experiment")
    with forked("the reference run", _reference_rows, config_a) as reference_rows:
        rt = _StreamedRt(reference_rows)
        try:
            trace_b = run(replace(config_b_template,
                                  schedules=replace(config_b_template.schedules, rt=rt)))
        except Exception as e:
            trace_b = e  # raised after A's errors, as when A runs first
        list(rt.arrivals())  # A to its end; raises A's error
    list(_rt_breakpoints(rt.rows))  # checks A's rows by the calibration rule
    if isinstance(trace_b, Exception):
        raise trace_b
    trace_a = RunTrace(rt.rows, trace_b.initial_norm)  # initialize_run reads only _experiment keys

    rel = [(b.t, b.val_loss / a.val_loss)  # one t per row pair: _experiment fixes T and eval_every
           for a, b in zip(trace_a.rows, trace_b.rows) if a.val_loss != 0.0]
    last_a, last_b = trace_a.rows[-1], trace_b.rows[-1]
    return ComparisonReport(
        trace_a=trace_a,
        trace_b=trace_b,
        final_ratio_a=last_a.norm_ratio,
        final_ratio_b=last_b.norm_ratio,
        ratio_gap=abs(last_a.norm_ratio - last_b.norm_ratio),
        final_val_loss_a=last_a.val_loss,
        final_val_loss_b=last_b.val_loss,
        rel_val_loss=rel,
    )


def schedule_table_csv(spec: ScheduleSpec, cfg: OptimizerConfig, stride: int) -> str:
    """CSV of (t, eta_t, r_t, k_t) at t = 0, stride, ..., horizon: the values a
    step of cfg's variant applies (optim.applied_schedule), as a trace records them."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    steps = list(range(0, spec.horizon, stride)) + [spec.horizon]
    return _csv("t,eta_t,r_t,k_t", ((t, *optim.applied_schedule(spec, cfg, t)) for t in steps))
