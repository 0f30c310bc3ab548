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
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import optim
from .optim import OptimizerConfig, OptimizerState, Variant
from .params import ParamStore
from .schedules import (
    SCHEDULE_KEYS,
    ConfigError,
    PiecewiseLinearSpec,
    ScheduleSpec,
    TargetNormMode,
    parse_assignments,
    parse_choice,
)
from .tasks import TASK_NAMES, build_task


@dataclass(frozen=True)
class RunConfig:
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
        for name in ("dim", "hidden", "batch_size", "eval_every"):
            if getattr(self, name) < 1:
                raise ConfigError(name, f"must be a positive integer, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {self.seed}")
        # The rate peaks at eta_max; a rate above 1 would flip the weights' signs.
        if self.optimizer.decay_rate(self.schedules.eta.eta_max) > 1.0:
            raise ConfigError("weight_decay", f"{self.optimizer.weight_decay} gives a decay rate above 1")

    @property
    def steps(self) -> int:
        # Single source of truth: the run length is the schedule horizon.
        return self.schedules.horizon


@dataclass
class TraceRow:
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


TRACE_HEADER = ",".join(f.name for f in fields(TraceRow))


@dataclass
class RunTrace:
    rows: list[TraceRow]
    initial_norm: float

    @property
    def final_norm_ratio(self) -> float:
        return self.rows[-1].norm_ratio

    @property
    def final_val_loss(self) -> float:
        return self.rows[-1].val_loss

    def to_csv(self) -> str:
        lines = [TRACE_HEADER]
        names = TRACE_HEADER.split(",")[1:]
        for r in self.rows:
            lines.append(f"{r.t}," + ",".join(_fmt(getattr(r, n)) for n in names))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.to_csv())


def _fmt(x: float) -> str:
    # 17 significant digits: text round-trips to the exact double.
    return format(x, ".17g")


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
    Variant.NONE: ("rt", "kt", "target_mode", "lambda"),
    Variant.DECAY_COUPLED_LR: ("rt", "kt", "target_mode"),
    Variant.DECAY_DECOUPLED: ("rt", "kt", "target_mode"),
    Variant.COUPLED_SGD: ("rt", "kt", "target_mode", "eta", "beta1", "beta2", "epsilon"),
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
    """Execute the full training loop and return the logged trace.

    Logs every eval_every steps and at the final step; the controlled norm
    is measured for those rows only. Any component error, or a non-finite
    loss or gradient, aborts with the failing step index before the
    optimizer sees that step's gradient.
    """
    task, store, rng = initialize_run(config)
    state = OptimizerState.zeros(store.theta.size)
    sched = config.schedules
    rows: list[TraceRow] = []
    for t in range(1, config.steps + 1):
        try:
            batch = task.sample_batch(rng, config.batch_size)
            train_loss, g = task.loss_and_grad(store.theta, batch)
            if not math.isfinite(train_loss):
                raise FloatingPointError(f"non-finite training loss {train_loss}")
            if not np.isfinite(g).all():
                raise FloatingPointError("non-finite gradient")
            report = optim.step(store, state, g, t, sched, config.optimizer)
        except Exception as e:
            raise RuntimeError(f"run aborted at step {t}: {e}") from e
        if t % config.eval_every == 0 or t == config.steps:
            val_loss, _ = task.loss_and_grad(store.theta, task.val_batch())
            norm = store.controlled_norm()
            rows.append(TraceRow(
                t=t,
                train_loss=train_loss,
                val_loss=val_loss,
                eta_t=report.eta_t,
                r_t=report.r_t,
                k_t=report.k_t,
                target_norm=report.target_norm,
                actual_norm=norm,
                norm_ratio=norm / store.initial_norm,
                grad_norm=float(np.linalg.norm(g)),
            ))
    return RunTrace(rows, store.initial_norm)


def calibrate_rt_from_run(reference_trace: RunTrace) -> PiecewiseLinearSpec:
    """Schedule rt to follow the reference run's measured norm trajectory.

    Breakpoints are (0, 1.0) and (t, norm_ratio) for every row of the
    reference trace: linear in between, so at each of those steps rt is the
    measured ratio exactly.
    """
    for row in reference_trace.rows:
        if row.norm_ratio <= 0.0:
            raise ValueError(f"reference norm ratio must be > 0, got {row.norm_ratio} at t={row.t}")
    return PiecewiseLinearSpec.linear([(0, 1.0)] + [(row.t, row.norm_ratio)
                                                    for row in reference_trace.rows])


@dataclass
class ComparisonReport:
    trace_a: RunTrace
    trace_b: RunTrace
    final_ratio_a: float
    final_ratio_b: float
    ratio_gap: float
    final_val_loss_a: float
    final_val_loss_b: float
    rel_val_loss: list[tuple[int, float]]  # (t, val_loss_b / val_loss_a)


def _experiment(config: RunConfig) -> dict:
    """The config keys, by their text names, that fix what a run learns and logs."""
    return {"task": config.task, "dim": config.dim, "hidden": config.hidden,
            "batch_size": config.batch_size, "seed": config.seed,
            "eval_every": config.eval_every, "control_biases": config.control_biases,
            "T": config.schedules.horizon, "eta": config.schedules.eta}


def compare(config_a: RunConfig, config_b_template: RunConfig) -> ComparisonReport:
    """Run a decay reference, calibrate rt from it, run norm control, report.

    config_b_template must use the NORM_CONTROL variant with a relative
    target_mode, and describe A's experiment: every key of _experiment equal
    to A's. Its rt schedule is replaced by A's measured norm trajectory
    (calibrate_rt_from_run). All of this is checked before config_a runs.
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
    if config_b_template.schedules.target_mode is not TargetNormMode.RELATIVE:
        raise ConfigError("target_mode", "template B must be relative, since the "
                                         "calibrated rt is a norm ratio")
    trace_a = run(config_a)
    rt = calibrate_rt_from_run(trace_a)
    config_b = replace(config_b_template,
                       schedules=replace(config_b_template.schedules, rt=rt))
    trace_b = run(config_b)

    loss_a = {r.t: r.val_loss for r in trace_a.rows}
    rel = [(r.t, r.val_loss / loss_a[r.t]) for r in trace_b.rows
           if r.t in loss_a and loss_a[r.t] != 0.0]
    return ComparisonReport(
        trace_a=trace_a,
        trace_b=trace_b,
        final_ratio_a=trace_a.final_norm_ratio,
        final_ratio_b=trace_b.final_norm_ratio,
        ratio_gap=abs(trace_a.final_norm_ratio - trace_b.final_norm_ratio),
        final_val_loss_a=trace_a.final_val_loss,
        final_val_loss_b=trace_b.final_val_loss,
        rel_val_loss=rel,
    )


def emit_schedule_table(spec: ScheduleSpec, stride: int) -> list[tuple[int, float, float, float]]:
    """Tabulate (t, eta_t, r_t, k_t) at t = 0, stride, ..., horizon."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    steps = list(range(0, spec.horizon, stride)) + [spec.horizon]
    return [(t, spec.eta_at(t), spec.rt_at(t), spec.kt_at(t)) for t in steps]


def schedule_table_csv(spec: ScheduleSpec, stride: int) -> str:
    lines = ["t,eta_t,r_t,k_t"]
    for t, eta, r, k in emit_schedule_table(spec, stride):
        lines.append(f"{t},{_fmt(eta)},{_fmt(r)},{_fmt(k)}")
    return "\n".join(lines) + "\n"
