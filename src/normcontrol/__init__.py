"""Weight norm control: decoupled weight decay generalized to a scheduled
target norm, with Adam, schedules, desk-scale tasks and a run harness."""

from .harness import (
    ComparisonReport,
    RunConfig,
    RunTrace,
    calibrate_rt_from_run,
    compare,
    emit_schedule_table,
    parse_run_config,
    run,
)
from .optim import (
    OptimizerConfig,
    OptimizerState,
    StepReport,
    Variant,
    regularize_norm_control,
    step,
)
from .params import ParamGroup, ParamStore
from .schedules import (
    CosineSpec,
    EtaTiedKt,
    PiecewiseLinearSpec,
    ScheduleSpec,
    TargetNormMode,
    format_schedule_spec,
    parse_schedule_spec,
)
from .tasks import build_task, finite_diff_check
from .verify import OracleState, oracle_from_store, oracle_step, property_suite

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "CosineSpec",
    "EtaTiedKt",
    "OptimizerConfig",
    "OptimizerState",
    "OracleState",
    "ParamGroup",
    "ParamStore",
    "PiecewiseLinearSpec",
    "RunConfig",
    "RunTrace",
    "ScheduleSpec",
    "StepReport",
    "TargetNormMode",
    "Variant",
    "build_task",
    "calibrate_rt_from_run",
    "compare",
    "emit_schedule_table",
    "finite_diff_check",
    "format_schedule_spec",
    "oracle_from_store",
    "oracle_step",
    "parse_run_config",
    "parse_schedule_spec",
    "property_suite",
    "regularize_norm_control",
    "run",
    "step",
]
