"""Weight norm control: decoupled weight decay generalized to a scheduled
target norm, with Adam, schedules, desk-scale tasks and a run harness."""

from .harness import (
    ComparisonReport,
    RunConfig,
    RunTrace,
    calibrate_rt_from_run,
    compare,
    parse_run_config,
    run,
)
from .optim import (
    EtaTiedKt,
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
    PiecewiseLinearSpec,
    ScheduleSpec,
    parse_schedule_spec,
)
from .tasks import build_task, finite_diff_check
from .verify import OracleState, oracle_from_store, oracle_step, property_suite

__version__ = "0.1.0"
