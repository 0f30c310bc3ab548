"""Step-indexed hyperparameter schedules and their text format.

Three schedules drive a run: eta (learning-rate multiplier, cosine-annealed
with optional linear warmup), rt (target norm ratio, piecewise linear) and
kt (norm update rate, piecewise linear or constant). All evaluators are pure
functions of (spec, t).

Text format, one assignment per line, ``#`` starts a comment::

    T = 5000
    eta = cosine(1.0, 0.1, warmup=100)
    rt = linear(0:1.0, 2500:2.415)
    kt = const(0.01)
    target_mode = relative
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .optim import OptimizerConfig


class TargetNormMode(Enum):
    """How rt is interpreted: a multiple of the initial norm, or a raw norm."""

    RELATIVE = "relative"
    ABSOLUTE = "absolute"

    def target(self, r_t: float, initial_norm: float) -> float:
        """The norm r_t asks for: r_t * initial_norm (relative) or r_t (absolute)."""
        return r_t * initial_norm if self is TargetNormMode.RELATIVE else r_t


class ScheduleParseError(ValueError):
    """Malformed schedule text; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ScheduleValidationError(ValueError):
    """A config value is missing or violates a schedule invariant; names the key."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


@dataclass(frozen=True)
class CosineSpec:
    """Half-cosine annealing from eta_max to eta_min, optional linear warmup."""

    eta_max: float = 1.0
    eta_min: float = 0.1
    warmup_steps: int = 0

    def validate(self) -> None:
        if not (0.0 < self.eta_min <= self.eta_max):
            raise ScheduleValidationError("eta", "requires 0 < eta_min <= eta_max")
        if self.eta_max > 1.0:
            raise ScheduleValidationError("eta", "eta_max must be <= 1 (multiplier in (0, 1])")
        if self.warmup_steps < 0:
            raise ScheduleValidationError("eta.warmup", "warmup_steps must be >= 0")


def cosine_value(spec: CosineSpec, t: int, horizon: int) -> float:
    """Evaluate the eta multiplier at step t of a run of `horizon` steps.

    Warmup ramps linearly from eta_max/warmup_steps up to eta_max; the cosine
    phase then starts at eta_max exactly and ends at eta_min exactly at t ==
    horizon (cos(pi) is exact in IEEE double).
    """
    if t < 0:
        raise ValueError(f"step index must be >= 0, got {t}")
    if t > horizon:
        raise ValueError(f"schedule exhausted: t={t} beyond horizon T={horizon}")
    if horizon <= spec.warmup_steps:
        raise ValueError("horizon must exceed warmup_steps")
    if t < spec.warmup_steps:
        return spec.eta_max * (t + 1) / spec.warmup_steps
    span = horizon - spec.warmup_steps
    phase = math.pi * (t - spec.warmup_steps) / span
    return spec.eta_min + 0.5 * (spec.eta_max - spec.eta_min) * (1.0 + math.cos(phase))


@dataclass(frozen=True)
class PiecewiseLinearSpec:
    """Breakpoints (t, value); linear between, constant after the last one."""

    points: tuple[tuple[int, float], ...]

    @classmethod
    def const(cls, value: float) -> "PiecewiseLinearSpec":
        return cls(((0, float(value)),))

    @classmethod
    def linear(cls, points) -> "PiecewiseLinearSpec":
        return cls(tuple((int(t), float(v)) for t, v in points))

    def validate(self, field_name: str, lo: float | None = None, hi: float | None = None) -> None:
        if not self.points:
            raise ScheduleValidationError(field_name, "needs at least one breakpoint")
        if self.points[0][0] != 0:
            raise ScheduleValidationError(field_name, "first breakpoint must be at t=0")
        for (t0, _), (t1, _) in zip(self.points, self.points[1:]):
            if t1 <= t0:
                raise ScheduleValidationError(field_name, "breakpoints must be strictly increasing in t")
        for _, v in self.points:
            if not math.isfinite(v):
                raise ScheduleValidationError(field_name, f"value {v} is not finite")
            if lo is not None and v < lo:
                raise ScheduleValidationError(field_name, f"value {v} below allowed minimum {lo}")
            if hi is not None and v > hi:
                raise ScheduleValidationError(field_name, f"value {v} above allowed maximum {hi}")

    def value_at(self, t: int) -> float:
        """Linear interpolation; exact at breakpoints, constant past the last."""
        if t < 0:
            raise ValueError(f"step index must be >= 0, got {t}")
        pts = self.points
        if t >= pts[-1][0]:
            return pts[-1][1]
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if t == t0:
                return v0
            if t0 < t < t1:
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return pts[0][1]


@dataclass(frozen=True)
class ScheduleSpec:
    """All schedules for one run of horizon steps."""

    horizon: int
    eta: CosineSpec = CosineSpec()
    rt: PiecewiseLinearSpec = PiecewiseLinearSpec.const(0.0)
    kt: PiecewiseLinearSpec = PiecewiseLinearSpec.const(0.01)
    target_mode: TargetNormMode = TargetNormMode.RELATIVE

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.horizon <= 0:
            raise ScheduleValidationError("T", "horizon must be a positive integer")
        self.eta.validate()
        if self.horizon <= self.eta.warmup_steps:
            raise ScheduleValidationError("T", "horizon must exceed eta warmup_steps")
        self.rt.validate("rt", lo=0.0)
        self.kt.validate("kt", lo=0.0, hi=1.0)
        for spec, name in ((self.rt, "rt"), (self.kt, "kt")):
            if spec.points[-1][0] > self.horizon:
                raise ScheduleValidationError(name, "last breakpoint beyond horizon T")

    def eta_at(self, t: int) -> float:
        return cosine_value(self.eta, t, self.horizon)

    def rt_at(self, t: int) -> float:
        return self.rt.value_at(t)

    def kt_at(self, t: int) -> float:
        return self.kt.value_at(t)


@dataclass(frozen=True)
class EtaTiedKt:
    """Norm-control schedules that reproduce a weight-decay variant exactly.

    r_t = 0 and k_t = decay_cfg.decay_rate(eta_t), the rate optim.step
    applies under decay_cfg's variant, so norm control under these schedules
    matches that variant bit for bit.
    """

    base: ScheduleSpec
    decay_cfg: OptimizerConfig
    target_mode = TargetNormMode.RELATIVE

    def eta_at(self, t: int) -> float:
        return self.base.eta_at(t)

    def rt_at(self, t: int) -> float:
        return 0.0

    def kt_at(self, t: int) -> float:
        return self.decay_cfg.decay_rate(self.base.eta_at(t))


_ASSIGN_RE = re.compile(r"^(\w+)\s*=\s*(.+)$")
_CALL_RE = re.compile(r"^(\w+)\s*\((.*)\)$")


def parse_choice(enum_type):
    """Value parser for an Enum: the member whose value is the text."""
    def parse(value: str):
        try:
            return enum_type(value)
        except ValueError:
            raise ValueError(f"expected one of {[m.value for m in enum_type]}, got {value!r}") from None
    return parse


def _parse_piecewise(value: str) -> PiecewiseLinearSpec:
    m = _CALL_RE.match(value)
    if m is None:
        raise ValueError(f"expected const(...) or linear(...), got {value!r}")
    func, args = m.groups()
    if func == "const":
        try:
            return PiecewiseLinearSpec.const(float(args))
        except ValueError:
            raise ValueError(f"const() needs one number, got {args!r}") from None
    if func == "linear":
        points = []
        for part in args.split(","):
            ts, sep, vs = part.partition(":")
            if not sep:
                raise ValueError(f"linear() entries look like t:value, got {part.strip()!r}")
            try:
                points.append((int(ts), float(vs)))
            except ValueError:
                raise ValueError(f"bad breakpoint {part.strip()!r}") from None
        return PiecewiseLinearSpec.linear(points)
    raise ValueError(f"unknown schedule kind {func!r}")


def _parse_cosine(value: str) -> CosineSpec:
    m = _CALL_RE.match(value)
    if m is None or m.group(1) != "cosine":
        raise ValueError(f"expected cosine(max, min[, warmup=n]), got {value!r}")
    args = [a.strip() for a in m.group(2).split(",") if a.strip()]
    if len(args) < 2:
        raise ValueError("cosine() needs eta_max and eta_min")
    warmup = 0
    if len(args) == 3:
        wm = re.match(r"^warmup\s*=\s*(\d+)$", args[2])
        if wm is None:
            raise ValueError(f"third argument must be warmup=<int>, got {args[2]!r}")
        warmup = int(wm.group(1))
    elif len(args) > 3:
        raise ValueError("too many arguments to cosine()")
    try:
        return CosineSpec(float(args[0]), float(args[1]), warmup)
    except ValueError:
        raise ValueError(f"non-numeric cosine() arguments {value!r}") from None


# Schedule text key -> (dataclass, field, value parser). Defaults and range
# checks live in the dataclasses; T is required because horizon has no default.
SCHEDULE_KEYS = {
    "T": (ScheduleSpec, "horizon", int),
    "eta": (ScheduleSpec, "eta", _parse_cosine),
    "rt": (ScheduleSpec, "rt", _parse_piecewise),
    "kt": (ScheduleSpec, "kt", _parse_piecewise),
    "target_mode": (ScheduleSpec, "target_mode", parse_choice(TargetNormMode)),
}


def parse_assignments(text: str, keys: dict) -> dict:
    """One pass over the ``key = value`` lines of text through a key table.

    keys maps each accepted key to (dataclass, field, parser), or to None for
    a key that is known but skipped unread. Returns {dataclass: {field:
    value}}. Blank lines and ``#`` comments are dropped; a malformed line, an
    unknown or repeated key, or a value its parser rejects raises
    ScheduleParseError with the line number. A key whose field has no
    default in its dataclass is required.
    """
    fields: dict = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _ASSIGN_RE.match(line)
        if m is None:
            raise ScheduleParseError(lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, value = m.group(1), m.group(2).strip()
        if key not in keys:
            raise ScheduleParseError(lineno, f"unknown key {key!r}")
        if key in first_line:
            raise ScheduleParseError(lineno, f"duplicate key {key!r} (first set on line {first_line[key]})")
        first_line[key] = lineno
        if keys[key] is None:
            continue
        owner, name, parse = keys[key]
        try:
            fields.setdefault(owner, {})[name] = parse(value)
        except ValueError as e:
            raise ScheduleParseError(lineno, f"{key}: {e}") from None
    for key, entry in keys.items():
        if entry is not None and key not in first_line:
            field_def = entry[0].__dataclass_fields__[entry[1]]
            if field_def.default is MISSING and field_def.default_factory is MISSING:
                raise ScheduleValidationError(key, "missing required key")
    return fields


def parse_schedule_spec(text: str) -> ScheduleSpec:
    """Parse the line-oriented schedule format into a validated ScheduleSpec.

    Every key must be a schedule key.
    """
    return ScheduleSpec(**parse_assignments(text, SCHEDULE_KEYS)[ScheduleSpec])


def _format_piecewise(spec: PiecewiseLinearSpec) -> str:
    if len(spec.points) == 1:
        return f"const({spec.points[0][1]!r})"
    return "linear(" + ", ".join(f"{t}:{v!r}" for t, v in spec.points) + ")"


def format_schedule_spec(spec: ScheduleSpec) -> str:
    """Serialize so that re-parsing yields an equal spec."""
    lines = [
        f"T = {spec.horizon}",
        f"eta = cosine({spec.eta.eta_max!r}, {spec.eta.eta_min!r}, warmup={spec.eta.warmup_steps})",
        f"rt = {_format_piecewise(spec.rt)}",
        f"kt = {_format_piecewise(spec.kt)}",
        f"target_mode = {spec.target_mode.value}",
    ]
    return "\n".join(lines) + "\n"
