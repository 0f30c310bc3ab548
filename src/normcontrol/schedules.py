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
"""

from __future__ import annotations

import math
import numbers
import re
from bisect import bisect_right
from dataclasses import MISSING, dataclass


class ConfigError(ValueError):
    """A config mistake, naming its key and, when there is one, its line.

    A dataclass check names its field; the parse pass renames it to the text
    key. key is None for a line that is no assignment or names an unknown key."""

    def __init__(self, key: str | None, message: str, line: int | None = None):
        self.key, self.message, self.line = key, message, line
        text = message if key is None else f"{key}: {message}"
        super().__init__(text if line is None else f"line {line}: {text}")


def is_integer(value) -> bool:
    """An int or a numpy integer; a bool is neither here, though True == 1."""
    # The exact-type test first: the ABC check costs about 1 us, and stores build groups often.
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


@dataclass(frozen=True)
class CosineSpec:
    """Half-cosine annealing from eta_max to eta_min, optional linear warmup."""

    eta_max: float = 1.0
    eta_min: float = 0.1
    warmup_steps: int = 0

    def validate(self, field_name: str) -> None:
        if not (0.0 < self.eta_min <= self.eta_max):
            raise ConfigError(field_name, "requires 0 < eta_min <= eta_max")
        if self.eta_max > 1.0:
            raise ConfigError(field_name, "eta_max must be <= 1 (multiplier in (0, 1])")
        if not is_integer(self.warmup_steps):
            raise ConfigError(field_name,
                              f"warmup_steps must be an integer, got {self.warmup_steps!r}")
        if self.warmup_steps < 0:
            raise ConfigError(field_name, "warmup_steps must be >= 0")


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
        """(t, v) pairs as breakpoints; a t that is no integer is kept for validate to reject."""
        return cls(tuple((int(t) if is_integer(t) else t, float(v)) for t, v in points))

    def validate(self, field_name: str, lo: float | None = None, hi: float | None = None) -> None:
        for t, _ in self.points:
            if not is_integer(t):
                raise ConfigError(field_name, f"breakpoint step must be an integer, got {t!r}")
        if not self.points or self.points[0][0] != 0:
            raise ConfigError(field_name, "needs a first breakpoint at t=0")
        for (t0, _), (t1, _) in zip(self.points, self.points[1:]):
            if t1 <= t0:
                raise ConfigError(field_name, "breakpoints must be strictly increasing in t")
        for _, v in self.points:
            if not math.isfinite(v):
                raise ConfigError(field_name, f"value {v} is not finite")
            if lo is not None and v < lo:
                raise ConfigError(field_name, f"value {v} below allowed minimum {lo}")
            if hi is not None and v > hi:
                raise ConfigError(field_name, f"value {v} above allowed maximum {hi}")

    def value_at(self, t: int) -> float:
        """Linear interpolation; exact at breakpoints, constant past the last."""
        if t < 0:
            raise ValueError(f"step index must be >= 0, got {t}")
        pts = self.points
        i = bisect_right(pts, t, key=lambda point: point[0])  # pts[i - 1][0] <= t < pts[i][0]
        if i == len(pts):
            return pts[-1][1]
        (t0, v0), (t1, v1) = pts[max(i - 1, 0)], pts[i]
        if t <= t0:
            return v0
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


@dataclass(frozen=True)
class ScheduleSpec:
    """All schedules for one run of horizon steps."""

    horizon: int
    eta: CosineSpec = CosineSpec()
    rt: PiecewiseLinearSpec = PiecewiseLinearSpec.const(0.0)
    kt: PiecewiseLinearSpec = PiecewiseLinearSpec.const(0.01)
    target_mode = "relative"  # not a field; benchmarks/workloads.py passes it to oracle_step

    def __post_init__(self):
        if not is_integer(self.horizon):
            raise ConfigError("horizon", f"must be an integer, got {self.horizon!r}")
        if self.horizon <= 0:
            raise ConfigError("horizon", f"must be a positive integer, got {self.horizon}")
        if self.horizon > 2**53:  # up to it, every step index is an exact double
            raise ConfigError("horizon", f"must be at most 2**53, got {self.horizon}")
        self.eta.validate("eta")
        if self.horizon <= self.eta.warmup_steps:
            raise ConfigError("horizon", f"must exceed eta's warmup_steps ({self.eta.warmup_steps})")
        self.rt.validate("rt", lo=0.0)
        self.kt.validate("kt", lo=0.0, hi=1.0)
        for spec, name in ((self.rt, "rt"), (self.kt, "kt")):
            if spec.points[-1][0] > self.horizon:
                raise ConfigError(name, f"last breakpoint beyond horizon {self.horizon}")

    def eta_at(self, t: int) -> float:
        return cosine_value(self.eta, t, self.horizon)

    def rt_at(self, t: int) -> float:
        return self.rt.value_at(t)

    def kt_at(self, t: int) -> float:
        return self.kt.value_at(t)


_ASSIGN_RE = re.compile(r"^(\w+)\s*=\s*(.+)$")
_CALL_RE = re.compile(r"^(\w+)\s*\((.*)\)$")
_WARMUP_RE = re.compile(r"^warmup\s*=\s*(\d+)$")


def parse_choice(enum_type):
    """Value parser for an Enum: the member whose value is the text."""
    def parse(value: str):
        try:
            return enum_type(value)
        except ValueError:
            raise ValueError(f"expected one of {[m.value for m in enum_type]}, got {value!r}") from None
    return parse


def _call_args(value: str) -> tuple[str | None, list[str]]:
    """The kind and the stripped arguments of the text ``kind(a, b, ...)``;
    the kind is None for any other text."""
    m = _CALL_RE.match(value)
    if m is None:
        return None, []
    return m.group(1), [arg.strip() for arg in m.group(2).split(",")]


def _parse_piecewise(value: str) -> PiecewiseLinearSpec:
    kind, args = _call_args(value)
    try:
        if kind == "const" and len(args) == 1:
            return PiecewiseLinearSpec.const(float(args[0]))
        if kind == "linear":
            pairs = (arg.split(":") for arg in args)
            return PiecewiseLinearSpec.linear((int(t), v) for t, v in pairs)
    except ValueError:  # a number that does not parse, or an entry that is no t:v pair
        pass
    raise ValueError(f"expected const(v) or linear(t:v, ...), got {value!r}")


def _parse_cosine(value: str) -> CosineSpec:
    kind, args = _call_args(value)
    try:
        if kind == "cosine" and len(args) == 2:
            return CosineSpec(float(args[0]), float(args[1]))
        if kind == "cosine" and len(args) == 3 and (warmup := _WARMUP_RE.match(args[2])):
            return CosineSpec(float(args[0]), float(args[1]), int(warmup.group(1)))
    except ValueError:  # a number that does not parse
        pass
    raise ValueError(f"expected cosine(max, min[, warmup=n]), got {value!r}")


# Schedule text key -> (dataclass, field, value parser). Defaults and range
# checks live in the dataclasses; T is required because horizon has no default.
SCHEDULE_KEYS = {
    "T": (ScheduleSpec, "horizon", int),
    "eta": (ScheduleSpec, "eta", _parse_cosine),
    "rt": (ScheduleSpec, "rt", _parse_piecewise),
    "kt": (ScheduleSpec, "kt", _parse_piecewise),
}


def parse_assignments(text: str, keys: dict, build):
    """One pass over the ``key = value`` lines of text through a key table.

    keys maps each accepted key to (dataclass, field, parser). Returns
    (build({dataclass: {field: value}}), {key: line}). Blank lines and ``#``
    comments are dropped. A malformed line, an unknown or repeated key, a
    value a parser or a dataclass check rejects, or a missing required key
    (its field has no default) raises ConfigError with the key and, if it
    was set, its line.
    """
    fields: dict = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _ASSIGN_RE.match(line)
        if m is None:
            raise ConfigError(None, f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, value = m.group(1), m.group(2).strip()
        if key not in keys:
            raise ConfigError(None, f"unknown key {key!r}", lineno)
        if key in lines:
            raise ConfigError(key, f"duplicate key (first set on line {lines[key]})", lineno)
        lines[key] = lineno
        owner, name, parse = keys[key]
        try:
            fields.setdefault(owner, {})[name] = parse(value)
        except ValueError as e:
            raise ConfigError(key, str(e), lineno) from None
    for key, (owner, name, _) in keys.items():
        if key not in lines:
            field_def = owner.__dataclass_fields__[name]
            if field_def.default is MISSING and field_def.default_factory is MISSING:
                raise ConfigError(key, "missing required key")
    try:
        return build(fields), lines
    except ConfigError as e:
        key = next((k for k, (_, name, _) in keys.items() if name == e.key), e.key)
        raise ConfigError(key, e.message, lines.get(key)) from None


def parse_schedule_spec(text: str) -> ScheduleSpec:
    """Parse the line-oriented schedule format into a validated ScheduleSpec."""
    return parse_assignments(text, SCHEDULE_KEYS,
                             lambda fields: ScheduleSpec(**fields[ScheduleSpec]))[0]

