import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcontrol.schedules import (
    ConfigError,
    CosineSpec,
    PiecewiseLinearSpec,
    ScheduleSpec,
    TargetNormMode,
    cosine_value,
    parse_schedule_spec,
)


class TestCosine:
    def test_start_is_eta_max_exactly(self):
        assert cosine_value(CosineSpec(1.0, 0.1), 0, 1000) == 1.0

    def test_end_is_eta_min_exactly(self):
        assert cosine_value(CosineSpec(1.0, 0.1), 1000, 1000) == 0.1

    def test_midpoint(self):
        assert cosine_value(CosineSpec(1.0, 0.1), 500, 1000) == pytest.approx(0.55, rel=1e-15)

    def test_exhausted_beyond_horizon(self):
        with pytest.raises(ValueError, match="schedule exhausted"):
            cosine_value(CosineSpec(), 1001, 1000)

    def test_warmup_ramp(self):
        spec = CosineSpec(1.0, 0.1, warmup_steps=10)
        assert cosine_value(spec, 0, 100) == pytest.approx(0.1)  # eta_max / warmup
        assert cosine_value(spec, 9, 100) == pytest.approx(1.0)
        assert cosine_value(spec, 10, 100) == 1.0  # cosine phase starts at eta_max
        assert cosine_value(spec, 100, 100) == 0.1

    def test_monotone_after_warmup(self):
        spec = CosineSpec(1.0, 0.1, warmup_steps=5)
        vals = [cosine_value(spec, t, 200) for t in range(5, 201)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestPiecewiseLinear:
    RAMP = PiecewiseLinearSpec.linear([(0, 1.0), (2500, 2.415)])

    def test_ramp_start(self):
        assert self.RAMP.value_at(0) == 1.0

    def test_ramp_end_exact(self):
        assert self.RAMP.value_at(2500) == 2.415

    def test_linear_midpoint(self):
        assert self.RAMP.value_at(1250) == pytest.approx(1.7075, rel=1e-15)

    def test_constant_after_last_breakpoint(self):
        assert self.RAMP.value_at(100_000) == 2.415

    def test_exact_at_every_breakpoint(self):
        spec = PiecewiseLinearSpec.linear([(0, 0.3), (7, 1.1), (19, 0.7), (40, 2.9)])
        for t, v in spec.points:
            assert spec.value_at(t) == v

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            self.RAMP.value_at(-1)

    @staticmethod
    def scan_value_at(points, t):
        """Reference: the segment found by a linear scan, the same formula."""
        if t >= points[-1][0]:
            return points[-1][1]
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            if t == t0:
                return v0
            if t0 < t < t1:
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return points[0][1]

    def test_bisection_equals_the_linear_scan_bit_for_bit(self):
        rng = random.Random(11)
        for n in (1, 2, 3, 61, 601, 3001, *(rng.randint(4, 300) for _ in range(6))):
            ts = [0]
            for _ in range(n - 1):
                ts.append(ts[-1] + rng.randint(1, 3))
            spec = PiecewiseLinearSpec.linear(
                (t, rng.choice([0.0, -0.0, 1.0, rng.uniform(-1e3, 1e3)])) for t in ts)
            spec.validate("rt")
            for t in range(ts[-1] + 6):
                assert spec.value_at(t).hex() == self.scan_value_at(spec.points, t).hex(), (n, t)


class TestParse:
    def test_rt_linear(self):
        spec = parse_schedule_spec("T = 5000\nrt = linear(0:1.0, 2500:2.415)\n")
        assert spec.rt.points == ((0, 1.0), (2500, 2.415))

    def test_kt_const(self):
        spec = parse_schedule_spec("T = 100\nkt = const(0.01)\n")
        assert spec.kt.points == ((0, 0.01),)

    def test_kt_out_of_range_names_field(self):
        with pytest.raises(ConfigError, match=r"^line 2: kt: value 1.5 above allowed maximum 1.0$"):
            parse_schedule_spec("T = 100\nkt = const(1.5)\n")

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(ConfigError, match="^line 3: expected 'key = value'"):
            parse_schedule_spec("T = 100\n# fine\nthis is not an assignment\n")

    def test_unknown_key_rejected_unless_allowed(self):
        text = "T = 10\nbogus = 1\n"
        with pytest.raises(ConfigError, match="^line 2: unknown key 'bogus'$"):
            parse_schedule_spec(text)

    def test_comments_and_blanks_ignored(self):
        spec = parse_schedule_spec("\n# header\nT = 42  # trailing\n\n")
        assert spec.horizon == 42

    def test_missing_horizon(self):
        with pytest.raises(ConfigError, match="^T: missing required key$"):
            parse_schedule_spec("kt = const(0.5)\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match=r"^line 2: T: duplicate key \(first set on line 1\)$"):
            parse_schedule_spec("T = 10\nT = 20\n")

    def test_eta_warmup_and_mode(self):
        spec = parse_schedule_spec(
            "T = 100\neta = cosine(0.9, 0.2, warmup=7)\ntarget_mode = absolute\n"
        )
        assert spec.eta == CosineSpec(0.9, 0.2, 7)
        assert spec.target_mode is TargetNormMode.ABSOLUTE

    def test_eta_max_above_one_rejected(self):
        with pytest.raises(ConfigError, match="^line 2: eta: "):
            parse_schedule_spec("T = 100\neta = cosine(1.5, 0.1)\n")

    def test_rt_negative_rejected(self):
        with pytest.raises(ConfigError, match="^line 2: rt: "):
            parse_schedule_spec("T = 100\nrt = const(-0.5)\n")

    def test_breakpoints_must_increase(self):
        with pytest.raises(ConfigError, match="^line 2: rt: .*increasing"):
            parse_schedule_spec("T = 100\nrt = linear(0:1.0, 50:2.0, 50:3.0)\n")

    def test_breakpoint_beyond_horizon(self):
        with pytest.raises(ConfigError, match="^line 2: rt: .*horizon"):
            parse_schedule_spec("T = 100\nrt = linear(0:1.0, 200:2.0)\n")

    def test_error_carries_the_key_and_its_line(self):
        # the dataclass names its field; the parse pass names the key and line
        with pytest.raises(ConfigError) as built:
            ScheduleSpec(horizon=0)
        assert (built.value.key, built.value.line) == ("horizon", None)
        assert str(built.value) == "horizon: must be a positive integer, got 0"
        with pytest.raises(ConfigError) as parsed:
            parse_schedule_spec("# a comment\nkt = const(0.5)\nT = 0\n")
        assert (parsed.value.key, parsed.value.line) == ("T", 3)
        assert str(parsed.value) == "line 3: T: must be a positive integer, got 0"

    def test_target_mode_must_be_a_target_norm_mode(self):
        # Text is not a TargetNormMode: a spec built with it used to fail at step 1.
        with pytest.raises(ConfigError) as e:
            ScheduleSpec(horizon=10, target_mode="relative")
        assert str(e.value) == "target_mode: must be a TargetNormMode, got 'relative'"


@st.composite
def schedule_texts(draw):
    """(config text written from the drawn values, the ScheduleSpec they describe)."""
    horizon = draw(st.integers(10, 100_000))
    warmup = draw(st.integers(0, min(5, horizon - 2)))
    eta_min = draw(st.floats(1e-6, 0.5))
    eta_max = draw(st.floats(eta_min, 1.0))
    warmup_arg = f", warmup={warmup}" if warmup or draw(st.booleans()) else ""
    lines = [f"T = {horizon}", f"eta = cosine({eta_max!r}, {eta_min!r}{warmup_arg})"]
    fields = {"horizon": horizon, "eta": CosineSpec(eta_max, eta_min, warmup)}
    for key, hi in (("rt", 3.0), ("kt", 1.0)):
        n_pts = draw(st.integers(0, 3))
        ts = [0] + sorted(draw(st.sets(st.integers(1, horizon), min_size=n_pts, max_size=n_pts)))
        vals = draw(st.lists(st.floats(0.0, hi), min_size=n_pts + 1, max_size=n_pts + 1))
        if n_pts == 0:
            lines.append(f"{key} = const({vals[0]!r})")
        else:
            lines.append(f"{key} = linear(" + ", ".join(f"{t}:{v!r}" for t, v in zip(ts, vals)) + ")")
        fields[key] = PiecewiseLinearSpec.linear(zip(ts, vals))
    mode = draw(st.sampled_from(list(TargetNormMode)))
    lines.append(f"target_mode = {mode.value}")
    return "\n".join(lines) + "\n", ScheduleSpec(**fields, target_mode=mode)


def test_roundtrip_example():
    spec = parse_schedule_spec(
        "T = 5000\neta = cosine(1.0, 0.1)\nrt = linear(0:1.0, 2500:2.415)\n"
        "kt = const(0.01)\ntarget_mode = relative\n"
    )
    assert spec == ScheduleSpec(
        5000,
        CosineSpec(1.0, 0.1, 0),
        PiecewiseLinearSpec.linear([(0, 1.0), (2500, 2.415)]),
        PiecewiseLinearSpec.linear([(0, 0.01)]),
        TargetNormMode.RELATIVE,
    )


@settings(max_examples=200, deadline=None)
@given(schedule_texts())
def test_roundtrip_property(text_and_spec):
    """Values -> config text -> parse_schedule_spec gives back the same spec."""
    text, spec = text_and_spec
    assert parse_schedule_spec(text) == spec


@st.composite
def schedule_specs(draw):
    horizon = draw(st.integers(10, 100_000))
    warmup = draw(st.integers(0, min(5, horizon - 2)))
    eta_min = draw(st.floats(1e-6, 0.5, allow_nan=False))
    eta_max = draw(st.floats(eta_min, 1.0, allow_nan=False))
    n_pts = draw(st.integers(1, 4))
    ts = sorted(draw(st.sets(st.integers(1, horizon), min_size=n_pts, max_size=n_pts)))
    vals = draw(st.lists(st.floats(0.0, 3.0, allow_nan=False),
                         min_size=n_pts + 1, max_size=n_pts + 1))
    rt = PiecewiseLinearSpec.linear(list(zip([0] + ts, vals)))
    kt = PiecewiseLinearSpec.const(draw(st.floats(0.0, 1.0, allow_nan=False)))
    mode = draw(st.sampled_from(list(TargetNormMode)))
    return ScheduleSpec(horizon, CosineSpec(eta_max, eta_min, warmup), rt, kt, mode)


@settings(max_examples=100, deadline=None)
@given(schedule_specs(), st.integers(0, 100_000))
def test_evaluators_are_pure(spec, t):
    assert spec.rt_at(t) == spec.rt_at(t)
    assert spec.kt_at(t) == spec.kt_at(t)
    t_eta = min(t, spec.horizon)
    assert spec.eta_at(t_eta) == spec.eta_at(t_eta)
