import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcontrol.schedules import (
    SCHEDULE_KEYS,
    CosineSpec,
    PiecewiseLinearSpec,
    ScheduleParseError,
    ScheduleSpec,
    ScheduleValidationError,
    TargetNormMode,
    cosine_value,
    format_schedule_spec,
    parse_assignments,
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


class TestParse:
    def test_rt_linear(self):
        spec = parse_schedule_spec("T = 5000\nrt = linear(0:1.0, 2500:2.415)\n")
        assert spec.rt.points == ((0, 1.0), (2500, 2.415))

    def test_kt_const(self):
        spec = parse_schedule_spec("T = 100\nkt = const(0.01)\n")
        assert spec.kt.points == ((0, 0.01),)

    def test_kt_out_of_range_names_field(self):
        with pytest.raises(ScheduleValidationError, match="kt"):
            parse_schedule_spec("T = 100\nkt = const(1.5)\n")

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(ScheduleParseError, match="line 3"):
            parse_schedule_spec("T = 100\n# fine\nthis is not an assignment\n")

    def test_unknown_key_rejected_unless_allowed(self):
        text = "T = 10\nbogus = 1\n"
        with pytest.raises(ScheduleParseError, match="line 2: unknown key 'bogus'"):
            parse_schedule_spec(text)
        # a key the table maps to None is known and skipped unread
        assert parse_assignments(text, SCHEDULE_KEYS | {"bogus": None}) == {
            ScheduleSpec: {"horizon": 10}}

    def test_comments_and_blanks_ignored(self):
        spec = parse_schedule_spec("\n# header\nT = 42  # trailing\n\n")
        assert spec.horizon == 42

    def test_missing_horizon(self):
        with pytest.raises(ScheduleValidationError, match="T"):
            parse_schedule_spec("kt = const(0.5)\n")

    def test_duplicate_key(self):
        with pytest.raises(ScheduleParseError, match="duplicate"):
            parse_schedule_spec("T = 10\nT = 20\n")

    def test_eta_warmup_and_mode(self):
        spec = parse_schedule_spec(
            "T = 100\neta = cosine(0.9, 0.2, warmup=7)\ntarget_mode = absolute\n"
        )
        assert spec.eta == CosineSpec(0.9, 0.2, 7)
        assert spec.target_mode is TargetNormMode.ABSOLUTE

    def test_eta_max_above_one_rejected(self):
        with pytest.raises(ScheduleValidationError, match="eta"):
            parse_schedule_spec("T = 100\neta = cosine(1.5, 0.1)\n")

    def test_rt_negative_rejected(self):
        with pytest.raises(ScheduleValidationError, match="rt"):
            parse_schedule_spec("T = 100\nrt = const(-0.5)\n")

    def test_breakpoints_must_increase(self):
        with pytest.raises(ScheduleValidationError, match="increasing"):
            parse_schedule_spec("T = 100\nrt = linear(0:1.0, 50:2.0, 50:3.0)\n")

    def test_breakpoint_beyond_horizon(self):
        with pytest.raises(ScheduleValidationError, match="horizon"):
            parse_schedule_spec("T = 100\nrt = linear(0:1.0, 200:2.0)\n")


def test_roundtrip_example():
    spec = parse_schedule_spec(
        "T = 5000\neta = cosine(1.0, 0.1)\nrt = linear(0:1.0, 2500:2.415)\n"
        "kt = const(0.01)\ntarget_mode = relative\n"
    )
    assert parse_schedule_spec(format_schedule_spec(spec)) == spec


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


@settings(max_examples=200, deadline=None)
@given(schedule_specs())
def test_roundtrip_property(spec):
    spec.validate()
    assert parse_schedule_spec(format_schedule_spec(spec)) == spec


@settings(max_examples=100, deadline=None)
@given(schedule_specs(), st.integers(0, 100_000))
def test_evaluators_are_pure(spec, t):
    assert spec.rt_at(t) == spec.rt_at(t)
    assert spec.kt_at(t) == spec.kt_at(t)
    t_eta = min(t, spec.horizon)
    assert spec.eta_at(t_eta) == spec.eta_at(t_eta)
