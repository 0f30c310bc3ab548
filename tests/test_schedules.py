import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcontrol.cli import main
from normcontrol.harness import parse_run_config
from normcontrol.schedules import (
    ConfigError,
    CosineSpec,
    PiecewiseLinearSpec,
    ScheduleSpec,
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

    @pytest.mark.parametrize("t, horizon, warmup, message", [
        (-1, 1000, 0, "step index must be >= 0, got -1"),
        (0, 10, 10, "horizon must exceed warmup_steps"),
        (0, 5, 10, "horizon must exceed warmup_steps"),
    ], ids=["negative-t", "horizon-at-warmup", "horizon-below-warmup"])
    def test_bad_step_or_horizon_rejected(self, t, horizon, warmup, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cosine_value(CosineSpec(1.0, 0.1, warmup), t, horizon)

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

    @pytest.mark.parametrize("line, message", [
        ("rt = 1.0", r"rt: expected const\(v\) or linear\(t:v, \.\.\.\), got '1\.0'"),
        ("kt = 0.5", r"kt: expected const\(v\) or linear\(t:v, \.\.\.\), got '0\.5'"),
        ("eta = 0.5", r"eta: expected cosine\(max, min\[, warmup=n\]\), got '0\.5'"),
    ], ids=["rt", "kt", "eta"])
    def test_a_value_that_is_no_call_rejected(self, line, message):
        with pytest.raises(ConfigError, match=f"^line 2: {message}$"):
            parse_schedule_spec(f"T = 10\n{line}\n")

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

    def test_eta_warmup(self):
        spec = parse_schedule_spec("T = 100\neta = cosine(0.9, 0.2, warmup=7)\n")
        assert spec.eta == CosineSpec(0.9, 0.2, 7)

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

    @pytest.mark.parametrize("T", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
    def test_a_horizon_above_2_pow_53_is_a_config_error(self, T, tmp_path):
        # Up to 2**53 every step index is an exact double; 10**400 failed late, with exit 3.
        assert parse_schedule_spec(f"T = {2**53}\n").horizon == 2**53
        with pytest.raises(ConfigError, match=r"^line 2: T: must be at most 2\*\*53, got \d+$"):
            parse_run_config(f"task = mlp\nT = {T}\n")
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"task = mlp\nT = {T}\n")
        out = tmp_path / "schedule.csv"
        assert main(["schedule", "--config", str(cfg), "--stride", "1", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("fields, message", [
        ({"horizon": 10.5}, "horizon: must be an integer, got 10.5"),
        ({"horizon": True}, "horizon: must be an integer, got True"),
        ({"horizon": 10, "eta": CosineSpec(1.0, 0.1, 2.5)},
         "eta: warmup_steps must be an integer, got 2.5"),
        ({"horizon": 10, "eta": CosineSpec(1.0, 0.1, -1)}, "eta: warmup_steps must be >= 0"),
    ], ids=["horizon-float", "horizon-bool", "warmup-float", "warmup-negative"])
    def test_counts_built_in_code_are_checked(self, fields, message):
        with pytest.raises(ConfigError) as e:
            ScheduleSpec(**fields)
        assert str(e.value) == message

    def test_breakpoint_steps_built_in_code_must_be_integers(self):
        # linear() used to truncate 2.5 to 2, and a spec built directly
        # interpolated toward t = 2.5 (rt_at(2) was 1.8).
        assert PiecewiseLinearSpec.linear([(0, 1.0), (2.5, 2.0)]).points[1][0] == 2.5
        for key in ("rt", "kt"):
            for t in (2.5, 2.0, True, "2"):
                for spec in (PiecewiseLinearSpec.linear([(0, 0.5), (t, 0.75)]),
                             PiecewiseLinearSpec(((0, 0.5), (t, 0.75)))):
                    with pytest.raises(ConfigError) as e:
                        ScheduleSpec(horizon=10, **{key: spec})
                    assert str(e.value) == f"{key}: breakpoint step must be an integer, got {t!r}"
            with pytest.raises(ConfigError) as e:
                ScheduleSpec(horizon=10, **{key: PiecewiseLinearSpec(((0.0, 0.5),))})
            assert str(e.value) == f"{key}: breakpoint step must be an integer, got 0.0"
        with pytest.raises(ConfigError, match="^line 2: rt: expected const"):
            parse_schedule_spec("T = 10\nrt = linear(0:1.0, 2.5:2.0)\n")
        # numpy integers are integers: linear() stores them as ints.
        spec = ScheduleSpec(horizon=10, rt=PiecewiseLinearSpec.linear(
            [(np.int64(0), 1.0), (np.int32(4), 2.0)]))
        assert [type(t) for t, _ in spec.rt.points] == [int, int]
        assert spec.rt_at(2) == 1.5
        direct = ScheduleSpec(horizon=10, rt=PiecewiseLinearSpec(
            ((np.int64(0), 1.0), (np.int64(4), 2.0))))
        assert direct.rt_at(2) == 1.5

    def test_target_mode_is_an_unknown_key(self, tmp_path, capsys):
        # The norm target is always r_t * ||theta_0||; no key chooses another.
        with pytest.raises(ConfigError, match="^line 2: unknown key 'target_mode'$"):
            parse_schedule_spec("T = 10\ntarget_mode = relative\n")
        config, out = tmp_path / "run.cfg", tmp_path / "trace.csv"
        config.write_text("task = mlp\nvariant = norm_control\nT = 10\ntarget_mode = relative\n")
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: line 4: unknown key 'target_mode'\n"
        assert not out.exists()


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
    return "\n".join(lines) + "\n", ScheduleSpec(**fields)


def test_roundtrip_example():
    spec = parse_schedule_spec(
        "T = 5000\neta = cosine(1.0, 0.1)\nrt = linear(0:1.0, 2500:2.415)\n"
        "kt = const(0.01)\n"
    )
    assert spec == ScheduleSpec(
        5000,
        CosineSpec(1.0, 0.1, 0),
        PiecewiseLinearSpec.linear([(0, 1.0), (2500, 2.415)]),
        PiecewiseLinearSpec.linear([(0, 0.01)]),
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
    return ScheduleSpec(horizon, CosineSpec(eta_max, eta_min, warmup), rt, kt)


@settings(max_examples=100, deadline=None)
@given(schedule_specs(), st.integers(0, 100_000))
def test_evaluators_are_pure(spec, t):
    assert spec.rt_at(t) == spec.rt_at(t)
    assert spec.kt_at(t) == spec.kt_at(t)
    t_eta = min(t, spec.horizon)
    assert spec.eta_at(t_eta) == spec.eta_at(t_eta)
