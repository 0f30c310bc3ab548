import math
import multiprocessing
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import FORK_GATES, fork_gate

from normcontrol import cli, harness, optim
from normcontrol.harness import (
    RunConfig,
    RunTrace,
    TRACE_HEADER,
    TraceRow,
    calibrate_rt_from_run,
    compare,
    parse_run_config,
    run,
    schedule_table_csv,
)
from normcontrol.optim import OptimizerConfig, Variant
from normcontrol.params import ParamStore
from normcontrol.schedules import (
    ConfigError,
    CosineSpec,
    PiecewiseLinearSpec,
    ScheduleSpec,
)

EPS = np.finfo(np.float64).eps
CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def make_config(task="quadratic", variant=Variant.NONE, T=300, eval_every=50,
                lam=0.0, rt=None, kt=None, seed=0, eta=None, **kw):
    sched = ScheduleSpec(
        horizon=T,
        eta=eta or CosineSpec(),
        rt=rt or PiecewiseLinearSpec.const(0.0),
        kt=kt or PiecewiseLinearSpec.const(0.01),
    )
    opt = OptimizerConfig(weight_decay=lam, variant=variant)
    return RunConfig(task=task, schedules=sched, optimizer=opt, seed=seed,
                     eval_every=eval_every, **kw)


class TestRun:
    def test_descent_on_convex_task(self):
        trace = run(make_config(T=1000, eval_every=1))
        assert trace.rows[-1].val_loss < trace.rows[0].val_loss

    def test_identical_seeds_give_byte_identical_csv(self):
        cfg = make_config(task="mlp", variant=Variant.NORM_CONTROL, T=200,
                          rt=PiecewiseLinearSpec.linear([(0, 1.0), (50, 1.3)]))
        assert run(cfg).to_csv() == run(cfg).to_csv()

    def test_k_one_tracks_target_exactly(self):
        cfg = make_config(task="mlp", variant=Variant.NORM_CONTROL, T=200, eval_every=10,
                          rt=PiecewiseLinearSpec.linear([(0, 1.0), (100, 1.5)]),
                          kt=PiecewiseLinearSpec.const(1.0))
        trace = run(cfg)
        for row in trace.rows:
            assert abs(row.actual_norm - row.target_norm) <= 8 * EPS * row.target_norm

    def test_trace_self_consistency(self):
        cfg = make_config(task="mlp", variant=Variant.NORM_CONTROL, T=150, eval_every=25,
                          rt=PiecewiseLinearSpec.linear([(0, 1.0), (50, 2.0)]))
        trace = run(cfg)
        ts = [r.t for r in trace.rows]
        assert ts == sorted(ts) and len(set(ts)) == len(ts)
        for row in trace.rows:
            assert row.target_norm == row.r_t * trace.initial_norm
            assert abs(row.norm_ratio * trace.initial_norm - row.actual_norm) \
                <= 1e-12 * row.actual_norm

    def test_trace_reports_the_applied_rt_and_kt(self):
        # rt and kt are set but only norm control reads them; the other
        # variants are norm control at r_t = 0 and k_t = decay_rate(eta_t).
        rt = PiecewiseLinearSpec.linear([(0, 1.0), (50, 1.5)])
        kt = PiecewiseLinearSpec.const(0.05)
        for variant in Variant:
            cfg = make_config(task="mlp", variant=variant, T=120, eval_every=20, lam=0.1,
                              rt=rt, kt=kt, eta=CosineSpec(1.0, 0.1, warmup_steps=10))
            sched, opt = cfg.schedules, cfg.optimizer
            for row in run(cfg).rows:
                if variant is Variant.NORM_CONTROL:
                    assert (row.r_t, row.k_t) == (sched.rt_at(row.t), sched.kt_at(row.t))
                    assert row.target_norm > 0.0
                else:
                    assert row.r_t == row.target_norm == 0.0, (variant, row.t)
                    assert row.k_t == {Variant.NONE: 0.0,  # the rate the step applied
                                       Variant.DECAY_COUPLED_LR: row.eta_t * opt.alpha * 0.1,
                                       Variant.DECAY_DECOUPLED: row.eta_t * 0.1,
                                       Variant.COUPLED_SGD: 0.1}[variant]

    def test_logs_every_eval_every_and_final_step(self):
        trace = run(make_config(T=105, eval_every=25))
        assert [r.t for r in trace.rows] == [25, 50, 75, 100, 105]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_aborts_with_step_index_on_numeric_blowup(self):
        cfg = replace(make_config(T=10, eval_every=1),
                      optimizer=OptimizerConfig(alpha=1e160, variant=Variant.NONE))
        with pytest.raises(RuntimeError, match="aborted at step"):
            run(cfg)

    def test_nonfinite_gradient_aborts_before_the_optimizer(self, monkeypatch, tmp_path):
        build = harness.build_task

        def nan_gradient_at_step_3(*args, **kwargs):
            task = build(*args, **kwargs)
            loss_and_grad, calls = task.loss_and_grad, []

            def poisoned(theta, batch):
                loss, g = loss_and_grad(theta, batch)
                calls.append(None)
                if len(calls) == 3:
                    g = g.copy()
                    g[0] = math.nan
                return loss, g  # the loss stays finite

            task.loss_and_grad = poisoned
            return task

        monkeypatch.setattr(harness, "build_task", nan_gradient_at_step_3)
        optimizer_step, stepped = optim.step, []
        monkeypatch.setattr(optim, "step", lambda *a: stepped.append(a[3]) or optimizer_step(*a))
        with pytest.raises(RuntimeError, match="aborted at step 3: non-finite gradient"):
            run(make_config(T=10, eval_every=100))
        assert stepped == [1, 2]
        cfg = tmp_path / "nan_grad.cfg"
        cfg.write_text("task = quadratic\nT = 10\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3

    def test_norm_measured_once_per_rt_positive_step_and_eval_row(self, monkeypatch):
        calls = []
        measure = ParamStore.controlled_norm
        monkeypatch.setattr(ParamStore, "controlled_norm",
                            lambda self: calls.append(None) or measure(self))
        rt = PiecewiseLinearSpec.linear([(0, 0.0), (40, 0.0), (100, 1.5)])
        rt_positive = sum(rt.value_at(t) > 0.0 for t in range(1, 151))  # t = 41..150
        for variant, measured_steps in ((Variant.NORM_CONTROL, rt_positive),
                                        (Variant.DECAY_DECOUPLED, 0)):
            cfg = make_config(task="mlp", variant=variant, T=150, eval_every=25, lam=0.1, rt=rt)
            calls.clear()
            trace = run(cfg)
            # one more call: the initial norm, measured when the store is built
            assert len(calls) == measured_steps + len(trace.rows) + 1, variant

    def test_csv_roundtrip(self):
        trace = run(make_config(T=120, eval_every=40))
        header, *lines = trace.to_csv().splitlines()
        assert header == TRACE_HEADER
        # 17 significant digits: every float reads back as the same double
        back = [TraceRow(int(t), *map(float, rest)) for t, *rest in (ln.split(",") for ln in lines)]
        assert back == trace.rows


class TestCalibrate:
    def _trace(self, ratios, every=100):
        row_kw = dict(train_loss=0.0, val_loss=0.0, eta_t=1.0, r_t=0.0, k_t=0.0,
                      target_norm=0.0, grad_norm=0.0)
        return RunTrace([TraceRow(t=every * i, actual_norm=rho, norm_ratio=rho, **row_kw)
                         for i, rho in enumerate(ratios, start=1)], 1.0)

    def test_paper_protocol_breakpoints(self):
        spec = calibrate_rt_from_run(self._trace([1.3, 2.0, 2.415]))
        assert spec.points == ((0, 1.0), (100, 1.3), (200, 2.0), (300, 2.415))

    def test_degenerate_ramp_is_constant(self):
        spec = calibrate_rt_from_run(self._trace([1.0, 1.0]))
        for t in (0, 50, 200, 10**6):
            assert spec.value_at(t) == 1.0

    def test_linear_midpoint(self):
        spec = calibrate_rt_from_run(self._trace([2.0, 3.0]))
        assert spec.value_at(50) == 1.5 and spec.value_at(150) == 2.5

    def test_nonpositive_ratio_rejected(self):
        for ratios in ([0.0], [1.2, -0.5, 1.3], [1.2, 1.3, 0.0]):
            with pytest.raises(ValueError, match="> 0"):
                calibrate_rt_from_run(self._trace(ratios))


class TestCompare:
    def test_decay_free_reference_is_tracked(self):
        a = make_config(task="mlp", variant=Variant.DECAY_COUPLED_LR, lam=0.0,
                        T=400, eval_every=50)
        b = make_config(task="mlp", variant=Variant.NORM_CONTROL, T=400, eval_every=50)
        report = compare(a, b)
        assert report.ratio_gap <= 0.05 * report.final_ratio_a
        assert report.rel_val_loss[0][1] == pytest.approx(1.0, abs=0.2)

    def test_requires_decay_then_norm_control(self):
        a = make_config(variant=Variant.NONE)
        b = make_config(variant=Variant.NORM_CONTROL)
        with pytest.raises(ValueError, match="decay"):
            compare(a, b)
        a = make_config(variant=Variant.DECAY_DECOUPLED, lam=0.1)
        with pytest.raises(ValueError, match="norm_control"):
            compare(a, a)

    def test_rt_is_the_reference_norm_ratio_at_every_eval_row(self):
        a = make_config(task="mlp", variant=Variant.DECAY_COUPLED_LR, lam=0.1,
                        T=300, eval_every=40)
        b = make_config(task="mlp", variant=Variant.NORM_CONTROL, T=300, eval_every=40)
        report = compare(a, b)
        assert [r.t for r in report.trace_b.rows] == [r.t for r in report.trace_a.rows]
        assert ([r.r_t for r in report.trace_b.rows]
                == [r.norm_ratio for r in report.trace_a.rows])

    @pytest.mark.parametrize("eval_every", [1, 7, 300])
    def test_traces_equal_a_then_b_run_one_after_the_other(self, eval_every):
        # B, run beside A, applies at every step the rt calibrated from A's whole trace.
        a = make_config(task="mlp", variant=Variant.DECAY_COUPLED_LR, lam=0.1,
                        T=300, eval_every=eval_every)
        b = make_config(task="mlp", variant=Variant.NORM_CONTROL, T=300, eval_every=eval_every)
        trace_a = run(a)
        trace_b = run(replace(b, schedules=replace(b.schedules,
                                                   rt=calibrate_rt_from_run(trace_a))))
        for allowed in FORK_GATES:  # A in a forked child, then in this process
            with fork_gate(allowed):
                report = compare(a, b)
            assert report.trace_a == trace_a and report.trace_b == trace_b, allowed

    def test_one_process_starts_no_child_and_reports_as_the_forked_run(self, forks):
        a = make_config(task="mlp", variant=Variant.DECAY_COUPLED_LR, lam=0.1, T=300)
        b = make_config(task="mlp", variant=Variant.NORM_CONTROL, T=300)
        children, run_b = [], harness.run

        def counted(config):  # B's run, once A has logged its first row
            config.schedules.rt_at(1)
            children.append(len(multiprocessing.active_children()))
            return run_b(config)

        forks.setattr(harness, "run", counted)
        on = compare(a, b)
        forks.setattr(harness, "_fork_allowed", lambda *conditions: False)
        off = compare(a, b)
        assert children == [1, 0] and off == on

    def test_the_reference_child_comes_from_the_fork_context(self, forks):
        def refused(*args, **kwargs):
            raise AssertionError("multiprocessing.Process: the default start method was used")

        forks.setattr(multiprocessing, "Process", refused)
        a = make_config(task="mlp", variant=Variant.DECAY_COUPLED_LR, lam=0.1, T=300)
        b = make_config(task="mlp", variant=Variant.NORM_CONTROL, T=300)
        report = compare(a, b)
        assert [r.r_t for r in report.trace_b.rows] == [r.norm_ratio for r in report.trace_a.rows]
        assert multiprocessing.active_children() == []

    def test_mismatched_template_rejected_before_the_reference_run(self, monkeypatch):
        calls = []
        forked = harness.forked

        def recorded(name, items, *args):
            calls.append(args)
            return forked(name, items, *args)

        monkeypatch.setattr(harness, "forked", recorded)
        a = make_config(task="mlp", variant=Variant.DECAY_COUPLED_LR, lam=0.1, T=300)
        b = make_config(task="mlp", variant=Variant.NORM_CONTROL, T=300)
        sched = b.schedules
        mismatched = {
            "task": replace(b, task="quadratic"),
            "dim": replace(b, dim=9),
            "hidden": replace(b, hidden=17),
            "batch_size": replace(b, batch_size=31),
            "seed": replace(b, seed=1),
            "eval_every": replace(b, eval_every=60),
            "control_biases": replace(b, control_biases=True),
            "T": replace(b, schedules=replace(sched, horizon=600)),
            "eta": replace(b, schedules=replace(sched, eta=CosineSpec(1.0, 0.2))),
        }
        for key, template in mismatched.items():
            with pytest.raises(ValueError, match=f"^{key}: "):
                compare(a, template)
            assert calls == [], key
        # optimizer, rt and kt may differ; rt is replaced by A's trajectory
        report = compare(a, replace(
            b, optimizer=OptimizerConfig(variant=Variant.NORM_CONTROL, alpha=0.002),
            schedules=replace(sched, kt=PiecewiseLinearSpec.const(0.05))))
        assert calls == [(a,)]
        assert [r.t for r in report.trace_b.rows] == [r.t for r in report.trace_a.rows]
        assert ([r.r_t for r in report.trace_b.rows]
                == [r.norm_ratio for r in report.trace_a.rows])

    def test_the_reference_error_comes_before_its_calibration_error(self, monkeypatch):
        # A running first would raise its own error before its rows were calibrated.
        def reference_rows(config):
            yield TraceRow(50, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)  # norm_ratio 0
            raise FloatingPointError("non-finite training loss nan")

        monkeypatch.setattr(harness, "_reference_rows", reference_rows)
        a, b = (parse_run_config((CONFIGS_DIR / name).read_text())
                for name in ("mlp_adamw.cfg", "mlp_norm_control.cfg"))
        for allowed in FORK_GATES:  # A in a forked child, then in this process
            with fork_gate(allowed), pytest.raises(FloatingPointError, match="training loss"):
                compare(a, b)
            assert multiprocessing.active_children() == []

    def test_no_step_runs_inside_another(self, monkeypatch):
        # In one process A runs to its end before B, so B's rt_at never steps A.
        depth, deepest, step = [0], [0], optim.step

        def counted(*args):
            depth[0] += 1
            deepest[0] = max(deepest[0], depth[0])
            try:
                return step(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(optim, "step", counted)
        a, b = (parse_run_config((CONFIGS_DIR / name).read_text())
                for name in ("mlp_adamw.cfg", "mlp_norm_control.cfg"))
        for allowed in FORK_GATES:  # A in a forked child, then in this process
            deepest[0] = 0
            with fork_gate(allowed):
                compare(a, b)
            assert deepest[0] == 1, allowed

    def test_one_process_raises_the_reference_error_before_run_b(self, monkeypatch):
        def reference_rows(config):
            yield TraceRow(50, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0)
            raise FloatingPointError("non-finite training loss nan")

        runs = []
        monkeypatch.setattr(harness, "_reference_rows", reference_rows)
        monkeypatch.setattr(harness, "run", runs.append)
        a, b = (parse_run_config((CONFIGS_DIR / name).read_text())
                for name in ("mlp_adamw.cfg", "mlp_norm_control.cfg"))
        with fork_gate(False), pytest.raises(FloatingPointError, match="training loss"):
            compare(a, b)
        assert runs == []

    def test_decay_equivalent_norm_control_gives_identical_losses(self):
        # with a flat eta schedule, k_t = eta * alpha0 * lam is a constant
        # schedule, so the coupled-decay special case is expressible directly
        lam = 0.1
        eta_flat = CosineSpec(eta_max=0.5, eta_min=0.5)
        a = make_config(task="mlp", variant=Variant.DECAY_COUPLED_LR, lam=lam,
                        T=300, eval_every=50, eta=eta_flat)
        k = 0.5 * OptimizerConfig().alpha * lam
        b = make_config(task="mlp", variant=Variant.NORM_CONTROL, lam=lam,
                        T=300, eval_every=50, eta=eta_flat,
                        rt=PiecewiseLinearSpec.const(0.0),
                        kt=PiecewiseLinearSpec.const(k))
        ta, tb = run(a), run(b)
        for ra, rb in zip(ta.rows, tb.rows):
            assert abs(ra.val_loss - rb.val_loss) <= 1e-10 * max(1.0, abs(ra.val_loss))
            assert abs(ra.train_loss - rb.train_loss) <= 1e-10 * max(1.0, abs(ra.train_loss))


def schedule_table(spec, cfg, stride):
    """schedule_table_csv's rows as (t, eta_t, r_t, k_t); its %.17g text reads back exactly."""
    rows = [line.split(",") for line in schedule_table_csv(spec, cfg, stride).splitlines()[1:]]
    return [(int(t), float(eta), float(r), float(k)) for t, eta, r, k in rows]


class TestScheduleTable:
    NC = OptimizerConfig(variant=Variant.NORM_CONTROL)

    def test_breakpoints_reproduced_exactly(self):
        spec = ScheduleSpec(horizon=1000, rt=PiecewiseLinearSpec.linear([(0, 1.0), (500, 2.0)]))
        rows = {t: r for t, _, r, _ in schedule_table(spec, self.NC, 100)}
        assert rows[0] == 1.0 and rows[500] == 2.0 and rows[1000] == 2.0

    def test_rt_zero_gives_all_zero_column(self):
        spec = ScheduleSpec(horizon=100, rt=PiecewiseLinearSpec.const(0.0))
        assert all(r == 0.0 for _, _, r, _ in schedule_table(spec, self.NC, 10))

    def test_stride_equal_horizon_gives_two_rows(self):
        spec = ScheduleSpec(horizon=100)
        table = schedule_table(spec, self.NC, 100)
        assert [t for t, *_ in table] == [0, 100]

    def test_csv_header(self):
        spec = ScheduleSpec(horizon=10)
        assert schedule_table_csv(spec, self.NC, 5).splitlines()[0] == "t,eta_t,r_t,k_t"

    def test_stride_below_one_rejected(self):
        with pytest.raises(ValueError, match="^stride must be >= 1, got 0$"):
            schedule_table_csv(ScheduleSpec(horizon=10), self.NC, 0)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_table_equals_trace(self, variant):
        # What the table shows is what a run of the same config applies.
        cfg = make_config(task="mlp", variant=variant, T=200, eval_every=40, lam=0.05,
                          eta=CosineSpec(1.0, 0.1, warmup_steps=50),
                          rt=PiecewiseLinearSpec.linear([(0, 1.0), (90, 1.4)]),
                          kt=PiecewiseLinearSpec.linear([(0, 0.2), (150, 0.05)]))
        table = schedule_table_csv(cfg.schedules, cfg.optimizer, cfg.eval_every)
        trace = run(cfg).to_csv().splitlines()
        columns = trace[0].split(",")
        picks = [columns.index(name) for name in ("t", "eta_t", "r_t", "k_t")]
        rows = [",".join(row.split(",")[i] for i in picks) for row in trace[1:]]
        assert len(rows) == 5
        assert rows == table.splitlines()[2:]  # the table's t = 0 row precedes any step


class TestParseRunConfig:
    GOOD = (
        "task = mlp\ndim = 6\nhidden = 12\nbatch_size = 16\nseed = 3\n"
        "eval_every = 10\nvariant = norm_control\nlambda = 0.05\n"
        "control_biases = true\nT = 100\nrt = linear(0:1.0, 50:2.0)\nkt = const(0.01)\n"
    )

    def test_full_config(self):
        with pytest.warns(UserWarning, match="^line 8: lambda: not read by variant norm_control"):
            cfg = parse_run_config(self.GOOD)
        assert cfg.task == "mlp" and cfg.dim == 6 and cfg.hidden == 12
        assert cfg.batch_size == 16 and cfg.seed == 3 and cfg.eval_every == 10
        assert cfg.optimizer.variant is Variant.NORM_CONTROL
        assert cfg.optimizer.weight_decay == 0.05
        assert cfg.control_biases is True
        assert cfg.schedules.horizon == 100

    def test_defaults(self):
        cfg = parse_run_config("task = quadratic\nT = 10\n")
        assert cfg.dim == 8 and cfg.batch_size == 32 and cfg.eval_every == 100
        assert cfg.optimizer.variant is Variant.NONE
        assert cfg.optimizer.alpha == 0.001
        assert cfg == RunConfig(task="quadratic", schedules=ScheduleSpec(horizon=10))

    def test_duplicate_key_has_line_number(self):
        for key in ("seed = 1", "lambda = 0.1", "kt = const(0.1)"):
            name = key.split()[0]
            with pytest.raises(ConfigError,
                               match=rf"^line 4: {name}: duplicate key \(first set on line 2\)$"):
                parse_run_config(f"task = mlp\n{key}\nT = 10\n{key}\n")

    def test_values_checked_at_construction(self):
        with pytest.raises(ValueError, match="kt"):
            RunConfig(task="mlp", schedules=ScheduleSpec(
                horizon=10, kt=PiecewiseLinearSpec.const(2.0)))
        for name in ("dim", "hidden", "batch_size", "eval_every"):
            with pytest.raises(ValueError, match=name):
                RunConfig(task="mlp", schedules=ScheduleSpec(horizon=10), **{name: 0})

    @pytest.mark.parametrize("name, value", [
        ("dim", 2.5), ("hidden", 16.0), ("batch_size", 2.0), ("seed", 0.0), ("eval_every", True),
        ("seed", "1"), ("dim", np.float64(3.0))])
    def test_counts_built_in_code_must_be_integers(self, name, value):
        # else a float fails late (a TypeError, or an abort at step 1) and True runs as 1
        with pytest.raises(ConfigError) as e:
            RunConfig(task="mlp", schedules=ScheduleSpec(horizon=10), **{name: value})
        assert str(e.value) == f"{name}: must be an integer, got {value!r}"

    @pytest.mark.parametrize("value", ["false", 2, 1.0, None])
    def test_control_biases_built_in_code_must_be_a_bool(self, value):
        # else a truthy "false" or 2 controls b1 and b2: a silently wrong run
        with pytest.raises(ConfigError) as e:
            RunConfig(task="mlp", schedules=ScheduleSpec(horizon=10), control_biases=value)
        assert str(e.value) == f"control_biases: must be a bool, got {value!r}"
        for flag in (True, np.False_):
            RunConfig(task="mlp", schedules=ScheduleSpec(horizon=10), control_biases=flag)

    def test_numpy_integer_counts_run_as_ints(self):
        counts = {"dim": 3, "hidden": 4, "batch_size": 5, "seed": 6, "eval_every": 7}
        plain = RunConfig(task="mlp", schedules=ScheduleSpec(20, CosineSpec(1.0, 0.1, 2)),
                          **counts)
        numpy = RunConfig(task="mlp", schedules=ScheduleSpec(
            np.int64(20), CosineSpec(1.0, 0.1, np.int64(2))),
            **{name: np.int64(value) for name, value in counts.items()})
        assert run(numpy).to_csv() == run(plain).to_csv()

    def test_task_seed_and_decay_rate_checked_at_construction(self):
        sched = ScheduleSpec(horizon=10)
        with pytest.raises(ValueError, match="task"):
            RunConfig(task="foo", schedules=sched)
        with pytest.raises(ValueError, match="seed"):
            RunConfig(task="mlp", schedules=sched, seed=-1)
        for variant in (Variant.DECAY_DECOUPLED, Variant.COUPLED_SGD):
            with pytest.raises(ValueError, match="^weight_decay: "):  # the field; parsing names lambda
                RunConfig(task="mlp", schedules=sched,
                          optimizer=OptimizerConfig(weight_decay=1.5, variant=variant))
        # lambda is not read by norm control; a rate of exactly 1 is allowed
        for variant, lam in ((Variant.NORM_CONTROL, 1.5), (Variant.DECAY_DECOUPLED, 1.0)):
            RunConfig(task="mlp", schedules=sched,
                      optimizer=OptimizerConfig(weight_decay=lam, variant=variant))

    def test_configs_are_frozen(self):
        cfg = make_config()
        with pytest.raises(FrozenInstanceError):
            cfg.eval_every = 0
        with pytest.raises(FrozenInstanceError):
            cfg.optimizer.weight_decay = 2.0

    def test_missing_task(self):
        with pytest.raises(ValueError, match="task"):
            parse_run_config("T = 10\n")

    def test_unknown_key_has_line_number(self):
        with pytest.raises(ConfigError, match="^line 2: unknown key 'wat'$"):
            parse_run_config("task = mlp\nwat = 1\nT = 10\n")

    def test_bad_variant(self):
        with pytest.raises(ValueError, match="variant"):
            parse_run_config("task = mlp\nT = 10\nvariant = sgdw\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="^line 2: dim: "):
            parse_run_config("task = mlp\ndim = eight\nT = 10\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="^line 3: control_biases: "):
            parse_run_config("task = mlp\nT = 10\ncontrol_biases = maybe\n")

    @pytest.mark.parametrize("text, value", [("yes", True), ("False", False), ("0", False)])
    def test_bool_spellings(self, text, value):
        cfg = parse_run_config(f"task = mlp\nT = 10\ncontrol_biases = {text}\n")
        assert cfg.control_biases is value

    def test_warns_about_keys_the_variant_never_reads(self):
        with pytest.warns(UserWarning) as record:
            parse_run_config(self.GOOD)
        assert [str(w.message) for w in record] == [
            "line 8: lambda: not read by variant norm_control; ignored"]
        with pytest.warns(UserWarning) as record:
            parse_run_config("task = mlp\nvariant = coupled_sgd\nbeta1 = 0.5\nalpha = 0.01\n"
                             "T = 10\nkt = const(0.5)\nlambda = 0.1\n")
        assert [str(w.message) for w in record] == [
            "line 3: beta1: not read by variant coupled_sgd; ignored",
            "line 6: kt: not read by variant coupled_sgd; ignored"]

    def test_the_keys_warned_about_do_not_change_the_run(self):
        base = {"task": "mlp", "T": "30", "eval_every": "10", "eta": "cosine(1.0, 0.1)",
                "rt": "const(1.5)", "kt": "const(0.1)",
                "lambda": "0.1", "beta1": "0.8", "beta2": "0.99", "epsilon": "1e-6"}
        other = {"eta": "cosine(0.5, 0.5)", "rt": "const(0.5)", "kt": "const(0.3)",
                 "lambda": "0.2", "beta1": "0.5", "beta2": "0.9",
                 "epsilon": "1e-3"}
        unread = {Variant.NONE: {"rt", "kt", "lambda"},
                  Variant.DECAY_COUPLED_LR: {"rt", "kt"},
                  Variant.DECAY_DECOUPLED: {"rt", "kt"},
                  Variant.COUPLED_SGD: {"rt", "kt", "eta", "beta1", "beta2", "epsilon"},
                  Variant.NORM_CONTROL: {"lambda"}}

        def parse(values):
            text = "".join(f"{key} = {value}\n" for key, value in values.items())
            with pytest.warns(UserWarning) as record:
                cfg = parse_run_config(text)
            return cfg, {str(w.message).split(": ")[1] for w in record}

        for variant, keys in unread.items():
            values = base | {"variant": variant.value}
            cfg, warned = parse(values)
            assert warned == keys, variant
            reference = run(cfg).to_csv()
            for key in other:  # a changed value changes the run iff the variant reads it
                changed = run(parse(values | {key: other[key]})[0]).to_csv()
                assert (changed == reference) == (key in keys), (variant, key)
