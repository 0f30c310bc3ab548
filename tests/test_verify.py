import ast
import contextlib
import inspect
import itertools
import math
import multiprocessing
import os
import signal
import textwrap
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcontrol import harness, optim, oracle, verify
from normcontrol.cli import main
from normcontrol.optim import OptimizerConfig, OptimizerState, Variant, step
from normcontrol.params import ParamGroup, ParamStore
from normcontrol.schedules import CosineSpec, PiecewiseLinearSpec, ScheduleSpec, is_integer
from normcontrol.verify import (
    PropertyResult,
    SuiteReport,
    oracle_controlled_norm,
    oracle_from_store,
    oracle_step,
    property_suite,
)


def rel_diff(a, b):
    denom = max(abs(a), abs(b))
    if denom < 1e-15:
        return 0.0
    return abs(a - b) / denom


class TestOracleNorm:
    def test_matches_production(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            dim = int(rng.integers(1, 500))
            theta = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
            store = ParamStore(theta, [ParamGroup("w", 0, dim, True)])
            oracle = oracle_from_store(store)
            got = oracle_controlled_norm(oracle.theta, oracle.controlled)
            assert rel_diff(got, store.controlled_norm()) <= 1e-14

    def test_zero_vector(self):
        assert oracle_controlled_norm([0.0, 0.0], [True, True]) == 0.0

    def test_respects_controlled_flags(self):
        assert oracle_controlled_norm([3.0, 4.0, 99.0], [True, True, False]) == 5.0


@pytest.mark.parametrize("variant", list(Variant))
def test_single_step_agreement(variant):
    rng = np.random.default_rng(13)
    for case in range(100):
        dim = int(rng.integers(1, 17))
        theta = rng.normal(size=dim)
        store = ParamStore(theta, [ParamGroup("w", 0, dim, True)])
        state = OptimizerState.zeros(dim)
        oracle = oracle_from_store(store, state)
        g = rng.normal(size=dim)
        cfg = OptimizerConfig(weight_decay=0.2, variant=variant)
        sched = ScheduleSpec(horizon=1, eta=CosineSpec(0.7, 0.7), rt=PiecewiseLinearSpec.const(1.5),
                             kt=PiecewiseLinearSpec.const(0.3))
        step(store, state, g, 1, sched, cfg)
        oracle_step(oracle, g, 1, 0.7, 1.5, 0.3, cfg)
        for i in range(dim):
            assert rel_diff(float(store.theta[i]), oracle.theta[i]) <= 1e-13, (case, i)


def test_thousand_step_quadratic_trajectory_drift():
    rng = np.random.default_rng(21)
    dim = 6
    a_diag = rng.uniform(0.5, 2.0, dim)
    b = rng.normal(size=dim)
    store = ParamStore(rng.normal(size=dim), [ParamGroup("w", 0, dim, True)])
    state = OptimizerState.zeros(dim)
    oracle = oracle_from_store(store)
    cfg = OptimizerConfig(variant=Variant.NORM_CONTROL)
    horizon = 1000
    sched = ScheduleSpec(horizon=horizon,
                         rt=PiecewiseLinearSpec.linear([(0, 1.0), (400, 1.8)]),
                         kt=PiecewiseLinearSpec.const(0.01))
    for t in range(1, horizon + 1):
        g = a_diag * store.theta - b
        step(store, state, g, t, sched, cfg)
        og = [a_diag[i] * oracle.theta[i] - b[i] for i in range(dim)]
        oracle_step(oracle, og, t, sched.eta_at(t), sched.rt_at(t), sched.kt_at(t), cfg)
    for i in range(dim):
        assert rel_diff(float(store.theta[i]), oracle.theta[i]) <= 1e-11


def test_zero_gradient_decay_matches_geometric_closed_form():
    c = 0.07
    dim = 5
    theta0 = np.linspace(0.5, 2.5, dim)
    store = ParamStore(theta0.copy(), [ParamGroup("w", 0, dim, True)])
    oracle = oracle_from_store(store)
    cfg = OptimizerConfig(variant=Variant.NORM_CONTROL)
    g = np.zeros(dim)
    T = 100
    for t in range(1, T + 1):
        oracle_step(oracle, g, t, 1.0, 0.0, c, cfg)
    expected = (1.0 - c) ** T * theta0
    for i in range(dim):
        assert rel_diff(oracle.theta[i], float(expected[i])) <= 1e-12


def test_oracle_step_knows_only_the_relative_target():
    oracle = oracle_from_store(ParamStore(np.ones(2), [ParamGroup("w", 0, 2, True)]))
    cfg = OptimizerConfig(variant=Variant.NORM_CONTROL)
    oracle_step(oracle, [0.0, 0.0], 1, 1.0, 1.5, 0.5, cfg, "relative")
    with pytest.raises(ValueError, match="^target mode must be 'relative', got 'absolute'$"):
        oracle_step(oracle, [0.0, 0.0], 2, 1.0, 1.5, 0.5, cfg, "absolute")
    assert oracle.t == 1


def test_near_zero_theta_with_positive_target_stays_finite():
    dim = 4
    store = ParamStore(np.full(dim, 1e-200), [ParamGroup("w", 0, dim, True)],
                       initial_norm=1.0)
    state = OptimizerState.zeros(dim)
    cfg = OptimizerConfig(variant=Variant.NORM_CONTROL)
    sched = ScheduleSpec(horizon=1, eta=CosineSpec(1.0, 1.0), rt=PiecewiseLinearSpec.const(2.0),
                         kt=PiecewiseLinearSpec.const(0.5))
    n = store.controlled_norm()
    step(store, state, np.zeros(dim), 1, sched, cfg)  # a zero gradient leaves theta to the rule
    assert abs(store.controlled_norm() - (0.5 * n + 0.5 * 2.0)) <= 1e-10 * 2.0
    assert np.all(np.isfinite(store.theta))

    oracle = oracle_from_store(store)
    oracle.initial_norm = 1.0
    oracle_step(oracle, np.zeros(dim), 2, 1.0, 2.0, 0.5, cfg)
    assert all(math.isfinite(x) for x in oracle.theta)


@pytest.mark.parametrize("theta, r, skipped", [([5e-35], 2.0, False), ([5e-25, 0.0], 1e300, True)])
def test_step_and_oracle_agree_where_the_norm_is_tiny(theta, r, skipped):
    # The first target is reached from a norm of 5e-35; no finite factor reaches the second.
    store = ParamStore(np.array(theta), [ParamGroup("w", 0, len(theta), True)], initial_norm=1.0)
    oracle = oracle_from_store(store)
    oracle.initial_norm = 1.0
    cfg = OptimizerConfig(variant=Variant.NORM_CONTROL)
    sched = ScheduleSpec(horizon=1, eta=CosineSpec(1.0, 1.0), rt=PiecewiseLinearSpec.const(r),
                         kt=PiecewiseLinearSpec.const(1.0))
    g = np.zeros(len(theta))
    with (pytest.warns(RuntimeWarning, match="norm control skipped")
          if skipped else contextlib.nullcontext()):  # else a warning fails the test
        step(store, OptimizerState.zeros(len(theta)), g, 1, sched, cfg)
    oracle_step(oracle, g, 1, 1.0, r, 1.0, cfg)
    assert (store.theta.tolist() == theta) == skipped
    for got, want in zip(store.theta.tolist(), oracle.theta):
        assert abs(got - want) <= 1e-13 * max(abs(got), abs(want))  # no floor: theta is tiny


def test_step_and_oracle_agree_over_the_double_range():
    # Stores of initial norm 1 whose elements share one magnitude with alternating signs;
    # a zero gradient at t = 1 leaves theta to the rule. The sizes cross both of
    # controlled_norm's cutoffs, and the magnitudes reach both ends of the doubles.
    cfg = OptimizerConfig(variant=Variant.NORM_CONTROL)
    disagree = []
    for magnitude, size, r, k in itertools.product(
            (2.0**-1074, 2.0**-1022, 1.0, 2.0**511, 2.0**1023, math.inf, math.nan),
            (1, 2, 255, 256, 999, 1000, 1001), (0.0, 2.0**-1000, 1.0, 2.0**1000),
            (0.0, 2.0**-53, 0.5, 1.0)):
        theta = np.where(np.arange(size) % 2, -magnitude, magnitude)
        store = ParamStore(theta, [ParamGroup("w", 0, size, True)], initial_norm=1.0)
        mirror = oracle_from_store(store)
        mirror.initial_norm = 1.0
        sched = ScheduleSpec(horizon=1, eta=CosineSpec(1.0, 1.0),
                             rt=PiecewiseLinearSpec.const(r), kt=PiecewiseLinearSpec.const(k))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a skip warns
            step(store, OptimizerState.zeros(size), np.zeros(size), 1, sched, cfg)
        oracle_step(mirror, [0.0] * size, 1, 1.0, r, k, cfg)
        for i, (got, want) in enumerate(zip(store.theta.tolist(), mirror.theta)):
            if not (got == want or (math.isnan(got) and math.isnan(want))
                    or verify._close(got, want, 1e-13)):
                disagree.append((magnitude, size, r, k, i, got, want))
                break
    assert disagree == []


def test_the_oracle_stands_alone_and_harness_imports_nothing_of_verify():
    def imported(module):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                yield base
                yield from (f"{base}.{alias.name}" for alias in node.names)

    assert set(imported(oracle)) <= {"__future__", "__future__.annotations", "math",
                                     "dataclasses", "dataclasses.dataclass"}
    assert [name for name in imported(harness) if "verify" in name.split(".")] == []
    for name in ("OracleState", "oracle_controlled_norm", "oracle_step"):  # the benchmark's names
        assert getattr(verify, name) is getattr(oracle, name)


def test_the_oracle_reads_no_attribute_of_the_optim_module():
    # A production constant read by the oracle would make their agreement say less.
    for fn in (oracle_controlled_norm, oracle_from_store, oracle_step):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        read = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "optim"]
        assert read == [], (fn.__name__, read)


@st.composite
def run_configs(draw):
    """Small runs over every variant, warmup and multi-breakpoint schedule."""
    horizon = draw(st.integers(20, 200))

    def piecewise(lo, hi):
        ts = sorted(draw(st.sets(st.integers(1, horizon), max_size=3)))
        values = st.floats(lo, hi, allow_nan=False)
        return PiecewiseLinearSpec.linear([(0, draw(values))] + [(t, draw(values)) for t in ts])

    eta_max = draw(st.floats(0.1, 1.0))
    sched = ScheduleSpec(
        horizon=horizon,
        eta=CosineSpec(eta_max, draw(st.floats(0.01, 1.0)) * eta_max,
                       draw(st.integers(0, horizon // 2))),
        rt=piecewise(0.0, 3.0), kt=piecewise(0.0, 1.0))
    opt = OptimizerConfig(alpha=draw(st.floats(1e-4, 0.1)),
                          weight_decay=draw(st.floats(0.0, 0.5)),
                          variant=draw(st.sampled_from(Variant)))
    return harness.RunConfig(task=draw(st.sampled_from(("quadratic", "logistic", "mlp"))),
                             schedules=sched, optimizer=opt, dim=draw(st.integers(1, 5)),
                             hidden=draw(st.integers(1, 5)), batch_size=8,
                             seed=draw(st.integers(0, 2**16)), eval_every=horizon,
                             control_biases=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(run_configs())
def test_harness_run_agrees_with_the_oracle_at_every_step(config):
    # Before each step of harness.run, mirror the store into the oracle and
    # step it with the raw schedule values: oracle_step encodes each variant
    # on its own, so this also checks what optim.applied_schedule picks.
    initial_norm = oracle_from_store(harness.initialize_run(config)[1]).initial_norm
    production_step = optim.step
    steps = []

    def checked_step(store, state, g, t, sched, cfg):
        oracle = oracle_from_store(store, state)
        oracle.initial_norm = initial_norm
        report = production_step(store, state, g, t, sched, cfg)
        oracle_step(oracle, g.tolist(), t, sched.eta_at(t), sched.rt_at(t), sched.kt_at(t), cfg)
        want = np.array(oracle.theta)
        allowed = np.maximum(1e-13 * np.maximum(np.abs(store.theta), np.abs(want)), 1e-15)
        bad = np.flatnonzero(~(np.abs(store.theta - want) <= allowed))
        assert bad.size == 0, (t, bad[:5], store.theta[bad[:5]], want[bad[:5]])
        steps.append(t)
        return report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optim, "step", checked_step)
        harness.run(config)
    assert steps == list(range(1, config.schedules.horizon + 1))


def _without_epsilon(theta, m, v, t, eta_t, cfg, out=None):
    """optim.adam_param_update without its "+ eps * s"."""
    c1, s = (1.0, 1.0) if t == 1 else (1.0 - cfg.beta1**t, math.sqrt(1.0 - cfg.beta2**t))
    update = np.sqrt(v, out=out)
    np.divide(m, update, out=update)
    update *= eta_t * cfg.alpha * s / c1
    theta -= update


class TestPropertySuite:
    def test_small_suite_passes(self):
        report = property_suite(seed=0, cases=40)
        assert report.all_passed, report.format()
        assert report.total_failures == 0

    def test_failures_are_entries_not_errors(self):
        report = SuiteReport([
            PropertyResult("good", 10, 0),
            PropertyResult("bad", 10, 3, "case 2: boom"),
        ])
        assert not report.all_passed
        assert report.total_failures == 3
        text = report.format()
        assert "FAIL bad" in text and "case 2: boom" in text and "ok   good" in text

    def test_a_step_without_epsilon_fails_the_oracle_checks(self, monkeypatch, capsys):
        monkeypatch.setattr(optim, "adam_param_update", _without_epsilon)
        report = property_suite(0, 20)
        failed = [r for r in report.results if not r.passed]
        assert [r.name for r in failed] == [
            "oracle step: bare adam", "oracle step: coupled-lr decay",
            "oracle step: decoupled decay", "oracle step: norm control",
            "oracle trajectory drift (quadratic, norm control)",
        ], report.format()
        assert len(report.results) - len(failed) == 15
        for r in failed:
            assert r.first_counterexample.startswith("case "), r
            assert "np.float64" not in r.first_counterexample, r
        assert main(["check-grad", "--task", "quadratic", "--properties", "20"]) == 3
        assert "first counterexample: case 0: theta[0] drifted" in capsys.readouterr().out

    def test_invalid_case_count(self):
        with pytest.raises(ValueError, match="cases"):
            property_suite(0, 0)

    def test_reproducible_for_same_seed(self):
        a = property_suite(seed=5, cases=10)
        b = property_suite(seed=5, cases=10)
        assert a == b


@pytest.mark.parametrize("seed, cases", [(0, True), (0, 2.5), (0, -3), (-1, 5), (True, 5),
                                         (1.0, 5), ("0", 5)])
def test_property_suite_checks_its_arguments_first(monkeypatch, seed, cases):
    def first_check(rng):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_check_norm_scaling", first_check)
    name = "cases" if is_integer(seed) and seed >= 0 else "seed"
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        property_suite(seed, cases)
    assert multiprocessing.active_children() == []


def test_property_suite_takes_numpy_integers():
    assert property_suite(np.int64(3), np.int32(1)) == property_suite(3, 1)


class TestTwoProcesses:
    """property_suite with the child's share of its checks (the odd-numbered ones and
    the oracle trajectory, 16) in a forked child, and without."""

    def test_the_fork_gate_needs_all_three_conditions(self):
        assert harness._fork_allowed(["fork", "spawn", "forkserver"], 2, (3, 11, 7))
        assert not harness._fork_allowed(["spawn"], 2, (3, 11, 7))
        assert not harness._fork_allowed(["fork", "spawn"], 1, (3, 11, 7))
        assert not harness._fork_allowed(["fork", "spawn"], 8, (3, 12, 0))

    def test_each_check_runs_once_and_the_child_runs_the_same_ones(self, forks):
        receive, send = multiprocessing.Pipe(duplex=False)
        check_results = verify._check_results

        def recorded(checks, seed, indices):  # here, and in the child it inherits
            for i, result in check_results(checks, seed, indices):
                send.send((i, os.getpid()))
                yield i, result

        forks.setattr(verify, "_check_results", recorded)
        shares = []
        with receive, send:
            for seed in (0, 1):
                property_suite(seed, 1)
                runs = []
                while receive.poll():  # the child sent each record before its result
                    runs.append(receive.recv())
                assert sorted(i for i, _ in runs) == list(range(20))  # each index once
                ours = {i for i, pid in runs if pid == os.getpid()}
                theirs = {i for i, pid in runs if pid != os.getpid()}
                assert len({pid for _, pid in runs}) == 2
                assert ours | theirs == set(range(20)) and 0 in ours and min(theirs) == 1
                shares.append(theirs)
        assert shares[0] == shares[1]

    @pytest.mark.parametrize("cases", [1, 20, 300])
    def test_the_report_is_the_same_in_one_process(self, forks, cases):
        on = [property_suite(seed, cases) for seed in range(3)]
        forks.setattr(harness, "_fork_allowed", lambda *conditions: False)
        off = [property_suite(seed, cases) for seed in range(3)]
        assert [r.format() for r in on] == [r.format() for r in off]
        assert on == off

    def test_a_failing_report_is_the_same_in_one_process(self, forks):
        forks.setattr(optim, "adam_param_update", _without_epsilon)  # the child inherits it
        on = property_suite(0, 20).format()
        forks.setattr(harness, "_fork_allowed", lambda *conditions: False)
        assert property_suite(0, 20).format() == on
        assert on.count("FAIL") == 5 and on.count("first counterexample: case ") == 5, on

    def test_a_check_that_raises_in_the_child_raises_here(self, forks):
        def boom(rng):  # index 1: the child's first check
            raise ZeroDivisionError("boom in the child")

        forks.setattr(verify, "_check_ratio_at_init", boom)
        with pytest.raises(ZeroDivisionError, match="^boom in the child$"):
            property_suite(0, 5)
        assert multiprocessing.active_children() == []

    def test_a_killed_child_raises_a_runtime_error(self, forks):
        forks.setattr(verify, "_check_ratio_at_init",
                      lambda rng: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match="child ended without a result"):
            property_suite(0, 5)
        assert multiprocessing.active_children() == []

    def test_an_interrupted_suite_stops_the_child(self, forks, capfd):
        started = multiprocessing.get_context("fork").Event()
        children = []

        def slow(rng):  # in the child
            started.set()
            time.sleep(60)

        def interrupt(rng):  # index 0, here
            assert started.wait(30)
            children.extend(multiprocessing.active_children())
            for child in children:  # Ctrl-C signals the whole foreground process group
                os.kill(child.pid, signal.SIGINT)
                child.join(timeout=0.2)
            raise KeyboardInterrupt

        forks.setattr(verify, "_check_ratio_at_init", slow)
        forks.setattr(verify, "_check_norm_scaling", interrupt)
        with pytest.raises(KeyboardInterrupt):
            property_suite(0, 1)
        assert multiprocessing.active_children() == []
        assert [child.exitcode for child in children] == [-signal.SIGTERM]  # stopped, not awaited
        assert capfd.readouterr().err == ""
