"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from normcontrol.harness import RunConfig, compare, parse_run_config, run, schedule_table_csv
from normcontrol.optim import (
    EtaTiedKt,
    OptimizerConfig,
    OptimizerState,
    Variant,
    adam_moment_update,
    regularize_norm_control,
    sgd_step_coupled_decay,
    step,
)
from normcontrol.params import ParamGroup, ParamStore
from normcontrol.schedules import (
    CosineSpec,
    PiecewiseLinearSpec,
    ScheduleSpec,
    cosine_value,
)
from normcontrol.tasks import build_task, finite_diff_check
from normcontrol.verify import (
    oracle_controlled_norm,
    oracle_from_store,
    oracle_step,
    property_suite,
)

EPS = float(np.finfo(np.float64).eps)
CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} criterion {num}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def _mlp_config(variant, lam=0.0, T=3000, rt=None, kt=0.01, eval_every=50, seed=0):
    return RunConfig(
        task="mlp",
        schedules=ScheduleSpec(
            horizon=T,
            eta=CosineSpec(),
            rt=rt or PiecewiseLinearSpec.const(0.0),
            kt=PiecewiseLinearSpec.const(kt),
        ),
        optimizer=OptimizerConfig(weight_decay=lam, variant=variant),
        dim=8, hidden=16, batch_size=32, seed=seed, eval_every=eval_every,
    )


def test_criterion_1_special_case_equivalence():
    t0 = time.perf_counter()
    T = 10_000
    lam = 0.1
    worst = 0.0
    for coupled in (True, False):
        rng = np.random.default_rng(0)
        task = build_task("mlp", 8, 16, rng)
        theta0 = task.init_theta(rng)
        base = ScheduleSpec(horizon=T)
        cfg_decay = OptimizerConfig(
            weight_decay=lam,
            variant=Variant.DECAY_COUPLED_LR if coupled else Variant.DECAY_DECOUPLED,
        )
        cfg_nc = OptimizerConfig(weight_decay=lam, variant=Variant.NORM_CONTROL)
        tied = EtaTiedKt(base, cfg_decay)

        store_a = ParamStore(theta0.copy(), task.groups)
        store_b = ParamStore(theta0.copy(), task.groups)
        state_a = OptimizerState.zeros(theta0.size)
        state_b = OptimizerState.zeros(theta0.size)
        for t in range(1, T + 1):
            batch = task.sample_batch(rng, 32)
            _, g_a = task.loss_and_grad(store_a.theta, batch)
            _, g_b = task.loss_and_grad(store_b.theta, batch)
            step(store_a, state_a, g_a, t, base, cfg_decay)
            step(store_b, state_b, g_b, t, tied, cfg_nc)
            denom = np.maximum(np.maximum(np.abs(store_a.theta), np.abs(store_b.theta)), 1e-15)
            worst = max(worst, float(np.max(np.abs(store_a.theta - store_b.theta) / denom)))
    _report(1, worst <= 1e-12,
            f"decay vs norm-control trajectories, {T} MLP steps, "
            f"max element rel diff {worst:.2e} (tol 1e-12)",
            time.perf_counter() - t0, 30.0)


def test_criterion_2_projection_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 1001))
        theta0 = rng.normal(size=dim) * 10.0 ** rng.uniform(-2, 2)
        store = ParamStore(theta0, [ParamGroup("w", 0, dim, True)])
        store.theta += rng.normal(size=dim) * 0.3
        r = float(rng.uniform(1e-3, 3.0))
        target = r * store.initial_norm
        regularize_norm_control(store, r, 1.0)
        worst = max(worst, abs(store.controlled_norm() - target) / target)
    _report(2, worst <= 8 * EPS,
            f"k=1 projection, 1000 cases, max norm rel err {worst / EPS:.2f} eps (tol 8 eps)",
            time.perf_counter() - t0, 5.0)


def test_criterion_3_convex_combination_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 1001))
        store = ParamStore(rng.normal(size=dim), [ParamGroup("w", 0, dim, True)])
        store.theta += rng.normal(size=dim) * 0.5
        n = store.controlled_norm()
        r = float(rng.uniform(np.nextafter(0.0, 1.0), 3.0))
        k = float(rng.uniform(0.0, 1.0))
        target = r * store.initial_norm
        regularize_norm_control(store, r, k)
        err = abs(store.controlled_norm() - ((1.0 - k) * n + k * target)) / max(1.0, target)
        worst = max(worst, err)
    _report(3, worst <= 1e-10,
            f"convex-combination law, 1000 cases, max err {worst:.2e} (tol 1e-10)",
            time.perf_counter() - t0, 5.0)


def test_criterion_4_norm_tracking():
    t0 = time.perf_counter()
    T = 5000
    ramp = PiecewiseLinearSpec.linear([(0, 1.0), (250, 2.0)])
    config = _mlp_config(Variant.NORM_CONTROL, T=T, rt=ramp, kt=0.01, eval_every=1)

    # independent oracle simulation of the same run validates the tolerance
    from normcontrol.harness import initialize_run

    task, store, rng = initialize_run(config)
    oracle = oracle_from_store(store)
    cfg = config.optimizer
    sched = config.schedules
    worst_oracle = 0.0
    for t in range(1, T + 1):
        batch = task.sample_batch(rng, config.batch_size)
        _, g = task.loss_and_grad(np.asarray(oracle.theta), batch)
        oracle_step(oracle, g, t, sched.eta_at(t), sched.rt_at(t), sched.kt_at(t), cfg)
        if t > 500:
            ratio = oracle_controlled_norm(oracle.theta, oracle.controlled) / oracle.initial_norm
            r_t = sched.rt_at(t)
            worst_oracle = max(worst_oracle, abs(ratio - r_t) / r_t)
    assert worst_oracle <= 0.05, f"oracle simulation violates tolerance: {worst_oracle:.4f}"

    trace = run(config)
    worst = max(abs(row.norm_ratio - row.r_t) / row.r_t
                for row in trace.rows if row.t > 500)
    _report(4, worst <= 0.05,
            f"norm tracking t>500, max |ratio - r_t|/r_t {worst:.4f} "
            f"(tol 0.05; oracle sim {worst_oracle:.4f})",
            time.perf_counter() - t0, 60.0)


def test_criterion_5_calibration_protocol():
    t0 = time.perf_counter()
    config_a = _mlp_config(Variant.DECAY_COUPLED_LR, lam=0.1, T=3000)
    template_b = _mlp_config(Variant.NORM_CONTROL, T=3000)
    report = compare(config_a, template_b)
    ratio_ok = report.ratio_gap <= 0.05 * report.final_ratio_a
    loss_rel = abs(report.final_val_loss_b - report.final_val_loss_a) / abs(report.final_val_loss_a)
    _report(5, ratio_ok and loss_rel <= 0.05,
            f"calibration: ratio A {report.final_ratio_a:.4f}, B {report.final_ratio_b:.4f} "
            f"(gap {report.ratio_gap:.2e}); val loss A {report.final_val_loss_a:.5f}, "
            f"B {report.final_val_loss_b:.5f} (rel diff {loss_rel:.4f}, tol 0.05)",
            time.perf_counter() - t0, 120.0)



@pytest.mark.parametrize("seed", [25, 105])
def test_criterion_5_val_loss_gate_on_shipped_configs(seed):
    # the seeds of 0-199 where calibrating to A's end point alone missed the gate
    config_a, template_b = (replace(parse_run_config((CONFIGS_DIR / name).read_text()), seed=seed)
                            for name in ("mlp_adamw.cfg", "mlp_norm_control.cfg"))
    report = compare(config_a, template_b)
    loss_rel = abs(report.final_val_loss_b - report.final_val_loss_a) / abs(report.final_val_loss_a)
    assert loss_rel <= 0.05, f"seed {seed}: val loss rel diff {loss_rel:.4f} (tol 0.05)"
    assert report.ratio_gap <= 0.05 * report.final_ratio_a


def test_claim_a_projection_lands_on_the_reference_norm_ratio():
    """With kt = const(1), B's norm ratio at each of A's eval rows is A's, r, up to roundings.

    There B's r_t is r exactly (a breakpoint), and k_t = 1 scales the controlled
    elements by f = fl(fl(r * n0) / n): the norm target over the norm n, two
    roundings. Each scaled element rounds once, and a norm within (1 +- u)^2 of
    the exact one: the rounded squares and their fsum, under the sqrt, count as
    one factor, the sqrt as another. B logs fl(N / n0), one more rounding, of
    the norm N after the step. So N / n0 is r times six factors of (1 +- u) (two
    in f, one in the elements, two in N, one in the division) over two (in n).
    """
    config_a, template_b = (parse_run_config((CONFIGS_DIR / name).read_text())
                            for name in ("mlp_adamw.cfg", "mlp_norm_control.cfg"))
    template_b = replace(template_b, schedules=replace(template_b.schedules,
                                                       kt=PiecewiseLinearSpec.const(1.0)))
    report = compare(config_a, template_b)
    u = Fraction(1, 2**53)
    lo, hi = (1 - u)**6 / (1 + u)**2, (1 + u)**6 / (1 - u)**2
    rows_a, rows_b = report.trace_a.rows, report.trace_b.rows
    assert [a.t for a in rows_a] == [b.t for b in rows_b] and len(rows_a) == 60
    for a, b in zip(rows_a, rows_b):
        assert b.r_t == a.norm_ratio and b.k_t == 1.0, b
        assert lo <= Fraction(b.norm_ratio) / Fraction(a.norm_ratio) <= hi, (a, b)


def test_criterion_6_schedule_endpoints():
    t0 = time.perf_counter()
    eta_ok = all(
        cosine_value(CosineSpec(1.0, 0.1), 0, T) == 1.0
        and cosine_value(CosineSpec(1.0, 0.1), T, T) == 0.1
        for T in (100, 1000, 50_000)
    )
    spec = ScheduleSpec(horizon=5000, rt=PiecewiseLinearSpec.linear([(0, 1.0), (2500, 2.415)]))
    csv_text = schedule_table_csv(spec, OptimizerConfig(variant=Variant.NORM_CONTROL), 500)
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]  # %.17g reads back exactly
    table = {int(t): float(r) for t, _, r, _ in rows}
    rt_ok = table[0] == 1.0 and table[2500] == 2.415
    _report(6, eta_ok and rt_ok,
            "eta(0)=1.0 and eta(T)=0.1 exactly; rt table hits (0,1.0) and (2500,2.415) exactly",
            time.perf_counter() - t0, 5.0)


def test_criterion_7_bias_correction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        dim = int(rng.integers(1, 64))
        g = rng.normal(size=dim) * 10.0 ** rng.uniform(-4, 4)
        m_hat, v_hat = adam_moment_update(np.zeros(dim), np.zeros(dim), g, 1, OptimizerConfig())
        ok &= np.array_equal(m_hat, g) and np.array_equal(v_hat, g * g)
    _report(7, ok, "at t=1, m_hat == g and v_hat == g^2 exactly for 100 random gradients",
            time.perf_counter() - t0, 5.0)


def test_criterion_8_gradient_correctness():
    t0 = time.perf_counter()
    tolerances = {"quadratic": 1e-9, "logistic": 1e-6, "mlp": 1e-5}
    worst = {}
    for name, tol in tolerances.items():
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            task = build_task(name, 8, 16, rng)
            theta = task.init_theta(rng)
            batch = task.sample_batch(rng, 32)
            errs.append(finite_diff_check(task, theta, batch, h=1e-5))
        worst[name] = max(errs)
        assert worst[name] <= tol, f"{name}: {worst[name]:.2e} > {tol}"
    _report(8, True,
            "gradient checks over 20 seeds: "
            + ", ".join(f"{n} {worst[n]:.1e} (tol {tolerances[n]:.0e})" for n in worst),
            time.perf_counter() - t0, 30.0)


def test_criterion_9_coupled_sgd_closed_form():
    t0 = time.perf_counter()
    T, lam = 100, 0.1
    theta0 = np.linspace(-2.0, 2.0, 16) + 0.1
    store = ParamStore(theta0.copy(), [ParamGroup("w", 0, 16, True)])
    g = np.zeros(16)
    for _ in range(T):
        sgd_step_coupled_decay(store, g, alpha=0.01, weight_decay=lam)
    expected = (1.0 - lam) ** T * theta0
    worst = float(np.max(np.abs(store.theta - expected) / np.abs(expected)))
    _report(9, worst <= 1e-12,
            f"zero-gradient decay matches (1-lam)^T closed form, max rel err {worst:.2e}",
            time.perf_counter() - t0, 5.0)


def test_criterion_10_property_suite():
    t0 = time.perf_counter()
    report = property_suite(seed=0, cases=1000)
    elapsed = time.perf_counter() - t0
    if not report.all_passed:
        print(report.format())
    _report(10, report.all_passed,
            f"property suite: {len(report.results)} properties, "
            f"{report.total_failures} failures (all four variants at 1000 oracle cases each, "
            "finiteness checked throughout)",
            elapsed, 60.0)
