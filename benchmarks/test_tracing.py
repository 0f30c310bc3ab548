"""Tests of the benchmark's span bookkeeping: python3 -m pytest benchmarks"""

import sys
from pathlib import Path

import numpy as np

import tracing

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import normcontrol  # noqa: E402
from normcontrol import cli, optim, params  # noqa: E402,F401  (the tracer wraps cli.main)


def test_self_time_and_calls_per_step_from_synthetic_spans():
    spans = [
        ("harness.run", 0, 100, -1, 1),
        ("optim.step", 10, 60, 0, 1),
        ("params.controlled_norm", 12, 20, 1, 1),
        ("params.controlled_norm", 30, 40, 1, 1),
        ("schedules.eta_at", 41, 44, 1, 1),
        ("tasks.val_batch", 70, 71, 0, 1),
        ("tasks.loss_and_grad", 72, 90, 0, 1),
        ("optim.step", 200, 210, -1, 2),
    ]
    m = tracing.layer_metrics(spans)
    assert m["params.controlled_norm.calls_per_step"] == 1.0
    assert m["harness.run.self_us_per_step"] == (100 - 50 - 1 - 18) / 1e3
    assert m["schedules.lookup.us_per_step"] == 3 / 1e3 / 2
    assert m["tasks.val_loss.us"] == 18 / 1e3
    assert m["tasks.loss_and_grad.us"] == 0.0
    assert tracing.layer_metrics(spans, {2})["optim.step.self_us"] == 10 / 1e3


def test_tracer_records_nested_spans_and_restores_originals():
    originals = (optim.step, normcontrol.step, params.ParamStore.controlled_norm)
    tracer = tracing.Tracer()
    tracer.install(normcontrol)
    try:
        store = params.ParamStore(np.ones(4), [params.ParamGroup("w", 0, 4)])
        state = optim.OptimizerState.zeros(4)
        sched = normcontrol.ScheduleSpec(horizon=10, rt=normcontrol.PiecewiseLinearSpec.const(1.5))
        cfg = optim.OptimizerConfig(variant=optim.Variant.NORM_CONTROL)
        normcontrol.step(store, state, np.ones(4), 1, sched, cfg)
    finally:
        tracer.uninstall()
    assert (optim.step, normcontrol.step, params.ParamStore.controlled_norm) == originals
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["params.store_init", "params.controlled_norm"]
    step = names.index("optim.step")
    assert all(s[3] >= step for s in tracer.spans[step + 1:])
    assert tracer.spans[names.index("optim.adam_moment_update")][3] == step
    assert tracing.layer_metrics(tracer.spans)["params.controlled_norm.calls_per_step"] == 3.0


def test_count_steps_and_alloc_peaks_restore_step():
    store = params.ParamStore(np.ones(4), [params.ParamGroup("w", 0, 4)])
    state = optim.OptimizerState.zeros(4)
    sched = normcontrol.ScheduleSpec(horizon=10, rt=normcontrol.PiecewiseLinearSpec.const(1.5))
    cfg = optim.OptimizerConfig(variant=optim.Variant.NORM_CONTROL)

    def two_steps():
        for _ in range(2):
            optim.step(store, state, np.ones(4), state.t + 1, sched, cfg)

    original = optim.step
    assert tracing.count_steps(normcontrol, two_steps) == 2
    peaks = tracing.step_alloc_peaks(normcontrol, two_steps)
    assert len(peaks) == 2 and all(p > 0 for p in peaks)
    assert optim.step is original
