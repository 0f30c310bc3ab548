import contextlib
import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcontrol import optim
from normcontrol.optim import (
    EtaTiedKt,
    OptimizerConfig,
    OptimizerState,
    Variant,
    adam_moment_update,
    adam_param_update,
    regularize_decay,
    regularize_norm_control,
    sgd_step_coupled_decay,
    step,
)
from normcontrol.params import ParamGroup, ParamStore
from normcontrol.schedules import (
    ConfigError,
    CosineSpec,
    PiecewiseLinearSpec,
    ScheduleSpec,
)

EPS = np.finfo(np.float64).eps


def one_group_store(vals, initial_norm=None):
    arr = np.asarray(vals, dtype=float)
    return ParamStore(arr, [ParamGroup("w", 0, arr.size, True)], initial_norm=initial_norm)


def mixed_store(controlled, uncontrolled):
    theta = np.concatenate([controlled, uncontrolled])
    return ParamStore(theta, [
        ParamGroup("w", 0, len(controlled), True),
        ParamGroup("u", len(controlled), len(uncontrolled), False),
    ])


class TestMomentUpdate:
    def test_first_step_m(self):
        state = OptimizerState.zeros(1)
        state.t = 1
        m_hat, _ = adam_moment_update(state.m, state.v, np.array([1.0]), state.t, OptimizerConfig())
        assert state.m[0] == pytest.approx(0.1, rel=1e-15)
        assert m_hat[0] == 1.0

    def test_first_step_v(self):
        state = OptimizerState.zeros(1)
        state.t = 1
        _, v_hat = adam_moment_update(state.m, state.v, np.array([2.0]), state.t, OptimizerConfig())
        assert state.v[0] == pytest.approx(0.004, rel=1e-15)
        assert v_hat[0] == 4.0

    def test_two_steps_constant_gradient(self):
        # hand-unrolled: m2 = 0.9*0.1 + 0.1 = 0.19, bias divisor 1 - 0.81 = 0.19
        state = OptimizerState.zeros(1)
        g = np.array([1.0])
        cfg = OptimizerConfig()
        state.t = 1
        adam_moment_update(state.m, state.v, g, state.t, cfg)
        state.t = 2
        m_t, _ = adam_moment_update(state.m, state.v, g, state.t, cfg)
        assert m_t is state.m  # the parameter update applies the bias correction
        assert state.m[0] == pytest.approx(0.19, rel=1e-15)
        assert m_t[0] / (1.0 - cfg.beta1**2) == pytest.approx(1.0, rel=1e-14)

    def test_requires_incremented_t(self):
        state = OptimizerState.zeros(1)
        with pytest.raises(ValueError, match="incremented"):
            adam_moment_update(state.m, state.v, np.array([1.0]), state.t, OptimizerConfig())

    def test_shape_mismatch(self):
        state = OptimizerState.zeros(2)
        state.t = 1
        with pytest.raises(ValueError, match="shape"):
            adam_moment_update(state.m, state.v, np.array([1.0]), state.t, OptimizerConfig())

    def test_bias_correction_exact_for_random_gradients(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = rng.normal(size=8) * 10.0 ** rng.uniform(-3, 3)
            state = OptimizerState.zeros(8)
            state.t = 1
            m_hat, v_hat = adam_moment_update(state.m, state.v, g, state.t, OptimizerConfig())
            assert np.array_equal(m_hat, g)
            assert np.array_equal(v_hat, g * g)


class TestParamUpdate:
    def test_direct_substitution(self):
        store = one_group_store([0.0])
        adam_param_update(store.theta, np.array([1.0]), np.array([1.0]), 1, 1.0, OptimizerConfig())
        assert store.theta[0] == pytest.approx(-0.001 / (1.0 + 1e-8), rel=1e-15)

    def test_zero_gradient_leaves_theta(self):
        store = one_group_store([1.5, -2.5])
        adam_param_update(store.theta, np.zeros(2), np.ones(2), 1, 1.0, OptimizerConfig())
        assert list(store.theta) == [1.5, -2.5]

    def test_scalar_evaluation(self):
        store = one_group_store([1.0])
        adam_param_update(store.theta, np.array([4.0]), np.array([4.0]), 1, 0.5, OptimizerConfig())
        expected = 1.0 - 0.5 * 0.001 * 4.0 / (2.0 + 1e-8)
        assert store.theta[0] == pytest.approx(expected, rel=1e-15)
        assert store.theta[0] == pytest.approx(0.999, abs=1e-5)

    def test_bias_corrections_after_the_first_step(self):
        # at t = 2, m_hat = 0.19 / (1 - 0.9**2) = 1 and v_hat = 4, so sqrt(v_hat) = 2
        store = one_group_store([1.0])
        cfg = OptimizerConfig()
        m, v = np.array([0.19]), np.array([4.0 * (1.0 - cfg.beta2**2)])
        adam_param_update(store.theta, m, v, 2, 0.5, cfg)
        expected = 1.0 - 0.5 * 0.001 * 1.0 / (2.0 + 1e-8)
        assert store.theta[0] == pytest.approx(expected, rel=1e-15)
        assert list(m) == [0.19] and list(v) == [4.0 * (1.0 - cfg.beta2**2)]  # read only

    def test_applies_to_uncontrolled_groups_too(self):
        store = mixed_store([1.0], [1.0])
        adam_param_update(store.theta, np.ones(2), np.ones(2), 1, 1.0, OptimizerConfig())
        assert store.theta[0] == store.theta[1]  # loss update never masked

    def test_shape_mismatch(self):
        store = one_group_store([1.0, 2.0])
        for m_hat, v_hat in ((np.ones(3), np.ones(2)), (np.ones(2), np.ones(1))):
            with pytest.raises(ValueError, match="^moment shapes do not match"):
                adam_param_update(store.theta, m_hat, v_hat, 1, 1.0, OptimizerConfig())
        assert list(store.theta) == [1.0, 2.0]


class TestRegularizeDecay:
    def test_basic_decay(self):
        store = one_group_store([2.0, -2.0])
        regularize_decay(store, 0.1)
        assert list(store.theta) == [1.8, -1.8]

    def test_zero_rate_identity(self):
        store = one_group_store([1.23])
        regularize_decay(store, 0.0)
        assert store.theta[0] == 1.23

    def test_full_decay(self):
        store = one_group_store([1.0])
        regularize_decay(store, 1.0)
        assert store.theta[0] == 0.0

    def test_skips_uncontrolled(self):
        store = mixed_store([2.0], [2.0])
        regularize_decay(store, 0.5)
        assert store.theta[0] == 1.0
        assert store.theta[1] == 2.0

    def test_rate_outside_zero_one_rejected(self):
        # NaN would turn the weights into NaN, a rate above 1 flip their signs
        for rate in (math.nan, 1.5, -0.1):
            store = one_group_store([2.0, -2.0])
            with pytest.raises(ValueError, match=r"^k_t must be in \[0, 1\], got"):
                regularize_decay(store, rate)
            assert list(store.theta) == [2.0, -2.0]


class TestNormControl:
    def test_full_projection(self):
        store = one_group_store([3.0, 4.0], initial_norm=2.0)
        regularize_norm_control(store, 1.0, 1.0)
        assert store.theta == pytest.approx([1.2, 1.6], rel=2 * EPS)
        assert store.controlled_norm() == 2.0

    def test_r_zero_reduces_to_decay(self):
        store = one_group_store([3.0, 4.0])
        regularize_norm_control(store, 0.0, 0.1)
        assert list(store.theta) == [2.7, 3.6]

    def test_convex_combination_case(self):
        # factor (1-k) + k*target/n = 0.5 + 0.5*(10/5) = 1.5
        store = one_group_store([3.0, 4.0], initial_norm=5.0)
        regularize_norm_control(store, 2.0, 0.5)
        assert list(store.theta) == [4.5, 6.0]
        assert store.controlled_norm() == 7.5
        assert store.controlled_norm() == 0.5 * 5.0 + 0.5 * 10.0

    def test_zero_vector_is_noop_for_positive_target(self):
        store = one_group_store([0.0, 0.0], initial_norm=1.0)
        with pytest.warns(RuntimeWarning, match="norm control skipped"):
            regularize_norm_control(store, 1.5, 0.5)
        assert list(store.theta) == [0.0, 0.0]

    def test_zero_rate_is_no_control_even_toward_a_huge_target(self):
        # target/norm overflows to inf, and a blend of 0 * inf made theta NaN
        store = one_group_store([2.2e-20], initial_norm=1.0)
        assert regularize_norm_control(store, 1e300, 0.0) == 1.0
        assert store.theta[0] == 2.2e-20

    def test_zero_rate_on_zero_vector_does_not_warn(self):
        store = one_group_store([0.0, 0.0], initial_norm=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert regularize_norm_control(store, 1.0, 0.0) == 1.0
        assert list(store.theta) == [0.0, 0.0]

    def test_r_zero_on_zero_vector_needs_no_division(self):
        store = one_group_store([0.0], initial_norm=1.0)
        regularize_norm_control(store, 0.0, 0.5)
        assert store.theta[0] == 0.0

    def test_k_out_of_range(self):
        store = one_group_store([1.0])
        with pytest.raises(ValueError, match="k_t"):
            regularize_norm_control(store, 1.0, 1.5)

    def test_negative_or_nan_r_rejected(self):
        for r in (-1.0, math.nan, math.inf):  # an infinite r_t at k_t = 0 blended to NaN
            store = one_group_store([3.0, 4.0])
            with pytest.raises(ValueError, match="r_t"):
                regularize_norm_control(store, r, 0.0 if r == math.inf else 0.5)
            assert list(store.theta) == [3.0, 4.0]

    def test_non_finite_norm_target_rejected(self):
        # an infinite initial norm blended [1, 0, 2] to [inf, nan, inf]; a NaN one gave NaN
        for store in (one_group_store([1.0, 0.0, 2.0], initial_norm=math.inf),
                      one_group_store([math.nan, 4.0])):
            before = store.theta.copy()
            with pytest.raises(ValueError, match="^norm target "):
                regularize_norm_control(store, 1.0, 0.5)
            assert np.array_equal(store.theta, before, equal_nan=True)

    def test_uncontrolled_untouched(self):
        store = mixed_store([3.0, 4.0], [7.0])
        regularize_norm_control(store, 2.0, 1.0)
        assert store.theta[2] == 7.0


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 200),
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(1e-6, 3.0, allow_nan=False),
    st.integers(0, 2**32 - 1),
)
def test_convex_combination_law(dim, k, r, seed):
    rng = np.random.default_rng(seed)
    store = one_group_store(rng.normal(size=dim))
    store.theta += rng.normal(size=dim) * 0.5
    n = store.controlled_norm()
    if n < 1e-30 or store.initial_norm == 0.0:
        return
    target = r * store.initial_norm
    regularize_norm_control(store, r, k)
    assert abs(store.controlled_norm() - ((1 - k) * n + k * target)) <= 1e-10 * max(1.0, target)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 200), st.floats(0.0, 0.999), st.floats(1e-3, 3.0), st.integers(0, 2**32 - 1))
def test_direction_preserved(dim, k, r, seed):
    rng = np.random.default_rng(seed)
    store = one_group_store(rng.normal(size=dim))
    signs = np.sign(store.theta).copy()
    regularize_norm_control(store, r, k)
    assert np.all(np.sign(store.theta) == signs)


class TestCoupledSgd:
    def test_pure_decay_term(self):
        store = one_group_store([1.0])
        sgd_step_coupled_decay(store, np.array([0.0]), 0.01, 0.1)
        assert store.theta[0] == 0.9

    def test_pure_gradient_term(self):
        store = one_group_store([0.0])
        sgd_step_coupled_decay(store, np.array([1.0]), 0.01, 0.1)
        assert store.theta[0] == -0.01

    def test_fused_update(self):
        store = one_group_store([2.0])
        sgd_step_coupled_decay(store, np.array([1.0]), 0.1, 0.5)
        assert store.theta[0] == (1.0 - 0.5) * 2.0 - 0.1 * 1.0
        assert store.theta[0] == 0.9

    def test_uncontrolled_gets_plain_gradient_step(self):
        store = mixed_store([2.0], [2.0])
        sgd_step_coupled_decay(store, np.array([1.0, 1.0]), 0.1, 0.5)
        assert store.theta[0] == 0.9
        assert store.theta[1] == pytest.approx(1.9)

    def test_shape_mismatch(self):
        store = one_group_store([2.0, 3.0])
        with pytest.raises(ValueError, match="^gradient shape"):
            sgd_step_coupled_decay(store, np.ones(3), 0.1, 0.5)
        assert list(store.theta) == [2.0, 3.0]


def _run_steps(variant, sched, lam, grads):
    dim = grads.shape[1]
    store = one_group_store(np.linspace(-1.0, 1.0, dim) + 0.1)
    state = OptimizerState.zeros(dim)
    cfg = OptimizerConfig(weight_decay=lam, variant=variant)
    for t in range(1, grads.shape[0] + 1):
        step(store, state, grads[t - 1], t, sched, cfg)
    return store.theta


@pytest.mark.parametrize("coupled", [True, False])
def test_step_decay_is_special_case_of_norm_control(coupled):
    rng = np.random.default_rng(11)
    grads = rng.normal(size=(200, 10))
    lam = 0.1
    base = ScheduleSpec(horizon=200)
    decay_variant = Variant.DECAY_COUPLED_LR if coupled else Variant.DECAY_DECOUPLED
    theta_decay = _run_steps(decay_variant, base, lam, grads)
    tied = EtaTiedKt(base, OptimizerConfig(weight_decay=lam, variant=decay_variant))
    theta_nc = _run_steps(Variant.NORM_CONTROL, tied, lam, grads)
    assert np.array_equal(theta_decay, theta_nc)  # bitwise by construction


def test_step_variant_none_is_bare_adam():
    rng = np.random.default_rng(12)
    grads = rng.normal(size=(50, 6))
    base = ScheduleSpec(horizon=50)
    theta_none = _run_steps(Variant.NONE, base, 0.3, grads)

    store = one_group_store(np.linspace(-1.0, 1.0, 6) + 0.1)
    state = OptimizerState.zeros(6)
    cfg = OptimizerConfig()
    for t in range(1, 51):
        state.t = t
        m_t, v_t = adam_moment_update(state.m, state.v, grads[t - 1], state.t, cfg)
        adam_param_update(store.theta, m_t, v_t, state.t, base.eta_at(t), cfg)
    assert np.array_equal(theta_none, store.theta)


def test_an_integer_gradient_is_squared_in_float64():
    # 2**32 squared wraps to 0 in int64; in float64 it is exactly 2**64.
    store = one_group_store([1.0, 1.0])
    state = OptimizerState.zeros(2)
    cfg = OptimizerConfig()
    step(store, state, np.array([2**32, 3]), 1, ScheduleSpec(horizon=10), cfg)
    assert state.v[0] == (1.0 - cfg.beta2) * 2.0**64
    assert np.all(np.abs(store.theta - 1.0) < 1.0)


@pytest.mark.parametrize("variant", list(Variant))
def test_a_float32_gradient_steps_as_its_float64_conversion(variant):
    rng = np.random.default_rng(20)
    sched = ScheduleSpec(horizon=10, rt=PiecewiseLinearSpec.const(1.5))
    cfg = OptimizerConfig(weight_decay=0.1, variant=variant)
    for store in (mixed_store(rng.normal(size=6), rng.normal(size=3)), _chunked_store(rng)):
        wide, wide_state = store.snapshot(), OptimizerState.zeros(store.theta.size)
        state = OptimizerState.zeros(store.theta.size)
        for t in (1, 2, 3):
            g = (rng.normal(size=store.theta.size) * 3.0).astype(np.float32)
            step(store, state, g, t, sched, cfg)
            step(wide, wide_state, g.astype(np.float64), t, sched, cfg)
        for got, want in zip((store.theta, state.m, state.v),
                             (wide.theta, wide_state.m, wide_state.v)):
            assert np.array_equal(got, want)


def test_step_rejects_nonconsecutive_t():
    store = one_group_store([1.0])
    state = OptimizerState.zeros(1)
    for t in (5, True, 1.0):  # a bool or float index would land in state.t
        with pytest.raises(ValueError, match="consecutive"):
            step(store, state, np.array([0.1]), t, ScheduleSpec(horizon=10), OptimizerConfig())
        assert list(store.theta) == [1.0] and state.t == 0 and type(state.t) is int
        assert list(state.m) == list(state.v) == [0.0]


def test_step_report_fields():
    # zero gradient: Adam leaves theta alone, then the blend 0.5 + 0.5 * 10/5 applies
    store = one_group_store([3.0, 4.0])
    state = OptimizerState.zeros(2)
    sched = ScheduleSpec(horizon=10, rt=PiecewiseLinearSpec.const(2.0),
                         kt=PiecewiseLinearSpec.const(0.5))
    cfg = OptimizerConfig(variant=Variant.NORM_CONTROL)
    report = step(store, state, np.array([0.0, 0.0]), 1, sched, cfg)
    assert report.t == 1 and state.t == 1
    assert report.eta_t == sched.eta_at(1)
    assert report.r_t == 2.0 and report.k_t == 0.5
    assert report.target_norm == 10.0
    assert report.scale == 1.5
    assert list(store.theta) == [4.5, 6.0]


def test_coupled_sgd_reports_the_multiplier_it_applies():
    sched = ScheduleSpec(horizon=10, eta=CosineSpec(0.5, 0.5))
    cfg = OptimizerConfig(alpha=0.1, weight_decay=0.5, variant=Variant.COUPLED_SGD)
    store = one_group_store([2.0])
    report = step(store, OptimizerState.zeros(1), np.array([1.0]), 1, sched, cfg)
    assert report.eta_t == 1.0  # the schedule's 0.5 is never applied
    assert store.theta[0] == 0.5 * 2.0 - 0.1 * 1.0


def test_regularizers_return_the_applied_factor():
    assert regularize_decay(one_group_store([2.0]), 0.25) == 0.75
    assert sgd_step_coupled_decay(one_group_store([2.0]), np.array([1.0]), 0.1, 0.5) == 0.5
    assert regularize_norm_control(one_group_store([3.0, 4.0]), 0.0, 0.1) == 1.0 - 0.1
    assert regularize_norm_control(one_group_store([3.0, 4.0], initial_norm=5.0), 2.0, 0.5) == 1.5
    with pytest.warns(RuntimeWarning, match="norm control skipped"):
        assert regularize_norm_control(one_group_store([0.0], initial_norm=1.0), 1.5, 0.5) == 1.0


@pytest.mark.parametrize("variant", list(Variant))
def test_step_report_scale_is_the_factor_on_controlled_groups(variant):
    rng = np.random.default_rng(5)
    lam, k = 0.2, 0.3
    sched = ScheduleSpec(horizon=10, rt=PiecewiseLinearSpec.const(1.5),
                         kt=PiecewiseLinearSpec.const(k))
    store = mixed_store(rng.normal(size=6), rng.normal(size=3))
    state = OptimizerState.zeros(9)
    g = rng.normal(size=9)
    cfg = OptimizerConfig(weight_decay=lam, variant=variant)
    # The same step without regularization: what the factor multiplies.
    bare, bare_state = store.snapshot(), OptimizerState.zeros(9)
    step(bare, bare_state, g, 1, sched, OptimizerConfig(weight_decay=lam))
    report = step(store, state, g, 1, sched, cfg)
    eta = sched.eta_at(1)
    expected = {
        Variant.NONE: 1.0,
        Variant.DECAY_COUPLED_LR: 1.0 - eta * cfg.alpha * lam,
        Variant.DECAY_DECOUPLED: 1.0 - eta * lam,
        Variant.NORM_CONTROL: (1.0 - k) + k * (1.5 * store.initial_norm / bare.controlled_norm()),
        Variant.COUPLED_SGD: 1.0 - lam,
    }[variant]
    assert report.scale == expected
    if variant is not Variant.COUPLED_SGD:
        assert np.array_equal(store.theta[:6], bare.theta[:6] * report.scale)
        assert np.array_equal(store.theta[6:], bare.theta[6:])


@pytest.mark.parametrize("coupled", [True, False])
def test_decay_equivalent_norm_control_reports_equal_scale(coupled):
    rng = np.random.default_rng(13)
    lam = 0.1
    base = ScheduleSpec(horizon=100)
    decay_cfg = OptimizerConfig(weight_decay=lam, variant=(Variant.DECAY_COUPLED_LR if coupled
                                                           else Variant.DECAY_DECOUPLED))
    nc_cfg = OptimizerConfig(weight_decay=lam, variant=Variant.NORM_CONTROL)
    tied = EtaTiedKt(base, decay_cfg)
    stores = [one_group_store(rng.normal(size=5)) for _ in range(2)]
    stores[1].theta[:] = stores[0].theta
    states = [OptimizerState.zeros(5), OptimizerState.zeros(5)]
    for t in range(1, 101):
        g = rng.normal(size=5)
        a = step(stores[0], states[0], g, t, base, decay_cfg)
        b = step(stores[1], states[1], g, t, tied, nc_cfg)
        assert a.scale == b.scale, t  # bitwise: both are 1 - eta_t * alpha0 * lam (or 1 - eta_t * lam)
        assert a.scale < 1.0


@pytest.mark.parametrize("r", [0.0, 1.5])
@pytest.mark.parametrize("variant", list(Variant))
def test_controlled_norm_calls_per_step(variant, r, monkeypatch):
    store = mixed_store([3.0, 4.0], [1.0])
    state = OptimizerState.zeros(3)
    calls = []
    measure = ParamStore.controlled_norm
    monkeypatch.setattr(ParamStore, "controlled_norm",
                        lambda self: calls.append(None) or measure(self))
    sched = ScheduleSpec(horizon=10, rt=PiecewiseLinearSpec.const(r),
                         kt=PiecewiseLinearSpec.const(0.1))
    cfg = OptimizerConfig(weight_decay=0.1, variant=variant)
    for t in range(1, 4):
        step(store, state, np.array([0.1, -0.2, 0.3]), t, sched, cfg)
    per_step = 1 if variant is Variant.NORM_CONTROL and r > 0.0 else 0
    assert len(calls) == 3 * per_step


@pytest.mark.parametrize("variant", [Variant.NORM_CONTROL, Variant.DECAY_DECOUPLED,
                                     Variant.COUPLED_SGD])
def test_a_zero_rate_measures_and_scales_nothing(variant, monkeypatch):
    # norm control at kt 0, and a decay at lambda = 0
    store = mixed_store([3.0, 4.0], [1.0])  # measures the initial norm
    state = OptimizerState.zeros(3)
    calls = []
    for name in ("controlled_norm", "scale_controlled"):
        method = getattr(ParamStore, name)
        monkeypatch.setattr(ParamStore, name, lambda self, *args, name=name, method=method:
                            calls.append(name) or method(self, *args))
    sched = ScheduleSpec(horizon=10, rt=PiecewiseLinearSpec.const(1.5),
                         kt=PiecewiseLinearSpec.const(0.0))
    cfg = OptimizerConfig(weight_decay=0.0, variant=variant)
    for t in range(1, 6):
        assert step(store, state, np.array([0.1, -0.2, 0.3]), t, sched, cfg).scale == 1.0
    assert calls == []


@pytest.mark.parametrize("variant", list(Variant))
def test_every_regularized_variant_is_one_norm_control_call(variant, monkeypatch):
    calls = []
    regularize = optim.regularize_norm_control
    monkeypatch.setattr(optim, "regularize_norm_control",
                        lambda *args: calls.append(args[1:3]) or regularize(*args))
    sched = ScheduleSpec(horizon=10, rt=PiecewiseLinearSpec.const(1.5),
                         kt=PiecewiseLinearSpec.const(0.3))
    cfg = OptimizerConfig(weight_decay=0.2, variant=variant)
    report = step(mixed_store([3.0, 4.0], [1.0]), OptimizerState.zeros(3),
                  np.array([0.1, -0.2, 0.3]), 1, sched, cfg)
    assert calls == [(report.r_t, report.k_t)]
    assert report.k_t == (0.3 if variant is Variant.NORM_CONTROL
                          else cfg.decay_rate(sched.eta_at(1)))


@pytest.mark.parametrize("variant", [Variant.DECAY_DECOUPLED, Variant.COUPLED_SGD])
def test_step_rejects_a_decay_rate_above_one(variant):
    store = one_group_store([1.0, -2.0])
    state = OptimizerState.zeros(2)
    with pytest.raises(ValueError, match="k_t"):
        step(store, state, np.array([0.1, 0.1]), 1, ScheduleSpec(horizon=10),
             OptimizerConfig(weight_decay=1.5, variant=variant))


def test_config_validation():
    with pytest.raises(ValueError, match="beta1"):
        OptimizerConfig(beta1=1.0)
    with pytest.raises(ValueError, match="alpha"):
        OptimizerConfig(alpha=0.0)
    with pytest.raises(ValueError, match="weight_decay"):
        OptimizerConfig(weight_decay=-0.1)


def test_config_rejects_a_variant_that_is_not_a_variant():
    # Text is not a Variant: a config built with it used to run as bare Adam.
    with pytest.raises(ConfigError) as e:
        OptimizerConfig(variant="decay_coupled_lr", weight_decay=0.5)
    assert str(e.value) == "variant: must be a Variant, got 'decay_coupled_lr'"


@pytest.mark.parametrize("variant", list(Variant))
def test_step_allocates_no_full_size_array(variant):
    # The certified norm keeps about 512 KB of block buffers whatever the store
    # size, so the store is large enough (1.6 MB per array) to tell them apart
    # from a temporary of theta's size.
    n = 200_000
    rng = np.random.default_rng(5)
    store = mixed_store(rng.normal(size=n - n // 10), rng.normal(size=n // 10))
    state = OptimizerState.zeros(n)
    sched = ScheduleSpec(horizon=10, rt=PiecewiseLinearSpec.const(1.5))
    cfg = OptimizerConfig(weight_decay=0.1, variant=variant)
    g = rng.normal(size=n)
    step(store, state, g, 1, sched, cfg)  # warm-up
    tracemalloc.start()
    try:
        step(store, state, g, 2, sched, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.nbytes, f"{variant.value}: step peaked at {peak} bytes"


def test_the_adam_half_reuses_one_part_buffer():
    # Every part's temporary goes to the same part-sized buffer (256 KB): a new
    # buffer per part kept two alive at once, 512 KB.
    n = 3 * optim._CHUNK + 7
    rng = np.random.default_rng(6)
    store, state, g = one_group_store(rng.normal(size=n)), OptimizerState.zeros(n), rng.normal(size=n)
    sched, cfg = ScheduleSpec(horizon=10), OptimizerConfig(variant=Variant.NONE)
    step(store, state, g, 1, sched, cfg)  # warm-up
    tracemalloc.start()
    try:
        step(store, state, g, 2, sched, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * optim._CHUNK * 8, f"the Adam half peaked at {peak} bytes"


def test_a_norm_control_step_releases_the_part_buffer_before_the_norm():
    # The norm's two block buffers (512 KB) are the step's peak. The Adam half's
    # part buffer, held through the norm, would add its 256 KB on top.
    n = 200_000
    rng = np.random.default_rng(5)
    store = mixed_store(rng.normal(size=n - n // 10), rng.normal(size=n // 10))
    state = OptimizerState.zeros(n)
    sched = ScheduleSpec(horizon=10, rt=PiecewiseLinearSpec.const(1.5))
    cfg = OptimizerConfig(variant=Variant.NORM_CONTROL)
    g = rng.normal(size=n)
    step(store, state, g, 1, sched, cfg)  # warm-up
    tracemalloc.start()
    try:
        step(store, state, g, 2, sched, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * optim._CHUNK * 8 + 64 * 1024, f"the step peaked at {peak} bytes"


@pytest.mark.parametrize("beta2", [0.9, 0.9999])
@pytest.mark.parametrize("t", [1, 2, 50, 10**4])
def test_a_step_lies_within_eight_roundings_of_the_formula(t, beta2):
    # theta - eta_t * alpha * m_hat / (sqrt(v_hat) + eps) at 50 digits, from the step's
    # own m and v, with the float bias corrections 1 - beta**t taken as exact. Gradients
    # and moments span 1e-9 to 1e3, so eps rules some elements and not others.
    n, eta, u = 300, 0.7, Decimal(2.0 ** -53)
    rng = np.random.default_rng([t, round(beta2 * 10**4)])
    scale = 10.0 ** rng.uniform(-9, 3, n)
    g = rng.normal(size=n) * scale
    theta0 = rng.normal(size=n) * 10.0 ** rng.uniform(-12, 0, n)
    store = one_group_store(theta0)
    if t == 1:
        state = OptimizerState.zeros(n)
    else:
        state = OptimizerState(t - 1, rng.normal(size=n) * scale, (rng.normal(size=n) * scale) ** 2)
    cfg = OptimizerConfig(alpha=3e-3, beta2=beta2)
    step(store, state, g, t, ScheduleSpec(horizon=t, eta=CosineSpec(eta, eta)), cfg)
    eps_shares = []
    with localcontext() as ctx:
        ctx.prec = 50
        c1, c2 = Decimal(1.0 - cfg.beta1**t), Decimal(1.0 - cfg.beta2**t)
        rate, eps = Decimal(eta) * Decimal(cfg.alpha), Decimal(cfg.epsilon)
        for x0, m, v, x in zip(theta0.tolist(), state.m.tolist(), state.v.tolist(),
                               store.theta.tolist()):
            den = (Decimal(v) / c2).sqrt() + eps
            update = rate * (Decimal(m) / c1) / den
            drift = abs(Decimal(x) - (Decimal(x0) - update))
            assert drift <= 8 * u * abs(update) + u * abs(Decimal(x)), (x0, m, v, x)
            eps_shares.append(eps / den)
    assert max(eps_shares) > 0.1 and min(eps_shares) < 1e-6


def test_states_stepped_in_turn_match_each_run_alone():
    n, steps = 50, 20
    rng = np.random.default_rng(8)
    theta0, grads = rng.normal(size=n), rng.normal(size=(steps, n))
    sched = ScheduleSpec(horizon=steps, rt=PiecewiseLinearSpec.const(1.5))
    cfgs = [OptimizerConfig(beta1=0.8, weight_decay=0.1, variant=variant)
            for variant in (Variant.NORM_CONTROL, Variant.DECAY_COUPLED_LR, Variant.COUPLED_SGD)]

    def fresh():
        return one_group_store(theta0 * 2.0), OptimizerState.zeros(n)

    alone = []
    for cfg in cfgs:
        store, state = fresh()
        for t in range(1, steps + 1):
            step(store, state, grads[t - 1], t, sched, cfg)
        alone.append((store.theta, state.m, state.v))
    runs = [fresh() for _ in cfgs]
    for t in range(1, steps + 1):
        for (store, state), cfg in zip(runs, cfgs):
            step(store, state, grads[t - 1], t, sched, cfg)
    for (store, state), want in zip(runs, alone):
        for got, ref in zip((store.theta, state.m, state.v), want):
            assert np.array_equal(got, ref)

    # Moment updates of two states, then both parameter updates: what each state's
    # moment update returned survives the other state's.
    cfgs = [OptimizerConfig(beta1=0.9), OptimizerConfig(beta1=0.5, beta2=0.9)]

    def adam(pairs):
        for t in range(1, steps + 1):
            for (_, state), _ in pairs:
                state.t = t
            moments = [adam_moment_update(state.m, state.v, grads[t - 1], state.t, cfg)
                       for (_, state), cfg in pairs]
            for ((store, _), cfg), (m_t, v_t) in zip(pairs, moments):
                adam_param_update(store.theta, m_t, v_t, t, 1.0, cfg)

    alone = []
    for cfg in cfgs:
        run = fresh()
        adam([(run, cfg)])
        alone.append(run)
    runs = [fresh() for _ in cfgs]
    adam(list(zip(runs, cfgs)))
    for (store, state), (ref_store, ref_state) in zip(runs, alone):
        for got, ref in zip((store.theta, state.m, state.v),
                            (ref_store.theta, ref_state.m, ref_state.v)):
            assert np.array_equal(got, ref)


def test_a_state_holds_two_vectors_of_thetas_size():
    # m and v, 8 MB each for 10**6 elements; nothing else of that size.
    n = 10 ** 6
    tracemalloc.start()
    try:
        state = OptimizerState.zeros(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.m.nbytes + state.v.nbytes == 16 * 10 ** 6
    assert peak < 16 * 10 ** 6 + 64 * 1024, f"zeros({n}) peaked at {peak} bytes"


def test_state_equality_is_identity():
    state = OptimizerState.zeros(3)
    assert state == state
    assert state != OptimizerState.zeros(3)


def test_state_rejects_moments_of_different_shapes():
    with pytest.raises(ValueError, match="moment shapes differ"):
        OptimizerState(t=0, m=np.zeros(4), v=np.zeros(3))


@pytest.mark.parametrize("t, m, error", [
    (0.5, np.zeros(2), ValueError), (-1, np.zeros(2), ValueError), (True, np.zeros(2), ValueError),
    (0, np.zeros(2, dtype=np.int64), TypeError), (0, np.zeros(2, dtype=np.float32), TypeError),
    (0, np.zeros((1, 2)), TypeError), (0, [0.0, 0.0], TypeError),
], ids=["t=0.5", "t=-1", "t=True", "int64", "float32", "2-D", "list"])
def test_state_fields_are_checked_at_construction(t, m, error):
    # else int64 moments failed a step after it set t, and float32 ones stayed float32
    with pytest.raises(error):
        OptimizerState(t=t, m=m, v=np.zeros(2))
    with pytest.raises(error):
        OptimizerState(t=t, m=np.zeros(2), v=m)
    OptimizerState(t=np.int64(3), m=np.zeros(2), v=np.zeros(2))


@pytest.mark.parametrize("variant", list(Variant))
def test_a_rejected_step_changes_nothing(variant):
    sched = ScheduleSpec(horizon=10, rt=PiecewiseLinearSpec.const(1.5))
    rng = np.random.default_rng(9)
    store = mixed_store(rng.normal(size=4), rng.normal(size=2))
    state = OptimizerState.zeros(6)
    good = OptimizerConfig(weight_decay=0.1, variant=variant)
    step(store, state, rng.normal(size=6), 1, sched, good)
    before = store.theta.copy(), state.m.copy(), state.v.copy()
    rejected = [(rng.normal(size=5), sched, good, "gradient shape"),
                (rng.normal(size=(6, 1)), sched, good, "gradient shape")]
    if variant is Variant.NORM_CONTROL:
        # A schedule spec rejects these values, so a stand-in serves them.
        for r, k, message in ((1.5, 1.5, "k_t"), (-1.0, 0.5, "r_t"), (math.nan, 0.5, "r_t"),
                              (math.inf, 0.0, "r_t"), (1e308, 0.5, "norm target")):
            bad = SimpleNamespace(eta_at=sched.eta_at, rt_at=lambda t, r=r: r,
                                  kt_at=lambda t, k=k: k)
            rejected.append((rng.normal(size=6), bad, good, message))
    elif variant is not Variant.NONE:
        # A decay rate above one is a k_t above one.
        rejected.append((rng.normal(size=6), sched,
                         OptimizerConfig(weight_decay=1.5, alpha=1.0, variant=variant), "k_t"))
    for g, bad_sched, cfg, message in rejected:
        with pytest.raises(ValueError, match=message):
            step(store, state, g, 2, bad_sched, cfg)
        assert state.t == 1
        for got, want in zip((store.theta, state.m, state.v), before):
            assert np.array_equal(got, want)
    with pytest.raises(TypeError, match="same_kind"):  # not cast to its real part
        step(store, state, rng.normal(size=6) + 1j, 2, sched, good)
    assert state.t == 1
    for got, want in zip((store.theta, state.m, state.v), before):
        assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="parameter shape"):  # a store that is not the state's
        step(one_group_store(np.ones(5)), state, rng.normal(size=6), 2, sched, good)
    assert state.t == 1
    assert np.array_equal(state.m, before[1]) and np.array_equal(state.v, before[2])


def _chunked_store(rng):
    # Controlled/uncontrolled boundaries that fall inside parts, not on their edges.
    n = 2 * optim._CHUNK + 7
    cuts = [0, 1000, optim._CHUNK - 3, optim._CHUNK + 11, 2 * optim._CHUNK + 2, n]
    groups = [ParamGroup(f"g{i}", a, b - a, i % 2 == 0)
              for i, (a, b) in enumerate(zip(cuts, cuts[1:]))]
    return ParamStore(rng.normal(size=n), groups)


@pytest.mark.parametrize("variant", list(Variant))
def test_chunked_step_is_the_whole_vector_sequence(variant):
    rng = np.random.default_rng(21)
    store = _chunked_store(rng)
    n = store.theta.size
    assert n > 2 * optim._CHUNK
    ref = store.snapshot()
    state, ref_state = OptimizerState.zeros(n), OptimizerState.zeros(n)
    sched = ScheduleSpec(horizon=10, rt=PiecewiseLinearSpec.const(1.5),
                         kt=PiecewiseLinearSpec.const(0.3))
    cfg = OptimizerConfig(beta1=0.8, weight_decay=0.1, variant=variant)
    for t in (1, 2, 3):
        g = rng.normal(size=n)
        step(store, state, g, t, sched, cfg)
        ref_state.t = t
        eta_t, r_t, k_t = optim.applied_schedule(sched, cfg, t)
        if variant is Variant.COUPLED_SGD:
            sgd_step_coupled_decay(ref, g, cfg.alpha, k_t)
        else:
            m_t, v_t = adam_moment_update(ref_state.m, ref_state.v, g, t, cfg)
            adam_param_update(ref.theta, m_t, v_t, t, eta_t, cfg)
            if variant is not Variant.NONE:
                regularize_norm_control(ref, r_t, k_t)
        for got, want in zip((store.theta, state.m, state.v),
                             (ref.theta, ref_state.m, ref_state.v)):
            assert np.array_equal(got, want), (variant, t)
    # A store of no elements has no part; it steps all the same.
    empty, empty_state = ParamStore(np.zeros(0), []), OptimizerState.zeros(0)
    for t in (1, 2, 3):
        with (pytest.warns(RuntimeWarning, match="norm control skipped")
              if variant is Variant.NORM_CONTROL else contextlib.nullcontext()):
            step(empty, empty_state, np.zeros(0), t, sched, cfg)
    assert empty_state.t == 3 and empty.theta.size == 0


@pytest.mark.parametrize("n", [5, 2 * optim._CHUNK + 7])
def test_step_reaches_the_adam_phases_through_the_module(n, monkeypatch):
    calls = []
    for name in ("adam_moment_update", "adam_param_update"):
        phase = getattr(optim, name)
        monkeypatch.setattr(optim, name, lambda *args, _name=name, _phase=phase:
                            calls.append(_name) or _phase(*args))
    store = one_group_store(np.linspace(-1.0, 1.0, n))
    step(store, OptimizerState.zeros(n), np.ones(n), 1, ScheduleSpec(horizon=10),
         OptimizerConfig())
    parts = -(-n // optim._CHUNK)
    assert calls == ["adam_moment_update", "adam_param_update"] * parts
