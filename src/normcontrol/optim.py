"""Adam with decoupled regularization, generalized to weight norm control.

One step is: moment update with bias correction, the loss-based parameter
update scaled by eta_t * alpha, then exactly one regularization variant:

* ``DECAY_COUPLED_LR``  -- multiplicative decay at rate eta_t * alpha0 * lam
  (the decay most AdamW implementations apply),
* ``DECAY_DECOUPLED``   -- decay at rate eta_t * lam (decay fully decoupled
  from the learning rate),
* ``NORM_CONTROL``      -- pull the controlled norm toward a scheduled target
  r_t * ||theta_0|| at rate k_t,
* ``COUPLED_SGD``       -- plain SGD with decay at rate lam fused into the
  gradient step (no Adam machinery), kept for reference comparisons,
* ``NONE``              -- bare Adam.

Every decay is norm control with r_t = 0: ``applied_schedule`` reads r_t and
k_t from the schedules under NORM_CONTROL only and otherwise uses r_t = 0 and
k_t = ``OptimizerConfig.decay_rate(eta_t)``, so every regularized variant
scales the controlled groups through ``regularize_norm_control``. Norm
control under ``schedules.EtaTiedKt`` reproduces a decay variant bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import _CHUNK, ParamStore
from .schedules import ConfigError, is_integer

# Below this, the controlled vector is treated as zero: any multiple of it is
# itself, so a norm target > 0 is unreachable and the update is skipped.
ZERO_NORM_EPS = 1e-30


class Variant(Enum):
    NONE = "none"
    DECAY_COUPLED_LR = "decay_coupled_lr"
    DECAY_DECOUPLED = "decay_decoupled"
    NORM_CONTROL = "norm_control"
    COUPLED_SGD = "coupled_sgd"


@dataclass(frozen=True)
class OptimizerConfig:
    alpha: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0  # lambda; used by the decay variants and coupled SGD
    variant: Variant = Variant.NONE

    def __post_init__(self):
        for name in ("alpha", "epsilon", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(name, f"must be finite, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(name, f"must be in [0, 1), got {getattr(self, name)}")
        for name in ("alpha", "epsilon"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(name, f"must be > 0, got {getattr(self, name)}")
        if self.weight_decay < 0.0:
            raise ConfigError("weight_decay", f"must be >= 0, got {self.weight_decay}")
        if not isinstance(self.variant, Variant):
            raise ConfigError("variant", f"must be a Variant, got {self.variant!r}")

    def decay_rate(self, eta_t: float) -> float:
        """k_t of this variant as norm control at r_t = 0, at multiplier eta_t.

        0 for NONE, and for NORM_CONTROL, whose k_t comes from its schedule."""
        if self.variant is Variant.DECAY_COUPLED_LR:
            return eta_t * self.alpha * self.weight_decay
        if self.variant is Variant.DECAY_DECOUPLED:
            return eta_t * self.weight_decay
        if self.variant is Variant.COUPLED_SGD:
            return self.weight_decay
        return 0.0


@dataclass(eq=False)  # arrays have no truth value, so == is identity
class OptimizerState:
    """Step counter and first/second moment vectors (same shape as theta)."""

    t: int
    m: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        # Else a step could fail after setting t, or keep float32 moments.
        if not is_integer(self.t) or self.t < 0:
            raise ValueError(f"step count t must be an integer >= 0, got {self.t!r}")
        for name, a in (("m", self.m), ("v", self.v)):
            if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 1):
                raise TypeError(f"{name} must be a 1-D float64 array, got {a!r}")
        if self.m.shape != self.v.shape:
            raise ValueError(f"moment shapes differ: m {self.m.shape}, v {self.v.shape}")

    @classmethod
    def zeros(cls, n: int) -> "OptimizerState":
        return cls(t=0, m=np.zeros(n), v=np.zeros(n))


@dataclass
class StepReport:
    t: int
    eta_t: float  # applied: the eta schedule, else 1.0 under coupled SGD
    r_t: float  # applied: the rt schedule under norm control, else 0
    k_t: float  # applied: the kt schedule under norm control, else cfg.decay_rate(eta_t)
    target_norm: float  # r_t * the initial controlled norm (0 unless norm control)
    scale: float  # factor applied to the controlled groups by the regularization (1.0: none)


def adam_moment_update(
    m: np.ndarray, v: np.ndarray, g: np.ndarray, t: int, cfg: OptimizerConfig, out=(None, None),
) -> tuple[np.ndarray, np.ndarray]:
    """Update the moments m and v in place for step t; return bias-corrected m_hat, v_hat.

    m, v and g are float64 arrays of one shape, and t >= 1. At t == 1 the
    correction cancels algebraically (m = (1-b1)g, divisor 1-b1), so the
    divide is skipped to keep m_hat == g and v_hat == g*g bitwise. The
    returned arrays are new, or the pair ``out`` of g's shape written over,
    and also hold the (1-b1)g and (1-b2)g*g terms on the way.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, incremented for the current step, got {t}")
    if g.shape != m.shape or v.shape != m.shape:
        raise ValueError(f"gradient shape {g.shape} != moment shapes {m.shape}, {v.shape}")
    m_hat = np.multiply(g, 1.0 - cfg.beta1, out=out[0])
    m *= cfg.beta1
    m += m_hat
    v_hat = np.square(g, out=out[1])
    v_hat *= 1.0 - cfg.beta2
    v *= cfg.beta2
    v += v_hat
    if t == 1:
        m_hat[...] = g
        np.square(g, out=v_hat)
    else:
        np.divide(m, 1.0 - cfg.beta1**t, out=m_hat)
        np.divide(v, 1.0 - cfg.beta2**t, out=v_hat)
    return m_hat, v_hat


def adam_param_update(
    theta: np.ndarray, m_hat: np.ndarray, v_hat: np.ndarray, eta_t: float, cfg: OptimizerConfig,
) -> None:
    """theta -= eta_t * alpha * m_hat / (sqrt(v_hat) + eps), in place.

    theta, m_hat and v_hat are float64 arrays of one shape. Works in place on
    the m_hat and v_hat it is given, which hold temporaries afterwards; the
    order of operations is that of the formula.
    """
    if m_hat.shape != theta.shape or v_hat.shape != theta.shape:
        raise ValueError("moment shapes do not match parameter vector")
    m_hat *= eta_t * cfg.alpha
    np.sqrt(v_hat, out=v_hat)
    v_hat += cfg.epsilon
    m_hat /= v_hat
    theta -= m_hat


def regularize_decay(store: ParamStore, rate: float) -> float:
    """Multiplicative decay theta *= (1 - rate) on controlled groups only; returns 1 - rate."""
    if not 0.0 <= rate <= 1.0:  # NaN fails too; a rate above 1 would flip the signs
        raise ValueError(f"decay rate must be in [0, 1], got {rate}")
    factor = 1.0 - rate
    store.scale_controlled(factor)
    return factor


def _check_rates(r_t: float, k_t: float) -> None:
    if not 0.0 <= k_t <= 1.0:
        raise ValueError(f"k_t must be in [0, 1], got {k_t}")
    if not 0.0 <= r_t < math.inf:  # NaN fails too; at k_t = 0 an infinite r_t blends to NaN
        raise ValueError(f"r_t must be finite and >= 0, got {r_t}")


def regularize_norm_control(store: ParamStore, r_t: float, k_t: float) -> float:
    """Move the controlled norm toward its target at rate k_t; return the factor.

    The target is r_t * ||theta_0||. The controlled vector is scaled by the
    convex blend (1 - k_t) + k_t * target/norm, so the resulting norm is
    exactly (1 - k_t) * norm + k_t * target in real arithmetic, and k_t = 1
    projects straight onto the target. r_t = 0 reduces to plain decay with no
    division and no norm measurement. A (near) zero controlled norm is left as
    it is, with a warning, and the factor returned is 1.0.
    """
    _check_rates(r_t, k_t)
    if r_t == 0.0:
        return regularize_decay(store, k_t)
    n = store.controlled_norm()
    if n < ZERO_NORM_EPS:
        # The zero vector is a fixed point of any rescaling; nothing to do.
        warnings.warn(
            "norm control skipped: controlled norm is (near) zero, target unreachable",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1.0
    factor = (1.0 - k_t) + k_t * (r_t * store.initial_norm / n)
    store.scale_controlled(factor)
    return factor


def sgd_step_coupled_decay(store: ParamStore, g: np.ndarray, alpha: float,
                           weight_decay: float) -> float:
    """One fused SGD step theta = (1 - lam) * theta - alpha * g.

    The decay (norm control at r_t = 0, k_t = lam) applies to controlled
    groups, rounding as the fused formula. ``alpha * g`` is formed one part
    of at most ``_CHUNK`` elements at a time. Returns the decay factor, 1 - lam.
    """
    if g.shape != store.theta.shape:
        raise ValueError(f"gradient shape {g.shape} != parameter shape {store.theta.shape}")
    factor = regularize_norm_control(store, 0.0, weight_decay)
    for i in range(0, g.size, _CHUNK):
        store.theta[i:i + _CHUNK] -= alpha * g[i:i + _CHUNK]
    return factor


def applied_schedule(sched, cfg: OptimizerConfig, t: int) -> tuple[float, float, float]:
    """(eta_t, r_t, k_t) that a step of cfg's variant applies at step t.

    Coupled SGD applies no schedule multiplier, so its eta_t is 1.0. Norm
    control reads r_t and k_t from the schedules; every other variant is norm
    control at r_t = 0 and k_t = cfg.decay_rate(eta_t).
    """
    eta_t = 1.0 if cfg.variant is Variant.COUPLED_SGD else sched.eta_at(t)
    if cfg.variant is Variant.NORM_CONTROL:
        return eta_t, sched.rt_at(t), sched.kt_at(t)
    return eta_t, 0.0, cfg.decay_rate(eta_t)


def step(
    store: ParamStore,
    state: OptimizerState,
    g: np.ndarray,
    t: int,
    sched,
    cfg: OptimizerConfig,
) -> StepReport:
    """Run one full optimizer step for step index t (1-based).

    ``sched`` is anything with eta_at/rt_at/kt_at methods, normally a
    ScheduleSpec; only norm control reads rt_at/kt_at, and only norm control
    with r_t > 0 measures the controlled norm (once). A gradient that is not
    float64 is converted once, so the step's arithmetic is float64.
    """
    if g.dtype != np.float64:
        g = g.astype(np.float64, casting="same_kind")  # a complex gradient raises here
    if not is_integer(t) or t != state.t + 1:  # else True or 1.0 would land in state.t
        raise ValueError(f"step index {t!r} is not an integer consecutive with state.t={state.t}")
    if not g.shape == state.m.shape == store.theta.shape:
        raise ValueError(f"gradient shape {g.shape} != state shape {state.m.shape}"
                         f" or parameter shape {store.theta.shape}")
    eta_t, r_t, k_t = applied_schedule(sched, cfg, t)
    _check_rates(r_t, k_t)  # what the regularizer checks; NONE's (0, 0) passes
    # Nothing has changed yet, so a step rejected above leaves state and store as they were.
    state.t = t

    if cfg.variant is Variant.COUPLED_SGD:
        # Fused decay + gradient step; no moments.
        scale = sgd_step_coupled_decay(store, g, cfg.alpha, k_t)
    else:
        # Above _CHUNK elements, the Adam half runs on one part's views after another, so
        # each part's rows are still in L2 for its parameter update. The kernels are
        # elementwise: the parts give the bits of one whole-vector call.
        theta, m, v = store.theta, state.m, state.v
        if g.size <= _CHUNK:
            m_hat, v_hat = adam_moment_update(m, v, g, t, cfg)
            adam_param_update(theta, m_hat, v_hat, eta_t, cfg)
        else:
            hats = np.empty((2, _CHUNK))  # each part's m_hat and v_hat in turn
            for i in range(0, g.size, _CHUNK):
                j = min(i + _CHUNK, g.size)
                m_hat, v_hat = adam_moment_update(m[i:j], v[i:j], g[i:j], t, cfg, hats[:, :j - i])
                adam_param_update(theta[i:j], m_hat, v_hat, eta_t, cfg)
        hats = m_hat = v_hat = None  # else held through the norm's peak
        scale = 1.0 if cfg.variant is Variant.NONE else regularize_norm_control(store, r_t, k_t)

    # Positional arguments: keywords make a small store's step measurably slower.
    return StepReport(t, eta_t, r_t, k_t, r_t * store.initial_norm, scale)
