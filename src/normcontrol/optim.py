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
* ``NONE``              -- bare Adam, norm control at k_t = 0.

Every decay is norm control with r_t = 0: ``applied_schedule`` reads r_t and
k_t from the schedules under NORM_CONTROL only and otherwise uses r_t = 0 and
k_t = ``OptimizerConfig.decay_rate(eta_t)``, so every variant regularizes
through ``regularize_norm_control``, which at k_t = 0 measures and scales
nothing. Norm control under ``EtaTiedKt`` reproduces a decay variant bit for bit.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .params import _CHUNK, ParamStore
from .schedules import ConfigError, ScheduleSpec, is_integer


class Variant(Enum):
    NONE = "none"
    DECAY_COUPLED_LR = "decay_coupled_lr"
    DECAY_DECOUPLED = "decay_decoupled"
    NORM_CONTROL = "norm_control"
    COUPLED_SGD = "coupled_sgd"


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam's step size alpha, betas and epsilon, the weight decay lambda and the
    variant that regularizes. Each field is checked on construction; a bad one
    raises ConfigError naming it."""

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
        if self.alpha <= 0.0:
            raise ConfigError("alpha", f"must be > 0, got {self.alpha}")
        if self.epsilon < sys.float_info.min:  # below it, eps * sqrt(1 - beta2**t) can round to 0
            raise ConfigError("epsilon", f"must be >= {sys.float_info.min}, got {self.epsilon}")
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


class EtaTiedKt(NamedTuple):
    """Norm-control schedules that reproduce a weight-decay variant exactly.

    r_t = 0 and k_t = decay_cfg.decay_rate(eta_t), the rate step applies
    under decay_cfg's variant, so norm control under these schedules matches
    that variant bit for bit.
    """

    base: ScheduleSpec
    decay_cfg: OptimizerConfig

    def eta_at(self, t: int) -> float:
        return self.base.eta_at(t)

    def rt_at(self, t: int) -> float:
        return 0.0

    def kt_at(self, t: int) -> float:
        return self.decay_cfg.decay_rate(self.base.eta_at(t))


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


class StepReport(NamedTuple):
    t: int
    eta_t: float  # applied: the eta schedule, else 1.0 under coupled SGD
    r_t: float  # applied: the rt schedule under norm control, else 0
    k_t: float  # applied: the kt schedule under norm control, else cfg.decay_rate(eta_t)
    target_norm: float  # r_t * the initial controlled norm (0 unless norm control)
    scale: float  # factor applied to the controlled groups by the regularization (1.0: none)
    norm: float  # controlled norm the rule measured before its scale; NaN if it measured none


def adam_moment_update(
    m: np.ndarray, v: np.ndarray, g: np.ndarray, t: int, cfg: OptimizerConfig, out=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Update the moments m and v in place for step t; return the pair the parameter update reads.

    m, v and g are float64 arrays of one shape, and t >= 1. The pair is (m, v),
    whose bias corrections ``adam_param_update`` applies. At t == 1 the
    correction cancels algebraically (m = (1-b1)g, divisor 1-b1), so the pair
    is (g, g*g) under unit corrections, to keep m_hat == g and v_hat == g*g
    bitwise. ``out``, a new array if None, else one of g's shape written over,
    holds the (1-b1)g and (1-b2)g*g terms on the way, and g*g at t == 1.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, incremented for the current step, got {t}")
    if g.shape != m.shape or v.shape != m.shape:
        raise ValueError(f"gradient shape {g.shape} != moment shapes {m.shape}, {v.shape}")
    term = np.multiply(g, 1.0 - cfg.beta1, out=out)
    m *= cfg.beta1
    m += term
    np.square(g, out=term)
    term *= 1.0 - cfg.beta2
    v *= cfg.beta2
    v += term
    if t == 1:
        return g, np.square(g, out=term)
    return m, v


def adam_param_update(
    theta: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, eta_t: float, cfg: OptimizerConfig,
    out=None,
) -> None:
    """theta -= eta_t * alpha * m_hat / (sqrt(v_hat) + eps), in place.

    m and v are the pair ``adam_moment_update`` returned for step t, and
    m_hat = m / c1, v_hat = v / c2 with c1 = 1 - b1**t, c2 = 1 - b2**t, or
    c1 = c2 = 1 at t == 1. This is Kingma & Ba's reordered form ("Adam",
    arXiv 1412.6980, section 2) with eps rescaled by s = sqrt(c2):
    theta -= (eta_t * alpha * s / c1) * m / (sqrt(v) + eps * s), one divide
    per element. It equals the formula in exact arithmetic, not in its order
    of operations. ``out``, a new array if None, else one of theta's shape
    written over (v itself at t == 1), holds the update on the way.
    """
    if m.shape != theta.shape or v.shape != theta.shape:
        raise ValueError("moment shapes do not match parameter vector")
    c1, s = (1.0, 1.0) if t == 1 else (1.0 - cfg.beta1**t, math.sqrt(1.0 - cfg.beta2**t))
    update = np.sqrt(v, out=out)
    update += cfg.epsilon * s
    np.divide(m, update, out=update)
    update *= eta_t * cfg.alpha * s / c1
    theta -= update


def _check_rates(r_t: float, k_t: float, initial_norm: float) -> None:
    if not 0.0 <= k_t <= 1.0:  # NaN fails too; a rate above 1 would flip the signs
        raise ValueError(f"k_t must be in [0, 1], got {k_t}")
    if not 0.0 <= r_t < math.inf:  # NaN fails too; at k_t = 0 an infinite r_t blends to NaN
        raise ValueError(f"r_t must be finite and >= 0, got {r_t}")
    if r_t > 0.0 and not math.isfinite(r_t * initial_norm):  # decay (r_t = 0) has no target
        raise ValueError(f"norm target {r_t} * initial_norm {initial_norm} is not finite")


def regularize_norm_control(store: ParamStore, r_t: float, k_t: float) -> tuple[float, float]:
    """Move the controlled norm toward its target at rate k_t; return (factor, norm).

    The target is r_t * ||theta_0||. The controlled vector is scaled by the
    convex blend (1 - k_t) + k_t * target/norm, so the resulting norm is
    exactly (1 - k_t) * norm + k_t * target in real arithmetic, and k_t = 1
    projects straight onto the target. ``norm`` is the controlled norm
    measured before the scale, NaN where none was measured. r_t = 0 is decay,
    theta *= 1 - k_t, and k_t = 0 is no control, factor 1.0: both take no
    division and no norm measurement, and a factor of exactly 1.0 is not
    applied. Decay at rate 1 makes an infinite element NaN (IEEE 0 * inf);
    harness.run rejects the NaN loss that follows. Where the norm or the
    factor is not a normal double (a zero, subnormal, NaN or infinite norm, or
    target/norm overflowing, or underflowing at k_t = 1), theta is left as it
    is, with a warning that names that value, and the factor is 1.0.
    """
    _check_rates(r_t, k_t, store.initial_norm)
    if r_t == 0.0 or k_t == 0.0:
        factor, n = 1.0 - k_t, math.nan
    else:
        n = store.controlled_norm()
        tiny = sys.float_info.min  # the smallest normal double
        if not tiny <= n < math.inf:
            cause = f"the controlled norm {n!r}"
        else:
            factor = (1.0 - k_t) + k_t * (r_t * store.initial_norm / n)
            cause = None if tiny <= factor < math.inf else f"the factor {factor!r}"
        if cause is not None:
            warnings.warn(f"norm control skipped: {cause} is not a normal double",
                          RuntimeWarning, stacklevel=2)
            return 1.0, n
    if factor != 1.0:  # theta * 1.0 is theta
        store.scale_controlled(factor)
    return factor, n


def regularize_decay(store: ParamStore, rate: float) -> float:
    """Multiplicative decay theta *= (1 - rate) on controlled groups only; returns 1 - rate."""
    return regularize_norm_control(store, 0.0, rate)[0]


def sgd_step_coupled_decay(store: ParamStore, g: np.ndarray, alpha: float,
                           weight_decay: float) -> float:
    """One fused SGD step theta = (1 - lam) * theta - alpha * g.

    The decay (norm control at r_t = 0, k_t = lam) applies to controlled
    groups, rounding as the fused formula. ``alpha * g`` is formed one part
    of at most ``_CHUNK`` elements at a time. Returns the decay factor, 1 - lam.
    """
    if g.shape != store.theta.shape:
        raise ValueError(f"gradient shape {g.shape} != parameter shape {store.theta.shape}")
    factor = regularize_norm_control(store, 0.0, weight_decay)[0]
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
    with r_t > 0 and k_t > 0 measures the controlled norm (once), which the
    report's ``norm`` holds (NaN under every other step). A gradient that is
    not float64 is converted once, so the step's arithmetic is float64.
    """
    if g.dtype != np.float64:
        g = g.astype(np.float64, casting="same_kind")  # a complex gradient raises here
    if not is_integer(t) or t != state.t + 1:  # else True or 1.0 would land in state.t
        raise ValueError(f"step index {t!r} is not an integer consecutive with state.t={state.t}")
    if not g.shape == state.m.shape == store.theta.shape:
        raise ValueError(f"gradient shape {g.shape} != state shape {state.m.shape}"
                         f" or parameter shape {store.theta.shape}")
    eta_t, r_t, k_t = applied_schedule(sched, cfg, t)
    _check_rates(r_t, k_t, store.initial_norm)  # what the regularizer checks
    # Nothing has changed yet, so a step rejected above leaves state and store as they were.
    state.t = t

    if cfg.variant is Variant.COUPLED_SGD:
        # Fused decay + gradient step; no moments.
        scale, norm = sgd_step_coupled_decay(store, g, cfg.alpha, k_t), math.nan
    else:
        # Above _CHUNK elements, the Adam half runs on one part's views after another, so
        # each part's rows are still in L2 for its parameter update. The kernels are
        # elementwise: the parts give the bits of one whole-vector call.
        theta, m, v = store.theta, state.m, state.v
        part = np.empty(min(g.size, _CHUNK))  # each part's temporary in turn
        if g.size <= _CHUNK:
            m_t, v_t = adam_moment_update(m, v, g, t, cfg, part)
            adam_param_update(theta, m_t, v_t, t, eta_t, cfg, part)
        else:
            for i in range(0, g.size, _CHUNK):
                j = min(i + _CHUNK, g.size)
                m_t, v_t = adam_moment_update(m[i:j], v[i:j], g[i:j], t, cfg, part[:j - i])
                adam_param_update(theta[i:j], m_t, v_t, t, eta_t, cfg, part[:j - i])
        part = m_t = v_t = None  # else held through the norm's peak
        scale, norm = regularize_norm_control(store, r_t, k_t)

    # Positional arguments: keywords make a small store's step measurably slower.
    return StepReport(t, eta_t, r_t, k_t, r_t * store.initial_norm, scale, norm)
