"""Adam with decoupled regularization, generalized to weight norm control.

One step is: moment update with bias correction, the loss-based parameter
update scaled by eta_t * alpha, then exactly one regularization variant:

* ``DECAY_COUPLED_LR``  -- multiplicative decay at rate eta_t * alpha0 * lam
  (the decay most AdamW implementations apply),
* ``DECAY_DECOUPLED``   -- decay at rate eta_t * lam (decay fully decoupled
  from the learning rate),
* ``NORM_CONTROL``      -- pull the controlled norm toward a scheduled target
  r_t * ||theta_0|| at rate k_t,
* ``COUPLED_SGD``       -- plain SGD with decay fused into the gradient step
  (no Adam machinery), kept for reference comparisons,
* ``NONE``              -- bare Adam.

Norm control contains both decay variants as special cases: r_t = 0 with
k_t = eta_t * alpha0 * lam reproduces DECAY_COUPLED_LR, and k_t = eta_t * lam
reproduces DECAY_DECOUPLED. The implementation keeps those reductions exact
in floating point (both paths scale by the identical ``1 - rate`` factor);
``schedules.EtaTiedKt`` is that k_t schedule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import ParamStore
from .schedules import TargetNormMode

# Below this, the controlled vector is treated as zero: any multiple of it is
# itself, so a norm target > 0 is unreachable and the update is skipped.
ZERO_NORM_EPS = 1e-30


class Variant(Enum):
    NONE = "none"
    DECAY_COUPLED_LR = "decay_coupled_lr"
    DECAY_DECOUPLED = "decay_decoupled"
    NORM_CONTROL = "norm_control"
    COUPLED_SGD = "coupled_sgd"


@dataclass
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
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {self.beta1}")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {self.beta2}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass
class OptimizerState:
    """Step counter and first/second moment vectors (same shape as theta)."""

    t: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "OptimizerState":
        return cls(t=0, m=np.zeros(n), v=np.zeros(n))


@dataclass
class StepReport:
    t: int
    eta_t: float
    r_t: float
    k_t: float
    target_norm: float  # what r_t asks for under sched.target_mode, for every variant
    pre_norm: float
    post_norm: float


def adam_moment_update(
    state: OptimizerState, g: np.ndarray, cfg: OptimizerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Update the moment vectors in place and return bias-corrected copies.

    Expects state.t already incremented for the current step. At t == 1 the
    correction cancels algebraically (m = (1-b1)g, divisor 1-b1), so the
    divide is skipped to keep m_hat == g and v_hat == g*g bitwise.
    """
    if state.t < 1:
        raise ValueError("state.t must be incremented before the moment update")
    if g.shape != state.m.shape:
        raise ValueError(f"gradient shape {g.shape} != state shape {state.m.shape}")
    state.m *= cfg.beta1
    state.m += (1.0 - cfg.beta1) * g
    state.v *= cfg.beta2
    state.v += (1.0 - cfg.beta2) * (g * g)
    if state.t == 1:
        return g.copy(), g * g
    m_hat = state.m / (1.0 - cfg.beta1**state.t)
    v_hat = state.v / (1.0 - cfg.beta2**state.t)
    return m_hat, v_hat


def adam_param_update(
    store: ParamStore,
    m_hat: np.ndarray,
    v_hat: np.ndarray,
    eta_t: float,
    cfg: OptimizerConfig,
) -> None:
    """theta -= eta_t * alpha * m_hat / (sqrt(v_hat) + eps), on all groups."""
    if m_hat.shape != store.theta.shape or v_hat.shape != store.theta.shape:
        raise ValueError("moment shapes do not match parameter vector")
    store.theta -= eta_t * cfg.alpha * m_hat / (np.sqrt(v_hat) + cfg.epsilon)


def regularize_decay(store: ParamStore, rate: float) -> None:
    """Multiplicative decay theta *= (1 - rate) on controlled groups only."""
    if rate < 0.0:
        raise ValueError(f"decay rate must be >= 0, got {rate}")
    store.scale_controlled(1.0 - rate)


def regularize_norm_control(
    store: ParamStore,
    r_t: float,
    k_t: float,
    mode: TargetNormMode = TargetNormMode.RELATIVE,
) -> None:
    """Move the controlled norm toward its target at rate k_t.

    The target is r_t * ||theta_0|| (relative mode) or r_t itself (absolute
    mode). The controlled vector is scaled by the convex blend
    (1 - k_t) + k_t * target/norm, so the resulting norm is exactly
    (1 - k_t) * norm + k_t * target in real arithmetic, and k_t = 1 projects
    straight onto the target. r_t = 0 reduces to plain decay with no division.
    """
    if not 0.0 <= k_t <= 1.0:
        raise ValueError(f"k_t must be in [0, 1], got {k_t}")
    if r_t < 0.0:
        raise ValueError(f"r_t must be >= 0, got {r_t}")
    if r_t == 0.0:
        store.scale_controlled(1.0 - k_t)
        return
    n = store.controlled_norm()
    if n < ZERO_NORM_EPS:
        # The zero vector is a fixed point of any rescaling; nothing to do.
        warnings.warn(
            "norm control skipped: controlled norm is (near) zero, target unreachable",
            RuntimeWarning,
            stacklevel=2,
        )
        return
    target = mode.target(r_t, store.initial_norm)
    factor = (1.0 - k_t) + k_t * (target / n)
    store.scale_controlled(factor)


def sgd_step_coupled_decay(
    store: ParamStore, g: np.ndarray, alpha: float, weight_decay: float
) -> None:
    """One fused SGD step theta = (1 - lam) * theta - alpha * g.

    The decay term applies to controlled groups; uncontrolled groups get the
    plain gradient step.
    """
    if g.shape != store.theta.shape:
        raise ValueError(f"gradient shape {g.shape} != parameter shape {store.theta.shape}")
    theta = store.theta
    for group in store.groups:
        s = group.slice
        if group.controlled:
            theta[s] = (1.0 - weight_decay) * theta[s] - alpha * g[s]
        else:
            theta[s] -= alpha * g[s]


def step(
    store: ParamStore,
    state: OptimizerState,
    g: np.ndarray,
    t: int,
    sched,
    cfg: OptimizerConfig,
) -> StepReport:
    """Run one full optimizer step for step index t (1-based).

    ``sched`` is anything with eta_at/rt_at/kt_at methods and a target_mode
    attribute, normally a ScheduleSpec.
    """
    if t != state.t + 1:
        raise ValueError(f"step index {t} not consecutive with state.t={state.t}")
    state.t = t
    eta_t = sched.eta_at(t)
    r_t = sched.rt_at(t)
    k_t = sched.kt_at(t)
    pre_norm = store.controlled_norm()

    if cfg.variant is Variant.COUPLED_SGD:
        # Fused decay + gradient step; no moments, no schedule multiplier.
        sgd_step_coupled_decay(store, g, cfg.alpha, cfg.weight_decay)
    else:
        m_hat, v_hat = adam_moment_update(state, g, cfg)
        adam_param_update(store, m_hat, v_hat, eta_t, cfg)
        if cfg.variant is Variant.DECAY_COUPLED_LR:
            regularize_decay(store, eta_t * cfg.alpha * cfg.weight_decay)
        elif cfg.variant is Variant.DECAY_DECOUPLED:
            regularize_decay(store, eta_t * cfg.weight_decay)
        elif cfg.variant is Variant.NORM_CONTROL:
            regularize_norm_control(store, r_t, k_t, sched.target_mode)

    return StepReport(
        t=t,
        eta_t=eta_t,
        r_t=r_t,
        k_t=k_t,
        target_norm=sched.target_mode.target(r_t, store.initial_norm),
        pre_norm=pre_norm,
        post_norm=store.controlled_norm(),
    )
