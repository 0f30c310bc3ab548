"""Scalar-loop reference oracle for the optimizer: one step as plain per-element
loops and a two-pass (max-scaled) norm. It imports nothing of the package, so its
agreement with production is evidence; a config is read by its fields alone."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class OracleState:
    """Per-element mirror of (ParamStore, OptimizerState) as plain lists."""

    t: int
    theta: list[float]
    m: list[float]
    v: list[float]
    controlled: list[bool]
    initial_norm: float


def oracle_controlled_norm(theta: list[float], controlled: list[bool]) -> float:
    """Two-pass L2 norm: scale by the max magnitude, then accumulate."""
    biggest = 0.0
    for x, c in zip(theta, controlled):
        if c and abs(x) > biggest:
            biggest = abs(x)
    if biggest == 0.0:
        return 0.0
    acc = 0.0
    for x, c in zip(theta, controlled):
        if c:
            scaled = x / biggest
            acc += scaled * scaled
    return biggest * math.sqrt(acc)


def oracle_step(
    oracle: OracleState,
    g,
    t: int,
    eta_t: float,
    r_t: float,
    k_t: float,
    cfg,
    mode: str = "relative",  # benchmarks/workloads.py passes ScheduleSpec.target_mode
) -> OracleState:
    """One full optimizer step, transcribed as naive per-element loops."""
    if mode != "relative":
        raise ValueError(f"target mode must be 'relative', got {mode!r}")
    n = len(oracle.theta)
    oracle.t = t
    variant = cfg.variant.value

    if variant == "coupled_sgd":
        for i in range(n):
            if oracle.controlled[i]:
                oracle.theta[i] = (1.0 - cfg.weight_decay) * oracle.theta[i] - cfg.alpha * float(g[i])
            else:
                oracle.theta[i] = oracle.theta[i] - cfg.alpha * float(g[i])
        return oracle

    for i in range(n):
        gi = float(g[i])
        oracle.m[i] = cfg.beta1 * oracle.m[i] + (1.0 - cfg.beta1) * gi
        oracle.v[i] = cfg.beta2 * oracle.v[i] + (1.0 - cfg.beta2) * gi * gi
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for i in range(n):
        m_hat = oracle.m[i] / bc1
        v_hat = oracle.v[i] / bc2
        oracle.theta[i] = oracle.theta[i] - eta_t * cfg.alpha * m_hat / (math.sqrt(v_hat) + cfg.epsilon)

    # theta_i -> (1 - rate) * theta_i [+ (rate * ratio) * theta_i], the kept fraction applied
    # as it is, so nothing cancels when little of theta is kept; a rate of None keeps theta
    rate = ratio = None
    if variant == "decay_coupled_lr":
        rate = eta_t * cfg.alpha * cfg.weight_decay
    elif variant == "decay_decoupled":
        rate = eta_t * cfg.weight_decay
    elif variant == "norm_control" and r_t == 0.0:
        rate = k_t
    elif variant == "norm_control":
        # scale only by a normal factor from a normal norm of finite elements, else keep
        # theta; an infinite ratio fails the factor's test (inf, or NaN at k_t = 0)
        norm = oracle_controlled_norm(oracle.theta, oracle.controlled)
        ratio = r_t * oracle.initial_norm / norm if 2.0 ** -1022 <= norm < math.inf else math.inf
        if 2.0 ** -1022 <= (1.0 - k_t) + k_t * ratio < math.inf and all(
                math.isfinite(x) for x, c in zip(oracle.theta, oracle.controlled) if c):
            rate = k_t
    if rate is not None:
        for i in range(n):
            if oracle.controlled[i]:
                kept = (1.0 - rate) * oracle.theta[i]
                oracle.theta[i] = kept if ratio is None else kept + (rate * ratio) * oracle.theta[i]
    return oracle
