"""The property suite, and oracle_from_store: a ParamStore as the oracle's state.

The property suite runs every documented invariant of the parameter store,
the schedules and the optimizer over randomized inputs and reports each one
with a pass/fail flag and the first counterexample. Failures are report
entries, never exceptions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import optim
from .harness import forked
from .optim import EtaTiedKt, OptimizerConfig, OptimizerState, Variant
from .oracle import OracleState, oracle_controlled_norm, oracle_step
from .params import ParamGroup, ParamStore
from .schedules import (
    CosineSpec,
    PiecewiseLinearSpec,
    ScheduleSpec,
    cosine_value,
    is_integer,
)

REL_FLOOR = 1e-15
EPS = float(np.finfo(np.float64).eps)


def _controlled_flags(store: ParamStore) -> np.ndarray:
    """Per-element controlled flags, expanded from the store's groups."""
    return np.repeat(np.array([g.controlled for g in store.groups], dtype=bool),
                     np.array([g.length for g in store.groups], dtype=np.intp))


def oracle_from_store(store: ParamStore, state: OptimizerState | None = None) -> OracleState:
    theta = store.theta.tolist()
    controlled = _controlled_flags(store).tolist()
    if state is None:
        t, m, v = 0, [0.0] * len(theta), [0.0] * len(theta)
    else:
        t = state.t
        m, v = state.m.tolist(), state.v.tolist()
    return OracleState(
        t=t, theta=theta, m=m, v=v, controlled=controlled,
        initial_norm=oracle_controlled_norm(theta, controlled),
    )


@dataclass
class PropertyResult:
    name: str
    cases: int
    failures: int
    first_counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass
class SuiteReport:
    results: list[PropertyResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def total_failures(self) -> int:
        return sum(r.failures for r in self.results)

    def format(self) -> str:
        lines = []
        for r in self.results:
            status = "ok" if r.passed else "FAIL"
            line = f"{status:4s} {r.name} ({r.cases} cases, {r.failures} failures)"
            if r.first_counterexample:
                line += f"\n     first counterexample: {r.first_counterexample}"
            lines.append(line)
        return "\n".join(lines)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), REL_FLOOR)


def _random_store(rng: np.random.Generator, max_dim: int = 1000,
                  with_uncontrolled: bool = True) -> ParamStore:
    dim = int(rng.integers(1, max_dim + 1))
    theta = rng.normal(size=dim) * 10.0 ** rng.uniform(-2, 2)
    if with_uncontrolled and dim >= 2 and rng.random() < 0.5:
        cut = int(rng.integers(1, dim))
        groups = [ParamGroup("a", 0, cut, True), ParamGroup("b", cut, dim - cut, False)]
    else:
        groups = [ParamGroup("a", 0, dim, True)]
    return ParamStore(theta, groups)


def _check_norm_scaling(rng: np.random.Generator) -> str | None:
    store = _random_store(rng)
    c = float(rng.uniform(0.0, 5.0))
    before = store.initial_norm  # measured from this theta by the constructor
    store.scale_controlled(c)
    after = store.controlled_norm()
    if not math.isfinite(after):
        return f"non-finite norm after scaling by {c}"
    if abs(after - c * before) > 4.0 * EPS * max(c * before, REL_FLOOR):
        return f"dim={store.theta.size} c={c}: {after} vs {c * before}"
    return None


def _check_ratio_at_init(rng: np.random.Generator) -> str | None:
    store = _random_store(rng)
    if store.initial_norm == 0.0:
        return None
    ratio = store.controlled_norm() / store.initial_norm
    if ratio != 1.0:
        return f"dim={store.theta.size}: ratio at init {ratio!r} != 1.0"
    return None


def _check_uncontrolled_mutation(rng: np.random.Generator) -> str | None:
    store = _random_store(rng)
    mask = ~_controlled_flags(store)
    if not mask.any():
        return None
    before = store.initial_norm
    store.theta[mask] += rng.normal(size=int(mask.sum())) * 100.0
    after = store.controlled_norm()
    if before != after:
        return f"controlled norm moved {before!r} -> {after!r}"
    return None


def _check_eta_monotone(rng: np.random.Generator) -> str | None:
    warmup = int(rng.integers(0, 50))
    horizon = warmup + int(rng.integers(2, 500))
    lo = float(rng.uniform(1e-3, 0.5))
    hi = float(rng.uniform(lo, 1.0))
    spec = CosineSpec(eta_max=hi, eta_min=lo, warmup_steps=warmup)
    prev = None
    for t in range(warmup, horizon + 1):
        val = cosine_value(spec, t, horizon)
        if not math.isfinite(val):
            return f"non-finite eta at t={t}"
        if prev is not None and val > prev:
            return f"eta increased at t={t}: {prev} -> {val}"
        prev = val
    return None


def _random_piecewise(rng: np.random.Generator) -> PiecewiseLinearSpec:
    k = int(rng.integers(1, 6))
    ts = np.unique(np.concatenate([[0], rng.integers(1, 10_000, k)]))
    vs = rng.uniform(0.0, 3.0, ts.size)
    return PiecewiseLinearSpec.linear(list(zip(ts.tolist(), vs.tolist())))


def _check_rt_breakpoints(rng: np.random.Generator) -> str | None:
    spec = _random_piecewise(rng)
    for t, v in spec.points:
        got = spec.value_at(t)
        if got != v:
            return f"value_at({t}) = {got!r}, breakpoint says {v!r}"
    return None


def _check_schedule_purity(rng: np.random.Generator) -> str | None:
    spec = _random_piecewise(rng)
    t = int(rng.integers(0, 20_000))
    a, b = spec.value_at(t), spec.value_at(t)
    if a != b:
        return f"value_at({t}) not reproducible: {a!r} vs {b!r}"
    return None


def _check_convex_combination(rng: np.random.Generator) -> str | None:
    store = _random_store(rng)
    if store.initial_norm == 0.0:
        return None
    flags = _controlled_flags(store)
    store.theta[flags] += rng.normal(size=int(flags.sum()))
    n = store.controlled_norm()
    if n == 0.0:
        return None
    r = float(rng.uniform(1e-6, 3.0))
    k = float(rng.uniform(0.0, 1.0))
    target = r * store.initial_norm
    optim.regularize_norm_control(store, r, k)
    got = store.controlled_norm()
    want = (1.0 - k) * n + k * target
    if not math.isfinite(got):
        return f"non-finite norm, dim={store.theta.size}"
    if abs(got - want) > 1e-10 * max(1.0, target):
        return f"dim={store.theta.size} k={k} r={r}: norm {got} vs {want}"
    return None


def _check_fixed_point(rng: np.random.Generator) -> str | None:
    store = _random_store(rng, with_uncontrolled=False)
    if store.initial_norm == 0.0:
        return None
    before = store.theta.copy()
    k = float(rng.uniform(0.0, 1.0))
    # r chosen so the target equals the current norm exactly: r = n / n0 = 1 at init
    optim.regularize_norm_control(store, 1.0, k)
    change = np.abs(store.theta - before)
    bound = 4.0 * EPS * np.abs(before)
    if np.any(change > bound):
        i = int(np.argmax(change - bound))
        return f"element {i} moved by {change[i]} (theta={before[i]}, k={k})"
    return None


def _check_direction_preserved(rng: np.random.Generator) -> str | None:
    store = _random_store(rng, with_uncontrolled=False)
    if store.initial_norm == 0.0:
        return None
    store.theta += rng.normal(size=store.theta.size) * 0.5
    before = np.sign(store.theta)
    r = float(rng.uniform(1e-6, 3.0))
    k = float(rng.uniform(0.0, 1.0))
    optim.regularize_norm_control(store, r, k)
    flipped = (np.sign(store.theta) != before) & (before != 0) & (np.sign(store.theta) != 0)
    if np.any(flipped):
        return f"sign flipped at element {int(np.flatnonzero(flipped)[0])} (k={k}, r={r})"
    return None


def _check_bias_correction(rng: np.random.Generator) -> str | None:
    """At t=1 the moment update passes on g and g*g, and the parameter update
    applies them as a config whose corrections are exactly 1 (beta1 = beta2 = 0)."""
    dim = int(rng.integers(1, 65))
    g = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
    cfg = OptimizerConfig(beta1=float(rng.uniform(0.0, 0.999)),
                          beta2=float(rng.uniform(0.0, 0.9999)))
    m_t, v_t = optim.adam_moment_update(np.zeros(dim), np.zeros(dim), g, 1, cfg)
    if not (np.array_equal(m_t, g) and np.array_equal(v_t, g * g)):
        return f"dim={dim} beta1={cfg.beta1}: m_hat or v_hat not exactly g, g^2"
    theta = rng.normal(size=dim)
    unit = theta.copy()
    optim.adam_param_update(theta, m_t, v_t, 1, 1.0, cfg)
    optim.adam_param_update(unit, g, g * g, 2, 1.0, OptimizerConfig(beta1=0.0, beta2=0.0))
    if not np.array_equal(theta, unit):
        return f"dim={dim} beta1={cfg.beta1} beta2={cfg.beta2}: t=1 update is not the uncorrected one"
    return None


def _check_uncontrolled_under_regularizers(rng: np.random.Generator) -> str | None:
    dim = int(rng.integers(2, 200))
    cut = int(rng.integers(1, dim))
    theta = rng.normal(size=dim)
    store = ParamStore(theta, [ParamGroup("w", 0, cut, True), ParamGroup("u", cut, dim - cut, False)])
    frozen = store.theta[cut:].copy()
    optim.regularize_norm_control(store, 0.0, float(rng.uniform(0.0, 1.0)))
    optim.regularize_norm_control(store, float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 1.0)))
    if not np.array_equal(store.theta[cut:], frozen):
        return "uncontrolled elements changed under regularization"
    return None


def _random_cfg(rng: np.random.Generator, variant: Variant) -> OptimizerConfig:
    return OptimizerConfig(
        alpha=float(10.0 ** rng.uniform(-4, -1)),
        beta1=float(rng.uniform(0.0, 0.99)),
        beta2=float(rng.uniform(0.9, 0.9999)),
        weight_decay=float(rng.uniform(0.0, 0.5)),
        variant=variant,
    )


def _oracle_single_step_check(rng: np.random.Generator, variant: Variant) -> str | None:
    store = _random_store(rng, max_dim=16)
    dim = store.theta.size
    t_prev = int(rng.integers(0, 50))
    if t_prev == 0:
        state = OptimizerState.zeros(dim)  # moments start at zero, per contract
    else:
        state = OptimizerState(t=t_prev, m=rng.normal(size=dim) * 0.1,
                               v=np.abs(rng.normal(size=dim)) * 0.1)
    oracle = oracle_from_store(store, state)

    g = rng.normal(size=dim)
    eta = float(rng.uniform(0.05, 1.0))
    r = float(rng.uniform(0.0, 2.5)) if rng.random() < 0.8 else 0.0
    k = float(rng.uniform(0.0, 1.0))
    cfg = _random_cfg(rng, variant)
    sched = ScheduleSpec(horizon=t_prev + 1, eta=CosineSpec(eta, eta),
                         rt=PiecewiseLinearSpec.const(r), kt=PiecewiseLinearSpec.const(k))

    optim.step(store, state, g, t_prev + 1, sched, cfg)
    oracle_step(oracle, g, t_prev + 1, eta, r, k, cfg)

    if not np.isfinite(np.concatenate((store.theta, state.m, state.v))).all():
        return f"non-finite production output (dim={dim}, variant={variant.value})"
    theta = store.theta.tolist()
    for i in range(dim):
        if not math.isfinite(oracle.theta[i]):
            return f"non-finite oracle output at {i}"
        if not _close(theta[i], oracle.theta[i], 1e-13):
            return (f"theta[{i}]: production {theta[i]!r} vs oracle "
                    f"{oracle.theta[i]!r} (dim={dim}, t={t_prev + 1}, variant={variant.value})")
    return None


def _check_oracle_trajectory(rng: np.random.Generator) -> str | None:
    """Closed-loop quadratic run: production and oracle compute their own gradients."""
    dim = int(rng.integers(2, 9))
    a_diag = rng.uniform(0.5, 2.0, dim)
    b = rng.normal(size=dim)
    theta0 = rng.normal(size=dim)
    store = ParamStore(theta0, [ParamGroup("w", 0, dim, True)])
    state = OptimizerState.zeros(dim)
    oracle = oracle_from_store(store)
    cfg = OptimizerConfig(weight_decay=0.1, variant=Variant.NORM_CONTROL)
    horizon = 300
    sched = ScheduleSpec(horizon=horizon, rt=PiecewiseLinearSpec.linear([(0, 1.0), (100, 1.5)]))
    for t in range(1, horizon + 1):
        g = a_diag * store.theta - b
        optim.step(store, state, g, t, sched, cfg)
        og = [a_diag[i] * oracle.theta[i] - b[i] for i in range(dim)]
        oracle_step(oracle, og, t, sched.eta_at(t), sched.rt_at(t), sched.kt_at(t), cfg)
    for i in range(dim):
        if not _close(float(store.theta[i]), oracle.theta[i], 1e-11):
            return (f"theta[{i}] drifted after {horizon} steps: "
                    f"{float(store.theta[i])!r} vs {oracle.theta[i]!r}")
    return None


def _decay_equivalence_check(rng: np.random.Generator, variant: Variant) -> str | None:
    """Decay variant vs norm control with r=0 and the matching k_t schedule."""
    dim = int(rng.integers(2, 33))
    theta0 = rng.normal(size=dim)
    lam = float(rng.uniform(0.01, 0.5))
    horizon = 25
    base = ScheduleSpec(horizon=horizon)
    cfg_a = OptimizerConfig(weight_decay=lam, variant=variant)
    cfg_c = OptimizerConfig(variant=Variant.NORM_CONTROL)
    sched_c = EtaTiedKt(base, cfg_a)

    grads = rng.normal(size=(horizon, dim))
    store_a = ParamStore(theta0.copy(), [ParamGroup("w", 0, dim, True)])
    store_c = ParamStore(theta0.copy(), [ParamGroup("w", 0, dim, True)])
    state_a = OptimizerState.zeros(dim)
    state_c = OptimizerState.zeros(dim)
    for t in range(1, horizon + 1):
        optim.step(store_a, state_a, grads[t - 1], t, base, cfg_a)
        optim.step(store_c, state_c, grads[t - 1], t, sched_c, cfg_c)
    for i in range(dim):
        if not _close(float(store_a.theta[i]), float(store_c.theta[i]), 1e-12):
            return (f"theta[{i}] differs after {horizon} steps: decay "
                    f"{float(store_a.theta[i])!r} vs norm-control {float(store_c.theta[i])!r}")
    return None


def _check_degenerate_inputs(rng: np.random.Generator) -> str | None:
    dim = int(rng.integers(1, 17))
    scale = 10.0 ** rng.uniform(-250, 100)
    theta = rng.normal(size=dim) * scale
    store = ParamStore(theta, [ParamGroup("w", 0, dim, True)],
                       initial_norm=float(10.0 ** rng.uniform(-5, 5)))
    r = float(rng.uniform(0.0, 3.0))
    k = (0.0, 1.0, float(rng.uniform(0.0, 1.0)))[int(rng.integers(0, 3))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        optim.regularize_norm_control(store, r, k)
    if not np.isfinite(store.theta).all():
        return f"non-finite theta (scale={scale}, r={r}, k={k})"
    if not math.isfinite(store.controlled_norm()):
        return f"non-finite norm (scale={scale}, r={r}, k={k})"
    return None


def _check_results(checks, seed: int, indices):
    """(i, the result of checks[i]) for each i of indices, in that order."""
    for idx in indices:
        name, fn, n_cases = checks[idx]
        rng = np.random.default_rng([seed, idx])
        failures = 0
        first = None
        for case in range(n_cases):
            msg = fn(rng)
            if msg is not None:
                failures += 1
                if first is None:
                    first = f"case {case}: {msg}"
        yield idx, PropertyResult(name, n_cases, failures, first)


def property_suite(seed: int, cases: int) -> SuiteReport:
    """Run every documented invariant over `cases` randomized inputs each: the
    child's share from forked(), beside the rest in its child when _fork_allowed, else
    here, before the rest. The report is the same either way: each check seeds its own rng."""
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    if not is_integer(cases) or cases < 1:
        raise ValueError(f"cases must be an integer >= 1, got {cases!r}")
    checks = [
        ("controlled norm scales linearly", _check_norm_scaling, cases),
        ("norm ratio is exactly 1 at init", _check_ratio_at_init, cases),
        ("uncontrolled mutation leaves controlled norm", _check_uncontrolled_mutation, cases),
        ("eta schedule non-increasing after warmup", _check_eta_monotone, max(1, cases // 10)),
        ("rt exact at breakpoints", _check_rt_breakpoints, cases),
        ("schedule evaluators are pure", _check_schedule_purity, cases),
        ("norm control convex-combination law", _check_convex_combination, cases),
        ("norm control fixed point at target", _check_fixed_point, cases),
        ("norm control preserves element signs", _check_direction_preserved, cases),
        ("bias correction exact at t=1", _check_bias_correction, cases),
        ("regularizers leave uncontrolled groups", _check_uncontrolled_under_regularizers, cases),
        ("oracle step: bare adam", lambda r: _oracle_single_step_check(r, Variant.NONE), cases),
        ("oracle step: coupled-lr decay",
         lambda r: _oracle_single_step_check(r, Variant.DECAY_COUPLED_LR), cases),
        ("oracle step: decoupled decay",
         lambda r: _oracle_single_step_check(r, Variant.DECAY_DECOUPLED), cases),
        ("oracle step: norm control",
         lambda r: _oracle_single_step_check(r, Variant.NORM_CONTROL), cases),
        ("oracle step: coupled sgd",
         lambda r: _oracle_single_step_check(r, Variant.COUPLED_SGD), cases),
        ("oracle trajectory drift (quadratic, norm control)", _check_oracle_trajectory,
         max(1, cases // 100)),
        ("coupled-lr decay == norm control special case",
         lambda r: _decay_equivalence_check(r, Variant.DECAY_COUPLED_LR), max(1, cases // 20)),
        ("decoupled decay == norm control special case",
         lambda r: _decay_equivalence_check(r, Variant.DECAY_DECOUPLED), max(1, cases // 20)),
        ("degenerate inputs stay finite", _check_degenerate_inputs, cases),
    ]
    # A fixed split that balances the measured cost: the odd-numbered checks and the
    # oracle trajectory (16, the costliest per case) go to the child. Not a shared
    # queue: each process must run the same checks on every call.
    child = [i for i in range(len(checks)) if i % 2 or i == 16]
    with forked("the property suite's child", _check_results, checks, seed, child) as theirs:
        results = dict(_check_results(checks, seed,
                                      [i for i in range(len(checks)) if i not in child]))
        results.update(theirs)
    return SuiteReport([results[i] for i in range(len(checks))])
