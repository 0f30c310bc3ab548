"""The benchmark's three workloads.

Each workload makes its seeded inputs once with ``inputs(seed, root, work)``,
untimed, and is then built, timed, from the normcontrol package it is handed
and those inputs (``setup_s`` times only the import and this build). It
exposes ``op()`` (one timed operation, returning what
``op_ok`` needs), ``op_ok(result)`` (untimed check of one operation),
``checks()`` (untimed end-of-run output checks, as (name, ok, detail)) and
``notes(op_s)`` (the workload's own end-to-end figures, for the log).

* mlp_compare: the paper's calibration protocol, ``normcontrol compare`` on
  the shipped MLP configs with the seed substituted. 177 parameters, so the
  cost is per-call Python overhead in every layer but verify.
* store_1m: ``optim.step`` under norm control on a 10^6-element store with
  interleaved controlled/uncontrolled groups. The cost is per element.
* verify_suite: what ``check-grad --task all --properties N`` does, thousands
  of short-lived stores of 1 to 1000 elements stepped next to the oracle, so
  per-store set-up cost shows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np


class MlpCompare:
    """``cli.main(["compare", ...])`` on the shipped configs, seed substituted."""

    CONFIGS = ("mlp_adamw.cfg", "mlp_norm_control.cfg")
    GATE = 0.05  # acceptance criterion 5: ratio gap and val-loss gap

    @classmethod
    def inputs(cls, seed: int, root: Path, work: Path):
        """Write the shipped configs with the seed substituted; return (root, work, configs)."""
        configs = []
        for name in cls.CONFIGS:
            text, count = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}",
                                  (root / "configs" / name).read_text())
            if count != 1:
                raise ValueError(f"configs/{name}: expected one seed line, found {count}")
            path = work / name
            path.write_text(text)
            configs.append((path, text))
        return root, work, configs

    def __init__(self, nc, inputs):
        self.nc, self.root = nc, inputs[0]
        self.out_dir = inputs[1] / "compare"
        self.config_paths = []
        for path, text in inputs[2]:
            nc.harness.initialize_run(nc.harness.parse_run_config(text))
            self.config_paths.append(path)
        self.first_traces = None

    def _compare(self, config_paths, out_dir: Path) -> int:
        a, b = map(str, config_paths)
        with contextlib.redirect_stdout(io.StringIO()):
            return self.nc.cli.main(["compare", "--config-a", a, "--template-b", b,
                                     "--out-dir", str(out_dir)])

    def op(self):
        return self._compare(self.config_paths, self.out_dir)

    def op_ok(self, rc) -> bool:
        traces = hashlib.sha256((self.out_dir / "trace_a.csv").read_bytes()
                                + (self.out_dir / "trace_b.csv").read_bytes()).hexdigest()
        if self.first_traces is None:
            self.first_traces = traces
        return rc == 0 and traces == self.first_traces

    def notes(self, op_s):
        return [f"compare_s {op_s:.6g} s (one compare is one operation)"]

    @staticmethod
    def _gaps(out_dir: Path):
        report = json.loads((out_dir / "report.json").read_text())
        ratio_gap = report["ratio_gap"] / report["final_ratio_a"]
        loss_gap = (abs(report["final_val_loss_b"] - report["final_val_loss_a"])
                    / abs(report["final_val_loss_a"]))
        return ratio_gap, loss_gap

    def checks(self):
        ratio_gap, loss_gap = self._gaps(self.out_dir)
        yield ("workload seed: ratio gap within 5%", ratio_gap <= self.GATE,
               f"ratio gap {ratio_gap:.2e}, val-loss gap {loss_gap:.2e} (reported, not gated)")
        # The val-loss gap is a property of one seed's training run, not an
        # invariant: it exceeds 5% on 2 of seeds 0-199 (seeds 25 and 105).
        # Both criterion-5 gates are checked where the criterion sets them,
        # on the shipped configs at their own seed.
        shipped = self.out_dir.parent / "compare_shipped"
        rc = self._compare([self.root / "configs" / name for name in self.CONFIGS], shipped)
        ratio_gap, loss_gap = self._gaps(shipped) if rc == 0 else (math.inf, math.inf)
        yield ("shipped configs: criterion-5 gates", rc == 0 and max(ratio_gap, loss_gap) <= self.GATE,
               f"exit {rc}, ratio gap {ratio_gap:.2e}, val-loss gap {loss_gap:.2e}")


class Store1m:
    """``optim.step`` under norm control on 10^6 params, quadratic gradient."""

    LAYERS = 10
    WEIGHTS, BIASES = 90_000, 10_000  # per layer; biases are uncontrolled
    HORIZON = 1_000_000               # beyond any run's step count
    REL_TOL, REL_FLOOR = 1e-13, 1e-15  # the property suite's oracle tolerance

    @classmethod
    def inputs(cls, seed: int, root: Path, work: Path):
        """(theta0, a_diag, b) of 10^6 elements drawn from the seed."""
        n = cls.LAYERS * (cls.WEIGHTS + cls.BIASES)
        rng = np.random.default_rng(seed)
        return rng.normal(scale=0.05, size=n), rng.uniform(0.5, 2.0, n), rng.normal(size=n)

    def __init__(self, nc, inputs):
        self.nc = nc
        self.theta0, self.a_diag, self.b = inputs
        ParamGroup = nc.params.ParamGroup
        groups, offset = [], 0
        for i in range(self.LAYERS):
            groups.append(ParamGroup(f"w{i}", offset, self.WEIGHTS, True))
            groups.append(ParamGroup(f"b{i}", offset + self.WEIGHTS, self.BIASES, False))
            offset += self.WEIGHTS + self.BIASES
        self.store = nc.params.ParamStore(self.theta0, groups)
        self.state = nc.optim.OptimizerState.zeros(offset)
        self.sched = nc.schedules.parse_schedule_spec(
            f"T = {self.HORIZON}\neta = cosine(1.0, 0.1)\nrt = linear(0:1.0, 100:1.5)\n"
            "kt = const(0.01)\n")
        self.cfg = nc.optim.OptimizerConfig(variant=nc.optim.Variant.NORM_CONTROL)

    def _step(self, store, state):
        loss, g = self.nc.tasks.quadratic_loss_grad(store.theta, self.a_diag, self.b)
        self.nc.optim.step(store, state, g, state.t + 1, self.sched, self.cfg)
        return loss, g

    def op(self):
        return self._step(self.store, self.state)[0]

    def op_ok(self, loss) -> bool:
        return math.isfinite(loss)

    def notes(self, op_s):
        return []

    def checks(self):
        nc, sched = self.nc, self.sched
        store = self.store.snapshot()
        state = nc.optim.OptimizerState(self.state.t, self.state.m.copy(), self.state.v.copy())
        oracle = nc.verify.oracle_from_store(store, state)
        oracle.initial_norm = nc.verify.oracle_controlled_norm(self.theta0.tolist(),
                                                               oracle.controlled)
        _, g = self._step(store, state)
        t = state.t
        nc.verify.oracle_step(oracle, g.tolist(), t, sched.eta_at(t), sched.rt_at(t),
                              sched.kt_at(t), self.cfg, sched.target_mode)
        want = np.array(oracle.theta)
        err = np.abs(store.theta - want)
        allowed = np.maximum(self.REL_TOL * np.maximum(np.abs(store.theta), np.abs(want)),
                             self.REL_FLOOR)
        bad = int(np.count_nonzero(~(err <= allowed)))
        yield ("step from a snapshot matches the oracle", bad == 0,
               f"{bad} of {want.size} elements outside rel {self.REL_TOL:g} at t={t}")


class VerifySuite:
    """Gradient checks on all three tasks plus ``property_suite(seed, CASES)``."""

    CASES = 300
    DIM, HIDDEN, BATCH, H = 8, 16, 32, 1e-5  # check-grad's defaults

    @classmethod
    def inputs(cls, seed: int, root: Path, work: Path):
        return seed

    def __init__(self, nc, seed: int):
        self.nc, self.seed = nc, seed
        self.tasks = []
        for name in nc.tasks.TASK_NAMES:
            rng = np.random.default_rng(seed)
            task = nc.tasks.build_task(name, self.DIM, self.HIDDEN, rng)
            theta = task.init_theta(rng)
            self.tasks.append((name, task, theta, task.sample_batch(rng, self.BATCH), rng))

    def op(self):
        errors = {name: self.nc.tasks.finite_diff_check(task, theta, batch, h=self.H, rng=rng)
                  for name, task, theta, batch, rng in self.tasks}
        return errors, self.nc.verify.property_suite(self.seed, self.CASES)

    def op_ok(self, result) -> bool:
        errors, report = result
        self.cases = sum(r.cases for r in report.results)
        tolerances = self.nc.cli.GRAD_TOLERANCES
        return (report.all_passed and report.total_failures == 0
                and all(err <= tolerances[name] for name, err in errors.items()))

    def notes(self, op_s):
        return [f"cases_per_s {self.cases / op_s:.6g} 1/s ({self.cases} property cases per operation)"]

    def checks(self):
        return ()


WORKLOADS = {"mlp_compare": MlpCompare, "store_1m": Store1m, "verify_suite": VerifySuite}
