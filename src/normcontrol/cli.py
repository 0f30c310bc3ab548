"""Command-line interface.

Subcommands: run a config, compare a decay run against a calibrated
norm-control run, tabulate the schedule values a run applies, and check
task gradients.

Exit codes: 0 on success, 2 on config/parse errors (``line N: key:
message``) and on an output path that cannot be written, found before any
run starts, 3 on runtime numeric errors (including failed checks).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, tasks, verify
from .harness import RunConfig

GRAD_TOLERANCES = {"quadratic": 1e-9, "logistic": 1e-6, "mlp": 1e-5}


def _int_at_least(lo: int):
    """argparse type: an integer >= lo (argparse exits 2 otherwise)."""
    def integer(text: str) -> int:
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
        return n
    return integer


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="normcontrol",
                                description="Weight norm control optimizer experiments")
    sub = p.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one training run")
    p_run.add_argument("--config", required=True, help="run config file")
    p_run.add_argument("--out", required=True, help="trace CSV output path")

    p_cmp = sub.add_parser("compare", help="decay reference vs calibrated norm control")
    p_cmp.add_argument("--config-a", required=True, help="decay-variant run config")
    p_cmp.add_argument("--template-b", required=True, help="norm-control run config (rt is replaced)")
    p_cmp.add_argument("--out-dir", required=True)

    p_sched = sub.add_parser("schedule", help="tabulate the eta/rt/kt values a run applies")
    p_sched.add_argument("--config", required=True, help="run config file")
    p_sched.add_argument("--stride", type=_int_at_least(1), required=True)
    p_sched.add_argument("--out", required=True, help="schedule table CSV path")

    p_grad = sub.add_parser("check-grad", help="check analytic gradients and core properties")
    p_grad.add_argument("--task", required=True, choices=list(tasks.TASK_NAMES) + ["all"])
    p_grad.add_argument("--seed", type=_int_at_least(0), default=RunConfig.seed)
    p_grad.add_argument("--dim", type=_int_at_least(1), default=RunConfig.dim)
    p_grad.add_argument("--hidden", type=_int_at_least(1), default=RunConfig.hidden)
    p_grad.add_argument("--properties", type=_int_at_least(0), default=0, metavar="CASES",
                        help="also run the invariant property suite with CASES cases")
    return p


def _cmd_run(args) -> int:
    config = harness.parse_run_config(Path(args.config).read_text())
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        raise OSError(f"cannot write {out}: not a file in an existing directory")
    trace = harness.run(config)
    trace.write_csv(args.out)
    last = trace.rows[-1]
    print(f"wrote {args.out}: {len(trace.rows)} rows, final val_loss {last.val_loss:.6g}, "
          f"final norm ratio {last.norm_ratio:.6g}")
    return 0


def _cmd_compare(args) -> int:
    config_a = harness.parse_run_config(Path(args.config_a).read_text())
    template_b = harness.parse_run_config(Path(args.template_b).read_text())
    out_dir = Path(args.out_dir)
    # Checked before the runs; created (with any missing parents) only after them.
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise OSError(f"cannot create {out_dir}: {existing} is not a directory")
    report = harness.compare(config_a, template_b)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.trace_a.write_csv(out_dir / "trace_a.csv")
    report.trace_b.write_csv(out_dir / "trace_b.csv")
    summary = {key: getattr(report, key) for key in (
        "final_ratio_a", "final_ratio_b", "ratio_gap", "final_val_loss_a", "final_val_loss_b")}
    summary["rel_val_loss"] = [{"t": t, "val_loss_b_over_a": v} for t, v in report.rel_val_loss]
    (out_dir / "report.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"ratio A {report.final_ratio_a:.6g}, ratio B {report.final_ratio_b:.6g} "
          f"(gap {report.ratio_gap:.3g}); val loss A {report.final_val_loss_a:.6g}, "
          f"B {report.final_val_loss_b:.6g}")
    return 0


def _cmd_schedule(args) -> int:
    config = harness.parse_run_config(Path(args.config).read_text())
    csv_text = harness.schedule_table_csv(config.schedules, config.optimizer, args.stride)
    Path(args.out).write_text(csv_text)
    print(f"wrote {args.out}: {csv_text.count(chr(10)) - 1} rows")
    return 0


def _cmd_check_grad(args) -> int:
    names = list(tasks.TASK_NAMES) if args.task == "all" else [args.task]
    failed = False
    for name in names:
        rng = np.random.default_rng(args.seed)
        task = tasks.build_task(name, args.dim, args.hidden, rng)
        theta = task.init_theta(rng)
        batch = task.sample_batch(rng, RunConfig.batch_size)
        err = tasks.finite_diff_check(task, theta, batch, rng=rng)
        tol = GRAD_TOLERANCES[name]
        status = "ok" if err <= tol else "FAIL"  # a NaN error fails
        print(f"{status:4s} {name}: max relative gradient error {err:.3e} (tolerance {tol:.0e})")
        failed |= status == "FAIL"
    if args.properties > 0:
        report = verify.property_suite(args.seed, args.properties)
        print(report.format())
        failed |= not report.all_passed
    return 3 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "schedule": _cmd_schedule,
        "check-grad": _cmd_check_grad,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, OverflowError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
