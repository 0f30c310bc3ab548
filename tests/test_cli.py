import errno
import json
import math
import signal
from pathlib import Path

import pytest
from conftest import FORK_GATES, fork_gate

from normcontrol import tasks
from normcontrol.cli import main

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"

RUN_CFG = (
    "task = mlp\ndim = 6\nhidden = 8\nbatch_size = 16\nseed = 1\n"
    "eval_every = 20\nvariant = norm_control\nT = 100\n"
    "rt = linear(0:1.0, 30:1.5)\nkt = const(0.01)\n"
)

DECAY_CFG = (
    "task = mlp\ndim = 6\nhidden = 8\nbatch_size = 16\nseed = 1\n"
    "eval_every = 20\nvariant = decay_coupled_lr\nlambda = 0.1\nT = 100\n"
)


def test_run_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("t,train_loss,val_loss,")
    assert "final norm ratio" in capsys.readouterr().out

    # determinism: a second invocation writes identical bytes
    out2 = tmp_path / "trace2.csv"
    main(["run", "--config", str(cfg), "--out", str(out2)])
    assert out2.read_bytes() == out.read_bytes()


def test_schedule_subcommand(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(RUN_CFG)
    out = tmp_path / "table.csv"
    assert main(["schedule", "--config", str(cfg), "--stride", "50", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,eta_t,r_t,k_t"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "50", "100"]


def test_schedule_rejects_unknown_keys(tmp_path, capsys):
    out = tmp_path / "table.csv"
    for name in ("mlp_adamw.cfg", "mlp_norm_control.cfg"):
        assert main(["schedule", "--config", str(CONFIGS_DIR / name), "--stride", "100",
                     "--out", str(out)]) == 0
    cfg = tmp_path / "s.cfg"
    cfg.write_text("T = 100\nkt = const(0.5)\n")  # schedule keys only, no task
    assert main(["schedule", "--config", str(cfg), "--stride", "50", "--out", str(out)]) == 2
    assert "task: missing required key" in capsys.readouterr().err
    cfg.write_text(RUN_CFG + "Kt = const(0.5)\n")
    assert main(["schedule", "--config", str(cfg), "--stride", "50", "--out", str(out)]) == 2
    assert "line 11: unknown key 'Kt'" in capsys.readouterr().err


def test_schedule_shows_what_the_run_applies(tmp_path):
    # AdamW applies k_t = eta_t * alpha * lambda, not the unset kt schedule.
    out = tmp_path / "table.csv"
    assert main(["schedule", "--config", str(CONFIGS_DIR / "mlp_adamw.cfg"), "--stride", "1000",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[2] == "1000,0.77500000000000002,0,7.7500000000000014e-05"


def test_schedule_rejects_a_stride_below_one_before_reading(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schedule", "--config", str(tmp_path / "missing.cfg"), "--stride", "0",
              "--out", str(tmp_path / "table.csv")])
    assert exc.value.code == 2
    assert "--stride" in capsys.readouterr().err


def test_compare_subcommand(tmp_path):
    cfg_a = tmp_path / "a.cfg"
    cfg_a.write_text(DECAY_CFG)
    cfg_b = tmp_path / "b.cfg"
    cfg_b.write_text(RUN_CFG)
    out_dir = tmp_path / "cmp"
    assert main(["compare", "--config-a", str(cfg_a), "--template-b", str(cfg_b),
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "trace_a.csv").exists()
    assert (out_dir / "trace_b.csv").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report) >= {"final_ratio_a", "final_ratio_b", "ratio_gap",
                           "final_val_loss_a", "final_val_loss_b", "rel_val_loss"}


def test_check_grad_subcommand(capsys):
    assert main(["check-grad", "--task", "all", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 3


def test_check_grad_with_properties(capsys):
    assert main(["check-grad", "--task", "quadratic", "--seed", "0",
                 "--properties", "5"]) == 0
    assert "convex-combination" in capsys.readouterr().out


def test_check_grad_fails_a_gradient_with_a_nan_coordinate(capsys, monkeypatch):
    build = tasks.build_task

    def nan_gradient(*args, **kwargs):
        task = build(*args, **kwargs)
        loss_and_grad = task.loss_and_grad

        def poisoned(theta, batch):
            loss, g = loss_and_grad(theta, batch)
            g[1] = math.nan
            return loss, g

        task.loss_and_grad = poisoned
        return task

    monkeypatch.setattr(tasks, "build_task", nan_gradient)
    assert main(["check-grad", "--task", "quadratic"]) == 3
    assert capsys.readouterr().out.startswith("FAIL quadratic: max relative gradient error nan")


@pytest.mark.parametrize("variant, lam, extra, rate", [
    ("decay_coupled_lr", "0.1", "alpha = 1e300\n", "eta_max * alpha * lambda = 1e+299"),
    ("decay_decoupled", "1.5", "", "eta_max * lambda = 1.5"),
    ("coupled_sgd", "1.5", "", "lambda = 1.5"),
])
def test_decay_rate_error_names_the_rate_and_its_formula(variant, lam, extra, rate,
                                                         tmp_path, capsys):
    text = (CONFIGS_DIR / "mlp_adamw.cfg").read_text() + extra
    text = text.replace("variant = decay_coupled_lr", f"variant = {variant}")
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(text.replace("lambda = 0.1", f"lambda = {lam}"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"error: line 9: lambda: decay rate {rate} is above 1\n"


@pytest.mark.parametrize("args", [["--dim", "0"], ["--hidden", "0"], ["--properties", "-3"],
                                  ["--seed", "-1"]])
def test_check_grad_rejects_bad_sizes(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-grad", "--task", "quadratic", *args])
    assert exc.value.code == 2
    assert args[0] in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("task = mlp\nnot an assignment\nT = 10\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_validation_error_exit_code(tmp_path, capsys):
    # every message starts "line N: key:", N the line that set the key;
    # norm_control is the variant that used to ignore a non-finite lambda
    for line in ["kt = const(2.0)", "alpha = nan", "alpha = inf", "epsilon = nan",
                 "epsilon = inf", "lambda = nan", "lambda = inf", "rt = const(nan)",
                 "rt = const(inf)", "rt = linear(0:1.0, 5:nan)", "kt = const(nan)",
                 "seed = 1\nseed = 2", "variant = none", "lambda = -1", "beta1 = 1.0",
                 "dim = 0", "seed = -1", "eta = cosine(2.0, 0.1)", "rt = linear(0:1.0, 50:2.0)",
                 "rt = linear(5:1.0)", "eta = cosine(0.1, 0.5)"]:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"task = mlp\nT = 10\nvariant = norm_control\n{line}\n")
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2, line
        lineno, key = 4 + line.count("\n"), line.split()[0]
        assert capsys.readouterr().err.startswith(f"error: line {lineno}: {key}: "), line
    # a schedule value the grammar rejects, with the form it expects
    cosine, piecewise = "cosine(max, min[, warmup=n])", "const(v) or linear(t:v, ...)"
    for key, value, form in [("eta", "cosine(1.0)", cosine), ("eta", "cosine(1.0, 0.1, 5)", cosine),
                             ("eta", "cosine(a, b)", cosine), ("eta", "cos(1.0, 0.1)", cosine),
                             ("eta", "cosine(, 1.0, 0.1)", cosine), ("rt", "const()", piecewise),
                             ("rt", "linear(0:1.0, 5)", piecewise),
                             ("rt", "linear(0:1.0, 5:x)", piecewise), ("rt", "lin(0:1)", piecewise)]:
        cfg.write_text(f"task = mlp\nT = 10\nvariant = norm_control\n{key} = {value}\n")
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2, value
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: line 4: {key}: expected {form}, got {value!r}"), value
    # the warmup must end before the horizon; T is blamed, on its own line
    cfg.write_text("task = mlp\nT = 10\nvariant = norm_control\neta = cosine(1.0, 0.1, warmup=10)\n")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: T: ")
    # a decay rate above 1 at eta_max would flip the sign of the weights
    for variant in ("decay_decoupled", "coupled_sgd"):
        cfg.write_text(f"task = mlp\nT = 10\nvariant = {variant}\nlambda = 1.5\n")
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2, variant
        assert capsys.readouterr().err.startswith("error: line 4: lambda: "), variant
    # a missing key has no line
    cfg.write_text("task = mlp\nvariant = norm_control\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: T: missing required key\n"


def test_unread_key_warns_and_still_runs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG + "lambda = 0.1\n")
    with pytest.warns(UserWarning) as record:
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
    assert [str(w.message) for w in record] == [
        "line 11: lambda: not read by variant norm_control; ignored"]


def test_run_checks_the_output_path_before_the_run(tmp_path, capsys, monkeypatch):
    from normcontrol import harness

    def no_run(config):
        raise AssertionError("the run started before the output path was checked")

    monkeypatch.setattr(harness, "run", no_run)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    for out in (tmp_path / "missing" / "t.csv", tmp_path):
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2, out
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: "), out
    assert not (tmp_path / "missing").exists()


def test_compare_checks_the_output_dir_before_the_runs(tmp_path, capsys, monkeypatch):
    from normcontrol import harness

    def no_run(name, items, *args):
        raise AssertionError("run A started before the output directory was checked")

    monkeypatch.setattr(harness, "forked", no_run)
    blocker = tmp_path / "a_file"
    blocker.write_text("keep")
    for out_dir in (blocker, blocker / "sub" / "dir"):
        capsys.readouterr()
        assert main(["compare", "--config-a", str(CONFIGS_DIR / "mlp_adamw.cfg"),
                     "--template-b", str(CONFIGS_DIR / "mlp_norm_control.cfg"),
                     "--out-dir", str(out_dir)]) == 2, out_dir
        assert capsys.readouterr().err.startswith(f"error: cannot create {out_dir}: "), out_dir
    assert blocker.read_text() == "keep"


def test_write_error_after_the_runs_exit_code(tmp_path, capsys, monkeypatch):
    from normcontrol import harness

    def disk_full(trace, path):
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(harness.RunTrace, "write_csv", disk_full)
    cfg_a, cfg_b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    cfg_a.write_text(DECAY_CFG)
    cfg_b.write_text(RUN_CFG)
    for argv in (["run", "--config", str(cfg_b), "--out", str(tmp_path / "t.csv")],
                 ["compare", "--config-a", str(cfg_a), "--template-b", str(cfg_b),
                  "--out-dir", str(tmp_path / "cmp")]):
        capsys.readouterr()
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No space left on device" in err, argv[0]


@pytest.mark.filterwarnings("ignore:overflow")
def test_numeric_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "explode.cfg"
    cfg.write_text("task = quadratic\nT = 10\neval_every = 1\nalpha = 1e160\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3
    assert "step" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")  # no warning: every key the configs set is read
def test_shipped_configs_parse_and_compare(tmp_path):
    from normcontrol.harness import parse_run_config

    for name in ("mlp_adamw.cfg", "mlp_norm_control.cfg"):
        parse_run_config((CONFIGS_DIR / name).read_text())
    out_dir = tmp_path / "cmp" / "nested"
    rc = main(["compare",
               "--config-a", str(CONFIGS_DIR / "mlp_adamw.cfg"),
               "--template-b", str(CONFIGS_DIR / "mlp_norm_control.cfg"),
               "--out-dir", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["ratio_gap"] <= 0.05 * report["final_ratio_a"]


def test_compare_rejects_a_template_of_another_experiment(tmp_path, capsys, monkeypatch):
    from normcontrol import harness

    def no_run(name, items, *args):
        raise AssertionError("run A started before the template was checked")

    monkeypatch.setattr(harness, "forked", no_run)
    shipped = (CONFIGS_DIR / "mlp_norm_control.cfg").read_text()
    templates = {
        "eta": shipped.replace("eta = cosine(1.0, 0.1)", "eta = cosine(1.0, 0.2)"),
        "task": shipped.replace("task = mlp", "task = quadratic").replace("T = 3000", "T = 1000"),
        "T": shipped.replace("T = 3000", "T = 2000"),
    }
    for key, text in templates.items():
        assert text != shipped, key
        template = tmp_path / f"{key}.cfg"
        template.write_text(text)
        capsys.readouterr()
        rc = main(["compare", "--config-a", str(CONFIGS_DIR / "mlp_adamw.cfg"),
                   "--template-b", str(template), "--out-dir", str(tmp_path / key)])
        assert rc == 2, key
        assert capsys.readouterr().err.startswith(f"error: {key}: "), key
        assert not (tmp_path / key).exists(), key


def _shipped(name, **changes):
    """A shipped config's text with keys replaced, appended when absent, or dropped when None."""
    lines = (CONFIGS_DIR / name).read_text().splitlines()
    for key, value in changes.items():
        at = [i for i, line in enumerate(lines) if line.split("=")[0].strip() == key]
        if value is None:
            del lines[at[0]]
        elif at:
            lines[at[0]] = f"{key} = {value}"
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_run_with_a_non_finite_row_exits_3(tmp_path, capsys):
    cfg, out = tmp_path / "inf.cfg", tmp_path / "x.csv"
    cfg.write_text("task = quadratic\nvariant = none\nalpha = 1e308\nT = 1\n")
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numeric error: run aborted at step 1: non-finite val_loss inf\n")
    assert not out.exists()


def test_an_overflow_raised_as_an_error_in_the_val_loss_exits_3(tmp_path, capsys):
    # Warnings are errors here, as under python -W error.
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("task = mlp\nvariant = none\nalpha = 1e308\nT = 1\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err.startswith("numeric error: run aborted at step 1: overflow")


DIVERGING_A = {"lambda": "1e-301", "alpha": "1e300"}  # decay rate 0.1; loss inf at step 2
DIVERGING_B = {"alpha": "1.7e308"}  # weights near the float max in step 1; loss nan at step 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("a_changes, b_changes, rc, line", [
    (DIVERGING_A, {}, 3, "numeric error: run aborted at step 2: non-finite training loss inf"),
    ({}, DIVERGING_B, 3, "numeric error: run aborted at step 2: non-finite training loss nan"),
    (DIVERGING_A, DIVERGING_B, 3,
     "numeric error: run aborted at step 2: non-finite training loss inf"),
    # a decay rate of exactly 1 takes A's norm to 0 at every step
    ({"variant": "decay_decoupled", "lambda": "1.0", "eta": "cosine(1.0, 1.0)"},
     {"eta": "cosine(1.0, 1.0)"}, 2, "error: reference norm ratio must be > 0, got 0.0 at t=50"),
    # B stops at step 1, its first logged row, while A still has most of its 3,000 rows to send
    ({"eval_every": "1"}, {"eval_every": "1", **DIVERGING_B}, 3,
     "numeric error: run aborted at step 1: non-finite val_loss nan"),
    # A's only step overflows its weights after a finite loss and gradient: its row is not finite
    ({"task": "quadratic", "variant": "coupled_sgd", "eta": None, "T": "1", "alpha": "1e308"},
     {"task": "quadratic", "T": "1", "rt": "const(1.0)"}, 3,
     "numeric error: run aborted at step 1: non-finite val_loss nan"),
    # decay rate 0.1; A's weights stay finite, but its val loss overflows
    ({"task": "quadratic", "T": "1", "alpha": "1e308", "lambda": "1e-309"},
     {"task": "quadratic", "T": "1", "rt": "const(1.0)"}, 3,
     "numeric error: run aborted at step 1: non-finite val_loss inf"),
], ids=["A diverges", "B diverges", "both diverge", "A's norm reaches 0", "B stops early",
        "A's last step overflows", "A's val loss overflows"])
def test_compare_reports_errors_as_a_sequential_run_does(tmp_path, capfd, a_changes,
                                                        b_changes, rc, line):
    import multiprocessing

    cfg_a, cfg_b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    cfg_a.write_text(_shipped("mlp_adamw.cfg", **a_changes))
    cfg_b.write_text(_shipped("mlp_norm_control.cfg", **b_changes))
    for allowed in FORK_GATES:  # A in a forked child, then in this process
        with fork_gate(allowed):
            assert main(["compare", "--config-a", str(cfg_a), "--template-b", str(cfg_b),
                         "--out-dir", str(tmp_path / "out")]) == rc, allowed
        assert multiprocessing.active_children() == []
        err = capfd.readouterr().err
        assert err.splitlines()[-1] == line and "Traceback" not in err, allowed
        assert not (tmp_path / "out").exists()


def test_compare_reports_a_reference_process_that_dies(tmp_path, capfd, forks):
    import multiprocessing

    from normcontrol import harness

    run_b = harness.run

    def kill_reference_then_run(config):
        for child in multiprocessing.active_children():
            child.kill()
        return run_b(config)

    forks.setattr(harness, "run", kill_reference_then_run)
    assert main(["compare", "--config-a", str(CONFIGS_DIR / "mlp_adamw.cfg"),
                 "--template-b", str(CONFIGS_DIR / "mlp_norm_control.cfg"),
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == "numeric error: the reference run ended without a result\n"


def test_an_interrupted_compare_stops_the_reference_process(forks, capfd):
    import multiprocessing
    import os

    from normcontrol import harness

    children = []

    def interrupt(config):
        config.schedules.rt_at(1)  # A has logged its first row
        children.extend(multiprocessing.active_children())
        for child in children:  # Ctrl-C signals the whole foreground process group
            os.kill(child.pid, signal.SIGINT)
            child.join(timeout=0.2)
        raise KeyboardInterrupt

    forks.setattr(harness, "run", interrupt)
    # A long enough that the child still runs when the interrupt reaches the parent
    config_a, template_b = (harness.parse_run_config(_shipped(name, T="30000"))
                            for name in ("mlp_adamw.cfg", "mlp_norm_control.cfg"))
    with pytest.raises(KeyboardInterrupt):
        harness.compare(config_a, template_b)
    assert multiprocessing.active_children() == []
    assert [child.exitcode for child in children] == [-signal.SIGTERM]  # stopped, not awaited
    assert capfd.readouterr().err == ""


HUGE = "1000000000000000"  # 10^15 float64s exceed any 64-bit address space: refused at once


@pytest.mark.parametrize("command, message", [
    ("run", "error: Unable to allocate "),
    ("compare", "error: Unable to allocate "),
    ("check-grad", "error: Unable to allocate "),
    ("schedule", "error: MemoryError"),  # the bare error of a 10^15-row table has no text
], ids=["run", "compare", "check-grad", "schedule"])
def test_a_size_that_cannot_be_allocated_exits_2(tmp_path, capfd, command, message):
    import multiprocessing

    cfg_a, cfg_b, out = tmp_path / "a.cfg", tmp_path / "b.cfg", str(tmp_path / "out")
    cfg_a.write_text(_shipped("mlp_adamw.cfg", dim=HUGE))
    key = "T" if command == "schedule" else "dim"  # schedule builds no task
    cfg_b.write_text(_shipped("mlp_norm_control.cfg", **{key: HUGE}))
    argv = {"run": ["--config", str(cfg_b), "--out", out],
            "compare": ["--config-a", str(cfg_a), "--template-b", str(cfg_b), "--out-dir", out],
            "check-grad": ["--task", "all", "--dim", HUGE],
            "schedule": ["--config", str(cfg_b), "--stride", "1", "--out", out]}[command]
    for allowed in FORK_GATES:  # compare's A in a forked child, then in this process
        with fork_gate(allowed):
            assert main([command, *argv]) == 2, allowed
        assert multiprocessing.active_children() == []
        err = capfd.readouterr().err
        assert err.startswith(message) and len(err.splitlines()) == 1, (allowed, err)
        assert not (tmp_path / "out").exists()


def test_a_batch_that_cannot_be_allocated_fails_at_step_1(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(_shipped("mlp_norm_control.cfg", batch_size=HUGE))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 3
    assert capsys.readouterr().err.startswith("numeric error: run aborted at step 1: ")


def test_config_fuzz_exits_0_2_or_3(tmp_path):
    import warnings

    from normcontrol.harness import RUN_KEYS, SCHEDULE_KEYS

    base = {"T": "5", "rt": "linear(0:1.0, 5:2.0)"}
    values = ["", "nan", "inf", "-1", "0", "1e400", "5e-324", "0x10", "1_000", HUGE, "ü"]
    cfg, out = tmp_path / "fuzz.cfg", str(tmp_path / "t.csv")
    for key in RUN_KEYS | SCHEDULE_KEYS:
        for value in values:
            if key == "T" and value == HUGE:
                continue  # a valid run of 10^15 steps, which would not end
            cfg.write_text(_shipped("mlp_norm_control.cfg", **(base | {key: value})))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # unread keys warn; overflow may too
                assert main(["run", "--config", str(cfg), "--out", out]) in (0, 2, 3), (key, value)
