import json
import os
from pathlib import Path

import numpy as np
import pytest

from ctrlpinn import cli, problems
from ctrlpinn.network import forward_values

from oracles import read_field


TINY_ANALYTICAL = """
[run]
problem = analytical
epochs = 5
seed = 1
eval_every = 5

[sampler]
interior = 64
initial = 8
terminal = 8
boundary = 8
"""

TINY_HEAT = """
[run]
problem = heat
epochs = 3
seed = 1
eval_every = 0

[problem]
diffusivity = 1.0

[sampler]
interior = 48
initial = 8
terminal = 8
boundary = 8
"""

TINY_PREY = """
[run]
problem = predator_prey
epochs = 0
eval_every = 0

[sampler]
interior = 16
initial = 8
terminal = 8
boundary = 8
"""


def _cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_train_writes_run_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["train", "--config", _cfg(tmp_path, TINY_ANALYTICAL), "--out", str(out)])
    assert code == cli.EXIT_OK
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoint_final.json").exists()
    assert (out / "summary.json").exists()
    assert (out / "config.resolved.cfg").exists()
    assert (out / "loss_history.svg").exists()
    assert (out / "solution_vs_reference.svg").exists()
    metrics = (out / "metrics.csv").read_text().strip().splitlines()
    assert len(metrics) == 1 + 5  # header + one row per epoch


def test_train_zero_epochs_initial_evaluation_only(tmp_path):
    out = tmp_path / "run0"
    code = cli.main(["train", "--config", _cfg(tmp_path, TINY_ANALYTICAL), "--epochs", "0", "--out", str(out)])
    assert code == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["epochs_run"] == 0
    assert summary["initial_probe"]["err_y"] is not None
    assert len((out / "metrics.csv").read_text().strip().splitlines()) == 1


def test_train_missing_problem_is_config_error(tmp_path, capsys):
    bad = _cfg(tmp_path, "[run]\nepochs = 5\n", name="bad.cfg")
    code = cli.main(["train", "--config", bad, "--out", str(tmp_path / "x")])
    assert code == cli.EXIT_CONFIG
    assert not (tmp_path / "x").exists()
    assert "problem" in capsys.readouterr().err


def test_train_unknown_key_reports_line(tmp_path, capsys):
    bad = _cfg(tmp_path, "[run]\nproblem = analytical\nspeed = 9\n", name="bad.cfg")
    code = cli.main(["train", "--config", bad])
    assert code == cli.EXIT_CONFIG
    assert "bad.cfg:3" in capsys.readouterr().err


def test_train_nonphysical_diffusivity_is_config_error(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["train", "--config", _cfg(tmp_path, TINY_HEAT), "--diffusivity", "-1", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert not out.exists()
    assert "diffusivity" in capsys.readouterr().err


def test_problem_option_of_another_problem_is_config_error(tmp_path, capsys):
    text = TINY_ANALYTICAL + "\n[problem]\ntrack_y1 = true\n"
    line = text.splitlines().index("track_y1 = true") + 1
    out = tmp_path / "a"
    assert cli.main(["train", "--config", _cfg(tmp_path, text, name="bad.cfg"), "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()
    assert f"bad.cfg:{line}" in capsys.readouterr().err
    # the flag is refused too, instead of being ignored and echoed
    out = tmp_path / "b"
    code = cli.main(["train", "--config", _cfg(tmp_path, TINY_ANALYTICAL), "--diffusivity", "0.5", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert not out.exists()
    assert "diffusivity" in capsys.readouterr().err


def test_run_that_overflows_the_network_exits_diverged(tmp_path, capsys):
    out = tmp_path / "run"
    text = TINY_ANALYTICAL + "\n[adam]\nlr = 1e300\n"
    assert cli.main(["train", "--config", _cfg(tmp_path, text), "--out", str(out)]) == cli.EXIT_DIVERGED
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "diverged"
    assert summary["final_probe"] is None
    assert (out / "metrics.csv").exists() and (out / "checkpoint_final.json").exists()
    assert not (out / "final_solution.csv").exists()
    assert "training diverged" in capsys.readouterr().err
    # the overflowing checkpoint is an unusable artifact for the other commands
    for command in ("validate", "export"):
        assert cli.main([command, str(out), "--resolution", "21"]) == cli.EXIT_MISSING
        assert "overflows: non-finite activation in layer" in capsys.readouterr().err
    assert not (out / "validation" / "report.json").exists()
    assert not (out / "export_u.csv").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--epochs", "-3"], ["train", "--seed", "-1"], ["train", "--epochs", "1", "--long"],
    ["validate", "--resolution", "1"], ["validate", "--resolution", "0"], ["validate", "--resolution", "-5"],
    ["export", "--resolution", "0"],
], ids=" ".join)
def test_out_of_range_flag_exits_config_error(tmp_path, capsys, argv):
    # --epochs and --long are two epoch budgets: the pair is refused like an out-of-range value
    out = tmp_path / "run"
    if argv[0] == "train":
        argv = [*argv, "--config", _cfg(tmp_path, TINY_ANALYTICAL), "--out", str(out)]
    else:
        argv = [*argv, str(out)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    expected = "--long: not allowed with argument --epochs" if "--long" in argv else f"{argv[1]}: must be >="
    assert f"argument {expected}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_bad_thread_cap_exits_config_error(tmp_path, capsys, monkeypatch, value):
    # OpenBLAS reads such a value as "every core": it must not get it
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for var in blas:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("CTRLPINN_THREADS", value)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", _cfg(tmp_path, TINY_ANALYTICAL), "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"CTRLPINN_THREADS must be an integer >= 1, got {value!r}" in capsys.readouterr().err
    assert not out.exists()
    assert not any(var in os.environ for var in blas)


def test_a_new_problem_class_runs_through_every_command(tmp_path, monkeypatch):
    # a benchmark is one problem class: the commands only call its methods
    class ToyProblem(problems.AnalyticalProblem):
        name = "toy"

    monkeypatch.setitem(problems.PROBLEMS, "toy", ToyProblem)
    out = _trained(tmp_path, TINY_ANALYTICAL.replace("problem = analytical", "problem = toy"), "toy")
    assert (out / "final_solution.csv").exists()
    assert cli.main(["validate", str(out), "--resolution", "41"]) == cli.EXIT_OK
    assert json.loads((out / "validation" / "report.json").read_text())["problem"] == "toy"
    assert cli.main(["export", str(out), "--resolution", "41"]) == cli.EXIT_OK
    assert (out / "export_u.csv").exists()


@pytest.mark.parametrize("command", ["validate", "export"])
def test_saved_run_with_bad_config_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", _cfg(tmp_path, TINY_ANALYTICAL), "--out", str(out)]) == 0
    resolved = out / "config.resolved.cfg"
    lines = resolved.read_text().splitlines()
    resolved.write_text("\n".join(lines[:2] + ["speed = 9"] + lines[2:]) + "\n")
    capsys.readouterr()
    code = cli.main([command, str(out), "--resolution", "41"])
    assert code == cli.EXIT_CONFIG
    assert "config.resolved.cfg:3: unknown key 'speed'" in capsys.readouterr().err


def _trained(tmp_path, text, name):
    out = tmp_path / name
    assert cli.main(["train", "--config", _cfg(tmp_path, text, name=f"{name}.cfg"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("command", ["validate", "export"])
def test_unreadable_checkpoint_is_missing_artifact(tmp_path, capsys, command):
    out = _trained(tmp_path, TINY_ANALYTICAL, "run")
    (out / "checkpoint_final.json").write_text('{"format": "ctrlpinn-params/1", "params": [1.0,')
    capsys.readouterr()
    assert cli.main([command, str(out), "--resolution", "41"]) == cli.EXIT_MISSING
    assert "not a readable checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "export"])
def test_unknown_checkpoint_format_is_missing_artifact(tmp_path, capsys, command):
    out = _trained(tmp_path, TINY_ANALYTICAL, "run")
    ckpt = out / "checkpoint_final.json"
    doc = json.loads(ckpt.read_text())
    doc["format"] = "ctrlpinn-params/99"
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main([command, str(out), "--resolution", "41"]) == cli.EXIT_MISSING
    assert "unsupported checkpoint format 'ctrlpinn-params/99'" in capsys.readouterr().err


def test_bad_number_in_checkpoint_params_is_missing_artifact(tmp_path, capsys):
    # numpy's text parser stops at the bad token; it must not hand back the
    # numbers before it, nor a traceback
    out = _trained(tmp_path, TINY_ANALYTICAL, "run")
    ckpt = out / "checkpoint_final.json"
    text = ckpt.read_text()
    lo = text.index('"params":[') + len('"params":[')
    comma = text.index(",", lo)
    ckpt.write_text(text[:comma] + ",0.5x" + text[comma:])
    capsys.readouterr()
    assert cli.main(["validate", str(out), "--resolution", "41"]) == cli.EXIT_MISSING
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {ckpt} is not a readable checkpoint: ValueError")
    assert not (out / "validation" / "report.json").exists()


@pytest.mark.parametrize("command", ["validate", "export"])
def test_checkpoint_of_another_problem_is_refused(tmp_path, capsys, command):
    # an analytical network under a heat config must not validate
    analytical = _trained(tmp_path, TINY_ANALYTICAL, "analytical")
    heat = _trained(tmp_path, TINY_HEAT, "heat")
    (heat / "checkpoint_final.json").write_bytes((analytical / "checkpoint_final.json").read_bytes())
    capsys.readouterr()
    assert cli.main([command, str(heat), "--resolution", "41"]) == cli.EXIT_MISSING
    assert "problem 'heat' needs" in capsys.readouterr().err
    assert not (heat / "validation" / "report.json").exists()
    assert not (heat / "export_u.csv").exists()


def test_validate_analytical_run(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", _cfg(tmp_path, TINY_ANALYTICAL), "--out", str(out)]) == 0
    code = cli.main(["validate", str(out), "--resolution", "101"])
    assert code == cli.EXIT_OK
    report = json.loads((out / "validation" / "report.json").read_text())
    assert "rel_error_y_rk4_vs_reference" in report
    assert (out / "validation" / "control.csv").exists()
    assert (out / "validation" / "state_comparison.svg").exists()


def test_validate_heat_run_emits_error_table(tmp_path):
    out = tmp_path / "heatrun"
    assert cli.main(["train", "--config", _cfg(tmp_path, TINY_HEAT), "--out", str(out)]) == 0
    code = cli.main(["validate", str(out), "--resolution", "101"])
    assert code == cli.EXIT_OK
    table = (out / "validation" / "relative_error_table.csv").read_text().strip().splitlines()
    assert table[0] == "time,relative_error"
    assert len(table) == 11  # t = 0.1 ... 1.0
    times = [float(line.split(",")[0]) for line in table[1:]]
    assert times == [round(0.1 * k, 1) for k in range(1, 11)]
    report = json.loads((out / "validation" / "report.json").read_text())
    assert "control_effort_learned" in report and "control_effort_reference" in report


def test_validate_missing_run_dir(tmp_path, capsys):
    code = cli.main(["validate", str(tmp_path / "nope")])
    assert code == cli.EXIT_MISSING


def test_plot_regenerates_svgs(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", _cfg(tmp_path, TINY_ANALYTICAL), "--out", str(out)]) == 0
    (out / "loss_history.svg").unlink()
    code = cli.main(["plot", str(out)])
    assert code == cli.EXIT_OK
    assert (out / "loss_history.svg").exists()
    assert (out / "probe_errors.svg").exists()


def test_plot_without_metrics_fails(tmp_path, capsys):
    code = cli.main(["plot", str(tmp_path)])
    assert code == cli.EXIT_MISSING


def test_plot_empty_metrics_fails(tmp_path, capsys):
    (tmp_path / "metrics.csv").write_text("epoch,total\n")
    code = cli.main(["plot", str(tmp_path)])
    assert code == cli.EXIT_MISSING


@pytest.mark.parametrize(
    "text",
    [
        "",
        "epoch,data,forward,adjoint,optimality,initial,terminal_adjoint,boundary,total,err_y,err_u,err_lam\n"
        "1,0.5,0.1,0.1,0.1,oops,0.1,0.1,1.0,,,\n",
        "epoch,total\n1,1.0\n",
        "epoch,data,forward,adjoint,optimality,initial,terminal_adjoint,boundary,total,err_y,err_u,err_lam\n"
        "1,0.5,0.1\n",
    ],
    ids=["zero-bytes", "non-numeric-cell", "missing-column", "short-row"],
)
def test_plot_unreadable_metrics_exits_missing(tmp_path, capsys, text):
    (tmp_path / "metrics.csv").write_text(text)
    code = cli.main(["plot", str(tmp_path)])
    assert code == cli.EXIT_MISSING
    assert capsys.readouterr().err.count("\n") == 1


def test_train_out_under_a_regular_file_exits_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = cli.main(["train", "--config", _cfg(tmp_path, TINY_ANALYTICAL), "--out", str(blocker / "run")])
    assert code == cli.EXIT_CONFIG
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("command, blocked", [("validate", "validation"), ("export", "export_u.csv")])
def test_unwritable_output_exits_missing(tmp_path, capsys, command, blocked):
    # validate's output directory is a regular file; export's CSV a directory
    out = _trained(tmp_path, TINY_HEAT, "run")
    if command == "validate":
        (out / blocked).write_text("")
    else:
        (out / blocked).mkdir()
    capsys.readouterr()
    assert cli.main([command, str(out), "--resolution", "21"]) == cli.EXIT_MISSING
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out / blocked) in err


def test_export_fields(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", _cfg(tmp_path, TINY_HEAT), "--out", str(out)]) == 0
    code = cli.main(["export", str(out), "--resolution", "41"])
    assert code == cli.EXIT_OK
    from ctrlpinn.network import load_params

    field = read_field(out / "export_u.csv")
    assert field.values.shape == (41, 41)
    # the fields are the network's own values, written exactly
    params, _ = load_params(out / "checkpoint_final.json")
    t = np.linspace(0.0, 1.0, 41)
    tt, xx = np.meshgrid(t, t, indexing="ij")
    y, u, _ = forward_values(params, tt.ravel(), xx.reshape(-1, 1))
    assert np.array_equal(field.values, u[0].reshape(41, 41))
    assert np.array_equal(read_field(out / "export_y.csv").values, y[0].reshape(41, 41))


def test_export_of_a_two_dimensional_run_exits_config_error(tmp_path, capsys):
    # CSV fields are (t, x) grids, so a predator-prey run has nothing to export
    out = _trained(tmp_path, TINY_PREY, "prey")
    capsys.readouterr()
    assert cli.main(["export", str(out), "--resolution", "21"]) == cli.EXIT_CONFIG
    assert "covers time-only and 1-D spatial problems" in capsys.readouterr().err
    assert not (out / "export_u.csv").exists()


def test_emitted_svgs_are_byte_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["train", "--config", _cfg(tmp_path, TINY_ANALYTICAL), "--out", str(out)]) == 0
        outs.append(out)
    for svg in ("loss_history.svg", "solution_vs_reference.svg"):
        assert (outs[0] / svg).read_bytes() == (outs[1] / svg).read_bytes()
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
