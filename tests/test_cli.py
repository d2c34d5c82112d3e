import json
from pathlib import Path

import numpy as np
import pytest

from ctrlpinn import cli


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


def test_export_fields(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", _cfg(tmp_path, TINY_HEAT), "--out", str(out)]) == 0
    code = cli.main(["export", str(out), "--resolution", "41"])
    assert code == cli.EXIT_OK
    from ctrlpinn.validators import ControlField

    field = ControlField.from_csv(out / "export_u.csv")
    assert field.values.shape == (41, 41)


def test_emitted_svgs_are_byte_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["train", "--config", _cfg(tmp_path, TINY_ANALYTICAL), "--out", str(out)]) == 0
        outs.append(out)
    for svg in ("loss_history.svg", "solution_vs_reference.svg"):
        assert (outs[0] / svg).read_bytes() == (outs[1] / svg).read_bytes()
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
