import re
from pathlib import Path

import pytest

from ctrlpinn.config import ConfigError, RunConfig, parse_config

REPO = Path(__file__).resolve().parent.parent
# every config the README points to, plus every config shipped
CONFIGS = sorted(
    set(re.findall(r"configs/\w+\.cfg", (REPO / "README.md").read_text()))
    | {f"configs/{path.name}" for path in (REPO / "configs").glob("*.cfg")}
)


GOOD = """
# reference configuration
[run]
problem = heat
epochs = 120
seed = 3
eval_every = 10

[problem]
diffusivity = 1.0       # validation-mode diffusivity
interior_tracking = true

[sampler]
interior = 256
initial = 32
terminal = 32
boundary = 32

[loss]
data = 25.0
forward = 0.1

[adam]
lr = 0.002
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_full_config(tmp_path):
    config = parse_config(_write(tmp_path, GOOD))
    assert config.problem == "heat"
    assert config.epochs == 120
    assert config.seed == 3
    assert config.diffusivity == 1.0
    assert config.interior_tracking is True
    assert config.sizes.interior == 256
    assert config.weights.data == 25.0
    assert config.weights.forward == 0.1
    assert config.weights.adjoint == 0.1  # untouched default
    assert config.lr == 0.002


def test_unknown_key_is_rejected_with_line_number(tmp_path):
    text = "[run]\nproblem = heat\n\n[sampler]\nvolume = 3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, text))
    assert err.value.line == 5
    assert "volume" in str(err.value)


def test_unknown_section_is_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, "[runner]\nproblem = heat\n"))
    assert err.value.line == 1


def test_bad_value_reports_line(tmp_path):
    text = "[run]\nproblem = heat\nepochs = soon\n"
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, text))
    assert err.value.line == 3


def test_negative_lr_half_life_reports_line(tmp_path):
    text = "[run]\nproblem = heat\n\n[adam]\nlr_half_life = -5\n"
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, text))
    assert err.value.line == 5


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_nonphysical_diffusivity_reports_line(tmp_path, value):
    text = f"[run]\nproblem = heat\n\n[problem]\ndiffusivity = {value}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, text))
    assert err.value.line == 5
    assert "diffusivity" in str(err.value)


def test_missing_problem_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, "[run]\nepochs = 10\n"))
    assert "problem" in str(err.value)


def test_unknown_problem_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "[run]\nproblem = navier_stokes\n"))


def test_key_outside_section_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, "problem = heat\n"))
    assert err.value.line == 1


def test_resolved_text_round_trips(tmp_path):
    config = parse_config(_write(tmp_path, GOOD))
    echoed = parse_config(_write(tmp_path, config.resolved_text(), name="echo.cfg"))
    assert echoed == config


def test_make_problem_applies_overrides(tmp_path):
    config = parse_config(_write(tmp_path, GOOD))
    problem = config.make_problem()
    assert problem.diffusivity == 1.0
    assert problem.interior_tracking is True


def test_defaults_match_spec():
    config = RunConfig(problem="analytical")
    assert config.weights.data == 1.0
    assert config.weights.forward == 0.1
    assert config.weights.adjoint == 0.1
    assert config.weights.optimality == 0.1
    assert config.weights.initial == 1.0
    assert config.weights.boundary == 1.0
    assert config.lr == 1e-3
    assert config.sizes.interior == 1000


@pytest.mark.parametrize("name", CONFIGS)
def test_shipped_config_parses_and_builds(name, tmp_path):
    # a missing or stale config shows up here instead of deep in the gate
    config = parse_config(REPO / name)
    problem = config.make_problem()
    assert problem.name == config.problem == Path(name).stem
    assert config.make_settings().epochs == config.epochs
    echoed = parse_config(_write(tmp_path, config.resolved_text()))
    assert echoed == config
