import inspect
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
    assert config.options == {"diffusivity": 1.0, "interior_tracking": True}
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


@pytest.mark.parametrize("text", [
    "[run]\nproblem = heat\nepochs = 5\nepochs = 7\n",
    "[run]\nproblem = heat\nepochs = 5\n[loss]\ndata = 1\n[run]\nepochs = 5\n",
], ids=["same block", "section reopened"])
def test_repeated_key_is_rejected_with_both_lines(tmp_path, text):
    # a repeated key would otherwise keep its last value without a word
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, text))
    assert err.value.line == len(text.splitlines())
    assert "'epochs' in [run] is already set on line 3" in str(err.value)


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


@pytest.mark.parametrize("section, line", [
    ("loss", "data = -1"), ("loss", "forward = nan"), ("loss", "boundary = inf"),
    ("sampler", "interior = 0"), ("sampler", "boundary = -3"),
    ("adam", "lr = nan"), ("adam", "lr = 0"), ("adam", "eps = -1e-8"),
    ("adam", "beta1 = 1.0"), ("adam", "beta2 = -0.1"),
    ("run", "eval_every = -1"), ("run", "checkpoint_every = -2"),
    ("run", "epochs = -3"), ("run", "long_epochs = -1"), ("run", "seed = -1"),
])
def test_out_of_range_value_reports_line(tmp_path, section, line):
    text = f"[run]\nproblem = analytical\n\n[{section}]\n{line}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, text))
    assert err.value.line == 5
    assert line.split()[0] in str(err.value)


def test_problem_options_default_to_the_constructor_signature(tmp_path):
    config = parse_config(_write(tmp_path, "[run]\nproblem = predator_prey\n\n[problem]\ntrack_y1 = yes\n"))
    assert config.options == {"track_y1": True, "target_supervision": False}
    assert parse_config(_write(tmp_path, "[run]\nproblem = analytical\n")).options == {}


def test_problem_key_of_another_problem_reports_line(tmp_path):
    text = "[problem]\ntrack_y1 = true\n\n[run]\nproblem = analytical\n"
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, text))
    assert err.value.line == 2
    assert "track_y1" in str(err.value)


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
    assert set(config.options) == set(inspect.signature(type(problem)).parameters)
    echoed = parse_config(_write(tmp_path, config.resolved_text()))
    assert echoed == config
