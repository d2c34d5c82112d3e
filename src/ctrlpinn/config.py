"""Run-configuration files: flat ``key = value`` lines under ``[section]``
headers, ``#`` comments.

The schema is closed: unknown sections or keys are rejected with the file
line number, as are unparsable or out-of-range values.  The ``[problem]``
keys are keyword arguments of the chosen problem's constructor, so a key
that only another problem takes is rejected as well.  See README for the
full key table.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import asdict, dataclass, field, fields

from .loss import LossWeights
from .problems import PROBLEMS, get_problem
from .sampler import SampleSizes
from .trainer import TrainSettings


class ConfigError(Exception):
    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _bounded(kind, ok, requirement):
    """Parser of a ``kind`` value that must satisfy ``ok``."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise ValueError(f"must be {requirement}, got {value!r}")
        return value

    return parse


_nonnegative_int = _bounded(int, lambda v: v >= 0, ">= 0")
_positive_int = _bounded(int, lambda v: v > 0, "> 0")
_positive_float = _bounded(float, lambda v: math.isfinite(v) and v > 0.0, "finite and > 0")
_nonnegative_float = _bounded(float, lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0")
_unit_interval = _bounded(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")

SCHEMA = {
    "run": {
        "problem": str,
        "epochs": _nonnegative_int,
        "long_epochs": _nonnegative_int,
        "seed": _nonnegative_int,
        "out": str,
        "eval_every": _nonnegative_int,
        "checkpoint_every": _nonnegative_int,
    },
    # Each key is accepted only if the chosen problem's constructor takes it.
    "problem": {
        "diffusivity": _positive_float,
        "interior_tracking": _parse_bool,
        "track_y1": _parse_bool,
        "target_supervision": _parse_bool,
    },
    "sampler": {f.name: _positive_int for f in fields(SampleSizes)},
    "loss": {f.name: _nonnegative_float for f in fields(LossWeights)},
    "adam": {
        "lr": _positive_float,
        "beta1": _unit_interval,
        "beta2": _unit_interval,
        "eps": _positive_float,
        "lr_half_life": _nonnegative_int,
    },
}

# Optional keys that the echo leaves out while they hold their "off" value.
_ECHO_UNLESS = {"lr_half_life": 0}


def _echo(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


@dataclass(kw_only=True)
class RunConfig(TrainSettings):
    """The training settings of a run plus what they are applied to.

    ``options`` holds every keyword argument of the problem's constructor.
    """

    problem: str
    options: dict = field(default_factory=dict)
    long_epochs: int = 10000
    out: str | None = None

    def make_problem(self):
        return get_problem(self.problem, **self.options)

    def resolved_text(self) -> str:
        """Canonical echo of the configuration actually used for a run.

        ``out`` is left out: the echo is written into the output directory.
        """
        sections = {
            "run": {key: getattr(self, key) for key in SCHEMA["run"] if key != "out"},
            "problem": self.options,
            "sampler": asdict(self.sizes),
            "loss": asdict(self.weights),
            "adam": {key: getattr(self, key) for key in SCHEMA["adam"]},
        }
        blocks = []
        for name, values in sections.items():
            lines = [f"[{name}]"]
            for key, value in values.items():
                if key not in _ECHO_UNLESS or value != _ECHO_UNLESS[key]:
                    lines.append(f"{key} = {_echo(value)}")
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"


def parse_config(path) -> RunConfig:
    """Parse and validate a config file; raises ConfigError with a line number."""
    raw = {section: {} for section in SCHEMA}
    lines = {}
    section = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if text.startswith("[") and text.endswith("]"):
                section = text[1:-1].strip()
                if section not in SCHEMA:
                    raise ConfigError(path, lineno, f"unknown section [{section}]")
                continue
            if "=" not in text:
                raise ConfigError(path, lineno, f"expected 'key = value', got {text!r}")
            if section is None:
                raise ConfigError(path, lineno, "key outside of any [section]")
            key, _, value = text.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in SCHEMA[section]:
                raise ConfigError(path, lineno, f"unknown key {key!r} in [{section}]")
            parser = SCHEMA[section][key]
            try:
                raw[section][key] = parser(value)
            except ValueError as exc:
                raise ConfigError(path, lineno, f"bad value for {key!r}: {exc}") from None
            lines[(section, key)] = lineno

    run = raw["run"]
    if "problem" not in run:
        raise ConfigError(path, 0, "missing required key 'problem' in [run]")
    problem = run.pop("problem")
    if problem not in PROBLEMS:
        raise ConfigError(
            path, lines[("run", "problem")], f"unknown problem {problem!r}; expected one of {sorted(PROBLEMS)}"
        )
    options = {name: p.default for name, p in inspect.signature(PROBLEMS[problem]).parameters.items()}
    for key, value in raw["problem"].items():
        if key not in options:
            raise ConfigError(
                path, lines[("problem", key)], f"problem {problem!r} takes no key {key!r} (it takes {sorted(options)})"
            )
        options[key] = value
    return RunConfig(
        problem=problem,
        options=options,
        sizes=SampleSizes(**raw["sampler"]),
        weights=LossWeights(**raw["loss"]),
        **run,
        **raw["adam"],
    )
