"""Run-configuration files: flat ``key = value`` lines under ``[section]``
headers, ``#`` comments.

The schema is closed: unknown sections or keys are rejected with the file
line number, as are unparsable values.  See README for the full key table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .loss import LossWeights
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


def _parse_nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def _parse_positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"must be finite and > 0, got {value!r}")
    return value


SCHEMA = {
    "run": {
        "problem": str,
        "epochs": int,
        "long_epochs": int,
        "seed": int,
        "out": str,
        "eval_every": int,
        "checkpoint_every": int,
        "early_stop_tol": float,
    },
    "problem": {
        "diffusivity": _parse_positive_float,
        "interior_tracking": _parse_bool,
        "track_y1": _parse_bool,
        "target_supervision": _parse_bool,
    },
    "sampler": {
        "interior": int,
        "initial": int,
        "terminal": int,
        "boundary": int,
    },
    "loss": {
        "data": float,
        "forward": float,
        "adjoint": float,
        "optimality": float,
        "initial": float,
        "terminal_adjoint": float,
        "boundary": float,
    },
    "adam": {
        "lr": float,
        "beta1": float,
        "beta2": float,
        "eps": float,
        "lr_half_life": _parse_nonnegative_int,
    },
}


@dataclass
class RunConfig:
    problem: str
    epochs: int = 300
    long_epochs: int = 10000
    seed: int = 0
    out: str | None = None
    eval_every: int = 50
    checkpoint_every: int = 0
    early_stop_tol: float | None = None
    diffusivity: float | None = None
    interior_tracking: bool = False
    track_y1: bool = False
    target_supervision: bool = False
    sizes: SampleSizes = field(default_factory=SampleSizes)
    weights: LossWeights = field(default_factory=LossWeights)
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr_half_life: int = 0

    def make_problem(self):
        from .problems import get_problem

        overrides = {}
        if self.problem == "heat":
            if self.diffusivity is not None:
                overrides["diffusivity"] = self.diffusivity
            overrides["interior_tracking"] = self.interior_tracking
        if self.problem == "predator_prey":
            overrides["track_y1"] = self.track_y1
            overrides["target_supervision"] = self.target_supervision
        return get_problem(self.problem, **overrides)

    def make_settings(self) -> TrainSettings:
        return TrainSettings(
            epochs=self.epochs,
            seed=self.seed,
            sizes=self.sizes,
            weights=self.weights,
            lr=self.lr,
            beta1=self.beta1,
            beta2=self.beta2,
            eps=self.eps,
            lr_half_life=self.lr_half_life,
            eval_every=self.eval_every,
            checkpoint_every=self.checkpoint_every,
            early_stop_tol=self.early_stop_tol,
        )

    def resolved_text(self) -> str:
        """Canonical echo of the configuration actually used for a run."""
        lines = [
            "[run]",
            f"problem = {self.problem}",
            f"epochs = {self.epochs}",
            f"long_epochs = {self.long_epochs}",
            f"seed = {self.seed}",
            f"eval_every = {self.eval_every}",
            f"checkpoint_every = {self.checkpoint_every}",
        ]
        if self.early_stop_tol is not None:
            lines.append(f"early_stop_tol = {self.early_stop_tol!r}")
        lines += ["", "[problem]"]
        if self.diffusivity is not None:
            lines.append(f"diffusivity = {self.diffusivity!r}")
        if self.problem == "heat":
            lines.append(f"interior_tracking = {str(self.interior_tracking).lower()}")
        if self.problem == "predator_prey":
            lines.append(f"track_y1 = {str(self.track_y1).lower()}")
            lines.append(f"target_supervision = {str(self.target_supervision).lower()}")
        lines += [
            "",
            "[sampler]",
            f"interior = {self.sizes.interior}",
            f"initial = {self.sizes.initial}",
            f"terminal = {self.sizes.terminal}",
            f"boundary = {self.sizes.boundary}",
            "",
            "[loss]",
        ]
        for name in ("data", "forward", "adjoint", "optimality", "initial", "terminal_adjoint", "boundary"):
            lines.append(f"{name} = {getattr(self.weights, name)!r}")
        lines += [
            "",
            "[adam]",
            f"lr = {self.lr!r}",
            f"beta1 = {self.beta1!r}",
            f"beta2 = {self.beta2!r}",
            f"eps = {self.eps!r}",
        ]
        if self.lr_half_life:
            lines.append(f"lr_half_life = {self.lr_half_life}")
        return "\n".join(lines) + "\n"


def parse_config(path) -> RunConfig:
    """Parse and validate a config file; raises ConfigError with a line number."""
    raw = {}
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
                raw[(section, key)] = parser(value)
            except ValueError as exc:
                raise ConfigError(path, lineno, f"bad value for {key!r}: {exc}") from None

    if ("run", "problem") not in raw:
        raise ConfigError(path, 0, "missing required key 'problem' in [run]")
    problem = raw[("run", "problem")]
    from .problems import PROBLEMS

    if problem not in PROBLEMS:
        raise ConfigError(path, 0, f"unknown problem {problem!r}; expected one of {sorted(PROBLEMS)}")

    config = RunConfig(problem=problem)
    for field_name in ("epochs", "long_epochs", "seed", "out", "eval_every", "checkpoint_every", "early_stop_tol"):
        if ("run", field_name) in raw:
            setattr(config, field_name, raw[("run", field_name)])
    if ("problem", "diffusivity") in raw:
        config.diffusivity = raw[("problem", "diffusivity")]
    if ("problem", "interior_tracking") in raw:
        config.interior_tracking = raw[("problem", "interior_tracking")]
    if ("problem", "track_y1") in raw:
        config.track_y1 = raw[("problem", "track_y1")]
    if ("problem", "target_supervision") in raw:
        config.target_supervision = raw[("problem", "target_supervision")]
    size_kwargs = {k: raw[("sampler", k)] for k in SCHEMA["sampler"] if ("sampler", k) in raw}
    if size_kwargs:
        config.sizes = SampleSizes(**{**config.sizes.__dict__, **size_kwargs})
    weight_kwargs = {k: raw[("loss", k)] for k in SCHEMA["loss"] if ("loss", k) in raw}
    if weight_kwargs:
        config.weights = LossWeights(**{**config.weights.__dict__, **weight_kwargs})
    for field_name in ("lr", "beta1", "beta2", "eps", "lr_half_life"):
        if ("adam", field_name) in raw:
            setattr(config, field_name, raw[("adam", field_name)])
    return config
