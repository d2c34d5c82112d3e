"""The benchmark's traced recorder still reaches every layer it times.

``bench/hooks.py`` times the program by replacing module attributes, so a
refactor that renames or bypasses one of them would silently drop that
layer from ``bench/run.py --trace 1``.  These tests run CLI commands in a
child process with the traced recorder installed: two predator-prey epochs,
whose traced epoch must carry every per-epoch label, plus their validation,
which must be timed through the probe; and a tiny heat run plus its
validation, whose validate phase must carry the validator timers.
Nothing under ``bench/`` is written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TINY_PREDATOR_PREY = """
[run]
problem = predator_prey
epochs = 2
seed = 1
eval_every = 0

[sampler]
interior = 32
initial = 8
terminal = 8
boundary = 8
"""

TINY_HEAT = TINY_PREDATOR_PREY.replace("predator_prey", "heat")

# argv: bench dir, src dir, then a JSON list of [phase, cli argv] pairs
CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import hooks
from ctrlpinn import cli

rec = hooks.Recorder(traced=True)
hooks.install(rec)
codes = []
for phase, argv in json.loads(sys.argv[3]):
    rec.phase = phase
    codes.append(cli.main(argv))
print(json.dumps({
    "codes": codes,
    "epochs": [sorted(epoch) for epoch in rec.epoch_time],
    "calls": sorted({f"{phase}:{label}" for phase, label in rec.calls}),
}))
"""


def _traced(tmp_path, config_text, commands):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    run = str(tmp_path / "run")
    steps = [["train", ["train", "--config", str(cfg), "--out", run]]]
    steps += [[phase, [command, run, *args]] for phase, command, args in commands]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", CTRLPINN_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "bench"), str(ROOT / "src"), json.dumps(steps)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * len(steps)
    return result


def test_traced_recorder_times_every_epoch_layer(tmp_path):
    result = _traced(tmp_path, TINY_PREDATOR_PREY, [("validate", "validate", [])])
    # only odd epochs are timed: epoch 1 of 2
    assert len(result["epochs"]) == 1
    labels = set(result["epochs"][0])
    for label in (
        "network.tape_interior",
        "network.backward",
        "autodiff.var_backward",
        "loss.assemble_self",
        "trainer.adam",
    ):
        assert label in labels
    for label in ("train:trainer.checkpoint_write", "validate:trainer.probe", "validate:network.forward_values"):
        assert label in result["calls"]


def test_traced_recorder_times_the_validators(tmp_path):
    result = _traced(tmp_path, TINY_HEAT, [("validate", "validate", ["--resolution", "21"])])
    for label in (
        "validators.dns",
        "validators.csv_write",
        "validators.control_sample",
        "network.forward_values",
    ):
        assert f"validate:{label}" in result["calls"]
