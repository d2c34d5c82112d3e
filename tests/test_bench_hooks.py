"""The benchmark's traced recorder still reaches every per-epoch layer.

``bench/hooks.py`` times the program by replacing module attributes, so a
refactor that renames or bypasses one of them would silently drop that
layer from ``bench/run.py --trace 1``.  This trains two predator-prey epochs
in a child process with the traced recorder installed and checks the labels
of the traced epoch.  Nothing under ``bench/`` is written.
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

CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import hooks
from ctrlpinn import cli

rec = hooks.Recorder(traced=True)
hooks.install(rec)
code = cli.main(["train", "--config", sys.argv[3], "--out", sys.argv[4]])
print(json.dumps({"code": code, "epochs": [sorted(epoch) for epoch in rec.epoch_time]}))
"""


def test_traced_recorder_times_every_epoch_layer(tmp_path):
    cfg = tmp_path / "pp.cfg"
    cfg.write_text(TINY_PREDATOR_PREY)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", CTRLPINN_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "bench"), str(ROOT / "src"), str(cfg), str(tmp_path / "run")],
        capture_output=True, text=True, timeout=300, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
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
