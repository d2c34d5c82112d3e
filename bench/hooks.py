"""Timers around the calls into ctrlpinn's modules, installed from outside.

The package itself is not changed: :func:`install` replaces module and class
attributes that ``ctrlpinn`` looks up at call time with timing wrappers.

Untraced runs install only the epoch clock: one timestamp when
``trainer.sample`` is called (the start of every epoch) and one when
``trainer.init_params`` returns (the end of a training run's set-up).

Traced runs time every layer.  Per-epoch calls (sampling, tapes, the loss
graph, backward passes, ADAM, ``from_flat``) are timed on odd epochs only;
even epochs run the same wrappers with their timers off, so the difference
between the two epoch medians is the cost of tracing itself.  Calls made a
few times per run (probes, checkpoints, CSV writes, the DNS) are always
timed.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

now = time.perf_counter


class Recorder:
    """What the wrappers record in one benchmark process."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.phase = "setup"
        self.epoch_starts = []  # (epoch, perf_counter) at each trainer.sample call
        self.setup_end = None
        self.train_end = None
        self.fine = False  # per-epoch calls of the current epoch are timed
        self.epoch_time = []  # per traced epoch: {label: seconds or count}
        self.calls = defaultdict(list)  # (phase, label) -> [seconds]
        self.sizes = defaultdict(list)  # (phase, label) -> [count]
        self.var_nodes = None

    def start_round(self):
        self.epoch_starts = []
        self.setup_end = self.train_end = None
        self.fine = False

    # -- bookkeeping used by the wrappers --------------------------------------

    def _epoch_add(self, label, value):
        current = self.epoch_time[-1]
        current[label] = current.get(label, 0.0) + value

    def coarse(self, label, seconds, size=None):
        self.calls[(self.phase, label)].append(seconds)
        if size is not None:
            self.sizes[(self.phase, label)].append(size)


def _wrap(owner, name, make):
    setattr(owner, name, make(getattr(owner, name)))


def install(rec: Recorder):
    """Install the epoch clock, and with ``rec.traced`` every layer timer."""
    from ctrlpinn import autodiff, config, loss, network, problems, trainer, validators

    def sample(orig):
        def wrapper(domain, sizes, rng, epoch=0):
            rec.fine = rec.traced and epoch % 2 == 1
            rec.epoch_starts.append((epoch, now()))
            if not rec.fine:
                return orig(domain, sizes, rng, epoch)
            rec.epoch_time.append({})
            t0 = now()
            out = orig(domain, sizes, rng, epoch)
            rec._epoch_add("sampler.sample", now() - t0)
            return out

        return wrapper

    def init_params(orig):
        def wrapper(*args, **kwargs):
            out = orig(*args, **kwargs)
            rec.setup_end = now()
            return out

        return wrapper

    _wrap(trainer, "sample", sample)
    _wrap(trainer, "init_params", init_params)
    if not rec.traced:
        return

    def fine(label):
        def make(orig):
            def wrapper(*args, **kwargs):
                if not rec.fine:
                    return orig(*args, **kwargs)
                t0 = now()
                out = orig(*args, **kwargs)
                rec._epoch_add(label, now() - t0)
                return out

            return wrapper

        return make

    def coarse(label, size=None):
        def make(orig):
            def wrapper(*args, **kwargs):
                t0 = now()
                out = orig(*args, **kwargs)
                seconds = now() - t0
                rec.coarse(label, seconds, size(args, out) if size else None)
                return out

            return wrapper

        return make

    base_tape = loss.NetworkTape

    class TimedTape(base_tape):
        def __init__(self, params, t, x, spec, *args, **kwargs):
            if not rec.fine:
                super().__init__(params, t, x, spec, *args, **kwargs)
                return
            t0 = now()
            super().__init__(params, t, x, spec, *args, **kwargs)
            seconds = now() - t0
            sd = params.config.spatial_dim
            values_only = not spec.time and spec.space_order == 0
            comps = 1 + int(spec.time) + sd * int(spec.space_order >= 1) + sd * int(spec.space_order == 2)
            weights = sum(dense.w.size for _, dense in params.layers())
            # Forward: one product per layer and component; reverse: two
            # (weight gradient and input adjoint) of the same size.
            rec._epoch_add("network.gemm_flop", 3 * 2 * weights * comps * len(t))
            rec._epoch_add("network.tape_values" if values_only else "network.tape_interior", seconds)
            rec._epoch_add("network.tapes", 1)

        def parameter_gradient(self):
            if not rec.fine:
                return super().parameter_gradient()
            t0 = now()
            out = super().parameter_gradient()
            rec._epoch_add("network.backward", now() - t0)
            return out

    loss.NetworkTape = TimedTape

    var_backward = autodiff.Var.backward

    def timed_var_backward(self):
        if not rec.fine:
            return var_backward(self)
        if rec.var_nodes is None:
            rec.var_nodes = _count_nodes(self)
        t0 = now()
        out = var_backward(self)
        rec._epoch_add("autodiff.var_backward", now() - t0)
        return out

    autodiff.Var.backward = timed_var_backward

    evaluate_with_graph = loss.evaluate_with_graph

    def timed_evaluate(*args, **kwargs):
        if not rec.fine:
            return evaluate_with_graph(*args, **kwargs)
        epoch = rec.epoch_time[-1]
        tapes_before = epoch.get("network.tape_interior", 0.0) + epoch.get("network.tape_values", 0.0)
        t0 = now()
        out = evaluate_with_graph(*args, **kwargs)
        seconds = now() - t0
        tapes = epoch.get("network.tape_interior", 0.0) + epoch.get("network.tape_values", 0.0) - tapes_before
        rec._epoch_add("loss.assemble_self", seconds - tapes)
        return out

    loss.evaluate_with_graph = timed_evaluate

    _wrap(trainer, "adam_step", fine("trainer.adam"))
    timed_from_flat = fine("network.from_flat")(network.ControlPinnParams.from_flat)
    network.ControlPinnParams.from_flat = classmethod(lambda cls, *args, **kwargs: timed_from_flat(*args, **kwargs))

    _wrap(trainer, "evaluate_probe", coarse("trainer.probe"))
    for cls in problems.PROBLEMS.values():
        _wrap(cls, "probe_report", coarse("problems.probe_report"))
    _wrap(trainer, "save_checkpoint", coarse("trainer.checkpoint_write", lambda a, _: os.path.getsize(a[0])))
    _wrap(trainer, "write_metrics", coarse("trainer.metrics_write"))
    _wrap(trainer, "forward_values", coarse("network.forward_values", lambda a, _: len(a[1])))
    _wrap(config, "parse_config", coarse("config.parse"))
    _wrap(validators, "solve_heat_dns", coarse("validators.dns", lambda a, out: _cell_steps(out)))
    _wrap(validators.ControlField, "at", coarse("validators.control_sample"))
    for cls in (validators.ControlField, validators.DnsSolution):
        _wrap(cls, "to_csv", coarse("validators.csv_write", lambda a, _: os.path.getsize(a[1])))

    def train(orig):
        def wrapper(*args, **kwargs):
            out = orig(*args, **kwargs)
            rec.fine = False
            rec.train_end = now()
            return out

        return wrapper

    _wrap(trainer, "train", train)


def _cell_steps(solution):
    """(steps, interior cells) of an FTCS solve, from its grid."""
    span = float(solution.times[-1] - solution.times[0])
    return (int(round(span / solution.dt)), solution.x.size - 2)


def _count_nodes(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)
