"""Training loop: resample, evaluate the loss, backpropagate, ADAM step.

One resampled batch is one epoch is one optimizer update.  Runs are
deterministic for a fixed seed (counter-based sampling stream, fixed
reduction orders), metrics are appended per epoch, and checkpoints capture
parameters, optimizer moments and the sampling stream so a resumed run
continues bitwise-identically.
"""

from __future__ import annotations

import base64
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import EvaluationError
from .loss import TERM_ORDER, LossWeights, loss_and_gradient
from .network import HEADS, ControlPinnParams, Workspace, forward_values, init_params, load_params, save_params
from .sampler import SampleSizes, make_rng, sample

METRIC_COLUMNS = ("epoch", *TERM_ORDER, "total", "err_y", "err_u", "err_lam")

# A total loss above this ends the run as diverged.
DIVERGENCE_LIMIT = 1e6


class NonFiniteGradientError(RuntimeError):
    def __init__(self, index: int, value):
        super().__init__(f"non-finite gradient at parameter index {index} (value {value!r})")
        self.index = index


@dataclass
class AdamState:
    """Bias-corrected first/second moment estimates and hyperparameters."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, n: int, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        return cls(m=np.zeros(n), v=np.zeros(n), step=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(state: AdamState, params_flat: np.ndarray, gradient: np.ndarray, workspace=None):
    """One ADAM update; returns the advanced state and parameter vector.

    Computes m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g and
    params - lr m_hat / sqrt(v_hat + eps).  Without a ``workspace`` the
    three vectors it returns are fresh and ``state`` and ``params_flat`` are
    left unchanged.  With one (a ``network.Workspace``) the update runs in
    place: ``state.m``, ``state.v`` and ``params_flat`` are overwritten and
    returned, and the two scratch vectors are borrowed from the workspace
    and given back.  The bits are the same either way.
    """
    if gradient.shape != params_flat.shape:
        raise ValueError("gradient/parameter shape mismatch")
    if not np.isfinite(gradient).all():
        index = int(np.flatnonzero(~np.isfinite(gradient))[0])
        raise NonFiniteGradientError(index, gradient[index])
    k = state.step + 1
    if workspace is None:  # update copies, not the caller's vectors
        m, v, updated, workspace = state.m.copy(), state.v.copy(), params_flat.copy(), Workspace()
    else:
        m, v, updated = state.m, state.v, params_flat
    scratch = np.multiply(gradient, 1.0 - state.beta1, out=workspace.take(gradient.shape))
    m *= state.beta1
    m += scratch
    v *= state.beta2
    np.multiply(gradient, 1.0 - state.beta2, out=scratch)
    scratch *= gradient
    v += scratch
    np.divide(v, 1.0 - state.beta2**k, out=scratch)  # v_hat
    scratch += state.eps
    np.sqrt(scratch, out=scratch)
    step = np.divide(m, 1.0 - state.beta1**k, out=workspace.take(gradient.shape))  # m_hat
    step *= state.lr
    step /= scratch
    updated -= step
    workspace.give(scratch, step)
    new_state = AdamState(m=m, v=v, step=k, lr=state.lr, beta1=state.beta1, beta2=state.beta2, eps=state.eps)
    return new_state, updated


@dataclass
class TrainSettings:
    epochs: int = 300
    seed: int = 0
    sizes: SampleSizes = field(default_factory=SampleSizes)
    weights: LossWeights = field(default_factory=LossWeights)
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr_half_life: int = 0  # epochs per halving of lr; 0 keeps lr constant
    eval_every: int = 50
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.lr_half_life < 0:
            raise ValueError("lr_half_life must be >= 0")


@dataclass
class RunRecord:
    problem: str
    status: str  # "completed" | "diverged"
    epochs_run: int
    history: list
    initial_probe: dict | None
    final_probe: dict | None
    params: ControlPinnParams
    checkpoints: list
    wall_time: float
    start_epoch: int = 0


def forward_chunked(params, t, x, chunk: int = 1024, through: str = "lam"):
    """Head values over a large batch, in chunks of ``chunk`` points.

    Every chunk borrows its layers' arrays from one :class:`Workspace` of
    the pass's own, dropped when it returns, so only the first chunk maps
    fresh pages; each chunk's heads are written into the whole batch's
    outputs.  A (100, 1024) layer array stays in L2 through the ELU passes:
    on heat's 401 x 401 grid (one BLAS thread, a shared 2-core host) a pass
    took 0.74 s in 1024-point chunks, 0.76-0.79 s in 512-point and
    0.93-0.98 s in 2048-point ones.  A column's value may depend on the
    chunk size in the last bits: OpenBLAS computes the tail columns of a
    product with another kernel, so ``W @ A[:, :n]`` and ``(W @ A)[:, :n]``
    can differ (they do for n = 1, 3, 4 and 33).  Heads after ``through``
    are None (see forward_values), also over 0 points.
    """
    ws = Workspace()
    n = t.size
    widths = params.config.head_widths[: HEADS.index(through) + 1]
    outputs = [np.empty((width, n)) for width in widths]
    for lo in range(0, n, chunk):
        heads = forward_values(params, t[lo : lo + chunk], x[lo : lo + chunk], through=through, workspace=ws)
        for out, head in zip(outputs, heads):
            out[:, lo : lo + chunk] = head
    return (*outputs, *[None] * (len(HEADS) - len(outputs)))


def evaluate_probe(params, problem, shape=None, with_curve: bool = False) -> dict:
    """Reference errors on the problem's fixed probe grid."""
    t, x, _ = problem.probe_points(shape)
    y, u, lam = forward_chunked(params, t, x, through=problem.probe_through)
    return problem.probe_report(t, x, y, u, lam, with_curve=with_curve)


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_metrics(path, rows):
    lines = [",".join(METRIC_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(col)) for col in METRIC_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n")


def read_metrics(path):
    """Rows of a ``metrics.csv``; ValueError if it is empty, lacks a column
    of ``METRIC_COLUMNS`` or holds a row that does not parse."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValueError("the file is empty")
    header = lines[0].split(",")
    missing = [col for col in METRIC_COLUMNS if col not in header]
    if missing:
        raise ValueError(f"no column {missing[0]!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"a row has {len(cells)} cells, the header {len(header)}")
        row = {}
        for key, cell in zip(header, cells):
            if cell == "":
                row[key] = None
            elif key == "epoch":
                row[key] = int(cell)
            else:
                row[key] = float(cell)
        rows.append(row)
    return rows


# -- checkpointing -----------------------------------------------------------


def _rng_state_to_json(state):
    def convert(obj):
        if isinstance(obj, dict):
            return {k: convert(v) for k, v in obj.items()}
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, np.integer):
            return int(obj)
        return obj

    return convert(state)


def _rng_state_from_json(doc):
    state = dict(doc)
    inner = dict(state["state"])
    inner["counter"] = np.array(inner["counter"], dtype=np.uint64)
    inner["key"] = np.array(inner["key"], dtype=np.uint64)
    state["state"] = inner
    if "buffer" in state:
        state["buffer"] = np.array(state["buffer"], dtype=np.uint64)
    return state


def _moment_to_json(moment):
    """A moment vector as base64 of its little-endian float64 bytes."""
    return base64.b64encode(moment.astype("<f8", copy=False).tobytes()).decode("ascii")


def _moment_from_json(value):
    """Inverse of :func:`_moment_to_json`; also reads format /1's decimal list."""
    if isinstance(value, str):
        return np.frombuffer(base64.b64decode(value), dtype="<f8").astype(float)
    return np.asarray(value, dtype=float)


def save_checkpoint(path, params, adam: AdamState, rng, epoch: int):
    extra = {
        "epoch": epoch,
        "adam": {
            "m": _moment_to_json(adam.m),
            "v": _moment_to_json(adam.v),
            "step": adam.step,
            "lr": adam.lr,
            "beta1": adam.beta1,
            "beta2": adam.beta2,
            "eps": adam.eps,
        },
        "rng": _rng_state_to_json(rng.bit_generator.state),
    }
    save_params(path, params, extra=extra)


def load_checkpoint(path):
    """(params, adam, rng, epoch) captured by :func:`save_checkpoint`."""
    params, extra = load_params(path)
    if extra is None:
        raise ValueError(f"{path} is a bare parameter file, not a training checkpoint")
    a = extra["adam"]
    adam = AdamState(
        m=_moment_from_json(a["m"]),
        v=_moment_from_json(a["v"]),
        step=int(a["step"]),
        lr=a["lr"],
        beta1=a["beta1"],
        beta2=a["beta2"],
        eps=a["eps"],
    )
    rng = make_rng(0)
    rng.bit_generator.state = _rng_state_from_json(extra["rng"])
    return params, adam, rng, int(extra["epoch"])


# -- the loop ----------------------------------------------------------------


def train(problem, settings: TrainSettings, out_dir=None, log=None) -> RunRecord:
    """Run Algorithm-style training from a fresh initialization."""
    config = problem.arch_config()
    params = init_params(config, settings.seed)
    adam = AdamState.init(
        params.num_params, lr=settings.lr, beta1=settings.beta1, beta2=settings.beta2, eps=settings.eps
    )
    rng = make_rng(settings.seed)
    return _run(problem, settings, params, adam, rng, start_epoch=0, n_epochs=settings.epochs, out_dir=out_dir, log=log)


def resume(problem, settings: TrainSettings, checkpoint_path, n_epochs: int, out_dir=None, log=None) -> RunRecord:
    """Continue a checkpointed run for ``n_epochs`` further epochs."""
    params, adam, rng, epoch = load_checkpoint(checkpoint_path)
    return _run(problem, settings, params, adam, rng, start_epoch=epoch, n_epochs=n_epochs, out_dir=out_dir, log=log)


def _run(problem, settings, params, adam, rng, start_epoch, n_epochs, out_dir, log) -> RunRecord:
    t_begin = time.perf_counter()
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    config = problem.arch_config()
    flat = params.to_flat()
    history = []
    checkpoints = []
    status = "completed"
    last_epoch = start_epoch + n_epochs
    initial_probe = evaluate_probe(params, problem) if start_epoch == 0 else None

    # The tapes' arrays and ADAM's scratch vectors, reused from epoch to
    # epoch.  It is cleared before every probe and after the loop, so that
    # probes, checkpoints and whatever runs after training do not stack on
    # top of it.  The gradient goes into one vector of the run's, and ADAM
    # updates ``flat`` and the moments in place, so an epoch allocates no
    # vector of num_params floats: whether glibc would map such a vector
    # afresh depends on what the process freed before.
    workspace = Workspace()
    gradient = np.empty_like(flat)
    epoch = start_epoch
    for epoch in range(start_epoch + 1, last_epoch + 1):
        batch = sample(problem.domain, settings.sizes, rng, epoch)
        try:
            breakdown, gradient = loss_and_gradient(params, problem, batch, settings.weights, workspace, gradient)
        except EvaluationError:
            status = "diverged"
            epoch -= 1
            break
        row = {"epoch": epoch, **breakdown.as_dict()}
        if not np.isfinite(breakdown.total) or breakdown.total > DIVERGENCE_LIMIT:
            history.append(row)
            status = "diverged"
            break
        if settings.lr_half_life:
            adam.lr = settings.lr * 0.5 ** ((epoch - 1) / settings.lr_half_life)
        try:
            adam, flat = adam_step(adam, flat, gradient, workspace)
        except NonFiniteGradientError:
            history.append(row)
            status = "diverged"
            break
        params = ControlPinnParams.from_flat(config, flat)
        if settings.eval_every and (epoch % settings.eval_every == 0 or epoch == last_epoch):
            workspace.clear()
            try:
                probe = evaluate_probe(params, problem)
            except EvaluationError:
                history.append(row)
                status = "diverged"
                break
            row.update({k: probe.get(k) for k in ("err_y", "err_u", "err_lam")})
        history.append(row)
        if log is not None and (epoch % max(1, settings.eval_every) == 0 or epoch == last_epoch):
            log(row)
        if out is not None and settings.checkpoint_every and epoch % settings.checkpoint_every == 0:
            path = out / f"checkpoint_{epoch:06d}.json"
            save_checkpoint(path, params, adam, rng, epoch)
            checkpoints.append(str(path))
    workspace.clear()

    if out is not None:
        path = out / "checkpoint_final.json"
        save_checkpoint(path, params, adam, rng, epoch if status == "completed" else max(epoch, start_epoch))
        checkpoints.append(str(path))
        write_metrics(out / "metrics.csv", history)

    try:
        final_probe = evaluate_probe(params, problem, with_curve=True)
    except EvaluationError:  # the last update overflowed the network
        final_probe = None
        status = "diverged"
    return RunRecord(
        problem=problem.name,
        status=status,
        epochs_run=len(history),
        history=history,
        initial_probe=initial_probe,
        final_probe=final_probe,
        params=params,
        checkpoints=checkpoints,
        wall_time=time.perf_counter() - t_begin,
        start_epoch=start_epoch,
    )
