"""Training loss: weighted residual and condition penalties with a per-term
breakdown.

Every term is the mean of squared residual norms over its point set (means,
not sums, so resampled batch sizes do not rescale the loss).  Residual terms
carry the 1e-1 scaling; condition and data penalties keep weight 1.  The
total is the weighted sum in a fixed order, so the breakdown adds up bitwise.

A training step (:func:`loss_and_gradient`) streams the interior set one
column block (``network.column_blocks``) at a time.  Each term is a weighted
mean of pointwise residuals, so once every interior mean divides by the
whole set's count, the adjoints of a block's heads depend on that block
alone.  Per block, one tape runs forward, the interior terms over its heads
run backward, its weight gradient folds into one accumulator that the
interior blocks share, and its records go back to the workspace (the
release point) before the next block starts: a step's tape memory is one
block's, whatever the batch size.  The condition sets follow as one more
piece, a tape per set.  The breakdown is computed once, at the end, from
the whole sets' head values through :func:`assemble`'s array path.  The
blocks, their order and the order in which the tapes' gradients are summed
(interior, initial, terminal, boundary) are those of one graph over the
whole batch, so breakdown and gradient are bitwise those of that graph.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, make_dataclass, replace

import numpy as np

from .autodiff import JetSpec, Jets, Var, VALUES_ONLY, EvaluationError
from .network import HEADS, NetworkTape, Workspace, column_blocks


@dataclass(frozen=True)
class LossWeights:
    """Weight of each loss term; the field order is the order of the terms."""

    data: float = 1.0
    forward: float = 0.1
    adjoint: float = 0.1
    optimality: float = 0.1
    initial: float = 1.0
    terminal_adjoint: float = 1.0
    boundary: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"loss weight {f.name} must be finite and nonnegative")


TERM_ORDER = tuple(f.name for f in fields(LossWeights))

LossBreakdown = make_dataclass(
    "LossBreakdown",
    [(name, float) for name in TERM_ORDER + ("total",)],
    namespace={"__doc__": "Weighted value of each term plus their sum.", "as_dict": lambda self: dict(vars(self))},
)


def _mean_sq(residuals, count=None):
    """Mean over points of the squared residual norm; None for an empty set.

    ``Var`` residuals divide by ``count`` when it is given (see
    ``Var.mean``); array residuals always span their whole set.
    """
    total = None
    for r in residuals:
        if isinstance(r, Var):
            term = (r * r).mean(count)
        else:
            arr = np.asarray(r, dtype=float)
            term = float(np.mean(arr * arr)) if arr.size else None
        total = _add(total, term)
    return total


def _add(a, b):
    """``a + b``, where None is an absent term."""
    if a is None:
        return b
    return a if b is None else a + b


def _term_value(term):
    if term is None:
        return 0.0
    return float(term.value) if isinstance(term, Var) else float(term)


def assemble(problem, batch, interior=None, outputs=None, count=None):
    """The unweighted loss terms by name, from head values.

    ``interior`` maps each head name to its :class:`Jets` over
    ``batch.interior``; ``outputs`` maps each condition set's name to its
    head values ``(y, u, lam)`` as ``problem.condition_residuals`` reads
    them.  Either may be None, which leaves its terms None.  Slots that are
    tape ``Var`` leaves build a live graph; plain arrays (or closed-form
    oracles standing in for the network) give floats.  With ``Var`` slots,
    ``count`` is the number of points each interior mean divides by, when
    ``batch.interior`` is one column block of a larger set.  The data term
    sums the condition sets' tracking defects, then the interior's.
    """
    terms = dict.fromkeys(TERM_ORDER)
    interior_data = None
    if interior is not None:
        t, x = batch.interior
        y, u, lam = interior["y"], interior["u"].val, interior["lam"]
        terms["forward"] = _mean_sq(problem.forward_residual(y, u), count)
        terms["adjoint"] = _mean_sq(problem.adjoint_residual(lam, y, u, t=t, x=x), count)
        terms["optimality"] = _mean_sq(problem.optimality_residual(lam.val, y.val, u), count)
        interior_data = _mean_sq(problem.interior_data_residuals(y.val, t, x), count)
    if outputs is not None:
        conditions = problem.condition_residuals(batch, outputs)
        terms["initial"] = _mean_sq(conditions["initial"])
        terms["terminal_adjoint"] = _mean_sq(conditions["terminal_adjoint"])
        terms["boundary"] = _add(_mean_sq(conditions["boundary_state"]), _mean_sq(conditions["boundary_adjoint"]))
        terms["data"] = _mean_sq(conditions["data_tracking"])
    terms["data"] = _add(terms["data"], interior_data)
    return terms


def weighted_total(terms, weights):
    """``(total, breakdown)`` of unweighted ``terms``: the weighted sum in
    ``TERM_ORDER`` (a ``Var`` for ``Var`` terms) and each weighted value."""
    total = None
    values = {}
    for name in TERM_ORDER:
        w = getattr(weights, name)
        term = terms[name]
        if term is None or w == 0.0:
            values[name] = 0.0
            continue
        weighted = w * term
        values[name] = _term_value(weighted)
        total = weighted if total is None else total + weighted
    if total is None:
        total = 0.0
    values["total"] = _term_value(total)
    return total, LossBreakdown(**values)


# The condition sets in gradient order, with the last head each one reads:
# the initial conditions read only y.
CONDITION_SETS = (("initial", "y"), ("terminal", "lam"), ("boundary", "lam"))


def evaluate_with_graph(
    params, problem, batch, weights: LossWeights = LossWeights(), workspace=None, *, block=None, grads=None
):
    """One piece of a training step's loss, as a live graph over new tapes.

    With ``block=(lo, hi)`` the piece is the interior terms over columns
    [lo, hi) of ``batch.interior``, from one tape whose weight gradient
    folds into the flat accumulator ``grads``; each mean divides by the
    whole set's count.  With ``block=None`` it is the condition terms, from
    one tape per non-empty condition set, the i-th of ``CONDITION_SETS``
    folding into ``grads[i]``.  Without ``grads`` each tape folds into
    fresh zeros.  The tapes borrow their arrays from ``workspace`` (each
    makes its own when it is None).

    Returns ``(total, tapes, heads)``: the piece's weighted total (a ``Var``,
    or 0.0 when none of its terms carries weight), its tapes, and the head
    values that the breakdown reads, as plain arrays: the block's ``Jets``
    by head name, or each condition set's ``(y, u, lam)`` by set name.
    """
    if block is not None:
        t_int, x_int = batch.interior
        lo, hi = block
        part = replace(batch, interior=(t_int[lo:hi], x_int[lo:hi]))
        spec = JetSpec(time=True, space_order=2 if problem.domain.spatial_dim else 0)
        tape = NetworkTape(params, *part.interior, spec, workspace=workspace, grads=grads)
        leaves = {name: tape.head(name) for name in HEADS}
        terms = assemble(problem, part, interior=leaves, count=t_int.size)
        heads = {name: jets.map(lambda leaf: leaf.value) for name, jets in leaves.items()}
        return weighted_total(terms, weights)[0], [tape], heads

    tapes, leaves, heads = [], {}, {}
    for i, (name, through) in enumerate(CONDITION_SETS):
        t_set, x_set = getattr(batch, name)
        if not t_set.size:
            leaves[name] = heads[name] = ([], [], [])
            continue
        acc = None if grads is None else grads[i]
        tapes.append(NetworkTape(params, t_set, x_set, VALUES_ONLY, through=through, workspace=workspace, grads=acc))
        leaves[name] = tuple(None if h is None else h.val for h in map(tapes[-1].head, HEADS))
        heads[name] = tuple(None if v is None else v.value for v in leaves[name])
    terms = assemble(problem, batch, outputs=leaves)
    return weighted_total(terms, weights)[0], tapes, heads


def _fold(total, tapes):
    """Run one piece's graph backward and fold every tape's weight gradient,
    then give the tapes' records back.  Returns what each tape's
    ``parameter_gradient`` returned, or None when the piece carries no
    weight (nothing is folded)."""
    try:
        if not isinstance(total, Var):
            return None
        if not np.isfinite(total.value):
            raise EvaluationError(f"non-finite loss value {float(total.value)!r}")
        total.backward()
        return [tape.parameter_gradient() for tape in tapes]
    finally:
        for tape in tapes:
            tape.release()


def loss_and_gradient(params, problem, batch, weights: LossWeights = LossWeights(), workspace=None, out=None):
    """Weighted breakdown plus the flat parameter gradient of the total.

    Streams the interior set one column block at a time, then the condition
    sets (see the module docstring).  The interior blocks fold straight
    into the returned gradient, which starts at zero; the condition tapes
    fold into rows of one workspace array, added to it in set order.  The
    gradient is ``out`` (a float vector of ``num_params``, overwritten)
    when given, else a fresh array.  The tapes borrow their arrays from
    ``workspace``, a ``network.Workspace`` that a caller may keep across
    calls so that each call reuses the last one's memory; without one a
    throwaway workspace serves this call.  Neither the breakdown nor the
    gradient shares memory with the workspace.
    """
    if workspace is None:
        workspace = Workspace()
    gradient = np.empty(params.num_params) if out is None else out
    gradient.fill(0.0)
    interior = []
    for block in column_blocks(batch.interior[0].size):
        total, tapes, heads = evaluate_with_graph(params, problem, batch, weights, workspace, block=block, grads=gradient)
        _fold(total, tapes)
        interior.append(heads)
    conditions = workspace.take((len(CONDITION_SETS), params.num_params))
    conditions.fill(0.0)
    total, tapes, outputs = evaluate_with_graph(params, problem, batch, weights, workspace, grads=conditions)
    for flat in _fold(total, tapes) or ():
        gradient += flat
    workspace.give(conditions)

    whole = {name: Jets.join([h[name] for h in interior], np.hstack) for name in HEADS}
    breakdown = weighted_total(assemble(problem, batch, whole, outputs), weights)[1]
    if not np.isfinite(breakdown.total):
        raise EvaluationError(f"non-finite loss value {breakdown.total!r}")
    return breakdown, gradient
