"""Training loss: weighted residual and condition penalties with a per-term
breakdown.

Every term is the mean of squared residual norms over its point set (means,
not sums, so resampled batch sizes do not rescale the loss).  Residual terms
carry the 1e-1 scaling; condition and data penalties keep weight 1.  The
total is the weighted sum in a fixed order, so the breakdown adds up bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, make_dataclass

import numpy as np

from .autodiff import JetSpec, Var, VALUES_ONLY, EvaluationError
from .network import NetworkTape


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


def _mean_sq(residuals):
    """Mean over points of the squared residual norm; None for an empty set."""
    total = None
    for r in residuals:
        if isinstance(r, Var):
            term = (r * r).mean()
        else:
            arr = np.asarray(r, dtype=float)
            term = float(np.mean(arr * arr)) if arr.size else None
        if term is None:
            continue
        total = term if total is None else total + term
    return total


def _term_value(term):
    if term is None:
        return 0.0
    return float(term.value) if isinstance(term, Var) else float(term)


class _TapeProvider:
    """Default head provider: evaluates the network, keeping the tapes."""

    def __init__(self, params):
        self.params = params
        self.tapes = []

    def __call__(self, t, x, spec):
        tape = NetworkTape(self.params, t, x, spec)
        self.tapes.append(tape)
        return {name: tape.head(name) for name in ("y", "u", "lam")}


def assemble(problem, batch, weights, provider):
    """Build all loss terms through ``provider(t, x, spec) -> head jets``.

    The provider abstraction lets closed-form oracles stand in for the
    network in tests; with arrays instead of tape leaves the same code path
    produces plain floats.
    """
    sd = problem.domain.spatial_dim
    interior_spec = JetSpec(time=True, space_order=2 if sd else 0)

    t_int, x_int = batch.interior
    heads = provider(t_int, x_int, interior_spec)
    y, u, lam = heads["y"], heads["u"].val, heads["lam"]
    terms = {
        "forward": _mean_sq(problem.forward_residual(y, u)),
        "adjoint": _mean_sq(problem.adjoint_residual(lam, y, u, t=t_int, x=x_int)),
        "optimality": _mean_sq(problem.optimality_residual(lam.val, y.val, u)),
    }

    outputs = {"interior": (y.val, u, lam.val)}
    for name, (t_set, x_set) in (
        ("initial", batch.initial),
        ("terminal", batch.terminal),
        ("boundary", batch.boundary),
    ):
        if t_set.size:
            h = provider(t_set, x_set, VALUES_ONLY)
            outputs[name] = (h["y"].val, h["u"].val, h["lam"].val)
        else:
            outputs[name] = ([], [], [])

    conditions = problem.condition_residuals(batch, outputs)
    terms["initial"] = _mean_sq(conditions["initial"])
    terms["terminal_adjoint"] = _mean_sq(conditions["terminal_adjoint"])
    state_term = _mean_sq(conditions["boundary_state"])
    adjoint_term = _mean_sq(conditions["boundary_adjoint"])
    if state_term is None:
        terms["boundary"] = adjoint_term
    elif adjoint_term is None:
        terms["boundary"] = state_term
    else:
        terms["boundary"] = state_term + adjoint_term
    terms["data"] = _mean_sq(conditions["data_tracking"])
    return terms


def _weighted_total(terms, weights):
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


def evaluate_with_graph(params, problem, batch, weights: LossWeights = LossWeights()):
    """Per-term weighted losses for one batch, plus the live total and the
    tapes it was built from, for backprop."""
    provider = _TapeProvider(params)
    terms = assemble(problem, batch, weights, provider)
    total, breakdown = _weighted_total(terms, weights)
    return breakdown, total, provider.tapes


def loss_and_gradient(params, problem, batch, weights: LossWeights = LossWeights()):
    """Weighted breakdown plus the flat parameter gradient of the total."""
    breakdown, total, tapes = evaluate_with_graph(params, problem, batch, weights)
    if not np.isfinite(breakdown.total):
        raise EvaluationError(f"non-finite loss value {breakdown.total!r}")
    gradient = np.zeros(params.num_params)
    if isinstance(total, Var):
        total.backward()
        for tape in tapes:
            gradient += tape.parameter_gradient()
    return breakdown, gradient
