"""Independent oracles: symbolic closed-form benchmark solutions, ELU's
branchwise definitions, the out-of-place ELU jet rules that the training
tape's in-place ones must match bit for bit, finite differences of the
network on stencils that avoid ELU's kinks, and the step-by-step FTCS heat
solver.

The closed-form derivatives come from sympy and the network's
pre-activations are recomputed from its raw weights, never through the
package's own machinery, so tests that use them are genuine cross-checks.

At the end: small helpers over the package's own network and loss
(:func:`jet_eval`, :func:`head_values`, :func:`forward`, :func:`evaluate`,
:func:`loss_gradient`) that only tests need.
"""

from dataclasses import dataclass, replace

import numpy as np
import sympy as sp

from ctrlpinn.autodiff import Jets, JetSpec
from ctrlpinn.loss import LossWeights, evaluate_with_graph
from ctrlpinn.network import NetworkTape, forward_values
from ctrlpinn.validators import ControlField, DnsSolution, StabilityError

_t, _x = sp.symbols("t x")

# Scalar tracking problem: optimal triple and its time derivatives.
_E3 = sp.exp(3)
_y_star = (2 * sp.exp(3 * _t) + _E3) / (sp.exp(sp.Rational(3, 2) * _t) * (2 + _E3))
_u_star = 2 * (sp.exp(3 * _t) - _E3) / (sp.exp(sp.Rational(3, 2) * _t) * (2 + _E3))

analytical_y = sp.lambdify(_t, _y_star, "numpy")
analytical_u = sp.lambdify(_t, _u_star, "numpy")
analytical_lam = sp.lambdify(_t, -_u_star, "numpy")
analytical_y_dot = sp.lambdify(_t, sp.diff(_y_star, _t), "numpy")
analytical_u_dot = sp.lambdify(_t, sp.diff(_u_star, _t), "numpy")
analytical_lam_dot = sp.lambdify(_t, sp.diff(-_u_star, _t), "numpy")

# Heated rod: reference state/control and the partials the residuals need.
_amp = 2 / (sp.pi + 4 * sp.pi**3)
_heat_y = _amp * (sp.exp(-sp.pi**2 * _t) - sp.cos(sp.pi * _t / 2) + 2 * sp.pi * sp.sin(sp.pi * _t / 2)) * sp.sin(
    sp.pi * _x
)
_heat_u = sp.sin(sp.pi * _x) * sp.sin(sp.pi * _t / 2)

heat_y = sp.lambdify((_t, _x), _heat_y, "numpy")
heat_u = sp.lambdify((_t, _x), _heat_u, "numpy")
heat_y_t = sp.lambdify((_t, _x), sp.diff(_heat_y, _t), "numpy")
heat_y_xx = sp.lambdify((_t, _x), sp.diff(_heat_y, _x, 2), "numpy")


# ELU and its first two derivatives, branch by branch; the second derivative
# at the kink is pinned to the negative-branch limit 1.  The training tape's
# ELU (``ctrlpinn.network._act_fwd``) must equal these bit for bit.


def elu(z):
    z = np.asarray(z, dtype=float)
    return np.where(z > 0.0, z, np.exp(np.minimum(z, 0.0)) - 1.0)


def elu_d1(z):
    z = np.asarray(z, dtype=float)
    return np.where(z > 0.0, 1.0, np.exp(np.minimum(z, 0.0)))


def elu_d2(z):
    z = np.asarray(z, dtype=float)
    return np.where(z > 0.0, 0.0, np.exp(np.minimum(z, 0.0)))


# The training tape's ELU jet rules as they were before they ran in place:
# the forward pass keeps the pre-activation bundle ``z`` and returns a new
# output bundle, and the reverse pass reads ``z``'s partials, d2 and
# sq = sum_i zx_i^2.  ``ctrlpinn.network._act_fwd`` and ``_act_bwd`` must
# give the same bits.


def elu_factors(z):
    """(value, d1, d2) of ELU at ``z`` using a single exponential pass."""
    e = np.exp(np.minimum(z, 0.0))
    d2 = e - (z > 0.0)
    value = e - 1.0
    value += np.maximum(z, 0.0)
    return value, e, d2


def act_fwd(z):
    """ELU output bundle plus ``(d1, d2, sq)``; ``z`` is left unchanged."""
    val, d1, d2 = elu_factors(z.val)
    lap = sq = None
    if z.lap is not None:
        sq = z.dx[0] * z.dx[0]
        for zx in z.dx[1:]:
            sq += zx * zx
        lap = d1 * z.lap
        lap += sq * d2
    out = Jets(val, d1 * z.dt if z.dt is not None else None, [d1 * d for d in z.dx], lap)
    return out, d1, d2, sq


def act_bwd(z, d1, d2, sq, g):
    """Adjoints pulled back through ELU's jet rules; mutates ``g``."""
    gv = g.val
    gv *= d1
    if g.dt is not None:
        tmp = d2 * z.dt
        tmp *= g.dt
        gv += tmp
        g.dt *= d1
    d2_zx = []
    for zx, gx in zip(z.dx, g.dx):
        a = d2 * zx
        gv += a * gx
        gx *= d1
        d2_zx.append(a)
    if g.lap is not None:
        gl = g.lap
        tmp = sq + z.lap
        tmp *= d2
        tmp *= gl
        gv += tmp
        for a, gx in zip(d2_zx, g.dx):
            a *= gl
            a *= 2.0
            gx += a
        gl *= d1
    return g


def rel_err(a, b, floor=1.0):
    """|a - b| scaled by max(|b|, floor): relative where b is O(1) or larger."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.max(np.abs(a - b) / np.maximum(np.abs(b), floor))


# Kink-aware finite differences.  ELU is only C^1: its second derivative jumps
# where a hidden pre-activation crosses zero, so a difference stencil that
# straddles such a crossing measures the jump instead of the derivative.  The
# pre-activations are recomputed here from the raw weights, independently of
# the package's forward pass, and a stencil is accepted only if every one of
# its points shares the centre's activation sign pattern.

# Smallest step tried.  The rounding noise of a second difference is about
# 4 * eps * |f| / h^2, i.e. under 1e-5 * |f| at this step: a tenth of the
# gate's 1e-4 tolerance for outputs of order one.
KINK_H_MIN = 1e-5


def preactivations(params, t, x=()):
    """Hidden-layer pre-activations at one point, keyed by layer label."""
    out = {}

    def branch(label, denses, h):
        for i, dense in enumerate(denses):
            z = dense.w @ h + dense.b
            out[f"{label}.{i}"] = z
            h = elu(z)
        return h

    h = branch("trunk", params.trunk, np.concatenate([[float(t)], np.asarray(x, dtype=float).ravel()]))
    y = params.y_head.w @ h + params.y_head.b
    c = branch("control", params.control, np.concatenate([y, h]))
    u = params.u_head.w @ c + params.u_head.b
    branch("adjoint", params.adjoint, np.concatenate([y, u, c]))
    return out


def sign_pattern(params, t, x=()):
    """Which hidden units sit on ELU's linear branch, as one boolean vector."""
    return np.concatenate([z > 0.0 for z in preactivations(params, t, x).values()])


# (offsets in units of h, coefficients) of second-order-accurate stencils,
# tried in this order.
_STENCILS = {
    1: {
        "central": ((-1, 1), (-0.5, 0.5)),
        "forward": ((0, 1, 2), (-1.5, 2.0, -0.5)),
        "backward": ((0, -1, -2), (1.5, -2.0, 0.5)),
    },
    2: {
        "central": ((-1, 0, 1), (1.0, -2.0, 1.0)),
        "forward": ((0, 1, 2, 3), (2.0, -5.0, 4.0, -1.0)),
        "backward": ((0, -1, -2, -3), (2.0, -5.0, 4.0, -1.0)),
    },
}


@dataclass(frozen=True)
class Stencil:
    kind: str
    order: int
    h: float
    points: tuple
    coefficients: tuple

    def apply(self, f):
        return sum(c * f(p) for c, p in zip(self.coefficients, self.points)) / self.h**self.order


def kink_free_stencil(pattern, z, h_max, order, h_min=KINK_H_MIN):
    """Largest stencil for a derivative of ``order`` at ``z`` with one sign pattern.

    ``pattern(v)`` gives the activation sign pattern at coordinate ``v`` along
    the differentiation line.  Central stencils are tried first, halving h
    from ``h_max`` down to ``h_min``; if the centre is too close to a
    crossing for any of them, a one-sided stencil on a side without a
    crossing is used.  Returns ``None`` when no stencil with h >= ``h_min``
    keeps every point on the centre's pattern.
    """
    centre = pattern(z)
    for kind, (offsets, coefficients) in _STENCILS[order].items():
        h = h_max
        while h >= h_min:
            points = tuple(z + o * h for o in offsets)
            if all(np.array_equal(pattern(p), centre) for p in points):
                return Stencil(kind, order, h, points, coefficients)
            h /= 2.0
    return None


def kink_free_derivative(f, pattern, z, h_max, order, h_min=KINK_H_MIN):
    """Finite-difference derivative of ``f`` at ``z`` plus the stencil used.

    Fails, rather than skips, when no single-pattern stencil exists above
    ``h_min``.
    """
    stencil = kink_free_stencil(pattern, z, h_max, order, h_min)
    assert stencil is not None, f"no kink-free order-{order} stencil at {z!r} with h >= {h_min}"
    return stencil.apply(f), stencil


# The explicit heat solver, one time step per loop iteration.


def ftcs_step_by_step(
    control: ControlField,
    diffusivity: float,
    nx: int = 1001,
    dt: float | None = None,
    *,
    initial_state,
    store_times=None,
) -> DnsSolution:
    """Step-by-step FTCS reference for ``ctrlpinn.validators.solve_heat_dns``.

    Explicit finite differences for y_t = a y_xx + u with Dirichlet-zero
    walls: second-order central differences in space, forward Euler in time,
    one Python iteration per time step.  Same arguments, stability guard,
    step rounding, store-step rounding and output as the package's solver,
    which advances the same recurrence in its sine eigenbasis instead.
    """
    t0, tf, x0, x1 = control.t0, control.tf, control.x0, control.x1
    x = np.linspace(x0, x1, nx)
    dx = x[1] - x[0]
    max_dt = dx * dx / (2.0 * diffusivity)
    if dt is None:
        dt = max_dt
    elif dt > max_dt * (1.0 + 1e-12):
        raise StabilityError(dt, max_dt)
    steps = int(np.ceil((tf - t0) / dt))
    dt = (tf - t0) / steps

    y = np.asarray(initial_state(x), dtype=float).copy()
    y[0] = 0.0
    y[-1] = 0.0

    if store_times is None:
        store_times = np.linspace(t0, tf, 101)
    store_times = np.asarray(store_times, dtype=float)
    store_steps = np.unique(np.clip(np.rint((store_times - t0) / dt).astype(int), 0, steps))
    snap_times = t0 + store_steps * dt
    snapshots = np.empty((store_steps.size, nx))
    snap_index = {int(s): i for i, s in enumerate(store_steps)}
    if 0 in snap_index:
        snapshots[snap_index[0]] = y

    # Control sampled once on the solver's x grid, then lerped in time.
    u_on_x = np.empty((control.values.shape[0], nx))
    for i, row_t in enumerate(control.t_grid):
        u_on_x[i] = control.at(np.full(nx, row_t), x)
    u_on_x = u_on_x[:, 1:-1]
    r = diffusivity * dt / (dx * dx)
    n_rows = u_on_x.shape[0]

    # y_inner <- y_inner + r (y_right - 2 y_inner + y_left) + dt u_row, in
    # that order, computed in preallocated buffers (the walls stay zero).
    y_inner, y_left, y_right = y[1:-1], y[:-2], y[2:]
    lap = np.empty(nx - 2)
    forcing = np.empty(nx - 2)
    other = np.empty(nx - 2)
    for k in range(steps):
        t = t0 + k * dt
        if n_rows == 1:
            np.multiply(u_on_x[0], dt, out=forcing)
        else:
            pos = (t - t0) / (tf - t0) * (n_rows - 1)
            i = min(int(pos), n_rows - 2)
            frac = pos - i
            np.multiply(u_on_x[i], 1.0 - frac, out=forcing)
            np.multiply(u_on_x[i + 1], frac, out=other)
            forcing += other
            forcing *= dt
        np.multiply(y_inner, 2.0, out=lap)
        np.subtract(y_right, lap, out=lap)
        lap += y_left
        lap *= r
        lap += y_inner
        np.add(lap, forcing, out=y_inner)
        idx = snap_index.get(k + 1)
        if idx is not None:
            snapshots[idx] = y
    if not np.isfinite(snapshots).all():
        raise RuntimeError("DNS produced non-finite values")
    return DnsSolution(times=snap_times, x=x, y=snapshots, dt=dt, dx=dx)


# Helpers over the package's own network and loss.


@dataclass
class PointJet:
    """Value of one output head at a point together with its input partials.

    ``d_dx`` and ``d2_dx2`` have exactly ``spatial_dim`` columns (zero columns
    for pure ODE problems); unrequested slots are ``None``.
    """

    value: np.ndarray
    d_dt: np.ndarray | None
    d_dx: np.ndarray | None
    d2_dx2: np.ndarray | None


def head_values(tape, name):
    """Head ``name`` of a ``NetworkTape`` as ``Jets`` of plain arrays."""
    return tape.head(name).map(lambda leaf: leaf.value)


def jet_eval(params, point, spec=JetSpec()):
    """Exact jets of the three output heads at one space-time point.

    ``point`` is ``(t, x)`` with ``x`` an iterable of spatial coordinates, or
    a bare float ``t`` for problems without space.  Returns a dict of
    :class:`PointJet` with keys ``"y"``, ``"u"``, ``"lam"``.  A tape's
    second-order slot sums over its axes, so at second order one single-axis
    tape runs per axis to give the per-axis ``d2_dx2``.
    """
    if isinstance(point, tuple):
        t, x = point
    else:
        t, x = point, None
    sd = params.config.spatial_dim
    t_arr = np.asarray([float(t)])
    x_arr = np.zeros((1, 0)) if sd == 0 else np.asarray(x, dtype=float).reshape(1, sd)
    per_axis = spec.space_order == 2 and sd > 0
    tape_axes = [(i,) for i in range(sd)] if per_axis else [None]
    tapes = [NetworkTape(params, t_arr, x_arr, replace(spec, axes=axes)) for axes in tape_axes]
    jets = {}
    for name in ("y", "u", "lam"):
        bundles = [head_values(tape, name) for tape in tapes]
        first = bundles[0]
        value = first.val[:, 0].copy()
        d_dt = first.dt[:, 0].copy() if first.dt is not None else None
        d_dx = None
        d2_dx2 = None
        if spec.space_order >= 1:
            columns = [d[:, 0] for b in bundles for d in b.dx]
            d_dx = np.stack(columns, axis=1) if columns else np.zeros((value.size, 0))
        if spec.space_order == 2:
            d2_dx2 = np.stack([b.lap[:, 0] for b in bundles], axis=1) if per_axis else np.zeros((value.size, 0))
        jets[name] = PointJet(value=value, d_dt=d_dt, d_dx=d_dx, d2_dx2=d2_dx2)
    return jets


def forward(params, t, x=None):
    """(y, u, lam) value vectors at a single space-time point."""
    y, u, lam = forward_values(params, [t], None if x is None else np.asarray(x, dtype=float).reshape(1, -1))
    return y[:, 0], u[:, 0], lam[:, 0]


def evaluate(params, problem, batch, weights=LossWeights()):
    """Per-term weighted losses for one batch."""
    return evaluate_with_graph(params, problem, batch, weights)[0]


def loss_gradient(params, evaluator):
    """Value and flat parameter gradient of a scalar loss.

    ``evaluator(params)`` returns ``(total, tapes)``: a scalar ``Var`` and
    the ``NetworkTape`` objects it was built from.
    """
    total, tapes = evaluator(params)
    total.backward()
    gradient = np.zeros(params.num_params)
    for tape in tapes:
        gradient += tape.parameter_gradient()
    return float(total.value), gradient
