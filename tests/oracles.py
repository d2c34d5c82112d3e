"""Independent oracles: symbolic closed-form benchmark solutions, finite
differences of the network on stencils that avoid ELU's kinks, and the
step-by-step FTCS heat solver.

The closed-form derivatives come from sympy and the network's
pre-activations are recomputed from its raw weights, never through the
package's own machinery, so tests that use them are genuine cross-checks.
"""

from dataclasses import dataclass

import numpy as np
import sympy as sp

from ctrlpinn.problems import HeatProblem
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


def _elu(z):
    return np.where(z > 0.0, z, np.expm1(np.minimum(z, 0.0)))


def preactivations(params, t, x=()):
    """Hidden-layer pre-activations at one point, keyed by layer label."""
    out = {}

    def branch(label, denses, h):
        for i, dense in enumerate(denses):
            z = dense.w @ h + dense.b
            out[f"{label}.{i}"] = z
            h = _elu(z)
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
    initial_state=None,
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

    if initial_state is None:
        initial_state = HeatProblem().initial_profile
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
