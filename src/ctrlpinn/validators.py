"""Independent classical checks of a learned control.

Nothing here reuses the network's derivative machinery: the ODE integrator is
a textbook RK4, the heat solver is the explicit FTCS recurrence with a
built-in stability guard, advanced exactly mode by mode in its sine
eigenbasis, and the error/effort metrics are plain quadrature.
Exported control data enters through :class:`ControlField` (a sampled grid
with bilinear interpolation), mirroring the offline-data validation route.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class StabilityError(ValueError):
    """Requested time step violates the explicit scheme's stability bound."""

    def __init__(self, dt: float, max_stable_dt: float):
        super().__init__(
            f"dt={dt!r} violates the explicit stability bound; the largest compliant step is {max_stable_dt!r}"
        )
        self.max_stable_dt = max_stable_dt


def _write_grid_csv(path, t0, tf, x0, x1, values):
    """Grid CSV: one header row with the grid spec, then nt rows of nx
    comma-separated values (row-major over time)."""
    nt, nx = values.shape
    lines = [f"t0={float(t0)!r},tf={float(tf)!r},nt={nt},x0={float(x0)!r},x1={float(x1)!r},nx={nx}"]
    for row in values:
        lines.append(",".join(map(repr, row.tolist())))
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class ControlField:
    """Control values sampled on a regular (t, x) grid, queried bilinearly.

    ``values`` has shape (nt, nx).  Fields for problems without space use
    nx = 1 and ignore the x range.
    """

    t0: float
    tf: float
    x0: float
    x1: float
    values: np.ndarray

    def __post_init__(self):
        self.t0, self.tf, self.x0, self.x1 = (float(v) for v in (self.t0, self.tf, self.x0, self.x1))
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("field values must be 2-D (nt, nx)")
        if not np.isfinite(self.values).all():
            raise ValueError("field contains non-finite values")

    @property
    def t_grid(self):
        return np.linspace(self.t0, self.tf, self.values.shape[0])

    @property
    def x_grid(self):
        return np.linspace(self.x0, self.x1, self.values.shape[1])

    def at(self, t, x):
        """Bilinear interpolation; queries are clipped to the grid."""
        nt, nx = self.values.shape
        pt = (np.clip(t, self.t0, self.tf) - self.t0) / (self.tf - self.t0) * (nt - 1) if nt > 1 else np.zeros_like(np.asarray(t, float))
        px = (np.clip(x, self.x0, self.x1) - self.x0) / (self.x1 - self.x0) * (nx - 1) if nx > 1 else np.zeros_like(np.asarray(x, float))
        pt = np.asarray(pt, dtype=float)
        px = np.asarray(px, dtype=float)
        it = np.minimum(pt.astype(int), nt - 2) if nt > 1 else np.zeros(pt.shape, dtype=int)
        ix = np.minimum(px.astype(int), nx - 2) if nx > 1 else np.zeros(px.shape, dtype=int)
        ft = pt - it
        fx = px - ix
        it1 = np.minimum(it + 1, nt - 1)
        ix1 = np.minimum(ix + 1, nx - 1)
        v00 = self.values[it, ix]
        v01 = self.values[it, ix1]
        v10 = self.values[it1, ix]
        v11 = self.values[it1, ix1]
        return (1 - ft) * ((1 - fx) * v00 + fx * v01) + ft * ((1 - fx) * v10 + fx * v11)

    def to_csv(self, path):
        _write_grid_csv(path, self.t0, self.tf, self.x0, self.x1, self.values)


@dataclass
class DnsSolution:
    """Finite-difference state snapshots plus the solver's grid metadata."""

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray  # (len(times), len(x))
    dt: float
    dx: float
    scheme: str = "ftcs"

    def state_at(self, t):
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 + 2 * self.dt:
            raise ValueError(f"no stored snapshot near t={t}")
        return self.y[idx]

    def to_csv(self, path):
        _write_grid_csv(path, self.times[0], self.times[-1], self.x[0], self.x[-1], self.y)


def integrate_ode(f, y0, control, t_span=(0.0, 1.0), steps: int = 1000):
    """Classical fixed-step RK4 for y' = f(t, y, u(t)).

    Returns ``(times, states)`` with states of shape (steps + 1, n).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    t0, tf = t_span
    h = (tf - t0) / steps
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    times = t0 + h * np.arange(steps + 1)
    states = np.empty((steps + 1, y.size))
    states[0] = y
    for k in range(steps):
        t = times[k]
        k1 = np.asarray(f(t, y, control(t)))
        k2 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k1, control(t + 0.5 * h)))
        k3 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k2, control(t + 0.5 * h)))
        k4 = np.asarray(f(t + h, y + h * k3, control(t + h)))
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise RuntimeError(f"ODE state became non-finite at t={times[k + 1]}")
        states[k + 1] = y
    return times, states


def solve_heat_dns(
    control: ControlField,
    diffusivity: float,
    nx: int = 1001,
    dt: float | None = None,
    *,
    initial_state,
    store_times=None,
) -> DnsSolution:
    """Explicit finite differences for y_t = a y_xx + u, Dirichlet-zero walls.

    The FTCS recurrence: second-order central differences in space, forward
    Euler in time, with the control sampled on the solver's x grid and
    lerped in time between the field's rows.  The step must satisfy
    dt <= dx^2 / (2 a); violating requests are refused with the largest
    compliant step.  ``initial_state`` is a callable of x.

    The recurrence is advanced exactly, mode by mode, in its Dirichlet sine
    eigenbasis, where one step multiplies mode k by
    mu_k = 1 - 4 r sin^2(pi k / (2 (m + 1))) for m interior points and
    r = a dt / dx^2.  The run is cut at every stored step and at the first
    step of every control-row interval; inside a cut the forcing is linear
    in the step index, so its L steps are one closed-form update.  The
    result equals stepping one step at a time up to rounding.
    """
    if not (np.isfinite(diffusivity) and diffusivity > 0.0):
        raise ValueError(f"diffusivity must be finite and > 0, got {diffusivity!r}")
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
    snapshots = np.zeros((store_steps.size, nx))
    snap_index = {int(s): i for i, s in enumerate(store_steps)}
    if 0 in snap_index:
        snapshots[snap_index[0]] = y

    # basis[j - 1, k - 1] = sin(pi j k / (m + 1)) for j, k = 1..m holds the
    # eigenvectors of one step, and basis @ basis = (m + 1) / 2 I.  jk is
    # reduced mod 2 (m + 1) first, so every sine argument lies in [0, 2 pi).
    m = nx - 2
    basis = np.arange(1.0, m + 1)
    basis = np.multiply.outer(basis, basis)
    np.fmod(basis, 2.0 * (m + 1), out=basis)
    basis *= np.pi / (m + 1)
    np.sin(basis, out=basis)
    r = diffusivity * dt / (dx * dx)
    mu = 1.0 - 4.0 * r * np.sin(np.pi * np.arange(1, m + 1) / (2.0 * (m + 1))) ** 2

    # Step k forces with (1 - frac) u_i + frac u_{i+1}, where i and frac come
    # from pos = (t_k - t0) / (tf - t0) (n_rows - 1).  Inside one row
    # interval frac grows by delta per step, so cutting at the first step of
    # every interval leaves the forcing linear in the step index.
    n_rows = control.values.shape[0]
    last_row = max(n_rows - 2, 0)
    delta = dt * (n_rows - 1) / (tf - t0)

    def row_pos(k):
        return (t0 + k * dt - t0) / (tf - t0) * (n_rows - 1)

    cuts = [np.array([0, steps]), store_steps]
    if n_rows > 2:
        rows = np.arange(1, n_rows - 1)
        first = -(-rows * steps // (n_rows - 1))  # ceil(rows * steps / (n_rows - 1))
        # Rounding can leave pos a hair below an exact integer: then the
        # interval starts one step later, as in a step-by-step run.
        first += row_pos(first).astype(int) < rows
        cuts.append(np.minimum(first, steps))
    cuts = np.unique(np.concatenate(cuts))
    # Segments longer than about sqrt(steps) are split into pieces of that
    # length, so the Horner pass below and the segment count both stay near
    # sqrt(steps) however few store times and rows there are.
    piece = int(np.ceil(np.sqrt(steps)))
    long_runs = [np.arange(a, b, piece) for a, b in zip(cuts[:-1], cuts[1:]) if b - a > piece]
    cuts = np.unique(np.concatenate([cuts, *long_runs]))
    lengths = np.diff(cuts)

    # Over a segment of L steps from step a, with f0 = frac at a:
    #   y_hat <- mu^L y_hat + dt [((1 - f0) G0 - delta G1) u_hat_i + (f0 G0 + delta G1) u_hat_{i+1}]
    # with G0 = sum_j mu^(L-1-j) and G1 = sum_j j mu^(L-1-j) over j < L,
    # accumulated by Horner and kept for the lengths that occur.
    wanted = set(lengths.tolist())
    power, g0, g1 = np.ones(m), np.zeros(m), np.zeros(m)
    sums = {}
    for length in range(1, max(wanted) + 1):
        g1 *= mu
        g1 += length - 1
        g0 *= mu
        g0 += 1.0
        power *= mu
        if length in wanted:
            sums[length] = (power.copy(), g0.copy(), g1.copy())

    # Control rows are sampled on the interior x and transformed when first
    # needed; only the two rows of the current interval are kept.
    row_times = control.t_grid

    def transformed_row(j):
        return basis @ control.at(np.full(m, row_times[j]), x[1:-1])

    y_hat = basis @ y[1:-1]
    back = 2.0 / (m + 1)
    u_hat = {}
    for a, length in zip(cuts[:-1].tolist(), lengths.tolist()):
        pos = row_pos(a)
        i = min(int(pos), last_row)
        frac = pos - i
        pair = (i, min(i + 1, n_rows - 1))
        u_hat = {j: u_hat[j] if j in u_hat else transformed_row(j) for j in pair}
        power, g0, g1 = sums[length]
        weight_next = frac * g0 + delta * g1
        y_hat *= power
        y_hat += dt * ((g0 - weight_next) * u_hat[pair[0]] + weight_next * u_hat[pair[1]])
        idx = snap_index.get(a + length)
        if idx is not None:
            snapshots[idx, 1:-1] = back * (basis @ y_hat)
    if not np.isfinite(snapshots).all():
        raise RuntimeError("DNS produced non-finite values")
    return DnsSolution(times=snap_times, x=x, y=snapshots, dt=dt, dx=dx)


def relative_error(y_a, y_b) -> float:
    """L2 norm of (a - b) over the shared grid, relative to the norm of b."""
    a = np.asarray(y_a, dtype=float)
    b = np.asarray(y_b, dtype=float)
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def error_table(dns: DnsSolution, reference, times) -> list:
    """[(t, relative_error)] of the DNS state against ``reference(t, x)``."""
    rows = []
    for t in times:
        y = dns.state_at(t)
        rows.append((float(t), relative_error(y, reference(t, dns.x))))
    return rows


def write_error_table(path, rows):
    lines = ["time,relative_error"] + [f"{t!r},{err!r}" for t, err in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _trapezoid_mean(values, t_grid, x_grid=None):
    if x_grid is None:
        integral = np.trapezoid(values, t_grid)
        measure = t_grid[-1] - t_grid[0]
    else:
        integral = np.trapezoid(np.trapezoid(values, x_grid, axis=1), t_grid)
        measure = (t_grid[-1] - t_grid[0]) * (x_grid[-1] - x_grid[0])
    return float(integral / measure)


def control_effort(control: ControlField) -> float:
    """Mean of u^2 over the space-time domain via trapezoidal quadrature."""
    t = control.t_grid
    if control.values.shape[1] == 1:
        return _trapezoid_mean(control.values[:, 0] ** 2, t)
    return _trapezoid_mean(control.values**2, t, control.x_grid)


def cost_functional(problem, y_field: ControlField, u_field: ControlField) -> float:
    """Quadrature of the problem's full objective over sampled fields.

    The fields must share their time grid; spatial grids may differ (values
    are compared on the state field's grid).
    """
    if problem.domain.spatial_dim > 1:
        raise NotImplementedError("sampled-field quadrature covers time-only and 1-D spatial problems")
    t = y_field.t_grid
    if problem.domain.spatial_dim == 0:
        y = y_field.values[:, 0]
        u = u_field.at(t, np.zeros_like(t))
        g = problem.running_cost(t, None, [y], [u])
        return float(np.trapezoid(g, t))

    x = y_field.x_grid
    tt, xx = np.meshgrid(t, x, indexing="ij")
    u = u_field.at(tt, xx)
    g = problem.running_cost(tt, xx[..., None], [y_field.values], [u])
    total = float(np.trapezoid(np.trapezoid(g, x, axis=1), t))
    w = problem.terminal_cost(x, [y_field.values[-1]])
    if w is not None:
        total += float(np.trapezoid(w, x))
    w0 = problem.initial_time_cost(x, [y_field.values[0]])
    if w0 is not None:
        total += float(np.trapezoid(w0, x))
    return total
