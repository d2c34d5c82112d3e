"""Computations that check the program's outputs without using its code.

Everything here is written from the documented formats and equations, not
from ``ctrlpinn``: the network is rebuilt from the checkpoint JSON, the heat
equation is solved with Crank-Nicolson (the program uses explicit FTCS), and
the prey equation with an explicit 2-D scheme the program does not have.
Each solver is first checked against a closed form (:func:`self_check`).
"""

from __future__ import annotations

import json

import numpy as np
from scipy.linalg import solve_banded

# Architecture as documented in the README: trunk 5 x 100 -> y, control
# branch 3 x 100 fed by [y, trunk features] -> u, adjoint branch 2 x 100 fed
# by [y, u, control features] -> lam; ELU everywhere, linear heads.  Flat
# order: each layer's weight matrix row-major, then its bias.
WIDTH = 100
TRUNK, CONTROL, ADJOINT = 5, 3, 2


def load_network(path):
    """(spatial_dim, n_y, n_u, layers) from a checkpoint; layers are (W, b)."""
    with open(path) as fh:
        doc = json.load(fh)
    arch = doc["architecture"]
    sd, n_y, n_u = arch["spatial_dim"], arch["n_y"], arch["n_u"]
    shapes = [(WIDTH, 1 + sd)] + [(WIDTH, WIDTH)] * (TRUNK - 1) + [(n_y, WIDTH)]
    shapes += [(WIDTH, n_y + WIDTH)] + [(WIDTH, WIDTH)] * (CONTROL - 1) + [(n_u, WIDTH)]
    shapes += [(WIDTH, n_y + n_u + WIDTH)] + [(WIDTH, WIDTH)] * (ADJOINT - 1) + [(n_y, WIDTH)]
    flat = np.asarray(doc["params"], dtype=float)
    layers, k = [], 0
    for n_out, n_in in shapes:
        w = flat[k : k + n_out * n_in].reshape(n_out, n_in)
        k += n_out * n_in
        layers.append((w, flat[k : k + n_out]))
        k += n_out
    if k != flat.size:
        raise ValueError(f"{path}: {flat.size} parameters, layout needs {k}")
    return sd, n_y, n_u, layers


def _elu(z):
    return np.where(z > 0.0, z, np.expm1(np.minimum(z, 0.0)))


def network_values(net, t, x=None):
    """Head values (y, u, lam), each (n_components, n_points)."""
    sd, _, _, layers = net
    t = np.asarray(t, dtype=float).ravel()
    h = t[None, :] if sd == 0 else np.vstack([t[None, :], np.asarray(x, dtype=float).reshape(t.size, sd).T])
    it = iter(layers)

    def branch(h, depth):
        for _ in range(depth):
            w, b = next(it)
            h = _elu(w @ h + b[:, None])
        return h

    def head(h):
        w, b = next(it)
        return w @ h + b[:, None]

    h = branch(h, TRUNK)
    y = head(h)
    c = branch(np.vstack([y, h]), CONTROL)
    u = head(c)
    a = branch(np.vstack([y, u, c]), ADJOINT)
    return y, u, head(a)


def network_values_chunked(net, t, x=None, chunk=8192):
    parts = [network_values(net, t[i : i + chunk], None if x is None else x[i : i + chunk]) for i in range(0, t.size, chunk)]
    return tuple(np.concatenate([p[k] for p in parts], axis=1) for k in range(3))


# -- benchmark references, from the problem statements in the README ----------

HEAT_AMP = 2.0 / (np.pi + 4.0 * np.pi**3)


def heat_y_star(t, x):
    t = np.asarray(t, dtype=float)
    shape = np.exp(-np.pi**2 * t) - np.cos(0.5 * np.pi * t) + 2.0 * np.pi * np.sin(0.5 * np.pi * t)
    return HEAT_AMP * shape * np.sin(np.pi * np.asarray(x, dtype=float))


def heat_u_star(t, x):
    return np.sin(np.pi * np.asarray(x, dtype=float)) * np.sin(0.5 * np.pi * np.asarray(t, dtype=float))


def heat_initial(x):
    return np.sin(np.pi * x) * np.sin(2.0 * np.pi * x)


def prey_initial(x1, x2):
    return np.sin(np.pi * x1) * np.sin(np.pi * x2)


def prey_target(t, x1, x2):
    s2 = np.sin(2.0 * np.pi * x1) * np.sin(2.0 * np.pi * x2)
    return t * s2**2 + (1.0 - t) * np.sin(np.pi * x1) * np.sin(np.pi * x2)


def rel_l2(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


# -- solvers -------------------------------------------------------------------


def heat_crank_nicolson(u_rows, t_rows, x, diffusivity, y0, out_times, max_step=5e-4):
    """Crank-Nicolson for y_t = a y_xx + u on the grid x, zero Dirichlet walls.

    ``u_rows`` (len(t_rows), len(x)) is the control on a uniform time grid,
    taken linear in time between rows.  Each row interval is cut into equal
    steps no longer than ``max_step``; the first two steps are taken as four
    backward-Euler half steps (Rannacher start), which damps the grid modes
    Crank-Nicolson would keep from a start that does not meet the wall
    conditions.  Returns {t: state} for ``out_times``, which must lie on the
    row grid.
    """
    n = x.size - 2
    c = diffusivity / (x[1] - x[0]) ** 2
    dt_row = t_rows[1] - t_rows[0]
    m = int(np.ceil(dt_row / max_step - 1e-9))
    h = dt_row / m
    # (I - h/2 a D2) in banded storage serves Crank-Nicolson and the
    # backward-Euler half steps alike.
    banded = np.zeros((3, n))
    banded[0, 1:] = banded[2, :-1] = -0.5 * h * c
    banded[1, :] = 1.0 + h * c
    y = np.asarray(y0, dtype=float)[1:-1].copy()
    want = {int(round((tv - t_rows[0]) / dt_row)): tv for tv in out_times}
    states = {}
    if 0 in want:
        states[want[0]] = np.concatenate([[0.0], y, [0.0]])
    d2 = np.empty(n)
    step = 0
    for k in range(t_rows.size - 1):
        u0, du = u_rows[k, 1:-1], u_rows[k + 1, 1:-1] - u_rows[k, 1:-1]
        for j in range(m):
            f0, f1 = u0 + du * (j / m), u0 + du * ((j + 1) / m)
            if step < 2:
                y = solve_banded((1, 1), banded, y + 0.25 * h * (f0 + f1))
                y = solve_banded((1, 1), banded, y + 0.5 * h * f1)
            else:
                np.multiply(y, -2.0, out=d2)
                d2[1:] += y[:-1]
                d2[:-1] += y[1:]
                y = solve_banded((1, 1), banded, y + 0.5 * h * (c * d2 + f0 + f1))
            step += 1
        if k + 1 in want:
            states[want[k + 1]] = np.concatenate([[0.0], y, [0.0]])
    return states


def prey_explicit(u_at, y0, n=51, t_end=1.0, steps=12500):
    """Forward Euler / five-point Laplacian for y2_t = lap y2 + y2 + u.

    ``u_at(t)`` gives the control on the n x n grid of the unit square; the
    walls stay zero.  12500 steps on a 51-point grid keep dt = 8e-5 under
    the stability limit dx^2 / 4 = 1e-4.
    """
    dx = 1.0 / (n - 1)
    dt = t_end / steps
    y = np.array(y0, dtype=float)
    for k in range(steps):
        inner = y[1:-1, 1:-1]
        lap = (y[2:, 1:-1] + y[:-2, 1:-1] + y[1:-1, 2:] + y[1:-1, :-2] - 4.0 * inner) / (dx * dx)
        y[1:-1, 1:-1] = inner + dt * (lap + inner + u_at(k * dt)[1:-1, 1:-1])
    return y


def trapezoid_mean(values, t, x):
    """Mean of a (len(t), len(x)) field over the rectangle, trapezoid rule."""
    wt = np.full(t.size, t[1] - t[0])
    wt[[0, -1]] *= 0.5
    wx = np.full(x.size, x[1] - x[0])
    wx[[0, -1]] *= 0.5
    return float(wt @ values @ wx / ((t[-1] - t[0]) * (x[-1] - x[0])))


# -- learned-control gaps ---------------------------------------------------------


def heat_gap(u_rows, t_rows, x, diffusivity):
    """Relative L2 distance at t = 1 between y* and the state u_rows drives."""
    y1 = heat_crank_nicolson(u_rows, t_rows, x, diffusivity, heat_initial(x), [1.0])[1.0]
    return rel_l2(y1, heat_y_star(1.0, x))


def prey_gap(net, n=51, nt=41):
    """(learned, zero-control) relative prey distances to y2*(1) at t = 1.

    The control is the network's u on an (nt, n, n) grid, linear in time.
    """
    g = np.linspace(0.0, 1.0, n)
    x1, x2 = np.meshgrid(g, g, indexing="ij")
    times = np.linspace(0.0, 1.0, nt)
    pts = np.column_stack([np.tile(x1.ravel(), nt), np.tile(x2.ravel(), nt)])
    _, u, _ = network_values_chunked(net, np.repeat(times, n * n), pts)
    u = u[0].reshape(nt, n, n)

    def u_at(t):
        pos = min(t * (nt - 1), nt - 1 - 1e-12)
        i = int(pos)
        return (1.0 - (pos - i)) * u[i] + (pos - i) * u[i + 1]

    zero = np.zeros((n, n))
    target = prey_target(1.0, x1, x2)
    y0 = prey_initial(x1, x2)
    learned = rel_l2(prey_explicit(u_at, y0, n), target)
    unforced = rel_l2(prey_explicit(lambda t: zero, y0, n), target)
    return learned, unforced


def self_check(diffusivity=1.0):
    """Closed-form checks of both solvers; returns {name: error}.

    * heat, u = 0 from sin(pi x): y(1) = exp(-a pi^2) sin(pi x);
    * heat, u = u* from 0 at a = 1: y(1) = y*(1);
    * prey, u = 0 from sin(pi x1) sin(pi x2): y2(t) = exp((1 - 2 pi^2) t) y2(0).
    """
    x = np.linspace(0.0, 1.0, 201)
    t = np.linspace(0.0, 1.0, 201)
    zero = np.zeros((t.size, x.size))
    y1 = heat_crank_nicolson(zero, t, x, diffusivity, np.sin(np.pi * x), [1.0])[1.0]
    errors = {"heat_mode_decay": rel_l2(y1, np.exp(-diffusivity * np.pi**2) * np.sin(np.pi * x))}
    tt, xx = np.meshgrid(t, x, indexing="ij")
    y1 = heat_crank_nicolson(heat_u_star(tt, xx), t, x, 1.0, np.zeros_like(x), [1.0])[1.0]
    errors["heat_u_star"] = rel_l2(y1, heat_y_star(1.0, x))
    g = np.linspace(0.0, 1.0, 51)
    x1, x2 = np.meshgrid(g, g, indexing="ij")
    zero2 = np.zeros((51, 51))
    y = prey_explicit(lambda _t: zero2, prey_initial(x1, x2), 51, t_end=0.2, steps=2500)
    errors["prey_mode_decay"] = rel_l2(y, np.exp((1.0 - 2.0 * np.pi**2) * 0.2) * prey_initial(x1, x2))
    return errors
