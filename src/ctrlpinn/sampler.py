"""Fresh random collocation batches for every training epoch.

Points are uniform i.i.d. on each manifold (interior, initial time, final
time, spatial boundary) and are redrawn each epoch; training on a frozen
point set is deliberately not supported.  The stream is a counter-based
Philox generator, so runs are reproducible across platforms; the draw order
below is part of the reproducibility contract: interior t, interior x,
initial x, terminal x, boundary t, boundary faces, boundary x.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .problems import Domain


@dataclass(frozen=True)
class SampleSizes:
    interior: int = 1000
    initial: int = 200
    terminal: int = 200
    boundary: int = 200

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"sample size {f.name} must be positive")


@dataclass
class CollocationBatch:
    """Point sets for one epoch; each entry is ``(t, x)`` with x of shape (n, sd)."""

    interior: tuple
    initial: tuple
    terminal: tuple
    boundary: tuple
    epoch: int = 0


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _uniform_box(rng, bounds, n):
    lows = np.array([lo for lo, _ in bounds])
    highs = np.array([hi for _, hi in bounds])
    return rng.uniform(lows, highs, size=(n, len(bounds)))


def sample(domain: Domain, sizes: SampleSizes, rng: np.random.Generator, epoch: int = 0) -> CollocationBatch:
    """Draw one batch, advancing ``rng``.

    Initial and terminal points carry t = t0 / t = tf exactly; boundary points
    sit exactly on a uniformly chosen box face.  For problems without space
    the initial/terminal manifolds collapse to a single point each and the
    boundary set is empty.
    """
    sd = domain.spatial_dim

    t_int = rng.uniform(domain.t0, domain.tf, sizes.interior)
    x_int = _uniform_box(rng, domain.x_bounds, sizes.interior) if sd else np.zeros((sizes.interior, 0))

    if sd:
        x_init = _uniform_box(rng, domain.x_bounds, sizes.initial)
        t_init = np.full(sizes.initial, domain.t0)
        x_term = _uniform_box(rng, domain.x_bounds, sizes.terminal)
        t_term = np.full(sizes.terminal, domain.tf)

        t_bdry = rng.uniform(domain.t0, domain.tf, sizes.boundary)
        faces = rng.integers(0, 2 * sd, sizes.boundary)
        x_bdry = _uniform_box(rng, domain.x_bounds, sizes.boundary)
        dims = faces // 2
        sides = faces % 2
        bounds = np.asarray(domain.x_bounds)
        x_bdry[np.arange(sizes.boundary), dims] = bounds[dims, sides]
    else:
        t_init = np.array([domain.t0])
        x_init = np.zeros((1, 0))
        t_term = np.array([domain.tf])
        x_term = np.zeros((1, 0))
        t_bdry = np.zeros(0)
        x_bdry = np.zeros((0, 0))

    return CollocationBatch(
        interior=(t_int, x_int),
        initial=(t_init, x_init),
        terminal=(t_term, x_term),
        boundary=(t_bdry, x_bdry),
        epoch=epoch,
    )
