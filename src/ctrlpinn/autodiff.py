"""Jet containers and the reverse-mode tape that builds losses from them.

* :class:`JetSpec` says which input partials a forward pass carries: d/dt,
  d/dx_i per carried axis, and one second-order slot that sums the pure
  second partials d2/dx_i2 (the Laplacian when every axis is carried).
* :class:`Jets` holds one stage of the network with those partials.  The
  training tape (``network.NetworkTape``) propagates them layer by layer
  with closed-form rules, so output derivatives are exact for the network
  function, and hands each output head to the loss as ``Jets`` of
  :class:`Var` leaves.
* :class:`Var` is a small array-valued tape: the residuals and the scalar
  loss are assembled from jet slots, and ``backward()`` leaves the adjoint
  of every slot in its leaf's ``grad``, from which the network tape
  accumulates the weight gradient.

The input dimension is tiny (<= 3) while the parameter count is ~1e5, so
forward-in-inputs x reverse-in-parameters keeps the total cost at a small
constant multiple of a plain forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EvaluationError(RuntimeError):
    """A network evaluation produced a non-finite value."""

    def __init__(self, message: str, layer: str | None = None):
        super().__init__(message)
        self.layer = layer


# --------------------------------------------------------------------------
# Derivative requests and jet containers.


@dataclass(frozen=True)
class JetSpec:
    """Which input partials a forward pass should carry.

    First order in t; up to ``space_order`` in the spatial coordinates listed
    in ``axes`` (default: all of them).  At second order a jet carries one
    slot, the sum of the pure second partials over those axes: the Laplacian
    when every axis is carried.  Nothing in the optimality system needs more.
    """

    time: bool = True
    space_order: int = 2
    axes: tuple | None = None

    def __post_init__(self):
        if self.space_order not in (0, 1, 2):
            raise ValueError(f"space_order must be 0, 1 or 2, got {self.space_order}")
        if self.axes is not None:
            axes = tuple(self.axes)
            if len(set(axes)) != len(axes) or any(not isinstance(i, int) or i < 0 for i in axes):
                raise ValueError(f"axes must be distinct nonnegative integers, got {self.axes!r}")
            object.__setattr__(self, "axes", axes)

    def spatial_axes(self, spatial_dim: int) -> tuple:
        """The carried spatial axes for inputs with ``spatial_dim`` coordinates."""
        if self.axes is None:
            return tuple(range(spatial_dim))
        if any(i >= spatial_dim for i in self.axes):
            raise ValueError(f"axes {self.axes} out of range for {spatial_dim} spatial coordinates")
        return self.axes


VALUES_ONLY = JetSpec(time=False, space_order=0)


class Jets:
    """One stage of the network with the input partials its JetSpec carries.

    ``val`` is the value, ``dt`` the partial in t, ``dx[i]`` the partial
    along the i-th carried axis and ``lap`` the second-order slot; slots
    that are not carried are None (``dx`` is then empty).  Each slot holds
    one array of shape (components, points) on the training tape, a
    :class:`Var` leaf of that shape for the loss, or plain arrays when a
    closed-form oracle stands in for the network.  ``jets.dt[j]`` is then
    component j's partial in t over the batch.
    """

    __slots__ = ("val", "dt", "dx", "lap")

    def __init__(self, val, dt=None, dx=(), lap=None):
        self.val = val
        self.dt = dt
        self.dx = list(dx)
        self.lap = lap

    def comps(self):
        """The carried slots in order: val, dt, each dx, lap."""
        yield self.val
        if self.dt is not None:
            yield self.dt
        yield from self.dx
        if self.lap is not None:
            yield self.lap

    def map(self, f):
        """``Jets`` with ``f`` applied to every carried slot."""
        return Jets(
            f(self.val),
            f(self.dt) if self.dt is not None else None,
            [f(d) for d in self.dx],
            f(self.lap) if self.lap is not None else None,
        )

    @classmethod
    def join(cls, bundles, stack):
        """Combine bundles slotwise with ``stack``, which joins a list of
        arrays (row-wise for the input of a branch that reads several stages,
        column-wise for the column blocks of a head)."""
        first = bundles[0]
        return cls(
            stack([b.val for b in bundles]),
            stack([b.dt for b in bundles]) if first.dt is not None else None,
            [stack([b.dx[i] for b in bundles]) for i in range(len(first.dx))],
            stack([b.lap for b in bundles]) if first.lap is not None else None,
        )


# --------------------------------------------------------------------------
# A minimal reverse-mode tape over numpy arrays, used to assemble residuals
# and the scalar loss from jet components.  Constants (targets, coefficients)
# participate as plain arrays or floats.


def _unbroadcast(grad, shape):
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, (g, s) in enumerate(zip(grad.shape, shape)):
        if s == 1 and g != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _accumulate(var, grad):
    grad = _unbroadcast(np.asarray(grad, dtype=float), var.value.shape)
    var.grad = grad if var.grad is None else var.grad + grad


def _coerce(x):
    if isinstance(x, Var):
        return x.value, x
    return np.asarray(x, dtype=float), None


class Var:
    """Array-valued node of the loss tape."""

    __slots__ = ("value", "grad", "_parents", "_backward")
    # Keep numpy from consuming Var operands elementwise so that
    # ndarray <op> Var falls back to our reflected operators.
    __array_ufunc__ = None

    def __init__(self, value, parents=(), backward=None):
        self.value = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=float)
        self.grad = None
        self._parents = parents
        self._backward = backward

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        ov, o = _coerce(other)

        def backward(g, a=self, b=o):
            _accumulate(a, g)
            if b is not None:
                _accumulate(b, g)

        return Var(self.value + ov, (self,) + ((o,) if o is not None else ()), backward)

    __radd__ = __add__

    def __sub__(self, other):
        ov, o = _coerce(other)

        def backward(g, a=self, b=o):
            _accumulate(a, g)
            if b is not None:
                _accumulate(b, -g)

        return Var(self.value - ov, (self,) + ((o,) if o is not None else ()), backward)

    def __mul__(self, other):
        ov, o = _coerce(other)

        def backward(g, a=self, b=o, av=self.value, bv=ov):
            _accumulate(a, g * bv)
            if b is not None:
                _accumulate(b, g * av)

        return Var(self.value * ov, (self,) + ((o,) if o is not None else ()), backward)

    __rmul__ = __mul__

    def __neg__(self):
        def backward(g, a=self):
            _accumulate(a, -g)

        return Var(-self.value, (self,), backward)

    def __getitem__(self, key):
        """A view of part of the value, e.g. one component row ``v[j]``.

        Basic indexing only (integers and slices), so no element is read
        twice by one node.
        """

        def backward(g, a=self, k=key):
            full = np.zeros(a.value.shape)
            full[k] = g
            _accumulate(a, full)

        return Var(self.value[key], (self,), backward)

    def mean(self, count=None):
        """The mean of the value; with ``count``, its sum divided by
        ``count``, the share of a larger set's mean that this slice of the
        set holds.  The backward pass spreads ``g / count`` either way."""
        n = self.value.size if count is None else count

        def backward(g, a=self, count=n):
            _accumulate(a, np.full(a.value.shape, float(g) / count))

        value = self.value.mean() if count is None else self.value.sum() / count
        return Var(value, (self,), backward)

    # -- reverse pass -------------------------------------------------------

    def backward(self):
        """Seed d(self)/d(self) = 1 and push adjoints to every leaf."""
        self.grad = np.ones_like(self.value)
        for node in reversed(_topo_order(self)):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _topo_order(root):
    order = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for parent in parents:
            if id(parent) not in visited:
                visited.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order  # children strictly before their consumers

