"""Exact derivatives of network outputs and of scalar losses built from them.

Two cooperating mechanisms:

* forward jets -- every hidden quantity is carried together with its requested
  input partials (d/dt, d/dx_i, and the sum of the pure second partials
  d2/dx_i2, i.e. the Laplacian) and propagated layer by layer with
  closed-form rules, so output derivatives are exact for the network function
  rather than finite-difference estimates;
* reverse accumulation -- scalar losses assembled from jet components (via the
  small array-valued ``Var`` tape below) are differentiated with respect to
  all network weights by backpropagating adjoints through the recorded jet
  computation.

The input dimension is tiny (<= 3) while the parameter count is ~1e5, so
forward-in-inputs x reverse-in-parameters keeps the total cost at a small
constant multiple of a plain forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


FULL_JETS = JetSpec(time=True, space_order=2)
VALUES_ONLY = JetSpec(time=False, space_order=0)


@dataclass
class Jet:
    """Value of one output head at a point together with its input partials.

    ``d_dx`` and ``d2_dx2`` have exactly ``spatial_dim`` columns (zero columns
    for pure ODE problems); unrequested slots are ``None``.
    """

    value: np.ndarray
    d_dt: np.ndarray | None
    d_dx: np.ndarray | None
    d2_dx2: np.ndarray | None


@dataclass
class HeadJets:
    """Batched per-component jet bundle for one output head.

    Entries are ``Var`` tape leaves during training, or plain arrays when a
    closed-form oracle stands in for the network.  Indexing convention:
    ``value[j]`` is component j over the batch, ``d_dx[j][i]`` its first
    partial along spatial coordinate i, and ``laplacian[j]`` the sum of its
    pure second partials over the spatial coordinates.
    """

    value: list
    d_dt: list | None = None
    d_dx: list | None = None
    laplacian: list | None = None


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

    def __rsub__(self, other):
        ov, _ = _coerce(other)

        def backward(g, a=self):
            _accumulate(a, -g)

        return Var(ov - self.value, (self,), backward)

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

    def __truediv__(self, other):
        if isinstance(other, Var):
            raise TypeError("Var division is only supported by constants")
        return self * (1.0 / other)

    def __pow__(self, exponent):
        p = float(exponent)

        def backward(g, a=self, pw=p):
            _accumulate(a, g * pw * a.value ** (pw - 1.0))

        return Var(self.value**p, (self,), backward)

    def mean(self):
        n = self.value.size

        def backward(g, a=self, count=n):
            _accumulate(a, np.full(a.value.shape, float(g) / count))

        return Var(self.value.mean(), (self,), backward)

    def sum(self):
        def backward(g, a=self):
            _accumulate(a, np.full(a.value.shape, float(g)))

        return Var(self.value.sum(), (self,), backward)

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


# --------------------------------------------------------------------------
# Public operations.


def jet_eval(params, point, spec: JetSpec = FULL_JETS):
    """Exact jets of the three output heads at one space-time point.

    ``point`` is ``(t, x)`` with ``x`` an iterable of spatial coordinates, or
    a bare float ``t`` for problems without space.  Returns a dict with keys
    ``"y"``, ``"u"``, ``"lam"``.  A tape's second-order slot sums over its
    axes, so at second order one single-axis tape runs per axis to give the
    per-axis ``d2_dx2``.
    """
    from . import network  # runtime import: network builds on this module

    if isinstance(point, tuple):
        t, x = point
    else:
        t, x = point, None
    sd = params.config.spatial_dim
    t_arr = np.asarray([float(t)])
    if sd == 0:
        x_arr = np.zeros((1, 0))
    else:
        x_arr = np.asarray(x, dtype=float).reshape(1, sd)
    per_axis = spec.space_order == 2 and sd > 0
    tape_axes = [(i,) for i in range(sd)] if per_axis else [None]
    tapes = [network.NetworkTape(params, t_arr, x_arr, replace(spec, axes=axes)) for axes in tape_axes]
    jets = {}
    for name in ("y", "u", "lam"):
        bundles = [tape.head_bundle(name) for tape in tapes]
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
        jets[name] = Jet(value=value, d_dt=d_dt, d_dx=d_dx, d2_dx2=d2_dx2)
    return jets
