"""Three-headed control network.

A trunk maps (t, x) to the system state y; a control branch, fed by y both
directly (value skip) and through the trunk's last hidden layer, produces u;
an adjoint branch fed by (y, u) plus the control branch's last hidden layer
produces lam.  Placing the u layers after the y layers (and lam after both)
creates the backpropagation paths every coupled derivative of the optimality
system needs.  The same depths and widths are used for every benchmark.
That order is written once, in the stage table ``STAGES``: the layer shapes,
the parameters' flat order, both passes of the jet tape and the value pass
all run over it.

A training tape (:class:`NetworkTape`) carries each stage of the network as
a bundle, a :class:`~ctrlpinn.autodiff.Jets` of (width, n_points) arrays:
the value, then the requested input partials d/dt and d/dx_i, then one
second-order slot that holds the sum of the pure second partials over the
carried axes (the Laplacian y_x1x1 + y_x2x2 in 2-D, y_xx in 1-D).  Each
layer applies one matrix product per component, and ELU then overwrites the
product in place, so the tape records no pre-activations: per hidden layer
it keeps the output bundle (which is also the next layer's input) and three
activation factors.  The tape runs its points in column blocks of at most
``BLOCK_POINTS``, so that each component of a block stays in cache through
a layer's elementwise rules; only the head outputs are joined back into
whole-batch arrays.  Like the plain value passes (:func:`forward_values`),
which carry the value alone, a tape stops after the last head its caller
reads (``through``).

The tape's arrays come from a :class:`Workspace`, a pool of memory-mapped
buffers that serves each request from any free buffer large enough for it.
A training run owns one for its whole loop and passes it to every step
(``loss.loss_and_gradient(..., workspace)``), so each epoch reuses the
previous epoch's pages instead of faulting them in afresh.  Arrays go back
to the pool as they die: temporaries at once, a layer's adjoints after its
reverse step, a tape's records at :meth:`NetworkTape.release`, once its
gradient is folded.  Every loss term is a weighted mean of pointwise
residuals, so the adjoints of a column block's heads depend on that block
alone: a training step streams its interior set through one tape per
block, in block order, and releases each before the next starts (see
``ctrlpinn.loss``).  The pool then holds one block's records, the
temporaries and the condition tapes' gradient rows, about 22 MiB for
predator-prey whatever the batch size; the tail block and the smaller
condition sets reuse the full block's buffers.
The run clears the pool before each probe and when its loop ends, which
unmaps the pages, so nothing that runs afterwards stacks on top of them.

The value passes borrow from a workspace as well: each layer's product,
ELU's temporary (ELU runs in place over the product), the finiteness mask
and the next branch's stacked input, each given back as soon as the next
layer has read it.  ``trainer.forward_chunked`` gives a whole pass one pool
of its own, shared by every chunk and dropped when the pass returns, so
only the first chunk maps fresh pages.  The heads a pass returns are fresh
arrays.
"""

from __future__ import annotations

import bisect
import json
import math
import mmap
from dataclasses import dataclass

import numpy as np

from .autodiff import EvaluationError, Jets, JetSpec, Var

HIDDEN_WIDTH = 100
TRUNK_LAYERS = 5
CONTROL_LAYERS = 3
ADJOINT_LAYERS = 2

PARAMS_FORMAT = "ctrlpinn-params/2"
# /1 is /2 with the ADAM moments of a training checkpoint as decimal lists.
READABLE_FORMATS = ("ctrlpinn-params/1", PARAMS_FORMAT)


# The network in order: each stage is a branch of hidden layers (label, depth)
# and the head after it.  The first branch reads (t, x); each later one reads
# every head before it and the previous branch's last hidden layer, stacked.
STAGES = (("trunk", TRUNK_LAYERS, "y"), ("control", CONTROL_LAYERS, "u"), ("adjoint", ADJOINT_LAYERS, "lam"))
HEADS = tuple(name for _, _, name in STAGES)


@dataclass(frozen=True)
class ArchitectureConfig:
    """Per-problem output widths; depth and width never change."""

    spatial_dim: int
    n_y: int = 1
    n_u: int = 1

    def __post_init__(self):
        if self.spatial_dim < 0:
            raise ValueError("spatial_dim must be >= 0")
        if self.n_y < 1 or self.n_u < 1:
            raise ValueError("n_y and n_u must be >= 1")

    @property
    def head_widths(self):
        """Output width of each head, in ``HEADS`` order: lam is as wide as y."""
        return (self.n_y, self.n_u, self.n_y)


@dataclass
class Dense:
    w: np.ndarray  # (n_out, n_in)
    b: np.ndarray  # (n_out,)


def layer_dims(config: ArchitectureConfig):
    """(label, n_out, n_in) for every layer in flat parameter order: each
    stage's hidden layers ``<branch>.<i>``, then its head ``<head>_head``."""
    w = HIDDEN_WIDTH
    dims, n_in, stacked = [], 1 + config.spatial_dim, 0
    for (label, depth, name), width in zip(STAGES, config.head_widths):
        dims += [(f"{label}.{i}", w, w if i else n_in) for i in range(depth)]
        dims += [(f"{name}_head", width, w)]
        stacked += width
        n_in = stacked + w
    return dims


def _flat_views(config: ArchitectureConfig, flat):
    """``{label: (w, b)}`` in flat parameter order: views of the flat vector
    ``flat`` shaped like each layer's weights and biases."""
    views, offset = {}, 0
    for label, n_out, n_in in layer_dims(config):
        w = flat[offset : offset + n_out * n_in].reshape(n_out, n_in)
        offset += n_out * n_in
        views[label] = (w, flat[offset : offset + n_out])
        offset += n_out
    if offset != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, expected {offset}")
    return views


@dataclass
class ControlPinnParams:
    """All trainable weights: per stage, a list of hidden layers under the
    branch's label and a head layer under ``<head>_head``.

    Flat order (used by the optimizer and by checkpoints): the stages in
    ``STAGES`` order, each its hidden layers and then its head; each layer
    contributes its weight matrix row-major, then its bias vector.
    """

    config: ArchitectureConfig
    trunk: list
    y_head: Dense
    control: list
    u_head: Dense
    adjoint: list
    lam_head: Dense

    def stages(self):
        """(branch label, hidden layers, head name, head layer) per stage."""
        return [(label, getattr(self, label), name, getattr(self, f"{name}_head")) for label, _, name in STAGES]

    def layers(self):
        for label, denses, name, head in self.stages():
            for i, dense in enumerate(denses):
                yield f"{label}.{i}", dense
            yield f"{name}_head", head

    @property
    def num_params(self) -> int:
        return sum(d.w.size + d.b.size for _, d in self.layers())

    def to_flat(self) -> np.ndarray:
        parts = []
        for _, dense in self.layers():
            parts.append(dense.w.ravel())
            parts.append(dense.b)
        return np.concatenate(parts)

    @classmethod
    def from_flat(cls, config: ArchitectureConfig, flat: np.ndarray) -> "ControlPinnParams":
        views = _flat_views(config, np.asarray(flat, dtype=float))
        layers = {label: Dense(w.copy(), b.copy()) for label, (w, b) in views.items()}
        attrs = {}
        for label, depth, name in STAGES:
            attrs[label] = [layers[f"{label}.{i}"] for i in range(depth)]
            attrs[f"{name}_head"] = layers[f"{name}_head"]
        return cls(config=config, **attrs)


def init_params(config: ArchitectureConfig, seed: int) -> ControlPinnParams:
    """Glorot-uniform weights, zero biases, from a counter-based stream."""
    rng = np.random.Generator(np.random.Philox(seed))
    flat = []
    for _, n_out, n_in in layer_dims(config):
        limit = np.sqrt(6.0 / (n_in + n_out))
        flat.append(rng.uniform(-limit, limit, size=n_out * n_in))
        flat.append(np.zeros(n_out))
    return ControlPinnParams.from_flat(config, np.concatenate(flat))


# --------------------------------------------------------------------------
# Jet propagation.  A bundle, a ``Jets`` of arrays, carries one stage of the
# network for one column block of points: the values plus whichever input
# partials the JetSpec requested, each as its own (width, n_points) array.
# The second-order slot ``lap`` is the sum of the pure second partials over
# the carried axes, so its rules are
#
#   forward:  lap_out = d1 * lap_z + d2 * sum_i zx_i^2
#   reverse:  the per-axis adjoint rules, summed over i,
#
# with d1, d2 ELU's first two derivatives at z (its third equals the
# second).  ELU is not twice differentiable at z = 0: d2 is e^z on the
# negative branch and 0 on the positive one, and the kink takes the
# negative-branch limit 1, so jets are continuous from below.
#
# Each hidden layer's dense product is written into a pre-activation bundle,
# and ELU overwrites it with the output bundle (in-place activation, as in
# Rota Bulo et al., arXiv:1712.02616).  The reverse pass reads the output's
# partials instead of the pre-activation's, so a layer's record holds its
# input and output bundles, both shared with its neighbours, plus d1, the
# mask z <= 0 and the one array its second-order rule needs.  Components
# stay separate: every product then runs at the BLAS shape
# (width, width) x (width, block), and stacking them into one
# (width, k * n_points) array measured slower for these widths.
#
# Every array whose shape grows with the points comes from a ``Workspace``
# and goes back to it when it dies: temporaries at once, the adjoints of a
# layer when the layer's reverse step is done, a tape's records when
# ``NetworkTape.release`` is called.  The operations and their order are
# those of freshly allocated arrays, so results do not depend on which
# buffers a pass is given.

# Columns per block.  A (100, 256) component is 200 KB, so the few arrays
# that one elementwise rule touches stay in a 2 MiB L2; at (100, 1000) they
# spill.  Blocking moves only the order of the gradient's sums over points.
BLOCK_POINTS = 256

# Overflow in a pass is expected once training diverges: the finiteness
# checks turn it into an EvaluationError, so numpy need not warn as well.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


class Workspace:
    """A pool of buffers that jet tapes, value passes and ADAM borrow from.

    Each buffer is its own anonymous memory map.  :meth:`take` returns a
    C-contiguous array of the requested shape and dtype, with arbitrary
    contents, over the first bytes of the smallest free buffer that holds
    it, or maps a new buffer of exactly its size when none does; a buffer
    serves any dtype, so a bool mask may sit in the pages of a float array.
    :meth:`give` returns each array's whole buffer to the pool.  Serving by
    size lets the tail column block of a batch and the smaller condition
    sets reuse the pages of the full blocks before them.  A run keeps one
    workspace across epochs, so an epoch reuses the previous epoch's pages
    instead of faulting fresh ones in; :meth:`clear` (or dropping the
    workspace) unmaps every free buffer at once, so the memory goes back to
    the operating system rather than staying in the heap.
    """

    def __init__(self):
        self._free = {}  # buffer size in bytes -> arrays given back over such buffers
        self._sizes = []  # the keys of _free, ascending

    def take(self, shape, dtype=float) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = max(math.prod(shape) * dtype.itemsize, 1)
        sizes = self._sizes
        i = bisect.bisect_left(sizes, nbytes)
        if i == len(sizes):
            return np.ndarray(shape, dtype, mmap.mmap(-1, nbytes))
        free = self._free[sizes[i]]
        a = free.pop()
        if not free:
            del self._free[sizes[i]]
            del sizes[i]
        if a.shape == shape and a.dtype == dtype:
            return a
        return np.ndarray(shape, dtype, a.base)

    def give(self, *arrays):
        """Return arrays that :meth:`take` made; None entries are skipped."""
        for a in arrays:
            if a is not None:
                size = len(a.base)
                free = self._free.get(size)
                if free is None:
                    free = self._free[size] = []
                    bisect.insort(self._sizes, size)
                free.append(a)

    def clear(self):
        self._free.clear()
        self._sizes.clear()


def column_blocks(n):
    """``(lo, hi)`` bounds of the column blocks over ``n`` points, in order:
    at most ``BLOCK_POINTS`` each, and one empty block when ``n`` is 0."""
    return [(lo, min(lo + BLOCK_POINTS, n)) for lo in range(0, max(n, 1), BLOCK_POINTS)]


def _input_bundle(t, x, spec: JetSpec, ws: Workspace):
    n = t.size
    sd = x.shape[1]

    def partial(row):
        """The inputs' partials along input ``row``: ones there, zeros elsewhere
        (all zeros for row None, the inputs' second partials)."""
        e = ws.take((1 + sd, n))
        e.fill(0.0)
        if row is not None:
            e[row] = 1.0
        return e

    val = ws.take((1 + sd, n))
    val[0] = t
    val[1:] = x.T
    dt = partial(0) if spec.time else None
    dx, lap = [], None
    if spec.space_order >= 1:
        dx = [partial(1 + i) for i in spec.spatial_axes(sd)]
    if spec.space_order == 2 and dx:
        lap = partial(None)
    return Jets(val, dt, dx, lap)


def _dense_fwd(dense: Dense, j: Jets, label: str, ws: Workspace) -> Jets:
    z = j.map(lambda c: np.matmul(dense.w, c, out=ws.take((dense.w.shape[0], c.shape[1]))))
    z.val += dense.b[:, None]
    finite = np.isfinite(z.val, out=ws.take(z.val.shape, bool))
    ok = finite.all()
    ws.give(finite)
    if not ok:
        raise EvaluationError(f"non-finite activation in layer {label}", layer=label)
    return z


def _act_fwd(z: Jets, ws: Workspace):
    """Apply ELU to the pre-activation bundle ``z`` in place.

    ``z``'s arrays become the output bundle.  Returns ``(d1, m, w)``, what
    the reverse pass needs: d1 = e = exp(min(z, 0)), ELU's first derivative;
    the mask m = (z <= 0); and w = d2 * (sum_i zx_i^2 + lap_z), with
    d2 = d1 * m the second derivative (None without a second-order slot).
    Everything read from ``z`` is taken before its array is overwritten.
    """
    zv = z.val
    shape = zv.shape
    d1 = np.minimum(zv, 0.0, out=ws.take(shape))
    np.exp(d1, out=d1)
    m = np.less_equal(zv, 0.0, out=ws.take(shape, bool))
    # value = max(z, 0) + (e - 1): on each branch one term is exactly zero,
    # so this is the branch value bit for bit, signed zeros included.
    em1 = np.subtract(d1, 1.0, out=ws.take(shape))
    np.maximum(zv, 0.0, out=zv)
    zv += em1
    ws.give(em1)
    w = None
    if z.lap is not None:
        sq = np.multiply(z.dx[0], z.dx[0], out=ws.take(shape))
        tmp = ws.take(shape)
        for zx in z.dx[1:]:
            sq += np.multiply(zx, zx, out=tmp)
        d2 = np.multiply(d1, m, out=tmp)
        w = np.add(sq, z.lap, out=ws.take(shape))
        w *= d2
        z.lap *= d1
        sq *= d2
        z.lap += sq
        ws.give(sq, tmp)
    if z.dt is not None:
        z.dt *= d1
    for zx in z.dx:
        zx *= d1
    return d1, m, w


def _dense_bwd(dense: Dense, j_in: Jets, g_out: Jets, grads, ws: Workspace, with_input: bool = True):
    """Add the layer's weight gradients to ``grads``; return the adjoints of
    its input, or None when ``with_input`` is false (nothing reads them)."""
    gw, gb = grads
    product = ws.take(gw.shape)
    for g_c, a_c in zip(g_out.comps(), j_in.comps()):
        gw += np.matmul(g_c, a_c.T, out=product)
    ws.give(product)
    gb += g_out.val.sum(axis=1)
    if not with_input:
        return None
    wt = dense.w.T
    return g_out.map(lambda c: np.matmul(wt, c, out=ws.take((wt.shape[0], c.shape[1]))))


def _act_bwd(out: Jets, d1, m, w, g: Jets, ws: Workspace) -> Jets:
    """Pull adjoints back through the activation's jet rules.

    ``out`` is the layer's output bundle and ``(d1, m, w)`` what
    :func:`_act_fwd` returned.  Mutates ``g`` in place (its arrays are owned
    by the reverse pass).  For ELU the third derivative equals the second
    (e^z on the negative branch, 0 elsewhere), so d2 serves for both factors
    below, and d2 * zx = m * (d1 * zx) = m * outx on both branches, so the
    output's partials stand in for the pre-activation's.  The value adjoint
    collects the time term, then every first-partial term, then the
    second-order term.
    """
    gv = g.val
    shape = gv.shape
    tmp = ws.take(shape)
    gv *= d1
    if g.dt is not None:
        np.multiply(m, out.dt, out=tmp)
        tmp *= g.dt
        gv += tmp
        g.dt *= d1
    d2_zx = []
    for ox, gx in zip(out.dx, g.dx):
        a = np.multiply(m, ox, out=ws.take(shape))
        gv += np.multiply(a, gx, out=tmp)
        gx *= d1
        d2_zx.append(a)
    if g.lap is not None:
        gl = g.lap
        gv += np.multiply(w, gl, out=tmp)
        for a, gx in zip(d2_zx, g.dx):
            a *= gl
            a *= 2.0
            gx += a
        gl *= d1
    ws.give(tmp, *d2_zx)
    return g


def _bundle_iadd_rows(target: Jets, source: Jets, lo: int, hi: int):
    """target += source[lo:hi] slotwise (in place)."""
    for t_c, s_c in zip(target.comps(), source.comps()):
        t_c += s_c[lo:hi]
    return target


class _Block:
    """The recorded jet pass of one column block, up to head ``through``.

    ``records[branch]`` lists, per hidden layer, the tuple
    ``(input bundle, output bundle, d1, m, w)``: the bundles are shared, as
    each layer's output is the next layer's input, and ``(d1, m, w)`` are
    :func:`_act_fwd`'s factors.  No pre-activation bundle is kept, because
    ELU runs in place.  The last output bundle of a branch feeds its head,
    whose output bundle is ``heads[name]``.
    """

    __slots__ = ("records", "heads")

    def __init__(self, params: ControlPinnParams, inp: Jets, through: str, ws: Workspace):
        self.records = {}
        self.heads = {}
        bundle = inp
        for label, denses, name, head in params.stages():
            records = []
            for i, dense in enumerate(denses):
                out = _dense_fwd(dense, bundle, f"{label}.{i}", ws)
                d1, m, w = _act_fwd(out, ws)  # out now holds the layer's output
                records.append((bundle, out, d1, m, w))
                bundle = out
            self.records[label] = records
            self.heads[name] = _dense_fwd(head, bundle, f"{name}_head", ws)
            if name == through:
                break
            bundle = Jets.join([*self.heads.values(), bundle], lambda parts: _stack_rows(parts, ws))

    def backward(self, params: ControlPinnParams, g_heads, grads, ws: Workspace):
        """Accumulate this block's weight gradients into ``grads``.

        ``g_heads[name]`` holds the adjoints of head ``name``'s bundle over
        the block's columns; they are consumed and given back to ``ws``.
        The stages run last to first.  A head's adjoint gathers its rows of
        every later branch's input adjoint, latest branch first; the
        trunk's input adjoint is not formed.
        """
        widths = params.config.head_widths
        stages = params.stages()
        g_later = []  # input adjoints of the branches after the current stage
        for k in range(len(self.records) - 1, -1, -1):
            label, denses, name, head = stages[k]
            lo = sum(widths[:k])
            g_head = g_heads[name]
            for g_in in g_later:
                _bundle_iadd_rows(g_head, g_in, lo, lo + widths[k])
            records = self.records[label]
            g = _dense_bwd(head, records[-1][1], g_head, grads[f"{name}_head"], ws)
            ws.give(*g_head.comps())
            if g_later:
                lo += widths[k]
                _bundle_iadd_rows(g, g_later[-1], lo, lo + HIDDEN_WIDTH)
            for i in range(len(denses) - 1, -1, -1):
                j_in, out, d1, m, w = records[i]
                g_z = _act_bwd(out, d1, m, w, g, ws)
                g = _dense_bwd(denses[i], j_in, g_z, grads[f"{label}.{i}"], ws, k > 0 or i > 0)
                ws.give(*g_z.comps())
            if g is not None:
                g_later.append(g)
        for g_in in g_later:
            ws.give(*g_in.comps())

    def release(self, ws: Workspace):
        """Give the recorded bundles and factors back to ``ws``."""
        for records in self.records.values():
            ws.give(*records[0][0].comps())  # the branch's input
            for _, out, d1, m, w in records:
                ws.give(*out.comps(), d1, m, w)
        self.records = None


def _stack_rows(parts, ws: Workspace):
    """``np.vstack(parts)`` written into a workspace array."""
    out = ws.take((sum(p.shape[0] for p in parts), parts[0].shape[1]))
    return np.concatenate(parts, axis=0, out=out)


class NetworkTape:
    """One recorded jet forward pass over a batch of points.

    The points run in column blocks of at most ``BLOCK_POINTS``; each block
    keeps its own records.  The stages run in ``STAGES`` order and stop
    after head ``through``, as in :func:`forward_values`.
    :meth:`head` exposes each computed head as :class:`Jets` whose slots are
    single ``Var`` leaves of shape (components, points) spanning the whole
    batch (None for the heads after ``through``); once a scalar loss built
    from them has run ``backward()``, :meth:`parameter_gradient` folds the
    leaf adjoints back through every block, in block order, into the
    accumulator ``grads``, a flat vector in parameter order (fresh zeros
    when it is None).  Several tapes may share one, as the column blocks of
    a streamed training step do.  All
    reductions use a fixed order, so results are bitwise reproducible.
    Overflow is reported by the finiteness checks as an
    :class:`EvaluationError`, not as a numpy warning.

    Every array that grows with the points is borrowed from ``workspace``
    (a fresh :class:`Workspace` of the tape's own when none is given).  The
    heads' block outputs go back once the leaves, which are copies, are
    built; the adjoints of the reverse pass go back as the pass moves on;
    the records go back at :meth:`release`, after which the tape is spent.
    The leaves never share memory with the workspace.
    """

    @_quiet_overflow
    def __init__(
        self, params: ControlPinnParams, t, x, spec: JetSpec, *, through: str = "lam", workspace=None, grads=None
    ):
        if through not in HEADS:
            raise ValueError(f"through must be one of {HEADS}, got {through!r}")
        self.params = params
        self.workspace = ws = Workspace() if workspace is None else workspace
        self._grads = grads
        t = np.asarray(t, dtype=float)
        sd = params.config.spatial_dim
        x = np.zeros((t.size, 0)) if sd == 0 else np.asarray(x, dtype=float).reshape(t.size, sd)
        self._bounds = column_blocks(t.size)
        self._blocks = [
            _Block(params, _input_bundle(t[lo:hi], x[lo:hi], spec, ws), through, ws) for lo, hi in self._bounds
        ]
        self._heads = {}
        for name in self._blocks[0].heads:
            parts = [block.heads[name] for block in self._blocks]
            self._heads[name] = Jets.join(parts, np.hstack).map(Var)
            for part in parts:
                ws.give(*part.comps())
        for block in self._blocks:
            block.heads = None

    def head(self, name: str) -> Jets | None:
        return self._heads.get(name)

    # -- reverse accumulation -------------------------------------------------

    def _leaf_adjoints(self, name: str, lo: int, hi: int) -> Jets:
        """Adjoints of head ``name``'s leaves over columns [lo, hi).

        Copies into workspace arrays: the block's reverse pass consumes them
        in place, and a leaf's ``grad`` may be an array that the ``Var`` tape
        also handed elsewhere.
        """

        def columns(leaf):
            out = self.workspace.take((leaf.value.shape[0], hi - lo))
            if leaf.grad is None:
                out.fill(0.0)
            else:
                np.copyto(out, leaf.grad[:, lo:hi])
            return out

        return self._heads[name].map(columns)

    def parameter_gradient(self) -> np.ndarray:
        """Add the weight gradient, block by block, into the tape's flat
        accumulator and return it.  Call it once per tape."""
        params = self.params
        flat = np.zeros(params.num_params) if self._grads is None else self._grads
        grads = _flat_views(params.config, flat)
        for block, (lo, hi) in zip(self._blocks, self._bounds):
            g_heads = {name: self._leaf_adjoints(name, lo, hi) for name in self._heads}
            block.backward(params, g_heads, grads, self.workspace)
        return flat

    def release(self):
        """Give the records back to the workspace; the tape is spent."""
        for block in self._blocks:
            block.release(self.workspace)
        self._blocks = None


# --------------------------------------------------------------------------
# Plain value evaluation (probes, field export, validators) without tape
# bookkeeping.


def _act_values(z, ws: Workspace):
    """ELU in place: z becomes max(z, 0) + (exp(min(z, 0)) - 1).

    At most one of the two parts is nonzero, so the sum is exactly the
    branch value.  Returns ``z``.
    """
    e = np.minimum(z, 0.0, out=ws.take(z.shape))
    np.exp(e, out=e)
    e -= 1.0
    np.maximum(z, 0.0, out=z)
    z += e
    ws.give(e)
    return z


@_quiet_overflow
def forward_values(params: ControlPinnParams, t, x=None, through: str = "lam", workspace=None):
    """Head values over a batch: arrays of shape (n_y, n), (n_u, n), (n_y, n).

    The stages run in ``STAGES`` order and stop after head ``through``; the
    heads after it are returned as None.  Each head is computed, and checked
    for finiteness, before any later branch, so it does not depend on
    ``through``.  The layers' arrays are borrowed from ``workspace`` (a
    throwaway :class:`Workspace` when none is given) and all given back by
    the time the call returns; the heads are fresh arrays.
    """
    if through not in HEADS:
        raise ValueError(f"through must be one of {HEADS}, got {through!r}")
    ws = Workspace() if workspace is None else workspace
    t = np.atleast_1d(np.asarray(t, dtype=float))
    sd = params.config.spatial_dim
    h = ws.take((1 + sd, t.size))
    h[0] = t
    if sd:
        h[1:] = np.asarray(x, dtype=float).reshape(t.size, sd).T
    heads = []
    for label, denses, name, head in params.stages():
        for i, dense in enumerate(denses):
            z = np.matmul(dense.w, h, out=ws.take((dense.w.shape[0], h.shape[1])))
            ws.give(h)
            z += dense.b[:, None]
            finite = np.isfinite(z, out=ws.take(z.shape, bool))
            ok = finite.all()
            ws.give(finite)
            if not ok:
                raise EvaluationError(f"non-finite activation in layer {label}.{i}", layer=f"{label}.{i}")
            h = _act_values(z, ws)
        out = head.w @ h
        out += head.b[:, None]
        if not np.isfinite(out).all():
            raise EvaluationError(f"non-finite output in {name}_head", layer=f"{name}_head")
        heads.append(out)
        if name == through:
            ws.give(h)
            break
        stacked = _stack_rows([*heads, h], ws)
        ws.give(h)
        h = stacked
    return (*heads, *[None] * (len(HEADS) - len(heads)))


# --------------------------------------------------------------------------
# Parameter checkpoints: a JSON document with an architecture header, the
# flat weight vector as a decimal list (floats survive the round trip
# exactly), and an optional ``extra`` object, which training checkpoints fill
# (see ``trainer.save_checkpoint``).


def save_params(path, params: ControlPinnParams, extra: dict | None = None):
    doc = {
        "format": PARAMS_FORMAT,
        "architecture": {
            "spatial_dim": params.config.spatial_dim,
            "n_y": params.config.n_y,
            "n_u": params.config.n_u,
        },
        "params": params.to_flat().tolist(),
    }
    if extra is not None:
        doc["extra"] = extra
    # json.dumps runs the C encoder; json.dump would run the pure-Python
    # one, for the same text.
    text = json.dumps(doc, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text)


def load_params(path):
    """(params, extra) of a file in any of ``READABLE_FORMATS``."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") not in READABLE_FORMATS:
        raise ValueError(f"unsupported checkpoint format {doc.get('format')!r}")
    arch = doc["architecture"]
    config = ArchitectureConfig(arch["spatial_dim"], arch["n_y"], arch["n_u"])
    params = ControlPinnParams.from_flat(config, np.asarray(doc["params"], dtype=float))
    return params, doc.get("extra")
