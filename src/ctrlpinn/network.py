"""Three-headed control network.

A trunk maps (t, x) to the system state y; a control branch, fed by y both
directly (value skip) and through the trunk's last hidden layer, produces u;
an adjoint branch fed by (y, u) plus the control branch's last hidden layer
produces lam.  Placing the u layers after the y layers (and lam after both)
creates the backpropagation paths every coupled derivative of the optimality
system needs.  The same depths and widths are used for every benchmark.

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
whole-batch arrays.  Plain value passes (:func:`forward_values`) carry the
value alone and stop after the last head their caller reads.
"""

from __future__ import annotations

import json
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


@dataclass
class Dense:
    w: np.ndarray  # (n_out, n_in)
    b: np.ndarray  # (n_out,)


def layer_dims(config: ArchitectureConfig):
    """(label, n_out, n_in) for every layer in flat parameter order."""
    w = HIDDEN_WIDTH
    dims = [("trunk.0", w, 1 + config.spatial_dim)]
    dims += [(f"trunk.{i}", w, w) for i in range(1, TRUNK_LAYERS)]
    dims += [("y_head", config.n_y, w)]
    dims += [("control.0", w, config.n_y + w)]
    dims += [(f"control.{i}", w, w) for i in range(1, CONTROL_LAYERS)]
    dims += [("u_head", config.n_u, w)]
    dims += [("adjoint.0", w, config.n_y + config.n_u + w)]
    dims += [(f"adjoint.{i}", w, w) for i in range(1, ADJOINT_LAYERS)]
    dims += [("lam_head", config.n_y, w)]
    return dims


@dataclass
class ControlPinnParams:
    """All trainable weights.

    Flat order (used by the optimizer and by checkpoints): trunk hidden
    layers, y head, control hidden layers, u head, adjoint hidden layers,
    lam head; each layer contributes its weight matrix row-major, then its
    bias vector.
    """

    config: ArchitectureConfig
    trunk: list
    y_head: Dense
    control: list
    u_head: Dense
    adjoint: list
    lam_head: Dense

    def layers(self):
        for i, dense in enumerate(self.trunk):
            yield f"trunk.{i}", dense
        yield "y_head", self.y_head
        for i, dense in enumerate(self.control):
            yield f"control.{i}", dense
        yield "u_head", self.u_head
        for i, dense in enumerate(self.adjoint):
            yield f"adjoint.{i}", dense
        yield "lam_head", self.lam_head

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
        flat = np.asarray(flat, dtype=float)
        groups = {"trunk": [], "control": [], "adjoint": []}
        heads = {}
        offset = 0
        for label, n_out, n_in in layer_dims(config):
            w = flat[offset : offset + n_out * n_in].reshape(n_out, n_in)
            offset += n_out * n_in
            b = flat[offset : offset + n_out]
            offset += n_out
            dense = Dense(w.copy(), b.copy())
            branch = label.split(".")[0]
            if branch in groups:
                groups[branch].append(dense)
            else:
                heads[label] = dense
        if offset != flat.size:
            raise ValueError(f"flat vector has {flat.size} entries, expected {offset}")
        return cls(
            config=config,
            trunk=groups["trunk"],
            y_head=heads["y_head"],
            control=groups["control"],
            u_head=heads["u_head"],
            adjoint=groups["adjoint"],
            lam_head=heads["lam_head"],
        )


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
# Each hidden layer's dense product makes a fresh pre-activation bundle, and
# ELU overwrites it with the output bundle (in-place activation, as in
# Rota Bulo et al., arXiv:1712.02616).  The reverse pass reads the output's
# partials instead of the pre-activation's, so a layer's record holds its
# input and output bundles, both shared with its neighbours, plus d1, the
# mask z <= 0 and the one array its second-order rule needs.  Components
# stay separate: every product then runs at the BLAS shape
# (width, width) x (width, block), and stacking them into one
# (width, k * n_points) array measured slower for these widths.

# Columns per block.  A (100, 256) component is 200 KB, so the few arrays
# that one elementwise rule touches stay in a 2 MiB L2; at (100, 1000) they
# spill.  Blocking moves only the order of the gradient's sums over points.
BLOCK_POINTS = 256

HEADS = ("y", "u", "lam")

# Overflow in a pass is expected once training diverges: the finiteness
# checks turn it into an EvaluationError, so numpy need not warn as well.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


def _input_bundle(t, x, spec: JetSpec):
    n = t.size
    sd = x.shape[1]
    val = np.vstack([t[None, :], x.T]) if sd else t[None, :].copy()
    dt = None
    if spec.time:
        dt = np.zeros((1 + sd, n))
        dt[0] = 1.0
    dx, lap = [], None
    if spec.space_order >= 1:
        for i in spec.spatial_axes(sd):
            e = np.zeros((1 + sd, n))
            e[1 + i] = 1.0
            dx.append(e)
    if spec.space_order == 2 and dx:
        lap = np.zeros((1 + sd, n))
    return Jets(val, dt, dx, lap)


def _dense_fwd(dense: Dense, j: Jets, label: str) -> Jets:
    z = j.map(lambda c: dense.w @ c)
    z.val += dense.b[:, None]
    if not np.isfinite(z.val).all():
        raise EvaluationError(f"non-finite activation in layer {label}", layer=label)
    return z


def _act_fwd(z: Jets):
    """Apply ELU to the pre-activation bundle ``z`` in place.

    ``z``'s arrays become the output bundle.  Returns ``(d1, m, w)``, what
    the reverse pass needs: d1 = e = exp(min(z, 0)), ELU's first derivative;
    the mask m = (z <= 0); and w = d2 * (sum_i zx_i^2 + lap_z), with
    d2 = d1 * m the second derivative (None without a second-order slot).
    Everything read from ``z`` is taken before its array is overwritten.
    """
    zv = z.val
    d1 = np.minimum(zv, 0.0)
    np.exp(d1, out=d1)
    m = zv <= 0.0
    # value = max(z, 0) + (e - 1): on each branch one term is exactly zero,
    # so this is the branch value bit for bit, signed zeros included.
    em1 = d1 - 1.0
    np.maximum(zv, 0.0, out=zv)
    zv += em1
    w = None
    if z.lap is not None:
        sq = z.dx[0] * z.dx[0]
        for zx in z.dx[1:]:
            sq += zx * zx
        d2 = d1 * m
        w = sq + z.lap
        w *= d2
        z.lap *= d1
        sq *= d2
        z.lap += sq
    if z.dt is not None:
        z.dt *= d1
    for zx in z.dx:
        zx *= d1
    return d1, m, w


def _dense_bwd(dense: Dense, j_in: Jets, g_out: Jets, grads) -> Jets:
    gw, gb = grads
    for g_c, a_c in zip(g_out.comps(), j_in.comps()):
        gw += g_c @ a_c.T
    gb += g_out.val.sum(axis=1)
    wt = dense.w.T
    return g_out.map(lambda c: wt @ c)


def _act_bwd(out: Jets, d1, m, w, g: Jets) -> Jets:
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
    gv *= d1
    if g.dt is not None:
        tmp = m * out.dt
        tmp *= g.dt
        gv += tmp
        g.dt *= d1
    d2_zx = []
    for ox, gx in zip(out.dx, g.dx):
        a = m * ox
        gv += a * gx
        gx *= d1
        d2_zx.append(a)
    if g.lap is not None:
        gl = g.lap
        gv += w * gl
        for a, gx in zip(d2_zx, g.dx):
            a *= gl
            a *= 2.0
            gx += a
        gl *= d1
    return g


def _merge(bundles, stack) -> Jets:
    """Combine bundles slotwise: ``np.vstack`` stacks the inputs of a branch
    that reads several stages, ``np.hstack`` joins column blocks."""
    first = bundles[0]
    return Jets(
        stack([b.val for b in bundles]),
        stack([b.dt for b in bundles]) if first.dt is not None else None,
        [stack([b.dx[i] for b in bundles]) for i in range(len(first.dx))],
        stack([b.lap for b in bundles]) if first.lap is not None else None,
    )


def _bundle_iadd_rows(target: Jets, source: Jets, lo: int, hi: int):
    """target += source[lo:hi] slotwise (in place)."""
    for t_c, s_c in zip(target.comps(), source.comps()):
        t_c += s_c[lo:hi]
    return target


class _Block:
    """The recorded jet pass of one column block.

    ``records[branch]`` lists, per hidden layer, the tuple
    ``(input bundle, output bundle, d1, m, w)``: the bundles are shared, as
    each layer's output is the next layer's input, and ``(d1, m, w)`` are
    :func:`_act_fwd`'s factors.  No pre-activation bundle is kept, because
    ELU runs in place.  ``head_in[name]`` is the hidden bundle that feeds
    head ``name``, whose output bundle is ``heads[name]``.
    """

    __slots__ = ("records", "head_in", "heads")

    def __init__(self, params: ControlPinnParams, inp: Jets):
        self.records = {}

        def run_branch(label, denses, bundle):
            records = []
            for i, dense in enumerate(denses):
                out = _dense_fwd(dense, bundle, f"{label}.{i}")
                d1, m, w = _act_fwd(out)  # out now holds the layer's output
                records.append((bundle, out, d1, m, w))
                bundle = out
            self.records[label] = records
            return bundle

        h_trunk = run_branch("trunk", params.trunk, inp)
        y = _dense_fwd(params.y_head, h_trunk, "y_head")
        h_control = run_branch("control", params.control, _merge([y, h_trunk], np.vstack))
        u = _dense_fwd(params.u_head, h_control, "u_head")
        h_adjoint = run_branch("adjoint", params.adjoint, _merge([y, u, h_control], np.vstack))
        lam = _dense_fwd(params.lam_head, h_adjoint, "lam_head")
        self.head_in = {"y": h_trunk, "u": h_control, "lam": h_adjoint}
        self.heads = {"y": y, "u": u, "lam": lam}

    def backward(self, params: ControlPinnParams, g_heads, grads):
        """Accumulate this block's weight gradients into ``grads``.

        ``g_heads[name]`` holds the adjoints of head ``name``'s bundle over
        the block's columns; they are consumed in place.
        """
        n_y, n_u = params.config.n_y, params.config.n_u

        def branch_bwd(label, denses, g_out):
            records = self.records[label]
            for i in range(len(denses) - 1, -1, -1):
                j_in, out, d1, m, w = records[i]
                g_z = _act_bwd(out, d1, m, w, g_out)
                g_out = _dense_bwd(denses[i], j_in, g_z, grads[f"{label}.{i}"])
            return g_out

        g_adj_hidden = _dense_bwd(params.lam_head, self.head_in["lam"], g_heads["lam"], grads["lam_head"])
        g_adj_in = branch_bwd("adjoint", params.adjoint, g_adj_hidden)

        g_u = _bundle_iadd_rows(g_heads["u"], g_adj_in, n_y, n_y + n_u)
        g_ctl_hidden = _dense_bwd(params.u_head, self.head_in["u"], g_u, grads["u_head"])
        g_ctl_hidden = _bundle_iadd_rows(g_ctl_hidden, g_adj_in, n_y + n_u, n_y + n_u + HIDDEN_WIDTH)
        g_ctl_in = branch_bwd("control", params.control, g_ctl_hidden)

        g_y = _bundle_iadd_rows(g_heads["y"], g_adj_in, 0, n_y)
        g_y = _bundle_iadd_rows(g_y, g_ctl_in, 0, n_y)
        g_trunk_hidden = _dense_bwd(params.y_head, self.head_in["y"], g_y, grads["y_head"])
        g_trunk_hidden = _bundle_iadd_rows(g_trunk_hidden, g_ctl_in, n_y, n_y + HIDDEN_WIDTH)
        branch_bwd("trunk", params.trunk, g_trunk_hidden)


class NetworkTape:
    """One recorded jet forward pass over a batch of points.

    The points run in column blocks of at most ``BLOCK_POINTS``; each block
    keeps its own records.  :meth:`head` exposes each output head as
    :class:`Jets` whose slots are single ``Var`` leaves of shape
    (components, points) spanning the whole batch; once a scalar loss built
    from them has run ``backward()``, :meth:`parameter_gradient` folds the
    leaf adjoints back through every block, in block order, into a flat
    gradient.  All reductions use a fixed order, so results are bitwise
    reproducible.  Overflow is reported by the finiteness checks as an
    :class:`EvaluationError`, not as a numpy warning.
    """

    @_quiet_overflow
    def __init__(self, params: ControlPinnParams, t, x, spec: JetSpec):
        self.params = params
        t = np.asarray(t, dtype=float)
        sd = params.config.spatial_dim
        x = np.zeros((t.size, 0)) if sd == 0 else np.asarray(x, dtype=float).reshape(t.size, sd)
        self._bounds = [(lo, min(lo + BLOCK_POINTS, t.size)) for lo in range(0, max(t.size, 1), BLOCK_POINTS)]
        self._blocks = [_Block(params, _input_bundle(t[lo:hi], x[lo:hi], spec)) for lo, hi in self._bounds]
        self._heads = {}
        for name in HEADS:
            parts = [block.heads[name] for block in self._blocks]
            bundle = parts[0] if len(parts) == 1 else _merge(parts, np.hstack)
            self._heads[name] = bundle.map(Var)

    def head(self, name: str) -> Jets:
        return self._heads[name]

    # -- reverse accumulation -------------------------------------------------

    def _leaf_adjoints(self, name: str, lo: int, hi: int) -> Jets:
        """Adjoints of head ``name``'s leaves over columns [lo, hi).

        Copies: the block's reverse pass consumes them in place, and a leaf's
        ``grad`` may be an array that the ``Var`` tape also handed elsewhere.
        """

        def columns(leaf):
            if leaf.grad is None:
                return np.zeros((leaf.value.shape[0], hi - lo))
            return leaf.grad[:, lo:hi].copy()

        return self._heads[name].map(columns)

    def parameter_gradient(self) -> np.ndarray:
        params = self.params
        grads = {label: (np.zeros_like(d.w), np.zeros_like(d.b)) for label, d in params.layers()}
        for block, (lo, hi) in zip(self._blocks, self._bounds):
            block.backward(params, {name: self._leaf_adjoints(name, lo, hi) for name in HEADS}, grads)
        flat = []
        for label, _ in params.layers():
            gw, gb = grads[label]
            flat.append(gw.ravel())
            flat.append(gb)
        return np.concatenate(flat)


# --------------------------------------------------------------------------
# Plain value evaluation (probes, field export, validators) without tape
# bookkeeping.


def _act_values(z):
    """ELU as exp(min(z, 0)) - 1 + max(z, 0), with one exponential pass.

    At most one of the two parts is nonzero, so the sum is exactly the
    branch value.  Consumes ``z``: max(z, 0) is written into its buffer.
    """
    out = np.minimum(z, 0.0)
    np.exp(out, out=out)
    out -= 1.0
    out += np.maximum(z, 0.0, out=z)
    return out


@_quiet_overflow
def forward_values(params: ControlPinnParams, t, x=None, through: str = "lam"):
    """Head values over a batch: arrays of shape (n_y, n), (n_u, n), (n_y, n).

    The branches run in head order y, u, lam and stop after head
    ``through``; the heads after it are returned as None.  Each head is
    computed before any later branch, so it does not depend on ``through``.
    """
    if through not in HEADS:
        raise ValueError(f"through must be one of {HEADS}, got {through!r}")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    sd = params.config.spatial_dim
    x = np.zeros((t.size, 0)) if sd == 0 else np.asarray(x, dtype=float).reshape(t.size, sd)
    h = np.vstack([t[None, :], x.T]) if sd else t[None, :].copy()

    def run(label, denses, h):
        for i, dense in enumerate(denses):
            z = dense.w @ h
            z += dense.b[:, None]
            if not np.isfinite(z).all():
                raise EvaluationError(f"non-finite activation in layer {label}.{i}", layer=f"{label}.{i}")
            h = _act_values(z)
        return h

    h = run("trunk", params.trunk, h)
    y = params.y_head.w @ h + params.y_head.b[:, None]
    u = lam = None
    if through != "y":
        c = run("control", params.control, np.vstack([y, h]))
        u = params.u_head.w @ c + params.u_head.b[:, None]
        if through == "lam":
            a = run("adjoint", params.adjoint, np.vstack([y, u, c]))
            lam = params.lam_head.w @ a + params.lam_head.b[:, None]
    for name, out in (("y_head", y), ("u_head", u), ("lam_head", lam)):
        if out is not None and not np.isfinite(out).all():
            raise EvaluationError(f"non-finite output in {name}", layer=name)
    return y, u, lam


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
