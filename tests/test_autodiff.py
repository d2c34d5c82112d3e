import numpy as np
import pytest

from ctrlpinn import autodiff
from ctrlpinn.autodiff import Jets, JetSpec, Var
from ctrlpinn.network import (
    BLOCK_POINTS,
    ArchitectureConfig,
    ControlPinnParams,
    Dense,
    NetworkTape,
    _act_bwd,
    _act_fwd,
    _act_values,
    _dense_fwd,
    _input_bundle,
    init_params,
)

import oracles
from oracles import elu, elu_d1, elu_d2, forward, kink_free_derivative, kink_free_stencil, loss_gradient
from oracles import head_values, rel_err, sign_pattern


# -- ELU derivative family ----------------------------------------------------


def _tape_elu_factors(z):
    """(value, d1, d2) of ELU at ``z`` as the training tape computes them.

    A bundle with zx = 1 and lap_z = 0 comes out of the in-place rule holding
    them as its value, its partial and its Laplacian slot."""
    z = np.array(z, dtype=float)
    row = z.reshape(1, -1)
    bundle = Jets(row, dx=[np.ones_like(row)], lap=np.zeros_like(row))
    d1 = _act_fwd(bundle)[0]
    assert np.array_equal(d1.view(np.int64), bundle.dx[0].view(np.int64))
    return tuple(a.reshape(z.shape) for a in (bundle.val, d1, bundle.lap))


def test_elu_values_and_derivatives():
    z = np.array([-2.0, -1.0, -1e-8, 0.0, 1e-8, 0.5, 3.0])
    assert np.allclose(elu(z), np.where(z > 0, z, np.expm1(np.minimum(z, 0))), atol=1e-15)
    assert np.allclose(elu_d1(z), np.where(z > 0, 1.0, np.exp(np.minimum(z, 0))))
    # second derivative at the kink is pinned to the negative branch limit
    assert elu_d2(np.array(0.0)) == 1.0
    assert _tape_elu_factors(0.0)[2] == 1.0


def test_elu_factors_match_reference_functions():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((40, 60)) * 3.0
    value, d1, d2 = _tape_elu_factors(z)
    assert np.array_equal(value, elu(z))
    assert np.array_equal(d1, elu_d1(z))
    assert np.array_equal(d2, elu_d2(z))


# -- jet primitives -----------------------------------------------------------


def test_affine_layer_jet():
    # y = 2 t + 3 x: slope jets, no curvature
    t = np.array([0.4])
    x = np.array([[0.7]])
    inp = _input_bundle(t, x, JetSpec())
    out = _dense_fwd(Dense(np.array([[2.0, 3.0]]), np.zeros(1)), inp, "test")
    assert out.val[0, 0] == pytest.approx(2 * 0.4 + 3 * 0.7)
    assert out.dt[0, 0] == 2.0
    assert out.dx[0][0, 0] == 3.0
    assert out.lap[0, 0] == 0.0


def test_single_elu_neuron_second_derivative():
    # preactivation z = w*x + b = -1: curvature along x is w^2 * e^{-1}
    w, b = 1.7, -1.0 - 1.7 * 0.25
    t = np.array([0.0])
    x = np.array([[0.25]])
    inp = _input_bundle(t, x, JetSpec())
    z = _dense_fwd(Dense(np.array([[0.0, w]]), np.array([b])), inp, "test")
    assert z.val[0, 0] == pytest.approx(-1.0)
    _act_fwd(z)  # z becomes the output bundle
    out = z
    assert out.lap[0, 0] == pytest.approx(w * w * np.exp(-1.0), rel=1e-12)


def test_jets_match_finite_differences():
    # module-pinned oracle steps: at most 1e-4 first order, 1e-3 second order,
    # shrunk or made one-sided so no stencil straddles an ELU kink
    config = ArchitectureConfig(spatial_dim=1, n_y=1, n_u=1)
    params = init_params(config, seed=12)
    t0, x0 = 0.43, 0.57
    jets = oracles.jet_eval(params, (t0, [x0]))

    def head_value(name, t, x):
        y, u, lam = forward(params, t, [x])
        return {"y": y, "u": u, "lam": lam}[name][0]

    def pattern_t(v):
        return sign_pattern(params, v, [x0])

    def pattern_x(v):
        return sign_pattern(params, t0, [v])

    def fd(f, pattern, z, h_max, order):
        estimate, stencil = kink_free_derivative(f, pattern, z, h_max, order)
        assert all(np.array_equal(pattern(p), pattern(z)) for p in stencil.points)
        return estimate

    for name in ("y", "u", "lam"):
        jet = jets[name]
        fd_t = fd(lambda v: head_value(name, v, x0), pattern_t, t0, 1e-4, 1)
        fd_x = fd(lambda v: head_value(name, t0, v), pattern_x, x0, 1e-4, 1)
        fd_xx = fd(lambda v: head_value(name, t0, v), pattern_x, x0, 1e-3, 2)
        assert rel_err(jet.d_dt[0], fd_t) < 1e-5
        assert rel_err(jet.d_dx[0, 0], fd_x) < 1e-5
        assert rel_err(jet.d2_dx2[0, 0], fd_xx) < 1e-4


def test_kink_free_stencil_avoids_crossings():
    # a single unit whose sign flips at z = 0.5 + 5e-5
    def pattern(v):
        return np.array([v > 0.5 + 5e-5])

    central = kink_free_stencil(pattern, 0.5, 1e-3, 2)
    assert central.kind == "central"
    assert 2.5e-5 <= central.h < 5e-5
    # centre within h_min of the crossing: one-sided, away from it
    one_sided = kink_free_stencil(pattern, 0.5 + 5e-5 - 1e-6, 1e-3, 2)
    assert one_sided.kind == "backward"
    assert one_sided.h == 1e-3
    # a second-order one-sided stencil is exact on quadratics
    assert one_sided.apply(lambda v: 3.0 * v * v) == pytest.approx(6.0, rel=1e-6)
    # no admissible stencil on either side: report, never fall back silently
    assert kink_free_stencil(lambda v: np.array([v]), 0.5, 1e-3, 2) is None


def test_polynomial_exactness_identity_build():
    # nonnegative weights, biases of 0.1 and nonnegative inputs put every
    # pre-activation on ELU's identity branch (d1 = 1, d2 = 0 exactly), so
    # the whole network is affine: first-order jets equal the assembled
    # weight products, curvature is exactly zero
    config = ArchitectureConfig(spatial_dim=1, n_y=1, n_u=1)
    params = init_params(config, seed=3)
    for _, dense in params.layers():
        dense.w = np.abs(dense.w)
        dense.b = np.full_like(dense.b, 0.1)
    tape = NetworkTape(params, np.array([0.3]), np.array([[0.8]]), JetSpec())

    w_chain = np.eye(2)
    for dense in params.trunk:
        w_chain = dense.w @ w_chain
    w_y = params.y_head.w @ w_chain
    y = head_values(tape, "y")
    assert y.dt[0, 0] == pytest.approx(w_y[0, 0], rel=1e-12)
    assert y.dx[0][0, 0] == pytest.approx(w_y[0, 1], rel=1e-12)
    for name in ("y", "u", "lam"):
        bundle = head_values(tape, name)
        assert np.all(bundle.lap == 0.0)


def test_jet_determinism_bitwise():
    config = ArchitectureConfig(spatial_dim=2, n_y=2, n_u=1)
    params = init_params(config, seed=9)
    a = oracles.jet_eval(params, (0.31, [0.2, 0.9]))
    b = oracles.jet_eval(params, (0.31, [0.2, 0.9]))
    for name in ("y", "u", "lam"):
        assert np.array_equal(a[name].value, b[name].value)
        assert np.array_equal(a[name].d_dt, b[name].d_dt)
        assert np.array_equal(a[name].d_dx, b[name].d_dx)
        assert np.array_equal(a[name].d2_dx2, b[name].d2_dx2)


def test_jet_shapes_and_spatial_dim_zero():
    config = ArchitectureConfig(spatial_dim=0, n_y=1, n_u=1)
    params = init_params(config, seed=1)
    jets = oracles.jet_eval(params, 0.5)
    assert jets["y"].d_dx.shape == (1, 0)
    assert jets["y"].d2_dx2.shape == (1, 0)
    assert jets["lam"].value.shape == (1,)


def test_jet_spec_rejects_higher_orders():
    with pytest.raises(ValueError):
        JetSpec(space_order=3)


def test_nonfinite_activation_reports_layer():
    config = ArchitectureConfig(spatial_dim=0, n_y=1, n_u=1)
    params = init_params(config, seed=0)
    params.trunk[2].w[0, 0] = np.inf
    with pytest.raises(autodiff.EvaluationError) as err:
        oracles.jet_eval(params, 0.5)
    assert err.value.layer == "trunk.2"


# -- Var tape ------------------------------------------------------------------


def test_var_backward_product_rule():
    xv, yv = np.array([1.5, -0.5]), np.array([2.0, 3.0])
    x, y = Var(xv), Var(yv)
    out = (x * y + x).sum()
    out.backward()
    assert np.allclose(x.grad, yv + 1.0)
    assert np.allclose(y.grad, xv)


def test_var_mean_pow_and_constants():
    x = Var(np.array([1.0, 2.0, 3.0]))
    out = ((2.0 * x - 1.0) ** 2).mean()
    out.backward()
    assert float(out.value) == pytest.approx(np.mean((2 * np.array([1.0, 2, 3]) - 1) ** 2))
    assert np.allclose(x.grad, 2 * (2 * np.array([1.0, 2, 3]) - 1) * 2 / 3)


def test_var_numpy_left_operand():
    x = Var(np.array([1.0, 2.0]))
    out = (np.array([3.0, 4.0]) - x).sum()
    out.backward()
    assert np.allclose(x.grad, [-1.0, -1.0])


def test_var_getitem_scatters_each_read_into_the_leaf_gradient():
    # one row read twice, another once, and a column slice: each read's
    # adjoint lands in its own entries of a gradient of the leaf's shape
    value = np.arange(12.0).reshape(3, 4)
    v = Var(value)
    assert np.shares_memory(v[1].value, value)
    out = (v[0] * v[2] + 3.0 * v[0]).sum() + (v[:, 1:3] * v[:, 1:3]).sum()
    out.backward()
    expected = np.zeros((3, 4))
    expected[0] += value[2] + 3.0
    expected[2] += value[0]
    expected[:, 1:3] += 2.0 * value[:, 1:3]
    assert v.grad.shape == value.shape
    assert np.array_equal(v.grad, expected)


# -- parameter gradients -------------------------------------------------------


def test_gradient_of_uninvolved_parameters_is_zero():
    # a loss built from y alone cannot touch the control or adjoint branches
    config = ArchitectureConfig(spatial_dim=1)
    params = init_params(config, seed=8)
    t = np.array([0.1, 0.6, 0.9])
    x = np.array([[0.2], [0.5], [0.8]])

    def evaluator(p):
        tape = NetworkTape(p, t, x, JetSpec())
        y = tape.head("y")
        return (y.val[0] * y.val[0]).mean(), [tape]

    _, grad = loss_gradient(params, evaluator)
    offset = 0
    by_layer = {}
    for label, dense in params.layers():
        size = dense.w.size + dense.b.size
        by_layer[label] = grad[offset : offset + size]
        offset += size
    assert np.all(by_layer["u_head"] == 0.0)
    assert np.all(by_layer["lam_head"] == 0.0)
    assert np.all(by_layer["adjoint.0"] == 0.0)
    assert np.any(by_layer["trunk.0"] != 0.0)


def test_head_leaves_sharing_one_adjoint_array_keep_their_gradient():
    # Var addition hands one adjoint array to both operands; the tape's
    # reverse pass, which works in place, must not let one head's adjoint
    # leak into the other's
    params = init_params(ArchitectureConfig(spatial_dim=1), seed=9)
    t = np.linspace(0.1, 0.9, BLOCK_POINTS + 5)
    x = np.linspace(0.2, 0.8, t.size)[:, None]

    def shared(p):
        tape = NetworkTape(p, t, x, JetSpec())
        return (tape.head("y").val + tape.head("u").val + tape.head("lam").val).sum(), [tape]

    def separate(p):
        tape = NetworkTape(p, t, x, JetSpec())
        return tape.head("y").val.sum() + tape.head("u").val.sum() + tape.head("lam").val.sum(), [tape]

    _, grad_shared = loss_gradient(params, shared)
    _, grad_separate = loss_gradient(params, separate)
    assert np.array_equal(grad_shared, grad_separate)


def test_second_order_composition_gradient_matches_fd():
    # parameter gradient of a (d2y/dx2)^2 penalty: the third-order mixed
    # composition the diffusion residual needs
    config = ArchitectureConfig(spatial_dim=1)
    params = init_params(config, seed=21)
    t = np.array([0.25, 0.75])
    x = np.array([[0.4], [0.6]])

    def evaluator(p):
        tape = NetworkTape(p, t, x, JetSpec())
        d2 = tape.head("y").lap[0]
        return (d2 * d2).mean(), [tape]

    value, grad = loss_gradient(params, evaluator)
    flat = params.to_flat()
    rng = np.random.default_rng(17)
    for _ in range(4):
        direction = rng.standard_normal(flat.size)
        direction /= np.linalg.norm(direction)
        h = 1e-5

        def loss_at(vec):
            p = ControlPinnParams.from_flat(config, vec)
            return loss_gradient(p, evaluator)[0]

        fd = (loss_at(flat + h * direction) - loss_at(flat - h * direction)) / (2 * h)
        assert abs(float(grad @ direction) - fd) <= 1e-4 * max(abs(fd), 1e-8)


# -- the Laplacian slot and column blocks --------------------------------------


def test_elu_factors_bitwise_on_edge_values():
    # the where-free factors of the tape's in-place rule, and the value
    # passes' ELU, against the branchwise definitions, bit for bit (signed
    # zeros included), on random values across many magnitudes plus the
    # edges of the double range
    rng = np.random.default_rng(5)
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 700.0, -745.0, -800.0, 1e308, -1e308]
    z = np.concatenate([rng.standard_normal(10**6) * 10.0 ** rng.uniform(-8, 3, 10**6), edges])
    value, d1, d2 = _tape_elu_factors(z)
    for got, ref in ((value, elu(z)), (d1, elu_d1(z)), (d2, elu_d2(z)), (_act_values(z.copy()), elu(z))):
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


EDGE_PREACTIVATIONS = [0.0, -0.0, 5e-324, -5e-324, -745.0, -800.0, 700.0]


@pytest.mark.parametrize(
    "spatial_dim, time, second",
    [(0, False, False), (0, True, False)] + [(sd, t, s) for sd in (1, 2) for t in (False, True) for s in (False, True)],
)
def test_in_place_elu_rules_match_out_of_place_rules_bitwise(spatial_dim, time, second):
    # the in-place forward rule and the reverse rule that reads the output's
    # partials against the out-of-place pair that kept the pre-activations
    rng = np.random.default_rng(100 + 4 * spatial_dim + 2 * time + second)
    shape = (5, 40)
    edges = len(EDGE_PREACTIVATIONS)

    def component():
        # random entries with signed zeros, both zeros at every edge value
        a = rng.standard_normal(shape)
        pick = rng.uniform(size=shape)
        a[pick < 0.1] = 0.0
        a[pick > 0.9] = -0.0
        a[0, :edges] = 0.0
        a[1, :edges] = -0.0
        return a

    def bundle():
        return Jets(
            component(),
            component() if time else None,
            [component() for _ in range(spatial_dim)],
            component() if second else None,
        )

    def assert_same_bits(got, ref):
        assert (got.dt is None, len(got.dx), got.lap is None) == (ref.dt is None, len(ref.dx), ref.lap is None)
        for a, b in zip(got.comps(), ref.comps()):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    z = bundle()
    z.val *= 3.0
    z.val[:, :edges] = EDGE_PREACTIVATIONS
    ref_out, ref_d1, d2, sq = oracles.act_fwd(z)
    out = z.map(np.copy)
    d1, m, w = _act_fwd(out)
    assert_same_bits(out, ref_out)
    assert np.array_equal(d1.view(np.int64), ref_d1.view(np.int64))

    g = bundle()
    assert_same_bits(_act_bwd(out, d1, m, w, g.map(np.copy)), oracles.act_bwd(z, ref_d1, d2, sq, g.map(np.copy)))


def _batch_2d(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, (n, 2))


def test_laplacian_slot_equals_sum_of_per_axis_second_derivatives():
    params = init_params(ArchitectureConfig(spatial_dim=2, n_y=2, n_u=1), seed=13)
    t, x = _batch_2d(6, 1)
    tape = NetworkTape(params, t, x, JetSpec())
    for k in range(t.size):
        jets = oracles.jet_eval(params, (t[k], x[k]))
        for name in ("y", "u", "lam"):
            lap = head_values(tape, name).lap[:, k]
            per_axis = jets[name].d2_dx2.sum(axis=1)
            assert np.all(np.abs(lap - per_axis) <= 1e-12 * np.abs(per_axis))


def test_laplacian_slot_in_one_dimension_is_the_per_axis_second_derivative():
    # one point per tape, as jet_eval runs it: BLAS may sum a one-column
    # product in another order than a wider one
    params = init_params(ArchitectureConfig(spatial_dim=1), seed=14)
    for t, x in ((0.2, 0.35), (0.7, 0.9)):
        tape = NetworkTape(params, np.array([t]), np.array([[x]]), JetSpec())
        jets = oracles.jet_eval(params, (t, [x]))
        for name in ("y", "u", "lam"):
            assert np.array_equal(head_values(tape, name).lap[:, 0], jets[name].d2_dx2[:, 0])


def test_jet_spec_axes_select_the_carried_partials():
    params = init_params(ArchitectureConfig(spatial_dim=2, n_y=2, n_u=1), seed=15)
    t, x = _batch_2d(5, 2)
    full = head_values(NetworkTape(params, t, x, JetSpec(space_order=1)), "y")
    second = head_values(NetworkTape(params, t, x, JetSpec(space_order=1, axes=(1,))), "y")
    assert len(second.dx) == 1
    assert np.array_equal(second.dx[0], full.dx[1])
    assert np.array_equal(second.val, full.val)
    with pytest.raises(ValueError):
        JetSpec(axes=(0, 0))
    with pytest.raises(ValueError):
        NetworkTape(params, t, x, JetSpec(axes=(2,)))


def _jet_loss(tape):
    # every jet slot of every head enters, so each block record is exercised
    total = None
    for name in ("y", "u", "lam"):
        for term in tape.head(name).comps():
            part = (term * term).sum()
            total = part if total is None else total + part
    return total


def test_column_blocks_match_one_tape_per_block():
    params = init_params(ArchitectureConfig(spatial_dim=2, n_y=2, n_u=1), seed=16)
    n = 3 * BLOCK_POINTS + 7
    t, x = _batch_2d(n, 3)
    whole = NetworkTape(params, t, x, JetSpec())
    _jet_loss(whole).backward()
    grad = whole.parameter_gradient()

    grad_blocks = np.zeros_like(grad)
    for lo in range(0, n, BLOCK_POINTS):
        hi = min(lo + BLOCK_POINTS, n)
        part = NetworkTape(params, t[lo:hi], x[lo:hi], JetSpec())
        _jet_loss(part).backward()
        grad_blocks += part.parameter_gradient()
        for name in ("y", "u", "lam"):
            a, b = head_values(whole, name), head_values(part, name)
            for c_whole, c_part in zip(a.comps(), b.comps()):
                ref = c_part
                assert np.all(np.abs(c_whole[:, lo:hi] - ref) <= 1e-13 * np.abs(ref).max())
    assert np.max(np.abs(grad - grad_blocks)) <= 1e-13 * np.max(np.abs(grad_blocks))


def test_second_order_composition_gradient_matches_fd_in_two_dimensions():
    # parameter gradient of a Laplacian penalty on both prey-problem states
    config = ArchitectureConfig(spatial_dim=2, n_y=2, n_u=1)
    params = init_params(config, seed=22)
    t = np.array([0.25, 0.75])
    x = np.array([[0.4, 0.3], [0.6, 0.8]])

    def evaluator(p):
        tape = NetworkTape(p, t, x, JetSpec())
        lap = tape.head("y").lap
        return (lap[0] * lap[0] + lap[1] * lap[1]).mean(), [tape]

    value, grad = loss_gradient(params, evaluator)
    flat = params.to_flat()
    rng = np.random.default_rng(18)
    for _ in range(4):
        direction = rng.standard_normal(flat.size)
        direction /= np.linalg.norm(direction)
        h = 1e-5

        def loss_at(vec):
            p = ControlPinnParams.from_flat(config, vec)
            return loss_gradient(p, evaluator)[0]

        fd = (loss_at(flat + h * direction) - loss_at(flat - h * direction)) / (2 * h)
        assert abs(float(grad @ direction) - fd) <= 1e-4 * max(abs(fd), 1e-8)
