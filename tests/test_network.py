import os
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ctrlpinn.autodiff import EvaluationError, JetSpec
from ctrlpinn.config import parse_config
from ctrlpinn.loss import loss_and_gradient
from ctrlpinn.network import (
    ADJOINT_LAYERS,
    CONTROL_LAYERS,
    HIDDEN_WIDTH,
    TRUNK_LAYERS,
    ArchitectureConfig,
    ControlPinnParams,
    NetworkTape,
    Workspace,
    forward_values,
    init_params,
    layer_dims,
    load_params,
    save_params,
)
from ctrlpinn.sampler import make_rng, sample

from oracles import forward, whole_batch_loss_and_gradient, workspace_bytes


def test_init_is_deterministic_per_seed():
    config = ArchitectureConfig(spatial_dim=1)
    a = init_params(config, seed=42).to_flat()
    b = init_params(config, seed=42).to_flat()
    c = init_params(config, seed=43).to_flat()
    assert np.array_equal(a, b)
    assert np.any(a != c)


def test_init_glorot_bounds_and_zero_biases():
    config = ArchitectureConfig(spatial_dim=1)
    params = init_params(config, seed=7)
    for _, dense in params.layers():
        n_out, n_in = dense.w.shape
        limit = np.sqrt(6.0 / (n_in + n_out))
        assert np.all(np.abs(dense.w) <= limit)
        assert np.all(dense.b == 0.0)


def test_zero_parameters_give_zero_outputs():
    config = ArchitectureConfig(spatial_dim=1)
    params = ControlPinnParams.from_flat(config, np.zeros(init_params(config, 0).num_params))
    y, u, lam = forward(params, 0.3, [0.5])
    assert np.all(y == 0.0) and np.all(u == 0.0) and np.all(lam == 0.0)


def test_trunk_perturbation_propagates_to_control_and_adjoint():
    config = ArchitectureConfig(spatial_dim=1)
    params = init_params(config, seed=2)
    _, u0, lam0 = forward(params, 0.4, [0.6])
    params.trunk[0].w[3, 1] += 1e-3
    _, u1, lam1 = forward(params, 0.4, [0.6])
    assert abs(u1[0] - u0[0]) > 0.0
    assert abs(lam1[0] - lam0[0]) > 0.0


def test_forward_without_space_accepts_time_alone():
    params = init_params(ArchitectureConfig(spatial_dim=0), seed=1)
    y, u, lam = forward(params, 0.25)
    assert y.shape == (1,) and u.shape == (1,) and lam.shape == (1,)


def test_output_widths_follow_config():
    params = init_params(ArchitectureConfig(spatial_dim=2, n_y=2, n_u=1), seed=1)
    y, u, lam = forward_values(params, [0.1, 0.9], [[0.3, 0.4], [0.6, 0.7]])
    assert y.shape == (2, 2)
    assert u.shape == (1, 2)
    assert lam.shape == (2, 2)


@pytest.mark.parametrize("through", ["y", "u"])
def test_skipping_the_adjoint_branch_keeps_y_and_u(through):
    # the heads up to `through` are bitwise those of the full pass; later ones are None
    params = init_params(ArchitectureConfig(spatial_dim=2, n_y=2, n_u=1), seed=4)
    rng = np.random.default_rng(0)
    t, x = rng.uniform(0, 1, 300), rng.uniform(0, 1, (300, 2))
    full = forward_values(params, t, x)
    part = forward_values(params, t, x, through=through)
    assert full[2].shape == (2, 300)
    kept = ("y", "u", "lam").index(through) + 1
    for head, head_full in zip(part[:kept], full):
        assert np.array_equal(head, head_full)
    assert all(head is None for head in part[kept:])
    with pytest.raises(ValueError):
        forward_values(params, t, x, through="adjoint")


def test_lambda_head_width_equals_state_width():
    for config in (
        ArchitectureConfig(0, 1, 1),
        ArchitectureConfig(1, 1, 1),
        ArchitectureConfig(2, 2, 1),
    ):
        params = init_params(config, seed=0)
        assert params.lam_head.w.shape[0] == config.n_y


def test_architecture_constant_across_benchmarks():
    # the three benchmark configs differ only in input/output widths
    shapes = []
    for config in (
        ArchitectureConfig(0, 1, 1),
        ArchitectureConfig(1, 1, 1),
        ArchitectureConfig(2, 2, 1),
    ):
        dims = layer_dims(config)
        hidden = [(label, n_out) for label, n_out, _ in dims if not label.endswith("head")]
        shapes.append(hidden)
        branch_counts = {
            "trunk": sum(1 for label, _ in hidden if label.startswith("trunk")),
            "control": sum(1 for label, _ in hidden if label.startswith("control")),
            "adjoint": sum(1 for label, _ in hidden if label.startswith("adjoint")),
        }
        assert branch_counts == {"trunk": TRUNK_LAYERS, "control": CONTROL_LAYERS, "adjoint": ADJOINT_LAYERS}
        assert all(n_out == HIDDEN_WIDTH for _, n_out in hidden)
    assert shapes[0] == shapes[1] == shapes[2]


# The wiring written out by hand, not read from the stage table: the flat
# order of the layers, and the (label, n_out, n_in) of each branch's first
# layer and of each head, for the predator-prey widths (t, x1, x2 in; two
# states, one control).
FLAT_ORDER = [
    "trunk.0", "trunk.1", "trunk.2", "trunk.3", "trunk.4", "y_head",
    "control.0", "control.1", "control.2", "u_head",
    "adjoint.0", "adjoint.1", "lam_head",
]
WIRING = [
    ("trunk.0", 100, 3), ("y_head", 2, 100),
    ("control.0", 100, 2 + 100), ("u_head", 1, 100),
    ("adjoint.0", 100, 2 + 1 + 100), ("lam_head", 2, 100),
]


def test_layer_wiring_is_pinned():
    config = ArchitectureConfig(spatial_dim=2, n_y=2, n_u=1)
    dims = layer_dims(config)
    assert [label for label, _, _ in dims] == FLAT_ORDER
    assert [d for d in dims if d[0] in {label for label, _, _ in WIRING}] == WIRING
    params = init_params(config, seed=0)
    layers = [(label, *dense.w.shape) for label, dense in params.layers()]
    assert layers == dims
    assert params.control[0].w.shape == (100, 102) and params.lam_head.b.shape == (2,)


@pytest.mark.parametrize("config, count", [
    (ArchitectureConfig(0, 1, 1), 91_703),  # analytical
    (ArchitectureConfig(1, 1, 1), 91_803),  # heat
    (ArchitectureConfig(2, 2, 1), 92_305),  # predator-prey
], ids=["analytical", "heat", "predator_prey"])
def test_num_params_of_the_benchmark_architectures(config, count):
    params = init_params(config, seed=0)
    assert params.num_params == count == params.to_flat().size


@pytest.mark.parametrize("through", ["y", "u", "lam"])
def test_nonfinite_y_head_is_named_by_every_pass(through):
    # the y head fails before any later branch reads it, in both passes
    params = init_params(ArchitectureConfig(spatial_dim=2, n_y=2, n_u=1), seed=3)
    params.y_head.b[1] = np.inf
    t, x = np.linspace(0.0, 1.0, 7), np.full((7, 2), 0.5)
    with pytest.raises(EvaluationError) as err:
        forward_values(params, t, x, through=through)
    assert err.value.layer == "y_head"
    with pytest.raises(EvaluationError) as err:
        NetworkTape(params, t, x, JetSpec(), through=through)
    assert err.value.layer == "y_head"


def test_flat_round_trip_bitwise():
    config = ArchitectureConfig(spatial_dim=2, n_y=2, n_u=1)
    params = init_params(config, seed=5)
    flat = params.to_flat()
    rebuilt = ControlPinnParams.from_flat(config, flat)
    assert np.array_equal(rebuilt.to_flat(), flat)


def test_checkpoint_round_trip_bitwise(tmp_path):
    config = ArchitectureConfig(spatial_dim=1)
    params = init_params(config, seed=11)
    path = tmp_path / "params.json"
    save_params(path, params, extra={"note": 1})
    loaded, extra = load_params(path)
    assert np.array_equal(loaded.to_flat(), params.to_flat())
    assert loaded.config == config
    assert extra == {"note": 1}


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other/9", "architecture": {}, "params": []}')
    with pytest.raises(ValueError):
        load_params(path)


def test_config_validation():
    with pytest.raises(ValueError):
        ArchitectureConfig(spatial_dim=-1)
    with pytest.raises(ValueError):
        ArchitectureConfig(spatial_dim=1, n_y=0)


def _shipped(config_name):
    config = parse_config(Path(__file__).resolve().parent.parent / "configs" / f"{config_name}.cfg")
    problem = config.make_problem()
    return config, problem, init_params(problem.arch_config(), seed=7)


@pytest.mark.parametrize("config_name, bound_mib", [("predator_prey", 45.0), ("heat", 32.0)])
def test_loss_and_gradient_peak_memory(config_name, bound_mib):
    # one training step of the shipped config's batch; recording each hidden
    # layer's pre-activation bundle next to its output peaked at 136.4 MiB
    # (predator-prey) and 39.7 MiB (heat), and keeping every column block's
    # records until the whole batch's loss had run backward at 82.8 MiB
    # (predator-prey).  The tape's arrays are memory maps that tracemalloc
    # does not see, so the workspace's bytes (every buffer the step mapped,
    # all given back by its end) are added.
    config, problem, params = _shipped(config_name)
    batch = sample(problem.domain, config.sizes, make_rng(11), 1)
    workspace = Workspace()
    tracemalloc.start()
    try:
        loss_and_gradient(params, problem, batch, config.weights, workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak + workspace_bytes(workspace) <= bound_mib * 2**20


def _bits(breakdown, gradient):
    return np.array(list(breakdown.as_dict().values())).view(np.int64), gradient.view(np.int64)


@pytest.mark.parametrize("config_name", ["analytical", "heat", "predator_prey"])
def test_shared_workspace_matches_fresh_workspaces(config_name):
    # three epochs' batches through one workspace equal three calls that each
    # map fresh arrays, bit for bit, and a returned gradient is never
    # overwritten by a later call
    config, problem, params = _shipped(config_name)
    rng = make_rng(3)
    batches = [sample(problem.domain, config.sizes, rng, epoch) for epoch in (1, 2, 3)]
    fresh = [_bits(*loss_and_gradient(params, problem, b, config.weights, Workspace())) for b in batches]
    assert not np.array_equal(fresh[0][1], fresh[1][1])
    workspace = Workspace()
    shared = [loss_and_gradient(params, problem, batches[0], config.weights, workspace)]
    first_gradient = shared[0][1].copy()
    shared += [loss_and_gradient(params, problem, b, config.weights, workspace) for b in batches[1:]]
    for (b_fresh, g_fresh), result in zip(fresh, shared):
        b_shared, g_shared = _bits(*result)
        assert np.array_equal(b_shared, b_fresh)
        assert np.array_equal(g_shared, g_fresh)
    assert np.array_equal(shared[0][1].view(np.int64), first_gradient.view(np.int64))


@pytest.mark.parametrize("config_name", ["analytical", "heat", "predator_prey"])
def test_gradient_into_a_given_vector_matches_a_fresh_one(config_name):
    # a training run passes the same vector every epoch; stale contents
    # must not leak into the sum
    config, problem, params = _shipped(config_name)
    batch = sample(problem.domain, config.sizes, make_rng(4), 1)
    fresh = _bits(*loss_and_gradient(params, problem, batch, config.weights))
    out = np.full(params.num_params, np.nan)
    breakdown, gradient = loss_and_gradient(params, problem, batch, config.weights, Workspace(), out)
    assert gradient is out
    for got, want in zip(_bits(breakdown, gradient), fresh):
        assert np.array_equal(got, want)


def test_reused_workspace_allocates_little():
    # once a workspace has served one predator-prey step, the next step maps
    # no new tape arrays; without a workspace the step traces about 83 MiB
    config, problem, params = _shipped("predator_prey")
    rng = make_rng(5)
    workspace = Workspace()
    loss_and_gradient(params, problem, sample(problem.domain, config.sizes, rng, 1), config.weights, workspace)
    batch = sample(problem.domain, config.sizes, rng, 2)
    tracemalloc.start()
    try:
        loss_and_gradient(params, problem, batch, config.weights, workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_workspace_serves_a_request_from_a_larger_free_buffer():
    workspace = Workspace()
    full = workspace.take((100, 256))
    workspace.give(full)
    mapped = workspace_bytes(workspace)
    tail = workspace.take((100, 232))
    assert np.shares_memory(tail, full) and tail.flags.c_contiguous
    assert workspace_bytes(workspace) == 0  # nothing new was mapped
    workspace.give(tail)  # the whole buffer goes back
    assert workspace_bytes(workspace) == mapped
    mask = workspace.take((100, 256), bool)  # a bool mask reuses float pages
    assert np.shares_memory(mask, full)
    small = workspace.take((2, 8))  # the only free buffer is in use: maps one
    workspace.give(mask, small)
    assert np.shares_memory(workspace.take((4,)), small)  # the smallest that fits
    workspace.clear()
    assert workspace_bytes(workspace) == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_writes_to_a_borrowed_array_stay_in_the_child():
    # buffers are private maps: with shared ones, the child's write showed
    # in the parent, and two forked children reusing an inherited pool
    # overwrote each other's arrays
    workspace = Workspace()
    a = workspace.take((100, 256))
    a.fill(1.0)
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            a.fill(2.0)
            status = 0 if (a == 2.0).all() else 1
        finally:
            os._exit(status)
    _, wait_status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(wait_status) == 0
    assert (a == 1.0).all()


@pytest.mark.parametrize("config_name", ["analytical", "heat", "predator_prey"])
def test_results_do_not_depend_on_which_buffers_serve_the_tape(config_name):
    # a workspace holding stale buffers of assorted sizes, filled with NaN
    # and other garbage, gives the same step bit for bit as a fresh one
    config, problem, params = _shipped(config_name)
    batch = sample(problem.domain, config.sizes, make_rng(13), 1)
    fresh = _bits(*loss_and_gradient(params, problem, batch, config.weights, Workspace()))
    workspace = Workspace()
    stale = [workspace.take(shape) for shape in [(100, 300), (103, 257), (7, 1000), (2, 10), (60_000,)] * 3]
    for i, a in enumerate(stale):
        a.fill([np.nan, np.inf, -1e300][i % 3])
    workspace.give(*stale)
    workspace.give(*[workspace.take((30, 40), bool) for _ in range(4)])
    reused = _bits(*loss_and_gradient(params, problem, batch, config.weights, workspace))
    assert np.array_equal(reused[0], fresh[0]) and np.array_equal(reused[1], fresh[1])


@pytest.mark.parametrize("through", ["y", "u", "lam"])
@pytest.mark.parametrize("config_name", ["analytical", "heat", "predator_prey"])
def test_value_pass_does_not_depend_on_which_buffers_serve_it(config_name, through):
    # the value pass's layers borrowed from a workspace of stale, garbage-
    # filled buffers give the heads of a fresh workspace bit for bit, and
    # the heads returned are not workspace memory that a later pass reuses
    _, problem, params = _shipped(config_name)
    t, x, _ = problem.probe_points()
    fresh = forward_values(params, t, x, through=through, workspace=Workspace())
    workspace = Workspace()
    stale = [workspace.take(shape) for shape in [(100, 300), (103, 257), (7, 1000), (2, 10), (60_000,)] * 3]
    for i, a in enumerate(stale):
        a.fill([np.nan, np.inf, -1e300][i % 3])
    workspace.give(*stale)
    workspace.give(*[workspace.take((30, 40), bool) for _ in range(4)])
    reused = forward_values(params, t, x, through=through, workspace=workspace)
    kept = [head.copy() for head in reused if head is not None]
    forward_values(params, t[::-1], x[::-1], through=through, workspace=workspace)
    for got, ref, before in zip(reused, fresh, kept):
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert np.array_equal(got.view(np.int64), before.view(np.int64))
    assert [head is None for head in reused] == [head is None for head in fresh]


@pytest.mark.parametrize("config_name", ["analytical", "heat", "predator_prey"])
def test_streamed_step_equals_the_whole_batch_graph(config_name):
    # the interior set streamed in column blocks gives the breakdown and the
    # gradient of one graph over the whole batch, bit for bit; heat's shipped
    # config tracks y over the interior, so its data term spans both pieces
    config, problem, params = _shipped(config_name)
    for n in (1, 255, 256, 257, config.sizes.interior):
        batch = sample(problem.domain, replace(config.sizes, interior=n), make_rng(n), 1)
        streamed = _bits(*loss_and_gradient(params, problem, batch, config.weights))
        whole = _bits(*whole_batch_loss_and_gradient(params, problem, batch, config.weights))
        assert np.array_equal(streamed[0], whole[0]), n
        assert np.array_equal(streamed[1], whole[1]), n


def test_step_workspace_does_not_grow_with_the_interior_batch():
    # the tape holds one column block's records at a time: a predator-prey
    # step maps as much at 4000 interior points as at 1000 (when every
    # block's records lived until the whole loss ran backward: 79.6 and
    # 266.0 MiB), and a second step maps nothing new
    config, problem, params = _shipped("predator_prey")
    mapped = []
    for n in (config.sizes.interior, 4000):
        workspace = Workspace()
        rng = make_rng(17)
        for epoch in (1, 2):
            batch = sample(problem.domain, replace(config.sizes, interior=n), rng, epoch)
            loss_and_gradient(params, problem, batch, config.weights, workspace)
            mapped.append(workspace_bytes(workspace))
    assert len(set(mapped)) == 1
    assert mapped[0] <= 30 * 2**20
