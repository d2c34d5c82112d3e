import numpy as np
import pytest

from ctrlpinn.autodiff import HeadJets
from ctrlpinn.problems import (
    AnalyticalProblem,
    Domain,
    HeatProblem,
    PredatorPreyProblem,
    get_problem,
)
from ctrlpinn.sampler import CollocationBatch

import oracles


def _jet(values, d_dt=None, d_dx=None, laplacian=None):
    """HeadJets over plain arrays (closed-form stand-in for the network)."""
    return HeadJets(value=list(values), d_dt=list(d_dt) if d_dt is not None else None,
                    d_dx=d_dx, laplacian=laplacian)


# -- analytical problem --------------------------------------------------------


def test_analytical_reference_values_frozen():
    p = AnalyticalProblem()
    assert p.y_star(0.0) == pytest.approx(1.0, abs=1e-14)
    # frozen from the symbolic oracle (30-digit evaluation of the closed forms)
    assert p.y_star(1.0) == pytest.approx(0.608772485712049, abs=1e-12)
    assert p.u_star(0.0) == pytest.approx(-1.728328995538226, abs=1e-12)
    assert p.lam_star(0.0) == pytest.approx(1.728328995538226, abs=1e-12)
    # lam(tf) = 0 and u = -lam force u*(tf) = 0
    assert p.u_star(1.0) == pytest.approx(0.0, abs=1e-14)


def test_analytical_closed_forms_zero_all_residuals():
    p = AnalyticalProblem()
    rng = np.random.default_rng(123)
    t = rng.uniform(0.0, 1.0, 1000)
    y = _jet([oracles.analytical_y(t)], [oracles.analytical_y_dot(t)])
    lam = _jet([oracles.analytical_lam(t)], [oracles.analytical_lam_dot(t)])
    u = [oracles.analytical_u(t)]
    assert np.max(np.abs(p.forward_residual(y, u)[0])) <= 1e-9
    assert np.max(np.abs(p.adjoint_residual(lam, y, u)[0])) <= 1e-10
    assert np.max(np.abs(p.optimality_residual([lam.value[0]], [y.value[0]], u)[0])) <= 1e-12
    # boundary-value checks of the optimality system
    assert abs(p.y_star(0.0) - 1.0) <= 1e-12
    assert abs(p.lam_star(1.0)) <= 1e-12


def test_analytical_forward_residual_example():
    p = AnalyticalProblem()
    u0 = p.u_star(0.0)
    supplied = 0.3
    y = _jet([np.array([1.0])], [np.array([supplied])])
    r = p.forward_residual(y, [np.array([u0])])[0]
    assert r[0] == pytest.approx(supplied - (0.5 + u0))
    y_exact = _jet([np.array([1.0])], [np.array([oracles.analytical_y_dot(0.0)])])
    assert abs(p.forward_residual(y_exact, [np.array([u0])])[0][0]) <= 1e-12


def test_analytical_optimality_holds_for_any_lambda():
    p = AnalyticalProblem()
    lam = np.linspace(-3.0, 3.0, 11)
    r = p.optimality_residual([lam], [np.zeros_like(lam)], [-lam])[0]
    assert np.all(r == 0.0)


def test_analytical_adjoint_sign_convention_lock():
    # residual must be exactly lam_t + lam * df/dy + dg/dy with df/dy = 1/2,
    # dg/dy = 2y
    p = AnalyticalProblem()
    rng = np.random.default_rng(5)
    y_val, lam_val, lam_dot = rng.standard_normal((3, 50))
    y = _jet([y_val])
    lam = _jet([lam_val], [lam_dot])
    expected = lam_dot + 0.5 * lam_val + 2.0 * y_val
    assert np.array_equal(p.adjoint_residual(lam, y, [np.zeros(50)])[0], expected)


# -- heat problem ----------------------------------------------------------------


def test_heat_reference_pair_requires_unit_diffusivity():
    # the bundled (y*, u*) pair satisfies the dynamics only for a = 1.0; at
    # the stated 0.1 it does not -- both facts pinned
    t = np.linspace(0.0, 1.0, 100)
    x = np.linspace(0.0, 1.0, 100)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    y = _jet([oracles.heat_y(tt, xx).ravel()], [oracles.heat_y_t(tt, xx).ravel()],
             laplacian=[oracles.heat_y_xx(tt, xx).ravel()])
    u = [oracles.heat_u(tt, xx).ravel()]
    r_unit = HeatProblem(diffusivity=1.0).forward_residual(y, u)[0]
    assert np.max(np.abs(r_unit)) <= 1e-8
    r_stated = HeatProblem(diffusivity=0.1).forward_residual(y, u)[0]
    assert np.max(np.abs(r_stated)) > 0.1


def test_heat_reference_control_value():
    p = HeatProblem()
    assert p.u_star(1.0, 0.5) == pytest.approx(1.0, abs=1e-14)


def test_heat_forward_residual_zero_state():
    p = HeatProblem()
    n = 7
    zeros = np.zeros(n)
    y = _jet([zeros], [zeros], laplacian=[zeros])
    assert np.all(p.forward_residual(y, [zeros])[0] == 0.0)


def test_heat_adjoint_residual_zero_for_zero_adjoint():
    # interior running cost is independent of y, so lam = 0 solves the
    # adjoint equation identically
    p = HeatProblem()
    n = 9
    zeros = np.zeros(n)
    lam = _jet([zeros], [zeros], laplacian=[zeros])
    y = _jet([np.random.default_rng(0).standard_normal(n)])
    assert np.all(p.adjoint_residual(lam, y, [zeros])[0] == 0.0)


def test_heat_optimality_linear_solve():
    p = HeatProblem()
    r = p.optimality_residual([np.array([1.0])], [np.array([0.0])], [np.array([-0.5])])[0]
    assert r[0] == 0.0


def test_heat_initial_profile_and_target_conflict():
    # the initial tracking target is exactly zero while the hard initial
    # profile is not: the objective keeps both defects alive
    p = HeatProblem()
    x = np.linspace(0.0, 1.0, 31)
    assert np.max(np.abs(p.y_star(0.0, x))) <= 1e-15
    assert np.max(np.abs(p.initial_profile(x))) > 0.5


@pytest.mark.parametrize("diffusivity", [0.0, -1.0, float("nan"), float("inf")])
def test_heat_refuses_nonphysical_diffusivity(diffusivity):
    with pytest.raises(ValueError, match="diffusivity"):
        HeatProblem(diffusivity=diffusivity)


# -- predator-prey problem -------------------------------------------------------


def test_prey_target_vanishes_on_boundary():
    p = PredatorPreyProblem()
    t = np.linspace(0.0, 1.0, 7)
    s = np.linspace(0.0, 1.0, 13)
    for tv in t:
        assert np.max(np.abs(p.y2_target(tv, np.zeros_like(s), s))) <= 1e-15
        assert np.max(np.abs(p.y2_target(tv, np.ones_like(s), s))) <= 1e-13
        assert np.max(np.abs(p.y2_target(tv, s, np.zeros_like(s)))) <= 1e-15
        assert np.max(np.abs(p.y2_target(tv, s, np.ones_like(s)))) <= 1e-13


def test_prey_adjoint_zero_when_tracking_satisfied():
    p = PredatorPreyProblem()
    n = 25
    rng = np.random.default_rng(3)
    t = rng.uniform(0, 1, n)
    x = rng.uniform(0, 1, (n, 2))
    zeros = np.zeros(n)
    lam = _jet([zeros, zeros], [zeros, zeros], laplacian=[zeros, zeros])
    target = p.y2_target(t, x[:, 0], x[:, 1])
    y = _jet([p.y1_initial(x[:, 0], x[:, 1]), target])
    r1, r2 = p.adjoint_residual(lam, y, [zeros], t=t, x=x)
    assert np.all(r1 == 0.0)
    assert np.max(np.abs(r2)) <= 1e-15


def test_prey_optimality_targets_controlled_component():
    p = PredatorPreyProblem()
    lam2 = np.array([0.4, -2.0])
    r = p.optimality_residual([np.zeros(2), lam2], None, [-0.5 * lam2])[0]
    assert np.all(r == 0.0)


def test_prey_initial_state_is_shared_profile():
    p = PredatorPreyProblem()
    x = np.random.default_rng(0).uniform(0, 1, (10, 2))
    y1, y2 = p.initial_state(x)
    expected = np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    assert np.array_equal(y1, expected)
    assert np.array_equal(y2, expected)


# -- conditions -------------------------------------------------------------------


def _heat_batch_and_outputs(y_init, y_term, lam_term, y_bdry, lam_bdry, x_init):
    n_i, n_t, n_b = x_init.shape[0], y_term.shape[1], y_bdry.shape[1]
    batch = CollocationBatch(
        interior=(np.array([0.5]), np.array([[0.5]])),
        initial=(np.zeros(n_i), x_init),
        terminal=(np.ones(n_t), np.full((n_t, 1), 0.3)),
        boundary=(np.full(n_b, 0.7), np.array([[0.0]] * n_b)),
        epoch=0,
    )
    outputs = {
        "initial": ([y_init[0]], [], []),
        "terminal": ([y_term[0]], [], [lam_term[0]]),
        "boundary": ([y_bdry[0]], [], [lam_bdry[0]]),
    }
    return batch, outputs


def test_heat_condition_residual_examples():
    p = HeatProblem()
    x_init = np.array([[0.5]])
    # y0(0.5) = sin(pi/2) sin(pi) = 0, so a zero network output has zero defect
    y_init = np.zeros((1, 1))
    y_term = np.array([[0.2]])
    lam_term = 2.0 * (y_term - p.y_star(1.0, np.array([0.3])))  # exactly w_y
    y_bdry = np.array([[0.125, -0.5]])
    lam_bdry = np.zeros((1, 2))
    batch, outputs = _heat_batch_and_outputs(y_init, y_term, lam_term, y_bdry, lam_bdry, x_init)
    res = p.condition_residuals(batch, outputs)
    assert res["initial"][0][0] == pytest.approx(0.0, abs=1e-15)
    assert np.all(res["terminal_adjoint"][0] == 0.0)
    assert np.array_equal(res["boundary_state"][0], y_bdry[0])
    assert np.all(res["boundary_adjoint"][0] == 0.0)
    # data defects track y*(t0) = 0 and y*(tf)
    assert res["data_tracking"][0][0] == pytest.approx(0.0, abs=1e-15)
    assert res["data_tracking"][1][0] == pytest.approx(float(y_term[0, 0] - p.y_star(1.0, 0.3)))


def test_condition_points_off_manifold_rejected():
    p = HeatProblem()
    batch = CollocationBatch(
        interior=(np.array([0.5]), np.array([[0.5]])),
        initial=(np.array([1e-6]), np.array([[0.5]])),  # t != t0
        terminal=(np.array([1.0]), np.array([[0.5]])),
        boundary=(np.array([0.5]), np.array([[0.0]])),
        epoch=0,
    )
    outputs = {
        "initial": ([np.zeros(1)], [], []),
        "terminal": ([np.zeros(1)], [], [np.zeros(1)]),
        "boundary": ([np.zeros(1)], [], [np.zeros(1)]),
    }
    with pytest.raises(ValueError):
        p.condition_residuals(batch, outputs)
    batch_bad_boundary = CollocationBatch(
        interior=batch.interior,
        initial=(np.array([0.0]), np.array([[0.5]])),
        terminal=batch.terminal,
        boundary=(np.array([0.5]), np.array([[0.25]])),  # interior point
        epoch=0,
    )
    with pytest.raises(ValueError):
        p.condition_residuals(batch_bad_boundary, outputs)


def test_terminal_adjoint_condition_zero_when_matched():
    # any problem: lam(tf) = w_y(y(tf)) gives a zero defect; here w = 0
    p = AnalyticalProblem()
    batch = CollocationBatch(
        interior=(np.array([0.5]), np.zeros((1, 0))),
        initial=(np.array([0.0]), np.zeros((1, 0))),
        terminal=(np.array([1.0]), np.zeros((1, 0))),
        boundary=(np.zeros(0), np.zeros((0, 0))),
        epoch=0,
    )
    outputs = {
        "initial": ([np.array([1.0])], [], []),
        "terminal": ([np.array([0.6])], [], [np.array([0.0])]),
        "boundary": ([], [], []),
    }
    res = p.condition_residuals(batch, outputs)
    assert np.all(res["terminal_adjoint"][0] == 0.0)
    assert np.all(res["initial"][0] == 0.0)
    assert res["boundary_state"] == [] and res["boundary_adjoint"] == []


# -- misc -------------------------------------------------------------------------


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(1.0, 0.0)
    with pytest.raises(ValueError):
        Domain(0.0, 1.0, ((1.0, 1.0),))


def test_get_problem_rejects_unknown_id():
    with pytest.raises(ValueError):
        get_problem("burgers")


def test_benchmark_architectures():
    assert get_problem("analytical").arch_config().spatial_dim == 0
    assert get_problem("heat").arch_config().spatial_dim == 1
    pp = get_problem("predator_prey").arch_config()
    assert (pp.spatial_dim, pp.n_y, pp.n_u) == (2, 2, 1)
