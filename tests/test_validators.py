import numpy as np
import pytest

from ctrlpinn.problems import get_problem
from ctrlpinn.validators import (
    ControlField,
    DnsSolution,
    StabilityError,
    control_effort,
    cost_functional,
    error_table,
    integrate_ode,
    relative_error,
    solve_heat_dns,
)

import oracles


def _zero_control(t):
    return 0.0


# -- RK4 ---------------------------------------------------------------------------


def test_rk4_exponential_growth():
    _, states = integrate_ode(lambda t, y, u: 0.5 * y + u, [1.0], _zero_control, (0.0, 1.0), steps=1000)
    assert states[-1, 0] == pytest.approx(np.exp(0.5), abs=1e-8)


def test_rk4_with_reference_control_reaches_reference_state():
    problem = get_problem("analytical")
    _, states = integrate_ode(
        problem.ode_rhs, [1.0], lambda t: problem.u_star(t), (0.0, 1.0), steps=1000
    )
    assert states[-1, 0] == pytest.approx(problem.y_star(1.0), abs=1e-6)


def test_rk4_fourth_order_convergence():
    exact = np.exp(0.5)

    def err(steps):
        _, states = integrate_ode(lambda t, y, u: 0.5 * y, [1.0], _zero_control, (0.0, 1.0), steps=steps)
        return abs(states[-1, 0] - exact)

    ratio = err(8) / err(16)
    assert 12.0 <= ratio <= 20.0


def test_rk4_aborts_on_blowup():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError):
            integrate_ode(lambda t, y, u: y * y, [3.0], _zero_control, (0.0, 5.0), steps=40)


# -- DNS ---------------------------------------------------------------------------


def _uniform_field(value, nt=3, nx=3):
    return ControlField(0.0, 1.0, 0.0, 1.0, np.full((nt, nx), float(value)))


def test_dns_decaying_sine_mode_matches_heat_kernel():
    # u = 0, y0 = sin(pi x), unit diffusivity: y = exp(-pi^2 t) sin(pi x)
    field = _uniform_field(0.0)
    dns = solve_heat_dns(
        ControlField(0.0, 0.1, 0.0, 1.0, np.zeros((2, 2))),
        diffusivity=1.0,
        nx=1001,
        initial_state=lambda x: np.sin(np.pi * x),
        store_times=[0.0, 0.05, 0.1],
    )
    exact = np.exp(-np.pi**2 * 0.1) * np.sin(np.pi * dns.x)
    assert np.max(np.abs(dns.state_at(0.1) - exact)) < 1e-3


def test_dns_zero_everything_stays_zero():
    dns = solve_heat_dns(_uniform_field(0.0), 0.5, nx=51, initial_state=lambda x: np.zeros_like(x))
    assert np.all(dns.y == 0.0)


def test_dns_reference_pair_consistency_at_unit_diffusivity():
    # feeding u* into the solver at a = 1.0 reproduces y* within
    # discretization error
    problem = get_problem("heat")
    n = 201
    t = np.linspace(0, 1, n)
    x = np.linspace(0, 1, n)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    field = ControlField(0, 1, 0, 1, problem.u_star(tt, xx))
    dns = solve_heat_dns(field, 1.0, nx=n, initial_state=lambda xs: problem.y_star(0.0, xs))
    assert relative_error(dns.state_at(1.0), problem.y_star(1.0, dns.x)) < 1e-2


def test_dns_boundary_rows_exactly_zero():
    problem = get_problem("heat")
    dns = solve_heat_dns(_uniform_field(1.0), 0.1, nx=101, initial_state=problem.initial_profile)
    assert np.all(dns.y[:, 0] == 0.0)
    assert np.all(dns.y[:, -1] == 0.0)


def test_dns_refuses_unstable_step_with_compliant_dt():
    field = _uniform_field(0.0)
    with pytest.raises(StabilityError) as err:
        solve_heat_dns(field, diffusivity=1.0, nx=101, dt=1e-3)
    max_dt = err.value.max_stable_dt
    assert max_dt == pytest.approx((1.0 / 100) ** 2 / 2.0, rel=1e-12)
    assert repr(max_dt) in str(err.value)
    solve_heat_dns(field, diffusivity=1.0, nx=101, dt=max_dt, initial_state=lambda x: np.zeros_like(x))


# (nx, diffusivity, dt as a fraction of the stable step or None for the
# default, control rows, time span of the field, off-grid store times or None
# for the default 101)
_FTCS_CASES = [
    (51, 0.1, None, 1, (0.0, 1.0), None),
    (51, 0.3, 0.7, 2, (0.0, 1.0), [0.0, 0.0123, 0.31416, 0.5, 0.777, 1.0]),
    (51, 1.0, None, 7, (0.0, 1.0), None),
    (51, 0.1, 0.7, "nx", (0.1, 0.6), [0.1, 0.1234, 0.4321, 0.6]),
    (101, 0.3, None, "nx", (0.0, 1.0), None),
    (101, 1.0, 0.7, 1, (0.0, 1.0), [0.0, 0.0123, 0.31416, 0.5, 0.777, 1.0]),
    (101, 0.1, None, 7, (0.0, 1.0), [0.0, 0.0123, 0.31416, 0.5, 0.777, 1.0]),
    (201, 1.0, None, "nx", (0.0, 1.0), None),
    (201, 0.1, 0.7, 2, (0.0, 1.0), None),
    (201, 0.3, None, 7, (0.0, 1.0), [0.0, 0.0123, 0.31416, 0.5, 0.777, 1.0]),
]


@pytest.mark.parametrize("nx, diffusivity, dt_fraction, rows, span, store_times", _FTCS_CASES)
def test_dns_matches_step_by_step_ftcs(nx, diffusivity, dt_fraction, rows, span, store_times):
    rows = nx if rows == "nx" else rows
    rng = np.random.default_rng(nx + rows)
    field = ControlField(span[0], span[1], 0.0, 1.0, rng.uniform(-1.0, 1.0, (rows, 13)))
    dt = None if dt_fraction is None else dt_fraction * (1.0 / (nx - 1)) ** 2 / (2.0 * diffusivity)
    fast = solve_heat_dns(field, diffusivity, nx=nx, dt=dt, store_times=store_times)
    slow = oracles.ftcs_step_by_step(field, diffusivity, nx=nx, dt=dt, store_times=store_times)
    assert (fast.dt, fast.dx) == (slow.dt, slow.dx)
    assert np.array_equal(fast.times, slow.times)
    assert np.array_equal(fast.x, slow.x)
    assert fast.y.shape == slow.y.shape
    assert np.max(np.abs(fast.y - slow.y)) <= 1e-12 * max(1.0, np.max(np.abs(slow.y)))


@pytest.mark.parametrize("diffusivity", [0.0, -1.0, float("nan"), float("inf")])
def test_dns_refuses_nonphysical_diffusivity(diffusivity):
    with pytest.raises(ValueError, match="diffusivity"):
        solve_heat_dns(_uniform_field(0.0), diffusivity, nx=51)


def test_dns_spatial_convergence_order():
    # halving dx (dt tied to dx^2) divides the error by ~4
    def err(nx):
        dns = solve_heat_dns(
            ControlField(0.0, 0.1, 0.0, 1.0, np.zeros((2, 2))),
            diffusivity=1.0,
            nx=nx,
            initial_state=lambda x: np.sin(np.pi * x),
            store_times=[0.1],
        )
        exact = np.exp(-np.pi**2 * 0.1) * np.sin(np.pi * dns.x)
        return np.max(np.abs(dns.state_at(0.1) - exact))

    ratio = err(51) / err(101)
    assert 3.0 <= ratio <= 5.0


# -- metrics ------------------------------------------------------------------------


def test_relative_error_identities():
    y = np.sin(np.linspace(0, np.pi, 64))
    assert relative_error(y, y) == 0.0
    assert relative_error(2.0 * y, y) == pytest.approx(1.0, rel=1e-12)
    assert relative_error(1.5 * y, y) == pytest.approx(0.5, rel=1e-12)


def test_error_table_against_reference():
    x = np.linspace(0, 1, 11)
    sol = DnsSolution(times=np.array([0.0, 0.5, 1.0]), x=x,
                      y=np.vstack([np.zeros(11), np.sin(np.pi * x), 2 * np.sin(np.pi * x)]),
                      dt=0.5, dx=0.1)
    rows = error_table(sol, lambda t, xs: np.sin(np.pi * xs), [0.5, 1.0])
    assert rows[0] == (0.5, pytest.approx(0.0))
    assert rows[1] == (1.0, pytest.approx(1.0))


def test_control_effort_constant_field():
    assert control_effort(_uniform_field(1.0, nt=11, nx=11)) == pytest.approx(1.0, rel=1e-12)


def test_control_effort_of_reference_control():
    # quadrature of sin^2(pi x) sin^2(pi t / 2) over the unit square is 1/4;
    # the published comparison value 0.2497 sits within 1e-3 of it
    problem = get_problem("heat")
    n = 1001
    t = np.linspace(0, 1, n)
    x = np.linspace(0, 1, n)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    effort = control_effort(ControlField(0, 1, 0, 1, problem.u_star(tt, xx)))
    assert effort == pytest.approx(0.25, abs=2e-6)
    assert abs(effort - 0.2497) < 1e-3


def test_control_effort_grid_refinement_converges():
    problem = get_problem("heat")

    def effort(n):
        t = np.linspace(0, 1, n)
        x = np.linspace(0, 1, n)
        tt, xx = np.meshgrid(t, x, indexing="ij")
        return control_effort(ControlField(0, 1, 0, 1, problem.u_star(tt, xx)))

    assert abs(effort(501) - effort(1001)) < 1e-4


def test_cost_functional_uncontrolled_scalar_problem():
    # u = 0 makes y = e^{t/2} and the objective integrates e^t over [0, 1]
    problem = get_problem("analytical")
    t = np.linspace(0, 1, 2001)
    y = np.exp(0.5 * t)[:, None]
    u = np.zeros_like(y)
    value = cost_functional(problem, ControlField(0, 1, 0, 1, y), ControlField(0, 1, 0, 1, u))
    assert value == pytest.approx(np.e - 1.0, abs=1e-6)


def test_cost_functional_heat_reference_pair_is_effort_dominated():
    problem = get_problem("heat")
    n = 401
    t = np.linspace(0, 1, n)
    x = np.linspace(0, 1, n)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    y_field = ControlField(0, 1, 0, 1, problem.y_star(tt, xx))
    u_field = ControlField(0, 1, 0, 1, problem.u_star(tt, xx))
    value = cost_functional(problem, y_field, u_field)
    # tracking terms vanish on the reference pair, leaving the control energy
    assert value == pytest.approx(0.25, abs=1e-3)


def test_field_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    field = ControlField(0.0, 1.0, 0.0, 1.0, rng.standard_normal((5, 7)))
    path = tmp_path / "field.csv"
    field.to_csv(path)
    back = ControlField.from_csv(path)
    assert np.array_equal(back.values, field.values)
    assert (back.t0, back.tf, back.x0, back.x1) == (0.0, 1.0, 0.0, 1.0)


def test_field_bilinear_interpolation():
    field = ControlField(0.0, 1.0, 0.0, 1.0, np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert field.at(0.0, 0.0) == 0.0
    assert field.at(0.0, 1.0) == 1.0
    assert field.at(1.0, 0.0) == 2.0
    assert field.at(0.5, 0.5) == pytest.approx(1.5)
    assert field.at(np.array([0.0]), np.array([0.5]))[0] == pytest.approx(0.5)


def test_field_rejects_nonfinite_values():
    with pytest.raises(ValueError):
        ControlField(0, 1, 0, 1, np.array([[np.nan, 0.0]]))
