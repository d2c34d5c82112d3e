"""Acceptance gate: each numbered check runs at its stated tolerance and
prints one PASS line (run with ``pytest -s tests/test_acceptance.py`` to see
them live).  The long training checks share session fixtures, so the whole
gate costs one analytical run, one short heat run and its continuation to
the long budget, and one predator-prey run.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from ctrlpinn.autodiff import Jets
from ctrlpinn.config import parse_config
from ctrlpinn.loss import loss_and_gradient
from ctrlpinn.network import ControlPinnParams, init_params
from ctrlpinn.problems import HeatProblem, get_problem
from ctrlpinn.sampler import CollocationBatch, SampleSizes, make_rng, sample
from ctrlpinn.trainer import resume, train
from ctrlpinn.validators import ControlField, control_effort, error_table, integrate_ode, solve_heat_dns

import oracles
from oracles import evaluate

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _ok(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


@pytest.fixture(scope="session")
def heat_short_run(tmp_path_factory):
    config = parse_config(CONFIG_DIR / "heat.cfg")
    record = train(config.make_problem(), config, out_dir=tmp_path_factory.mktemp("heat_short"))
    assert record.status == "completed"
    return config, record


@pytest.fixture(scope="session")
def heat_long_run(heat_short_run):
    # The long run continues the short one from its final checkpoint.  The
    # learning rate depends on the epoch only and a resumed run continues
    # bitwise-identically, so this equals the long run from scratch; its wall
    # time counts both parts.
    config_s, record_s = heat_short_run
    config = parse_config(CONFIG_DIR / "heat.cfg")
    config.epochs = config.long_epochs
    remaining = config.long_epochs - config_s.epochs
    record = resume(config.make_problem(), config, record_s.checkpoints[-1], remaining)
    assert record.status == "completed"
    record.wall_time += record_s.wall_time
    return config, record


@pytest.fixture(scope="session")
def predator_prey_run():
    config = parse_config(CONFIG_DIR / "predator_prey.cfg")
    record = train(config.make_problem(), config)
    assert record.status == "completed"
    return config, record


def _heat_dns_table(config, record, resolution=1001):
    problem = config.make_problem()
    t = np.linspace(0.0, 1.0, resolution)
    x = np.linspace(0.0, 1.0, resolution)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    from ctrlpinn.trainer import forward_chunked

    _, u, _ = forward_chunked(record.params, tt.ravel(), xx.reshape(-1, 1))
    field = ControlField(0.0, 1.0, 0.0, 1.0, u[0].reshape(resolution, resolution))
    dns = solve_heat_dns(field, problem.diffusivity, nx=resolution, initial_state=problem.initial_profile)
    table = error_table(dns, problem.y_star, [round(0.1 * k, 1) for k in range(1, 11)])
    return field, dns, table


def test_criterion_1_closed_form_oracle_suite():
    problem = get_problem("analytical")
    rng = np.random.default_rng(2024)
    t = rng.uniform(0.0, 1.0, 1000)
    begin = time.perf_counter()
    y = Jets(val=[oracles.analytical_y(t)], dt=[oracles.analytical_y_dot(t)])
    lam = Jets(val=[oracles.analytical_lam(t)], dt=[oracles.analytical_lam_dot(t)])
    u = [oracles.analytical_u(t)]
    worst = max(
        np.max(np.abs(problem.forward_residual(y, u)[0])),
        np.max(np.abs(problem.adjoint_residual(lam, y, u)[0])),
        np.max(np.abs(problem.optimality_residual([lam.val[0]], [y.val[0]], u)[0])),
        abs(float(oracles.analytical_y(0.0)) - 1.0),
        abs(float(oracles.analytical_lam(1.0))),
    )
    elapsed = time.perf_counter() - begin
    assert worst <= 1e-9
    assert elapsed < 1.0
    _ok(1, f"closed-form residuals, max {worst:.2e} in {elapsed:.2f}s")


def test_criterion_2_autodiff_oracle():
    begin = time.perf_counter()
    for name in ("analytical", "heat", "predator_prey"):
        problem = get_problem(name)
        params = init_params(problem.arch_config(), seed=5)
        sd = problem.domain.spatial_dim

        # jets vs central differences at a fixed interior point
        point_t = 0.43
        point_x = np.full(sd, 0.37)
        jets = oracles.jet_eval(params, (point_t, point_x))
        from oracles import forward

        def value(head, t, x):
            y, u, lam = forward(params, t, x if sd else None)
            return {"y": y, "u": u, "lam": lam}[head]

        # ELU is only C^1, so each difference uses the largest stencil (at
        # most the steps below) whose points all share the centre's
        # activation sign pattern; see oracles.kink_free_stencil.
        def pattern_t(v):
            return oracles.sign_pattern(params, v, point_x)

        def line(i):
            step = np.zeros(sd)
            step[i] = 1.0
            return lambda v: point_x + (v - point_x[i]) * step

        def pattern_x(i):
            at = line(i)
            return lambda v: oracles.sign_pattern(params, point_t, at(v))

        def fd(f, pattern, z, h_max, order):
            estimate, stencil = oracles.kink_free_derivative(f, pattern, z, h_max, order)
            centre = pattern(z)
            assert all(np.array_equal(pattern(p), centre) for p in stencil.points)
            return estimate

        for head in ("y", "u", "lam"):
            jet = jets[head]
            for comp in range(jet.value.size):
                fd_t = fd(lambda v: value(head, v, point_x)[comp], pattern_t, point_t, 1e-4, 1)
                assert oracles.rel_err(jet.d_dt[comp], fd_t) < 1e-4
                for i in range(sd):
                    at = line(i)

                    def along(v):
                        return value(head, point_t, at(v))[comp]

                    fd_x = fd(along, pattern_x(i), point_x[i], 1e-4, 1)
                    fd_xx = fd(along, pattern_x(i), point_x[i], 1e-3, 2)
                    assert oracles.rel_err(jet.d_dx[comp, i], fd_x) < 1e-4
                    assert oracles.rel_err(jet.d2_dx2[comp, i], fd_xx) < 1e-4

        # full-loss parameter gradient vs directional central differences
        batch = sample(problem.domain, SampleSizes(interior=8, initial=4, terminal=4, boundary=4), make_rng(11))
        _, grad = loss_and_gradient(params, problem, batch)
        flat = params.to_flat()
        rng = np.random.default_rng(7)
        for _ in range(10):
            direction = rng.standard_normal(flat.size)
            direction /= np.linalg.norm(direction)
            h = 1e-5

            def loss_at(vec):
                p = ControlPinnParams.from_flat(problem.arch_config(), vec)
                return evaluate(p, problem, batch).total

            fd = (loss_at(flat + h * direction) - loss_at(flat - h * direction)) / (2 * h)
            assert abs(float(grad @ direction) - fd) <= 1e-4 * max(abs(fd), 1e-8)
    elapsed = time.perf_counter() - begin
    assert elapsed < 30.0
    _ok(2, f"jets and gradients vs finite differences in {elapsed:.1f}s")


def test_criterion_3_analytical_training_reproduction(analytical_run_300):
    record = analytical_run_300
    assert record.status == "completed"
    assert record.wall_time <= 300.0
    probe = record.final_probe
    assert probe["err_y"] <= 5e-2
    assert probe["err_u"] <= 5e-2
    assert probe["err_lam"] <= 5e-2
    _ok(
        3,
        f"300-epoch convergence: err_y {probe['err_y']:.3f}, err_u {probe['err_u']:.3f}, "
        f"err_lam {probe['err_lam']:.3f} in {record.wall_time:.0f}s",
    )


def test_criterion_4_heat_reference_pair_diffusivity_fact():
    t = np.linspace(0.0, 1.0, 100)
    x = np.linspace(0.0, 1.0, 100)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    y = Jets(
        val=[oracles.heat_y(tt, xx).ravel()],
        dt=[oracles.heat_y_t(tt, xx).ravel()],
        lap=[oracles.heat_y_xx(tt, xx).ravel()],
    )
    u = [oracles.heat_u(tt, xx).ravel()]
    unit = np.max(np.abs(HeatProblem(diffusivity=1.0).forward_residual(y, u)[0]))
    stated = np.max(np.abs(HeatProblem(diffusivity=0.1).forward_residual(y, u)[0]))
    assert unit <= 1e-8
    assert stated > 0.1
    _ok(4, f"reference pair: residual {unit:.1e} at a=1.0, {stated:.2f} at a=0.1")


def test_criterion_5_dns_validation_pipeline(heat_short_run, heat_long_run):
    config_s, record_s = heat_short_run
    begin = time.perf_counter()
    _, _, table_s = _heat_dns_table(config_s, record_s)
    pipeline_s = time.perf_counter() - begin
    err_short = table_s[-1][1]
    assert err_short <= 0.15
    assert record_s.wall_time + pipeline_s <= 8 * 60.0

    config_l, record_l = heat_long_run
    _, _, table_l = _heat_dns_table(config_l, record_l)
    err_long = table_l[-1][1]
    assert err_long <= 0.05
    tail = [err for t, err in table_l if t >= 0.2 - 1e-9]
    assert all(a >= b for a, b in zip(tail, tail[1:])), tail
    assert record_l.wall_time <= 45 * 60.0
    _ok(
        5,
        f"DNS pipeline: short-mode err(t=1) {err_short:.3f} in {record_s.wall_time:.0f}s, "
        f"long-mode err(t=1) {err_long:.3f} (monotone tail) in {record_l.wall_time:.0f}s",
    )


def test_criterion_6_control_effort_comparison(heat_long_run):
    config, record = heat_long_run
    problem = config.make_problem()
    field, _, _ = _heat_dns_table(config, record, resolution=1001)
    learned = control_effort(field)
    n = 1001
    t = np.linspace(0.0, 1.0, n)
    x = np.linspace(0.0, 1.0, n)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    reference = control_effort(ControlField(0.0, 1.0, 0.0, 1.0, problem.u_star(tt, xx)))
    assert abs(reference - 0.2497) <= 1e-3
    assert learned <= reference * 1.05
    _ok(6, f"control effort: learned {learned:.4f} vs reference {reference:.4f}")


def test_criterion_7_predator_prey_desk_scale(predator_prey_run):
    config, record = predator_prey_run
    assert record.wall_time <= 60 * 60.0
    curve = record.final_probe["error_by_time"]
    final_t, final_err = curve[-1]
    assert final_t == pytest.approx(1.0)
    assert final_err <= 0.2
    tail = [err for t, err in curve if t >= 0.5 - 1e-9]
    assert final_err == min(tail)
    _ok(7, f"prey tracking: err(t=1) {final_err:.3f}, min over late times, in {record.wall_time:.0f}s")


def test_criterion_8_classical_solver_orders():
    # DNS: halving dx (dt tied to dx^2) divides the error by ~4
    def dns_err(nx):
        dns = solve_heat_dns(
            ControlField(0.0, 0.1, 0.0, 1.0, np.zeros((2, 2))),
            diffusivity=1.0,
            nx=nx,
            initial_state=lambda x: np.sin(np.pi * x),
            store_times=[0.1],
        )
        exact = np.exp(-np.pi**2 * 0.1) * np.sin(np.pi * dns.x)
        return np.max(np.abs(dns.state_at(0.1) - exact))

    dns_ratio = dns_err(51) / dns_err(101)
    assert 3.0 <= dns_ratio <= 5.0

    # RK4: halving dt divides the error by ~16
    exact = np.exp(0.5)

    def rk_err(steps):
        _, states = integrate_ode(lambda t, y, u: 0.5 * y, [1.0], lambda t: 0.0, (0.0, 1.0), steps=steps)
        return abs(states[-1, 0] - exact)

    rk_ratio = rk_err(8) / rk_err(16)
    assert 12.0 <= rk_ratio <= 20.0
    _ok(8, f"solver orders: DNS ratio {dns_ratio:.2f}, RK4 ratio {rk_ratio:.1f}")


def test_criterion_9_bitwise_reproducibility(tmp_path):
    config = parse_config(CONFIG_DIR / "analytical.cfg")
    config.epochs = 50
    problem = config.make_problem()
    for name in ("one", "two"):
        train(problem, config, out_dir=tmp_path / name)
    a = (tmp_path / "one" / "metrics.csv").read_bytes()
    b = (tmp_path / "two" / "metrics.csv").read_bytes()
    assert a == b
    _ok(9, f"two identical runs produced identical metrics.csv ({len(a)} bytes)")
