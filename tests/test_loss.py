import numpy as np
import pytest

from ctrlpinn import loss as L
from ctrlpinn.autodiff import Jets
from ctrlpinn.loss import LossWeights, assemble, loss_and_gradient
from ctrlpinn.network import ControlPinnParams, init_params
from ctrlpinn.problems import get_problem
from ctrlpinn.sampler import SampleSizes, make_rng, sample

import oracles
from oracles import evaluate


def _batch(problem, sizes=SampleSizes(), seed=0, epoch=0):
    return sample(problem.domain, sizes, make_rng(seed), epoch)


def _closed_form_provider(t, x, spec):
    """Stand-in network returning the scalar problem's optimal triple."""
    y = [oracles.analytical_y(t)]
    u = [oracles.analytical_u(t)]
    lam = [oracles.analytical_lam(t)]
    dt = spec.time
    return {
        "y": Jets(np.array(y), np.array([oracles.analytical_y_dot(t)]) if dt else None),
        "u": Jets(np.array(u), np.array([oracles.analytical_u_dot(t)]) if dt else None),
        "lam": Jets(np.array(lam), np.array([oracles.analytical_lam_dot(t)]) if dt else None),
    }


def test_closed_form_oracle_zeroes_every_term():
    problem = get_problem("analytical")
    batch = _batch(problem, seed=42)
    terms = assemble(problem, batch, LossWeights(), _closed_form_provider)
    for name in ("forward", "adjoint", "optimality", "initial", "terminal_adjoint", "data"):
        assert terms[name] is not None
        assert float(terms[name]) <= 1e-9, name
    assert terms["boundary"] is None  # no spatial boundary for the scalar ODE


def test_all_weights_zero_gives_zero_total():
    problem = get_problem("analytical")
    params = init_params(problem.arch_config(), seed=1)
    weights = LossWeights(data=0, forward=0, adjoint=0, optimality=0, initial=0, terminal_adjoint=0, boundary=0)
    breakdown = evaluate(params, problem, _batch(problem), weights)
    assert breakdown.total == 0.0


def test_doubling_a_weight_doubles_exactly_that_term():
    problem = get_problem("heat")
    params = init_params(problem.arch_config(), seed=2)
    batch = _batch(problem)
    base = evaluate(params, problem, batch, LossWeights())
    doubled = evaluate(params, problem, batch, LossWeights(forward=0.2))
    assert doubled.forward == 2.0 * base.forward
    for name in ("data", "adjoint", "optimality", "initial", "terminal_adjoint", "boundary"):
        assert getattr(doubled, name) == getattr(base, name)


def test_breakdown_adds_up_bitwise():
    problem = get_problem("predator_prey")
    params = init_params(problem.arch_config(), seed=3)
    breakdown = evaluate(params, problem, _batch(problem, SampleSizes(interior=64, initial=16, terminal=16, boundary=16)))
    total = 0.0
    for name in L.TERM_ORDER:
        total = total + getattr(breakdown, name)
    assert total == breakdown.total


def test_terms_are_batch_size_invariant_in_expectation():
    # means, not sums: growing the interior batch must not scale the term
    problem = get_problem("heat")
    params = init_params(problem.arch_config(), seed=4)
    small = evaluate(params, problem, _batch(problem, SampleSizes(interior=1000), seed=5))
    large = evaluate(params, problem, _batch(problem, SampleSizes(interior=2000), seed=6))
    # Monte-Carlo fluctuation bound: 3 sigma of the small-batch estimator
    rng = make_rng(7)
    samples = []
    for epoch in range(12):
        b = sample(problem.domain, SampleSizes(interior=1000), rng, epoch)
        samples.append(evaluate(params, problem, b).forward)
    sigma = np.std(samples)
    assert abs(large.forward - small.forward) < 3.0 * sigma + 1e-12


def test_gradient_nontrivial_at_init():
    problem = get_problem("heat")
    params = init_params(problem.arch_config(), seed=8)
    _, grad = loss_and_gradient(params, problem, _batch(problem, SampleSizes(interior=128, initial=32, terminal=32, boundary=32)))
    assert np.linalg.norm(grad) > 0.0


@pytest.mark.parametrize("name", ["analytical", "heat", "predator_prey"])
def test_gradient_matches_directional_fd(name):
    problem = get_problem(name)
    params = init_params(problem.arch_config(), seed=5)
    batch = _batch(problem, SampleSizes(interior=8, initial=4, terminal=4, boundary=4), seed=11)
    _, grad = loss_and_gradient(params, problem, batch)
    flat = params.to_flat()
    rng = np.random.default_rng(2)
    direction = rng.standard_normal(flat.size)
    direction /= np.linalg.norm(direction)
    h = 1e-5

    def loss_at(vec):
        p = ControlPinnParams.from_flat(problem.arch_config(), vec)
        return evaluate(p, problem, batch).total

    fd = (loss_at(flat + h * direction) - loss_at(flat - h * direction)) / (2 * h)
    assert abs(float(grad @ direction) - fd) <= 1e-4 * max(abs(fd), 1e-8)


def test_interior_tracking_knob_adds_heat_data_defect():
    plain = get_problem("heat")
    tracking = get_problem("heat", interior_tracking=True)
    params = init_params(plain.arch_config(), seed=9)
    batch = _batch(plain, SampleSizes(interior=64, initial=16, terminal=16, boundary=16))
    base = evaluate(params, plain, batch)
    extended = evaluate(params, tracking, batch)
    assert extended.data > base.data
    for name in ("forward", "adjoint", "optimality", "initial", "terminal_adjoint", "boundary"):
        assert getattr(extended, name) == getattr(base, name)


def test_weights_validated():
    with pytest.raises(ValueError):
        LossWeights(forward=-0.1)
    with pytest.raises(ValueError):
        LossWeights(data=float("nan"))
