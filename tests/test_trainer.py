import base64
import json
import sys
import threading
import time

import numpy as np
import pytest

from ctrlpinn import trainer
from ctrlpinn.autodiff import EvaluationError
from ctrlpinn.loss import LossWeights
from ctrlpinn.network import Workspace, forward_values, init_params
from ctrlpinn.problems import PROBLEMS, get_problem
from ctrlpinn.sampler import SampleSizes
from ctrlpinn.trainer import (
    AdamState,
    NonFiniteGradientError,
    TrainSettings,
    adam_step,
    evaluate_probe,
    forward_chunked,
    load_checkpoint,
    read_metrics,
    resume,
    save_checkpoint,
    train,
    write_metrics,
)

from oracles import workspace_bytes


SMALL = SampleSizes(interior=64, initial=16, terminal=16, boundary=16)


# -- adam ------------------------------------------------------------------------


def test_adam_zero_gradient_leaves_parameters_unchanged():
    state = AdamState.init(5, lr=1e-3)
    params = np.linspace(-1, 1, 5)
    new_state, updated = adam_step(state, params, np.zeros(5))
    assert np.array_equal(updated, params)
    assert new_state.step == 1


def test_adam_first_update_hand_computed():
    # theta=0, g=1, lr=1e-3, defaults: first step lands at ~-9.99999995e-4
    state = AdamState.init(1, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
    _, updated = adam_step(state, np.zeros(1), np.ones(1))
    assert updated[0] == pytest.approx(-9.99999995e-4, rel=1e-7)


def test_adam_constant_gradient_step_size_approaches_lr():
    state = AdamState.init(1, lr=1e-3)
    theta = np.zeros(1)
    g = np.full(1, 0.37)
    previous = theta.copy()
    for _ in range(5000):
        previous = theta.copy()
        state, theta = adam_step(state, theta, g)
    assert abs(abs(theta[0] - previous[0]) - state.lr) < 1e-6


def test_adam_step_equals_the_textbook_expressions_bitwise():
    # five steps with gradients spanning 8 decades; the state passed in is
    # left as it was
    rng = np.random.default_rng(21)
    n = 2000
    state = AdamState.init(n, lr=2e-3)
    theta = rng.standard_normal(n)
    m, v, ref = np.zeros(n), np.zeros(n), theta.copy()
    for k in range(1, 6):
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 2.0, n)
        before = (state.m.copy(), state.v.copy(), theta.copy())
        new_state, new_theta = adam_step(state, theta, g)
        assert all(np.array_equal(a, b) for a, b in zip((state.m, state.v, theta), before))
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**k)
        v_hat = v / (1.0 - state.beta2**k)
        ref = ref - state.lr * m_hat / np.sqrt(v_hat + state.eps)
        for got, want in ((new_state.m, m), (new_state.v, v), (new_theta, ref)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        state, theta = new_state, new_theta


def test_adam_step_in_place_gives_the_fresh_vectors_bits():
    # with a workspace the update overwrites the state and parameters it is
    # given, and both scratch vectors go back to the workspace
    rng = np.random.default_rng(22)
    n = 2000
    fresh = AdamState.init(n, lr=2e-3), rng.standard_normal(n)
    in_place = AdamState.init(n, lr=2e-3), fresh[1].copy()
    workspace = Workspace()
    for _ in range(5):
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 2.0, n)
        fresh = adam_step(*fresh, g)
        state, theta = in_place
        in_place = adam_step(state, theta, g, workspace)
        assert in_place[0].m is state.m and in_place[0].v is state.v and in_place[1] is theta
        for got, want in zip((in_place[0].m, in_place[0].v, in_place[1]), (fresh[0].m, fresh[0].v, fresh[1])):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert workspace_bytes(workspace) == 2 * n * 8


def test_adam_rejects_nonfinite_gradient_with_index():
    state = AdamState.init(4)
    gradient = np.array([0.0, 1.0, np.nan, 2.0])
    with pytest.raises(NonFiniteGradientError) as err:
        adam_step(state, np.zeros(4), gradient)
    assert err.value.index == 2
    assert "2" in str(err.value)


# -- training loop -----------------------------------------------------------------


def test_zero_epochs_returns_initial_evaluation_only():
    problem = get_problem("analytical")
    settings = TrainSettings(epochs=0, seed=3, sizes=SMALL)
    record = train(problem, settings)
    assert record.epochs_run == 0
    assert record.history == []
    assert record.initial_probe is not None
    init_flat = record.params.to_flat()
    assert np.array_equal(init_flat, init_params(problem.arch_config(), 3).to_flat())


def test_identical_runs_produce_identical_metrics(tmp_path):
    problem = get_problem("analytical")
    settings = TrainSettings(epochs=8, seed=5, sizes=SMALL, eval_every=4)
    for d in ("a", "b"):
        train(problem, settings, out_dir=tmp_path / d)
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()


def test_checkpoint_resume_matches_uninterrupted_run(tmp_path):
    problem = get_problem("analytical")
    settings = TrainSettings(epochs=6, seed=9, sizes=SMALL, eval_every=0, checkpoint_every=4)
    full = train(problem, settings, out_dir=tmp_path / "full")

    short = TrainSettings(epochs=4, seed=9, sizes=SMALL, eval_every=0, checkpoint_every=4)
    train(problem, short, out_dir=tmp_path / "short")
    resumed = resume(problem, settings, tmp_path / "short" / "checkpoint_000004.json", n_epochs=2)

    assert resumed.history[0]["total"] == full.history[4]["total"]
    assert resumed.history[1]["total"] == full.history[5]["total"]
    assert np.array_equal(resumed.params.to_flat(), full.params.to_flat())


def _assert_same_adam(a, b):
    assert np.array_equal(a.m, b.m) and np.array_equal(a.v, b.v)
    assert (a.step, a.lr, a.beta1, a.beta2, a.eps) == (b.step, b.lr, b.beta1, b.beta2, b.eps)


def test_checkpoint_round_trip_preserves_state(tmp_path):
    problem = get_problem("analytical")
    settings = TrainSettings(epochs=3, seed=2, sizes=SMALL, eval_every=0, beta1=0.8, eps=1e-7)
    record = train(problem, settings, out_dir=tmp_path)
    params, adam, rng, epoch = load_checkpoint(tmp_path / "checkpoint_final.json")
    assert epoch == 3
    assert adam.step == 3
    assert (adam.beta1, adam.eps) == (0.8, 1e-7)
    assert np.array_equal(params.to_flat(), record.params.to_flat())
    path2 = tmp_path / "again.json"
    save_checkpoint(path2, params, adam, rng, epoch)
    params2, adam2, rng2, _ = load_checkpoint(path2)
    assert np.array_equal(params2.to_flat(), params.to_flat())
    _assert_same_adam(adam2, adam)
    assert np.array_equal(
        rng2.bit_generator.state["state"]["counter"], rng.bit_generator.state["state"]["counter"]
    )


def test_checkpoint_params_stay_a_decimal_list(tmp_path):
    # the parameters are read as a plain JSON list outside the package too
    problem = get_problem("analytical")
    record = train(problem, TrainSettings(epochs=2, seed=4, sizes=SMALL, eval_every=0), out_dir=tmp_path)
    doc = json.loads((tmp_path / "checkpoint_final.json").read_text())
    assert doc["format"] == "ctrlpinn-params/2"
    assert all(type(value) is float for value in doc["params"])
    assert np.array_equal(np.array(doc["params"]), record.params.to_flat())
    _, adam, _, _ = load_checkpoint(tmp_path / "checkpoint_final.json")
    moment = np.frombuffer(base64.b64decode(doc["extra"]["adam"]["m"]), dtype="<f8")
    assert np.array_equal(moment, adam.m)


def test_checkpoint_bytes_are_deterministic(tmp_path):
    problem = get_problem("analytical")
    train(problem, TrainSettings(epochs=2, seed=4, sizes=SMALL, eval_every=0), out_dir=tmp_path)
    state = load_checkpoint(tmp_path / "checkpoint_final.json")
    for name in ("a.json", "b.json"):
        save_checkpoint(tmp_path / name, *state)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_format_1_checkpoint_loads_and_resumes(tmp_path):
    # format /1 wrote the ADAM moments as decimal lists
    problem = get_problem("analytical")
    settings = TrainSettings(epochs=6, seed=9, sizes=SMALL, eval_every=0, checkpoint_every=4)
    full = train(problem, settings, out_dir=tmp_path / "full")
    path = tmp_path / "full" / "checkpoint_000004.json"
    _, adam, _, _ = load_checkpoint(path)
    doc = json.loads(path.read_text())
    doc["format"] = "ctrlpinn-params/1"
    doc["extra"]["adam"].update(m=adam.m.tolist(), v=adam.v.tolist())
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc, separators=(",", ":")))

    _, old_adam, _, epoch = load_checkpoint(old)
    assert epoch == 4
    _assert_same_adam(old_adam, adam)
    resumed = resume(problem, settings, old, n_epochs=2)
    assert [row["total"] for row in resumed.history] == [row["total"] for row in full.history[4:]]
    assert np.array_equal(resumed.params.to_flat(), full.params.to_flat())


def test_lr_half_life_schedule(tmp_path):
    problem = get_problem("analytical")
    for half_life, expected in ((0, 1e-3), (2, 1e-3 * 0.5 ** (3 / 2))):
        settings = TrainSettings(epochs=4, seed=2, sizes=SMALL, eval_every=0, lr_half_life=half_life)
        train(problem, settings, out_dir=tmp_path / str(half_life))
        _, adam, _, _ = load_checkpoint(tmp_path / str(half_life) / "checkpoint_final.json")
        assert adam.lr == expected  # the rate of the last (4th) update
    with pytest.raises(ValueError):
        TrainSettings(epochs=1, lr_half_life=-1)


def test_divergent_run_halts_with_partial_record():
    problem = get_problem("analytical")
    settings = TrainSettings(epochs=50, seed=1, sizes=SMALL, lr=500.0, eval_every=0)
    record = train(problem, settings)
    assert record.status == "diverged"
    assert record.epochs_run < 50


def test_metrics_round_trip(tmp_path):
    rows = [
        {"epoch": 1, "data": 0.5, "forward": 0.25, "adjoint": 0.1, "optimality": 0.0,
         "initial": 1.0, "terminal_adjoint": 0.0, "boundary": 0.0, "total": 1.85,
         "err_y": None, "err_u": None, "err_lam": None},
        {"epoch": 2, "data": 0.4, "forward": 0.2, "adjoint": 0.1, "optimality": 0.0,
         "initial": 0.9, "terminal_adjoint": 0.0, "boundary": 0.0, "total": 1.6,
         "err_y": 0.125, "err_u": 0.5, "err_lam": None},
    ]
    path = tmp_path / "metrics.csv"
    write_metrics(path, rows)
    back = read_metrics(path)
    assert back == rows


def test_probe_errors_move_toward_zero_during_training(analytical_run_300):
    record = analytical_run_300
    assert record.status == "completed"
    first = record.initial_probe
    last = record.final_probe
    assert last["err_y"] < first["err_y"]
    assert last["err_u"] < first["err_u"]
    assert last["err_lam"] < first["err_lam"]


def test_loss_trend_is_nonincreasing_on_moving_average(analytical_run_300):
    # seed-pinned statistical property: the 50-epoch moving average of the
    # total loss does not increase over the 300-epoch reference run, up to
    # the resampling noise floor (0.2% of the starting loss per step)
    totals = np.array([row["total"] for row in analytical_run_300.history])
    window = 50
    moving = np.convolve(totals, np.ones(window) / window, mode="valid")
    assert np.all(np.diff(moving) <= 2e-3 * totals[0])
    assert moving[-1] < 0.05 * moving[0]


def test_probe_evaluation_shapes():
    problem = get_problem("predator_prey")
    params = init_params(problem.arch_config(), seed=0)
    report = evaluate_probe(params, problem, shape=(3, 11, 11), with_curve=True)
    assert set(report) >= {"err_y", "err_u", "err_lam", "error_by_time"}
    assert len(report["error_by_time"]) == 3


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_probe_report_equals_the_report_of_a_full_pass(name):
    # probes stop at the last head the report reads; the report must not change
    problem = get_problem(name)
    params = init_params(problem.arch_config(), seed=6)
    t, x, _ = problem.probe_points()
    full = problem.probe_report(t, x, *forward_chunked(params, t, x), with_curve=True)
    assert evaluate_probe(params, problem, with_curve=True) == full


def _value_pass_inputs(name, n):
    problem = get_problem(name)
    params = init_params(problem.arch_config(), seed=8)
    rng = np.random.default_rng(n)
    return params, rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, (n, problem.domain.spatial_dim))


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 3 * 1024 + 33])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_chunked_pass_agrees_with_one_call(name, n):
    # chunking moves a value only where OpenBLAS runs a chunk's tail columns
    # through another kernel, at rounding level
    params, t, x = _value_pass_inputs(name, n)
    for chunked, whole in zip(forward_chunked(params, t, x), forward_values(params, t, x)):
        assert chunked.shape == whole.shape
        assert np.max(np.abs(chunked - whole)) <= 1e-13 * np.max(np.abs(whole))


def test_chunked_pass_maps_one_chunk_of_buffers(monkeypatch):
    # every lane reuses its first chunk's buffers, so each lane's workspace
    # holds as much after 30 chunks as after 3
    pools = []

    class RecordedWorkspace(Workspace):
        def __init__(self):
            super().__init__()
            pools.append(self)

    monkeypatch.setattr(trainer, "Workspace", RecordedWorkspace)
    monkeypatch.setattr(trainer, "_value_lanes", lambda: 2)
    mapped = []
    for chunks in (3, 30):
        params, t, x = _value_pass_inputs("predator_prey", (chunks - 1) * 1024 + 500)
        forward_chunked(params, t, x)
        mapped.append([workspace_bytes(pool) for pool in pools[-2:]])
    assert len(pools) == 4
    assert mapped[0] == mapped[1] and min(mapped[0]) > 0


def _serial_chunks(params, t, x):
    """The heads of one loop over VALUE_CHUNK-point chunks in this thread."""
    step = trainer.VALUE_CHUNK
    parts = [forward_values(params, t[lo : lo + step], x[lo : lo + step]) for lo in range(0, t.size, step)]
    return [np.hstack(heads) for heads in zip(*parts)]


def _run_on_lanes(monkeypatch, lanes, run):
    """``run()`` with the lane count forced to ``lanes`` and the switch
    interval at its shortest; (its result or the EvaluationError it raised,
    the threads it left alive, each joined with a timeout)."""
    monkeypatch.setattr(trainer, "_value_lanes", lambda: lanes)
    before = set(threading.enumerate())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcome = run()
    except EvaluationError as error:
        outcome = error
    finally:
        sys.setswitchinterval(interval)
    left = [thread for thread in threading.enumerate() if thread not in before]
    for thread in left:
        thread.join(timeout=60)
        assert not thread.is_alive()
    return outcome, left


@pytest.mark.parametrize("lanes", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 1024, 3 * 1024 + 33])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_lanes_give_the_serial_loops_heads_bitwise(monkeypatch, name, n, lanes):
    # 5 lanes is more than a 2-core host has CPUs; a pass runs on
    # min(lanes, chunks) threads, the caller's included, and leaves none
    params, t, x = _value_pass_inputs(name, n)
    serial = _serial_chunks(params, t, x)
    count = threading.active_count()
    ran_on = set()

    def recorded(*args, **kwargs):
        ran_on.add(threading.current_thread())
        return forward_values(*args, **kwargs)

    monkeypatch.setattr(trainer, "forward_values", recorded)
    heads, left = _run_on_lanes(monkeypatch, lanes, lambda: forward_chunked(params, t, x))
    assert left == [] and threading.active_count() == count
    assert len(ran_on) == min(lanes, -(-n // trainer.VALUE_CHUNK))
    for got, want in zip(heads, serial):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("high_first", [True, False], ids=["high fails first", "low fails first"])
@pytest.mark.parametrize("lanes", [1, 2, 5])
def test_a_failing_pass_raises_the_serial_loops_error(monkeypatch, lanes, high_first):
    # chunk `low` overflows in trunk.2 and chunk `high` in trunk.0, on
    # different lanes; the serial loop raises chunk `low`'s error.  When
    # `high` fails first, the lane of `low` reaches it only afterwards (its
    # chunk 1 waits), and must still run it; when `low` fails first (with
    # `high` already started), the later failure must not replace it
    step = trainer.VALUE_CHUNK
    params, t, x = _value_pass_inputs("heat", 9 * step + 33)
    params.trunk[2].w *= 1e10
    low, high = lanes + 1, lanes + 2
    t[low * step + 500] = 1e300
    t[high * step + 7] = np.inf
    chunk_of = {float(t[k * step]): k for k in range(10)}
    with pytest.raises(EvaluationError) as serial:
        _serial_chunks(params, t, x)
    assert serial.value.layer == "trunk.2"
    entered = [threading.Event() for _ in range(10)]
    done = [threading.Event() for _ in range(10)]
    # chunk -> the event its call waits for before it computes
    waits = {1: done[high]} if high_first else {low: entered[high], high: done[low]}
    count = threading.active_count()

    def ordered(params, t, x, **kwargs):
        k = chunk_of[float(t[0])]
        entered[k].set()
        if k in waits and lanes > 1:
            assert waits[k].wait(timeout=60)
            time.sleep(0.2)  # lets a failing lane record its chunk
        try:
            return forward_values(params, t, x, **kwargs)
        finally:
            done[k].set()

    monkeypatch.setattr(trainer, "forward_values", ordered)
    error, left = _run_on_lanes(monkeypatch, lanes, lambda: forward_chunked(params, t, x))
    assert left == [] and threading.active_count() == count
    assert isinstance(error, EvaluationError)
    assert (str(error), error.layer) == (str(serial.value), serial.value.layer)


def test_a_failing_chunk_stops_the_other_lanes(monkeypatch):
    # chunk 0 overflows in its first layer while lane 1 holds chunk 1; once
    # chunk 0 has failed, lane 1 finishes chunk 1 and starts no other
    params, t, x = _value_pass_inputs("heat", 30 * 1024)
    t[3] = np.inf
    ran = []
    failed = threading.Event()

    def recorded(params, t, x, **kwargs):
        ran.append(t)
        if np.isinf(t).any():
            try:
                return forward_values(params, t, x, **kwargs)
            finally:
                failed.set()
        assert failed.wait(timeout=60)
        time.sleep(0.2)  # lets the failing lane record its chunk
        return forward_values(params, t, x, **kwargs)

    monkeypatch.setattr(trainer, "forward_values", recorded)
    error, left = _run_on_lanes(monkeypatch, 2, lambda: forward_chunked(params, t, x))
    assert left == [] and error.layer == "trunk.0"
    assert len(ran) <= 2


def test_a_lane_that_cannot_start_stops_the_others(monkeypatch):
    # the error of the failed start reaches the caller, and the lane that
    # did start stops early (it has 10 of the 30 chunks) and is joined first
    params, t, x = _value_pass_inputs("heat", 30 * 1024)
    started, ran = [], []

    def recorded(*args, **kwargs):
        ran.append(threading.current_thread())
        return forward_values(*args, **kwargs)

    class FailingSecondStart(threading.Thread):
        def start(self):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", FailingSecondStart)
    monkeypatch.setattr(trainer, "forward_values", recorded)
    error, left = _run_on_lanes(monkeypatch, 3, lambda: pytest.raises(RuntimeError, forward_chunked, params, t, x))
    assert left == [] and len(started) == 1 and not started[0].is_alive()
    assert set(ran) <= set(started) and len(ran) < 10
    assert "can't start new thread" in str(error.value)


@pytest.mark.parametrize("through", ["y", "u", "lam"])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_chunked_pass_over_no_points_returns_empty_heads(name, through):
    # as forward_values does: (width, 0) heads up to `through`, None after it
    params, t, x = _value_pass_inputs(name, 0)
    chunked = forward_chunked(params, t, x, through=through)
    whole = forward_values(params, t, x, through=through)
    assert len(chunked) == 3
    for got, ref in zip(chunked, whole):
        assert (got is None and ref is None) or got.shape == ref.shape == (ref.shape[0], 0)
