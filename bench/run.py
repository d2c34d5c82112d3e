"""Benchmark of ctrlpinn's training and validation pipeline.

    python3 bench/run.py --workload heat --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each round of a workload runs ``ctrlpinn train`` and then
``ctrlpinn validate`` in this process, through ``ctrlpinn.cli.main``, with
one BLAS thread.  Rounds repeat while another one fits in ``--seconds``.
The outputs of the first round are checked against independent
computations (``reference.py``), then deleted.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` operations (an operation is one epoch or one
``validate``), and the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics.  The line before it carries reference figures that are
not bounded: the host calibration time, the final loss and the distance to
the target at t = 1.  See README.md in this directory.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / "bench_out"
now = time.perf_counter


@dataclass(frozen=True)
class Workload:
    config: str
    epochs: int  # even: the traced run times odd epochs only
    validate_args: tuple
    validate_repeats: int  # validate_s is the median over the repeats
    problem: str

    @property
    def operations(self):
        return self.epochs + self.validate_repeats


WORKLOADS = {
    # Training: per-call costs of a small batch, 250 interior points with 4
    # jet components plus three value-only condition tapes of 100 points.
    # Validation: value-only forward passes over 160,801 points, a CSV field
    # and a 320,000-step FTCS solve, with no jets, reverse pass or ADAM.
    "heat": Workload("configs/heat.cfg", 240, ("--resolution", "401"), 2, "heat"),
    # Array work in the tape: 1000 interior points with 6 jet components, and
    # 28,611-point probes.  200 epochs is the config's quick budget.
    "predator_prey": Workload("configs/predator_prey.cfg", 200, (), 3, "predator_prey"),
}
SETUP_SAMPLES = 5  # this process plus four set-up-only child processes


class SetupDone(Exception):
    pass


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _load_program():
    """Put ``src/`` on the path with one BLAS thread; import the package."""
    if not (ROOT / "src" / "ctrlpinn" / "cli.py").is_file():
        _fail(f"no ctrlpinn sources under {ROOT / 'src'}; run from a source checkout")
    for cfg in {w.config for w in WORKLOADS.values()}:
        if not (ROOT / cfg).is_file():
            _fail(f"missing {cfg}")
    os.environ["CTRLPINN_THREADS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from ctrlpinn import cli, config, svgplot, trainer, validators  # noqa: F401

    return cli


def _train_argv(wl, seed, out):
    return ["train", "--config", str(ROOT / wl.config), "--seed", str(seed), "--epochs", str(wl.epochs), "--out", str(out)]


@dataclass
class Round:
    setup_end: float  # perf_counter when the training run's set-up ended
    train_s: float
    validate_s: float
    duration: float
    epochs: list  # (epoch, seconds) of epochs that ran no probe
    artifacts_s: float | None
    failed: int


def _run_round(cli, rec, wl, seed, out):
    from ctrlpinn.config import parse_config

    rec.start_round()
    with open(out.with_suffix(".log"), "w") as log, contextlib.redirect_stdout(log):
        t0 = now()
        rec.phase = "train"
        rc_train = cli.main(_train_argv(wl, seed, out))
        t1 = now()
        rec.phase = "validate"
        validate_s, failed = [], 0
        for _ in range(wl.validate_repeats):
            t_v = now()
            failed += 1 if cli.main(["validate", str(out), *wl.validate_args]) else 0
            validate_s.append(now() - t_v)
        t2 = now()
        rec.phase = "check"
    eval_every = parse_config(out / "config.resolved.cfg").eval_every
    starts = rec.epoch_starts
    epochs = [
        (e, b - a)
        for (e, a), (_, b) in zip(starts, starts[1:])
        if not (eval_every and e % eval_every == 0)
    ]
    return Round(
        setup_end=rec.setup_end,
        train_s=t1 - rec.setup_end,
        validate_s=statistics.median(validate_s),
        duration=t2 - t0,
        epochs=epochs,
        artifacts_s=t1 - rec.train_end if rec.train_end else None,
        failed=(wl.epochs if rc_train else 0) + failed,
    )


def _setup_only(args):
    """Child mode: time from start to the end of set-up, then stop."""
    cli = _load_program()
    from ctrlpinn import trainer

    import hooks

    rec = hooks.Recorder(traced=False)
    hooks.install(rec)
    timed_init = trainer.init_params

    def stop(*a, **k):
        timed_init(*a, **k)
        raise SetupDone

    trainer.init_params = stop
    with contextlib.redirect_stdout(sys.stderr):
        try:
            cli.main(_train_argv(WORKLOADS[args.workload], args.seed, Path(args.out)))
        except SetupDone:
            pass
    print(json.dumps({"setup_s": rec.setup_end - T_START}))


def _child_setups(args, work, n):
    times = []
    for i in range(n):
        out = work / f"setup{i}"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--setup-only", "--out", str(out)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            _fail(f"set-up child failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _calibrate(np):
    """Median of five runs of a fixed GEMM plus a Python loop, in ms."""
    a = np.random.default_rng(0).random((256, 256))
    b = np.random.default_rng(1).random((256, 1024))
    times = []
    for _ in range(5):
        t0 = now()
        a @ b
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(now() - t0)
    return 1e3 * statistics.median(times)


def _median(values):
    return statistics.median(values) if values else 0.0


def _layer_metrics(rec, rounds, wl):
    """Per-layer figures of a traced run (see README.md for the map)."""
    def epoch_median(label, scale=1e3):
        return _median([d.get(label, 0.0) * scale for d in rec.epoch_time])

    def calls(phase, label):
        return rec.calls.get((phase, label), [])

    def per_validate(records, label):
        return sum(records.get(("validate", label), [])) / (len(rounds) * wl.validate_repeats)

    traced = [s for r in rounds for e, s in r.epochs if e % 2 == 1]
    plain = [s for r in rounds for e, s in r.epochs if e % 2 == 0]
    tape_ms = epoch_median("network.tape_interior") + epoch_median("network.tape_values") + epoch_median("network.backward")
    gflop = epoch_median("network.gemm_flop", 1e-9)
    dns = calls("validate", "validators.dns")
    dns_sizes = rec.sizes.get(("validate", "validators.dns"), [])
    fwd_s = sum(t for phase in ("train", "validate") for t in calls(phase, "network.forward_values"))
    fwd_pts = sum(n for phase in ("train", "validate") for n in rec.sizes.get((phase, "network.forward_values"), []))
    ckpt = rec.sizes.get(("train", "trainer.checkpoint_write"), [0])
    metrics = {
        "sampler.sample_ms": (epoch_median("sampler.sample"), "ms"),
        "network.tape_interior_ms": (epoch_median("network.tape_interior"), "ms"),
        "network.tape_values_ms": (epoch_median("network.tape_values"), "ms"),
        "network.tapes_per_epoch": (epoch_median("network.tapes", 1), "count"),
        "network.backward_ms": (epoch_median("network.backward"), "ms"),
        "network.gemm_gflop_per_epoch": (gflop, "GFLOP"),
        "network.tape_gflops": (gflop / (tape_ms * 1e-3) if tape_ms else 0.0, "GFLOP/s"),
        "network.from_flat_ms": (epoch_median("network.from_flat"), "ms"),
        "network.forward_values_mpts_per_s": (fwd_pts / fwd_s * 1e-6 if fwd_s else 0.0, "Mpt/s"),
        "autodiff.var_backward_ms": (epoch_median("autodiff.var_backward"), "ms"),
        "autodiff.var_nodes_per_epoch": (rec.var_nodes or 0, "count"),
        "loss.assemble_self_ms": (epoch_median("loss.assemble_self"), "ms"),
        "trainer.adam_ms": (epoch_median("trainer.adam"), "ms"),
        "trainer.probe_ms": (1e3 * _median(calls("train", "trainer.probe")), "ms"),
        "trainer.probes_per_run": (len(calls("train", "trainer.probe")) / len(rounds), "count"),
        "problems.probe_report_ms": (1e3 * _median(calls("train", "problems.probe_report")), "ms"),
        "trainer.checkpoint_write_ms": (1e3 * _median(calls("train", "trainer.checkpoint_write")), "ms"),
        "trainer.checkpoint_bytes": (ckpt[-1], "bytes"),
        "trainer.metrics_write_ms": (1e3 * _median(calls("train", "trainer.metrics_write")), "ms"),
        "cli.artifacts_s": (_median([r.artifacts_s for r in rounds if r.artifacts_s is not None]), "s"),
        "validators.dns_s": (_median(dns), "s"),
        "validators.dns_steps": (dns_sizes[-1][0] if dns_sizes else 0, "count"),
        "validators.dns_ns_per_cell_step": (
            1e9 * _median(dns) / (dns_sizes[-1][0] * dns_sizes[-1][1]) if dns_sizes else 0.0, "ns"),
        "validators.control_sample_s": (per_validate(rec.calls, "validators.control_sample"), "s"),
        "validators.csv_write_s": (per_validate(rec.calls, "validators.csv_write"), "s"),
        "validators.csv_bytes": (per_validate(rec.sizes, "validators.csv_write"), "bytes"),
        "config.parse_ms": (1e3 * _median(calls("train", "config.parse") + calls("validate", "config.parse")), "ms"),
        "trace.epoch_ms_p50_traced": (1e3 * _median(traced), "ms"),
        "trace.epoch_ms_p50_untraced": (1e3 * _median(plain), "ms"),
        "trace.overhead_pct": (100.0 * (_median(traced) / _median(plain) - 1.0) if plain else 0.0, "%"),
    }
    return metrics


def main(argv=None):
    args = _parse_args(argv)
    if args.setup_only:
        _setup_only(args)
        return 0
    cli = _load_program()
    import numpy as np

    import hooks

    setup_import_end = now()
    rec = hooks.Recorder(traced=bool(args.trace))
    hooks.install(rec)
    wl = WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rounds = []
        t_begin = now()
        while True:
            rounds.append(_run_round(cli, rec, wl, args.seed, work / f"round{len(rounds)}"))
            if now() - t_begin + rounds[-1].duration > args.seconds:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [rounds[0].setup_end - T_START] + ([] if args.trace else _child_setups(args, work, SETUP_SAMPLES - 1))
        calib_ms = _calibrate(np)
        import checks  # after peak_rss_mib: its scipy import is not the program's memory

        problems, figures = checks.run_all(wl, work, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    figures["host.calib_ms"] = calib_ms
    figures["rounds"] = len(rounds)
    figures["setup_samples_s"] = setups
    for msg in problems:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    if args.trace:
        metrics = _layer_metrics(rec, rounds, wl)
        metrics["import_s"] = (setup_import_end - T_START, "s")
        metrics["host.calib_ms"] = (calib_ms, "ms")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "epoch_ms_p50": (1e3 * statistics.median(s for r in rounds for _, s in r.epochs), "ms"),
            "train_s": (statistics.median(r.train_s for r in rounds), "s"),
            "validate_s": (statistics.median(r.validate_s for r in rounds), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    print(json.dumps({"reference": figures}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(rounds) * wl.operations,
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    sys.exit(main())
