"""Command-line entry point: train, validate, plot, export.

The commands are the same for every benchmark.  What a training run writes
besides its metrics and checkpoints, and what ``validate`` checks, are
methods of the run's problem class (see ``ctrlpinn.problems``).

Exit codes: 0 success, 2 configuration error (in the config file, in a flag
such as an ``--out`` that cannot be made a directory or ``--epochs`` given
with ``--long``, or in a run's saved config) or ``export`` of a run with
two space dimensions (CSV field export covers time-only and 1-D spatial
problems), 3 training divergence (partial artifacts are written), 4
missing or unusable run artifacts (no checkpoint, an unreadable one, one whose
architecture does not fit the run's problem, one whose network overflows,
a ``metrics.csv`` that is empty or does not parse, or outputs of
``validate`` or ``export`` that cannot be written, such as a
``validation`` that is a regular file).
``CTRLPINN_THREADS`` caps BLAS threads (default 1; set before numpy is first
imported, which is why the heavy imports below live inside functions).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_MISSING = 4


def _apply_thread_cap():
    cap = os.environ.get("CTRLPINN_THREADS", "1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def _at_least(low):
    """argparse type: an int >= ``low`` (argparse exits 2 otherwise)."""

    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _build_parser():
    parser = argparse.ArgumentParser(prog="ctrlpinn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True, help="path to the run config")
    p_train.add_argument("--seed", type=_at_least(0), help="override the config seed")
    budget = p_train.add_mutually_exclusive_group()
    budget.add_argument("--epochs", type=_at_least(0), help="override the epoch budget")
    budget.add_argument("--long", action="store_true", help="use the config's long_epochs budget")
    p_train.add_argument("--out", help="override the output run directory")
    p_train.add_argument("--diffusivity", type=float, help="override the heat diffusivity")

    p_val = sub.add_parser("validate", help="check a trained control with classical solvers")
    p_val.add_argument("run_dir", help="run directory produced by `train`")
    p_val.add_argument(
        "--resolution", type=_at_least(2), default=1001, help="control export grid points per axis (>= 2)"
    )

    p_plot = sub.add_parser("plot", help="re-emit SVG plots from a run's metrics")
    p_plot.add_argument("run_dir")

    p_exp = sub.add_parser("export", help="export the learned control (and state) fields as CSV")
    p_exp.add_argument("run_dir")
    p_exp.add_argument("--resolution", type=_at_least(2), default=1001, help="grid points per axis (>= 2)")
    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    args = _build_parser().parse_args(argv)
    commands = {"train": cmd_train, "validate": cmd_validate, "plot": cmd_plot, "export": cmd_export}
    return commands[args.command](args)


# --------------------------------------------------------------------------


def cmd_train(args) -> int:
    from .config import ConfigError, parse_config

    try:
        config = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        config.seed = args.seed
    if args.epochs is not None:
        config.epochs = args.epochs
    if args.long:
        config.epochs = config.long_epochs
    if args.diffusivity is not None:
        if "diffusivity" not in config.options:
            print(f"error: --diffusivity: problem {config.problem!r} has no diffusivity", file=sys.stderr)
            return EXIT_CONFIG
        config.options["diffusivity"] = args.diffusivity
    if args.out is not None:
        config.out = args.out
    if config.out is None:
        config.out = f"runs/{config.problem}"

    from . import trainer

    try:
        problem = config.make_problem()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.resolved.cfg").write_text(config.resolved_text())
    except OSError as exc:
        print(f"error: --out {out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    def log(row):
        parts = [f"epoch {row['epoch']}", f"total {row['total']:.3e}"]
        if row.get("err_y") is not None:
            parts.append(f"err_y {row['err_y']:.3e}")
        print("  ".join(parts))

    record = trainer.train(problem, config, out_dir=out, log=log)

    summary = {
        "problem": problem.name,
        "status": record.status,
        "epochs_run": record.epochs_run,
        "wall_time_s": record.wall_time,
        "initial_probe": record.initial_probe,
        "final_probe": record.final_probe,
        "checkpoints": record.checkpoints,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, default=float) + "\n")

    if record.final_probe is not None:  # None: the final parameters overflow the network
        problem.write_artifacts(record.params, record.final_probe, out)
    if record.history:
        _emit_loss_history(out, record.history)
    print(f"run directory: {out}")
    if record.status == "diverged":
        print("training diverged; partial artifacts were written", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _emit_loss_history(out: Path, history):
    from . import svgplot
    from .loss import TERM_ORDER

    epochs = [row["epoch"] for row in history]
    series = [(name, epochs, [row[name] for row in history]) for name in (*TERM_ORDER, "total")]
    series = [(n, xs, ys) for n, xs, ys in series if any(v > 0 for v in ys)]
    svgplot.write(out / "loss_history.svg", svgplot.line_chart(
        series, title="weighted loss components", x_label="epoch", y_label="loss", log_y=True
    ))


# --------------------------------------------------------------------------


def _load_run(run_dir):
    """(run, problem, params) of a trained run directory, or an exit code.

    Errors are printed; the exit code says which kind (see the module
    docstring).
    """
    from .config import ConfigError, parse_config
    from .network import load_params

    run = Path(run_dir)
    ckpt = run / "checkpoint_final.json"
    cfg = run / "config.resolved.cfg"
    if not ckpt.exists() or not cfg.exists():
        print(f"error: {run_dir} lacks checkpoint_final.json / config.resolved.cfg", file=sys.stderr)
        return EXIT_MISSING
    try:
        problem = parse_config(cfg).make_problem()
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        params, _ = load_params(ckpt)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {ckpt} is not a readable checkpoint: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MISSING
    if params.config != problem.arch_config():
        print(
            f"error: {ckpt} holds a network for {params.config}, but problem "
            f"{problem.name!r} needs {problem.arch_config()}",
            file=sys.stderr,
        )
        return EXIT_MISSING
    return run, problem, params


def cmd_validate(args) -> int:
    loaded = _load_run(args.run_dir)
    if isinstance(loaded, int):
        return loaded
    run, problem, params = loaded
    out = run / "validation"
    from .autodiff import EvaluationError

    try:
        out.mkdir(exist_ok=True)
        report = {"problem": problem.name, **problem.validate(params, out, args.resolution)}
        (out / "report.json").write_text(json.dumps(report, indent=2, default=float) + "\n")
    except EvaluationError as exc:
        return _overflowed(run, exc)
    except OSError as exc:
        return _unwritable(out, exc)
    return EXIT_OK


def _unwritable(path, exc) -> int:
    """Report an output that cannot be written (``exc`` names the file)."""
    print(f"error: cannot write {exc.filename or path}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_MISSING


def _overflowed(run, exc) -> int:
    """Report a checkpoint whose network overflows (``exc`` names the layer)."""
    print(f"error: {run / 'checkpoint_final.json'} holds a network that overflows: {exc}", file=sys.stderr)
    return EXIT_MISSING


def cmd_plot(args) -> int:
    run = Path(args.run_dir)
    metrics = run / "metrics.csv"
    if not metrics.exists():
        print(f"error: {metrics} not found", file=sys.stderr)
        return EXIT_MISSING
    from .trainer import read_metrics

    try:
        rows = read_metrics(metrics)
    except (OSError, ValueError) as exc:
        print(f"error: {metrics} is not a readable metrics file: {exc}", file=sys.stderr)
        return EXIT_MISSING
    if not rows:
        print("error: metrics.csv has no data rows", file=sys.stderr)
        return EXIT_MISSING
    _emit_loss_history(run, rows)

    probe_rows = [r for r in rows if r.get("err_y") is not None]
    if probe_rows:
        from . import svgplot

        series = []
        for key in ("err_y", "err_u", "err_lam"):
            pts = [(r["epoch"], r[key]) for r in probe_rows if r.get(key) is not None]
            if pts:
                series.append((key, [p[0] for p in pts], [p[1] for p in pts]))
        svgplot.write(run / "probe_errors.svg", svgplot.line_chart(
            series, title="probe-grid reference errors", x_label="epoch", y_label="relative error", log_y=True
        ))
    print(f"plots written to {run}")
    return EXIT_OK


def cmd_export(args) -> int:
    loaded = _load_run(args.run_dir)
    if isinstance(loaded, int):
        return loaded
    run, problem, params = loaded
    if problem.domain.spatial_dim > 1:
        print("error: CSV field export covers time-only and 1-D spatial problems", file=sys.stderr)
        return EXIT_CONFIG
    from .autodiff import EvaluationError

    try:
        _, _, (y, u, _) = problem.field_values(params, args.resolution)
    except EvaluationError as exc:
        return _overflowed(run, exc)
    try:
        problem.sampled_field(u[0]).to_csv(run / "export_u.csv")
        problem.sampled_field(y[0]).to_csv(run / "export_y.csv")
    except OSError as exc:
        return _unwritable(run, exc)
    print(f"fields written to {run}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
