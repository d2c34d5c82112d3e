"""Command-line entry point: train, validate, plot, export.

Exit codes: 0 success, 2 configuration error, 3 training divergence,
4 missing run artifacts.  ``CTRLPINN_THREADS`` caps BLAS threads (default 1;
set before numpy is first imported, which is why the heavy imports below
live inside functions).
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


def _build_parser():
    parser = argparse.ArgumentParser(prog="ctrlpinn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True, help="path to the run config")
    p_train.add_argument("--seed", type=int, help="override the config seed")
    p_train.add_argument("--epochs", type=int, help="override the epoch budget")
    p_train.add_argument("--out", help="override the output run directory")
    p_train.add_argument("--diffusivity", type=float, help="override the heat diffusivity")
    p_train.add_argument("--long", action="store_true", help="use the config's long_epochs budget")

    p_val = sub.add_parser("validate", help="check a trained control with classical solvers")
    p_val.add_argument("run_dir", help="run directory produced by `train`")
    p_val.add_argument("--resolution", type=int, default=1001, help="control export grid points per axis")

    p_plot = sub.add_parser("plot", help="re-emit SVG plots from a run's metrics")
    p_plot.add_argument("run_dir")

    p_exp = sub.add_parser("export", help="export the learned control (and state) fields as CSV")
    p_exp.add_argument("run_dir")
    p_exp.add_argument("--resolution", type=int, default=1001)
    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    args = _build_parser().parse_args(argv)
    if args.command == "train":
        return cmd_train(args)
    if args.command == "validate":
        return cmd_validate(args)
    if args.command == "plot":
        return cmd_plot(args)
    if args.command == "export":
        return cmd_export(args)
    return EXIT_CONFIG


# --------------------------------------------------------------------------


def cmd_train(args) -> int:
    from .config import ConfigError, parse_config

    try:
        config = parse_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        config.seed = args.seed
    if args.epochs is not None:
        config.epochs = args.epochs
    if args.long:
        config.epochs = config.long_epochs
    if args.diffusivity is not None:
        config.diffusivity = args.diffusivity
    if args.out is not None:
        config.out = args.out
    if config.out is None:
        config.out = f"runs/{config.problem}"

    from . import trainer
    from .loss import TERM_ORDER

    try:
        problem = config.make_problem()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    settings = config.make_settings()
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved.cfg").write_text(config.resolved_text())

    def log(row):
        parts = [f"epoch {row['epoch']}", f"total {row['total']:.3e}"]
        if row.get("err_y") is not None:
            parts.append(f"err_y {row['err_y']:.3e}")
        print("  ".join(parts))

    record = trainer.train(problem, settings, out_dir=out, log=log)

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

    _emit_run_artifacts(problem, record, out)
    if record.history:
        _emit_loss_history(out, record.history, list(TERM_ORDER) + ["total"])
    print(f"run directory: {out}")
    if record.status == "diverged":
        print("training diverged; partial artifacts were written", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _emit_loss_history(out: Path, history, names):
    from . import svgplot

    epochs = [row["epoch"] for row in history]
    series = [(name, epochs, [row[name] for row in history]) for name in names]
    series = [(n, xs, ys) for n, xs, ys in series if any(v > 0 for v in ys)]
    svgplot.write(out / "loss_history.svg", svgplot.line_chart(
        series, title="weighted loss components", x_label="epoch", y_label="loss", log_y=True
    ))


def _emit_run_artifacts(problem, record, out: Path):
    """Final-state plots and CSV fields for the trained network."""
    import numpy as np

    from . import svgplot
    from .trainer import evaluate_probe, _forward_chunked

    params = record.params
    if problem.name == "analytical":
        t = np.linspace(problem.domain.t0, problem.domain.tf, 1001)
        y, u, lam = _forward_chunked(params, t, np.zeros((t.size, 0)))
        header = "t,y,u,lam,y_ref,u_ref,lam_ref"
        refs = (problem.y_star(t), problem.u_star(t), problem.lam_star(t))
        rows = [header] + [
            ",".join(repr(float(v)) for v in vals)
            for vals in zip(t, y[0], u[0], lam[0], *refs)
        ]
        (out / "final_solution.csv").write_text("\n".join(rows) + "\n")
        svgplot.write(out / "solution_vs_reference.svg", svgplot.line_chart(
            [
                ("y", t, y[0]), ("y*", t, refs[0]),
                ("u", t, u[0]), ("u*", t, refs[1]),
                ("lam", t, lam[0]), ("lam*", t, refs[2]),
            ],
            title="learned vs reference", x_label="t",
        ))
    elif problem.name == "heat":
        from .validators import ControlField

        nt = nx = 101
        t = np.linspace(problem.domain.t0, problem.domain.tf, nt)
        x = np.linspace(*problem.domain.x_bounds[0], nx)
        tt, xx = np.meshgrid(t, x, indexing="ij")
        y, u, lam = _forward_chunked(params, tt.ravel(), xx.reshape(-1, 1))
        y_field = y[0].reshape(nt, nx)
        u_field = u[0].reshape(nt, nx)
        ControlField(t[0], t[-1], x[0], x[-1], y_field).to_csv(out / "final_y.csv")
        ControlField(t[0], t[-1], x[0], x[-1], u_field).to_csv(out / "final_u.csv")
        y_ref = problem.y_star(tt, xx)
        u_ref = problem.u_star(tt, xx)
        for name, learned, ref in (("y", y_field, y_ref), ("u", u_field, u_ref)):
            lo = float(min(learned.min(), ref.min()))
            hi = float(max(learned.max(), ref.max()))
            svgplot.write(out / f"heatmap_{name}.svg", svgplot.heatmap(
                learned, x_range=(x[0], x[-1]), y_range=(t[0], t[-1]),
                title=f"learned {name}(t,x)", x_label="x", y_label="t", v_min=lo, v_max=hi,
            ))
            svgplot.write(out / f"heatmap_{name}_reference.svg", svgplot.heatmap(
                ref, x_range=(x[0], x[-1]), y_range=(t[0], t[-1]),
                title=f"reference {name}*(t,x)", x_label="x", y_label="t", v_min=lo, v_max=hi,
            ))
    elif problem.name == "predator_prey":
        curve = record.final_probe.get("error_by_time") or []
        if curve:
            rows = ["time,relative_error"] + [f"{t!r},{e!r}" for t, e in curve]
            (out / "error_vs_time.csv").write_text("\n".join(rows) + "\n")
            svgplot.write(out / "error_vs_time.svg", svgplot.line_chart(
                [("rel L2 error of y2", [c[0] for c in curve], [c[1] for c in curve])],
                title="prey tracking error over time", x_label="t", y_label="relative error",
            ))
        n = 51
        x1 = np.linspace(0.0, 1.0, n)
        x2 = np.linspace(0.0, 1.0, n)
        g1, g2 = np.meshgrid(x1, x2, indexing="ij")
        pts = np.column_stack([g1.ravel(), g2.ravel()])
        tf = problem.domain.tf
        y, u, lam = _forward_chunked(params, np.full(pts.shape[0], tf), pts)
        y2 = y[1].reshape(n, n)
        target = problem.y2_target(tf, g1, g2)
        err = np.abs(y2 - target)
        lo, hi = float(min(y2.min(), target.min())), float(max(y2.max(), target.max()))
        for name, field, v_min, v_max in (
            ("y2_learned", y2, lo, hi),
            ("y2_target", target, lo, hi),
            ("y2_abs_error", err, 0.0, float(err.max())),
            ("u2_learned", u[0].reshape(n, n), None, None),
        ):
            svgplot.write(out / f"final_{name}.svg", svgplot.heatmap(
                field, x_range=(0.0, 1.0), y_range=(0.0, 1.0),
                title=f"{name} at t=tf", x_label="x1", y_label="x2",
                v_min=v_min, v_max=v_max,
            ))


# --------------------------------------------------------------------------


def _load_run(run_dir):
    from .config import parse_config
    from .trainer import load_checkpoint

    run = Path(run_dir)
    ckpt = run / "checkpoint_final.json"
    cfg = run / "config.resolved.cfg"
    if not ckpt.exists() or not cfg.exists():
        raise FileNotFoundError(f"{run_dir} lacks checkpoint_final.json / config.resolved.cfg")
    config = parse_config(cfg)
    params, _, _, _ = load_checkpoint(ckpt)
    return run, config, params


def cmd_validate(args) -> int:
    from .config import ConfigError

    try:
        run, config, params = _load_run(args.run_dir)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    import numpy as np

    from . import svgplot
    from .trainer import _forward_chunked
    from .validators import (
        ControlField,
        control_effort,
        cost_functional,
        error_table,
        integrate_ode,
        relative_error,
        solve_heat_dns,
        write_error_table,
    )

    problem = config.make_problem()
    out = run / "validation"
    out.mkdir(exist_ok=True)
    report = {"problem": problem.name}

    if problem.name == "analytical":
        t = np.linspace(problem.domain.t0, problem.domain.tf, args.resolution)
        y, u, lam = _forward_chunked(params, t, np.zeros((t.size, 0)))
        field_u = ControlField(t[0], t[-1], 0.0, 1.0, u[0][:, None])
        field_u.to_csv(out / "control.csv")
        control = lambda tv: field_u.at(np.asarray(tv), 0.0)
        times, states = integrate_ode(problem.ode_rhs, [1.0], control, (t[0], t[-1]), steps=t.size - 1)
        y_rk = states[:, 0]
        report["rel_error_y_rk4_vs_reference"] = relative_error(y_rk, problem.y_star(times))
        field_y = ControlField(t[0], t[-1], 0.0, 1.0, y_rk[:, None])
        report["cost_functional"] = cost_functional(problem, field_y, field_u)
        svgplot.write(out / "state_comparison.svg", svgplot.line_chart(
            [("y (RK4 with learned u)", times, y_rk), ("y*", times, problem.y_star(times))],
            title="classical integration of the learned control", x_label="t",
        ))
        print(f"RK4 state vs reference: rel L2 {report['rel_error_y_rk4_vs_reference']:.4f}")
    elif problem.name == "heat":
        nt = nx = args.resolution
        t = np.linspace(problem.domain.t0, problem.domain.tf, nt)
        x = np.linspace(*problem.domain.x_bounds[0], nx)
        tt, xx = np.meshgrid(t, x, indexing="ij")
        _, u, _ = _forward_chunked(params, tt.ravel(), xx.reshape(-1, 1))
        field_u = ControlField(t[0], t[-1], x[0], x[-1], u[0].reshape(nt, nx))
        field_u.to_csv(out / "control.csv")
        dns = solve_heat_dns(field_u, problem.diffusivity, nx=nx, initial_state=problem.initial_profile)
        dns.to_csv(out / "dns_state.csv")
        table = error_table(dns, problem.y_star, [round(0.1 * k, 1) for k in range(1, 11)])
        write_error_table(out / "relative_error_table.csv", table)
        effort_learned = control_effort(field_u)
        u_ref = problem.u_star(tt, xx)
        effort_ref = control_effort(ControlField(t[0], t[-1], x[0], x[-1], u_ref))
        report["error_table"] = table
        report["control_effort_learned"] = effort_learned
        report["control_effort_reference"] = effort_ref
        y_tf = dns.state_at(problem.domain.tf)
        svgplot.write(out / "state_comparison_tf.svg", svgplot.line_chart(
            [("DNS y(tf,x)", dns.x, y_tf), ("y*(tf,x)", dns.x, problem.y_star(problem.domain.tf, dns.x))],
            title="final state: DNS with learned control vs reference", x_label="x",
        ))
        abs_err = [(tv, float(np.max(np.abs(dns.state_at(tv) - problem.y_star(tv, dns.x))))) for tv, _ in table]
        svgplot.write(out / "absolute_error_loglog.svg", svgplot.line_chart(
            [("max |y - y*|", [a for a, _ in abs_err], [b for _, b in abs_err])],
            title="DNS absolute error", x_label="t", y_label="max abs error", log_y=True,
        ))
        for tv, err in table:
            print(f"t={tv:.1f}  relative error {err:.4f}")
        print(
            f"control effort: learned {effort_learned:.4f} vs reference {effort_ref:.4f}"
        )
    else:  # predator_prey: residual- and target-based validation
        from .trainer import evaluate_probe

        probe = evaluate_probe(params, problem, with_curve=True)
        report["err_y2"] = probe["err_y"]
        report["error_by_time"] = probe["error_by_time"]
        rows = ["time,relative_error"] + [f"{tv!r},{e!r}" for tv, e in probe["error_by_time"]]
        (out / "relative_error_table.csv").write_text("\n".join(rows) + "\n")
        svgplot.write(out / "error_vs_time.svg", svgplot.line_chart(
            [("rel L2 error of y2", [c[0] for c in probe["error_by_time"]],
              [c[1] for c in probe["error_by_time"]])],
            title="prey tracking error over time", x_label="t", y_label="relative error",
        ))
        print(f"final-time y2 tracking error: {probe['error_by_time'][-1][1]:.4f}")

    (out / "report.json").write_text(json.dumps(report, indent=2, default=float) + "\n")
    return EXIT_OK


def cmd_plot(args) -> int:
    run = Path(args.run_dir)
    metrics = run / "metrics.csv"
    if not metrics.exists():
        print(f"error: {metrics} not found", file=sys.stderr)
        return EXIT_MISSING
    from .loss import TERM_ORDER
    from .trainer import read_metrics

    rows = read_metrics(metrics)
    if not rows:
        print("error: metrics.csv has no data rows", file=sys.stderr)
        return EXIT_MISSING
    _emit_loss_history(run, rows, list(TERM_ORDER) + ["total"])

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
    from .config import ConfigError

    try:
        run, config, params = _load_run(args.run_dir)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    import numpy as np

    from .trainer import _forward_chunked
    from .validators import ControlField

    problem = config.make_problem()
    n = args.resolution
    t = np.linspace(problem.domain.t0, problem.domain.tf, n)
    if problem.domain.spatial_dim == 0:
        y, u, lam = _forward_chunked(params, t, np.zeros((t.size, 0)))
        ControlField(t[0], t[-1], 0.0, 1.0, u[0][:, None]).to_csv(run / "export_u.csv")
        ControlField(t[0], t[-1], 0.0, 1.0, y[0][:, None]).to_csv(run / "export_y.csv")
    elif problem.domain.spatial_dim == 1:
        x = np.linspace(*problem.domain.x_bounds[0], n)
        tt, xx = np.meshgrid(t, x, indexing="ij")
        y, u, _ = _forward_chunked(params, tt.ravel(), xx.reshape(-1, 1))
        ControlField(t[0], t[-1], x[0], x[-1], u[0].reshape(n, n)).to_csv(run / "export_u.csv")
        ControlField(t[0], t[-1], x[0], x[-1], y[0].reshape(n, n)).to_csv(run / "export_y.csv")
    else:
        print("error: CSV field export covers time-only and 1-D spatial problems", file=sys.stderr)
        return EXIT_CONFIG
    print(f"fields written to {run}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
