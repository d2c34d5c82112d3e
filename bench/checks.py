"""Correctness checks of one round's run directory.

Each check compares a file the program wrote with a computation from
``reference.py``, or states a property the method must have.  Tolerances:
rounding-level agreement (1e-9 relative) where both sides evaluate the same
formula, discretization accuracy where two different solvers meet.
"""

import csv
import json
import math
import re

import numpy as np

import reference as ref

TERMS = ("data", "forward", "adjoint", "optimality", "initial", "terminal_adjoint", "boundary")
ROUNDING = 1e-9
# Crank-Nicolson against the program's FTCS on the same spatial grid: the
# two share the Laplacian's O(dx^2) error and differ by FTCS's first-order
# time error, which is largest just after t = 0, where the initial profile
# does not meet the wall conditions and y*(t) is small.  So the table entries
# are compared as states: |err_ftcs(t) - err_cn(t)| * |y*(t)| / |y*(1)|,
# which bounds |y_ftcs(t) - y_cn(t)| / |y*(1)|.  Measured at 201 points:
# 1.3e-4 at t = 0.1, under 1e-5 from t = 0.2.
SOLVER_AGREEMENT = 1e-3
SELF_CHECK = {"heat_mode_decay": 2e-3, "heat_u_star": 1e-4, "prey_mode_decay": 5e-3}
PROGRAM_DNS_U_STAR = 1e-4  # the program's FTCS driven by u* from 0 reproduces y*(1)


def run_all(wl, work, rounds):
    """(failed check messages, reference figures) for the first round."""
    problems, figures = [], {}
    run = work / "round0"

    def expect(ok, message):
        if not ok:
            problems.append(message)

    errors = ref.self_check()
    for name, tol in SELF_CHECK.items():
        expect(errors[name] <= tol, f"reference solver {name}: error {errors[name]:.3g} > {tol}")
    figures["reference_self_check"] = errors

    first = (run / "metrics.csv").read_bytes()
    for i in range(1, len(rounds)):
        expect((work / f"round{i}" / "metrics.csv").read_bytes() == first, f"metrics.csv of round {i} differs from round 0")

    _check_metrics(run, expect, figures)
    net = ref.load_network(run / "checkpoint_final.json")
    summary = json.loads((run / "summary.json").read_text())
    if wl.problem == "heat":
        _check_heat_probe(net, summary, expect)
        _check_heat_validation(run, net, expect, figures)
    else:
        _check_prey(run, net, summary, expect, figures)
    return problems, figures


def _close(a, b, tol=ROUNDING):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _check_metrics(run, expect, figures):
    with open(run / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    totals = []
    for row in rows:
        total = float(row["total"])
        terms = sum(float(row[name]) for name in TERMS)
        expect(_close(terms, total, 1e-12), f"metrics.csv epoch {row['epoch']}: terms {terms!r} != total {total!r}")
        totals.append(total)
    head, tail = np.mean(totals[:10]), np.mean(totals[-10:])
    expect(tail < head, f"total loss did not fall: first ten epochs {head:.4g}, last ten {tail:.4g}")
    figures["loss_first10"] = float(head)
    figures["loss_final"] = totals[-1]


def _check_heat_probe(net, summary, expect):
    t = np.linspace(0.0, 1.0, 101)
    tt, xx = np.meshgrid(t, t, indexing="ij")
    y, u, _ = ref.network_values(net, tt.ravel(), xx.reshape(-1, 1))
    final = summary["final_probe"]
    for name, mine in (("err_y", ref.rel_l2(y[0], ref.heat_y_star(tt, xx).ravel())),
                       ("err_u", ref.rel_l2(u[0], ref.heat_u_star(tt, xx).ravel()))):
        expect(_close(final[name], mine), f"final probe {name} {final[name]!r} != independent {mine!r}")


def _read_field(path):
    lines = path.read_text().splitlines()
    spec = dict(part.split("=") for part in lines[0].split(","))
    values = np.array(",".join(lines[1:]).split(","), dtype=float).reshape(int(spec["nt"]), int(spec["nx"]))
    t = np.linspace(float(spec["t0"]), float(spec["tf"]), values.shape[0])
    x = np.linspace(float(spec["x0"]), float(spec["x1"]), values.shape[1])
    return t, x, values


def _diffusivity(run):
    text = (run / "config.resolved.cfg").read_text()
    return float(re.search(r"^diffusivity\s*=\s*(\S+)", text, re.M).group(1))


def _check_heat_validation(run, net, expect, figures):
    from ctrlpinn.validators import ControlField, solve_heat_dns

    val = run / "validation"
    t, x, u_csv = _read_field(val / "control.csv")
    # The independent forward pass on every row up to 40 rows apart.
    rows = np.arange(0, t.size, max(1, t.size // 40))
    tt, xx = np.meshgrid(t[rows], x, indexing="ij")
    _, u_mine, _ = ref.network_values(net, tt.ravel(), xx.reshape(-1, 1))
    scale = max(1.0, float(np.max(np.abs(u_csv))))
    gap = float(np.max(np.abs(u_mine[0] - u_csv[rows].ravel())))
    expect(gap <= ROUNDING * scale, f"control.csv differs from the independent forward pass by {gap:.3g}")

    a = _diffusivity(run)
    times = [round(0.1 * k, 1) for k in range(1, 11)]
    states = ref.heat_crank_nicolson(u_csv, t, x, a, ref.heat_initial(x), times)
    with open(val / "relative_error_table.csv") as fh:
        table = {round(float(r["time"]), 1): float(r["relative_error"]) for r in csv.DictReader(fh)}
    worst = 0.0
    scale = np.linalg.norm(ref.heat_y_star(1.0, x))
    for tv in times:
        y_star = ref.heat_y_star(tv, x)
        mine = ref.rel_l2(states[tv], y_star)
        worst = max(worst, abs(table[tv] - mine) * np.linalg.norm(y_star) / scale)
    expect(worst <= SOLVER_AGREEMENT, f"relative_error_table.csv differs from Crank-Nicolson by {worst:.3g}")
    figures["table_vs_crank_nicolson"] = worst

    figures["target_gap_t1"] = ref.rel_l2(states[1.0], ref.heat_y_star(1.0, x))
    figures["zero_control_gap_t1"] = ref.heat_gap(np.zeros_like(u_csv), t, x, a)
    expect(figures["target_gap_t1"] < figures["zero_control_gap_t1"],
           f"learned control ends no closer to y*(1) than zero control: {figures['target_gap_t1']:.4f}")

    report = json.loads((val / "report.json").read_text())
    effort = ref.trapezoid_mean(u_csv**2, t, x)
    expect(_close(report["control_effort_learned"], effort),
           f"control effort {report['control_effort_learned']!r} != trapezoid {effort!r}")
    # mean of sin^2(pi x) sin^2(pi t / 2) is 1/4, and the trapezoid rule is
    # exact for it on a uniform grid.
    expect(abs(report["control_effort_reference"] - 0.25) <= ROUNDING,
           f"reference control effort {report['control_effort_reference']!r} != 0.25")

    g = np.linspace(0.0, 1.0, 201)
    tt, xx = np.meshgrid(g, g, indexing="ij")
    dns = solve_heat_dns(ControlField(0.0, 1.0, 0.0, 1.0, ref.heat_u_star(tt, xx)), 1.0, nx=201,
                         initial_state=np.zeros_like)
    err = ref.rel_l2(dns.state_at(1.0), ref.heat_y_star(1.0, dns.x))
    expect(err <= PROGRAM_DNS_U_STAR, f"solve_heat_dns with u* misses y*(1) by {err:.3g}")
    figures["program_dns_u_star_error"] = err


def _check_prey(run, net, summary, expect, figures):
    nt, n = 11, 51
    t = np.linspace(0.0, 1.0, nt)
    g = np.linspace(0.0, 1.0, n)
    tt, x1, x2 = np.meshgrid(t, g, g, indexing="ij")
    y, _, _ = ref.network_values(net, tt.ravel(), np.column_stack([x1.ravel(), x2.ravel()]))
    prey = y[1].reshape(nt, n, n)
    target = ref.prey_target(tt, x1, x2)
    final = summary["final_probe"]["err_y"]
    mine = ref.rel_l2(prey, target)
    expect(_close(final, mine), f"final probe err_y {final!r} != independent {mine!r}")
    with open(run / "validation" / "relative_error_table.csv") as fh:
        for row, k in zip(csv.DictReader(fh), range(nt)):
            mine = ref.rel_l2(prey[k], target[k])
            got = float(row["relative_error"])
            expect(_close(got, mine), f"validation table at t={row['time']}: {got!r} != independent {mine!r}")
    learned, unforced = ref.prey_gap(net)
    figures["target_gap_t1"] = learned
    figures["zero_control_gap_t1"] = unforced
    figures["network_prey_gap_t1"] = ref.rel_l2(prey[-1], target[-1])
    expect(learned < unforced and math.isfinite(learned),
           f"learned control ends no closer to y2*(1) than zero control: {learned:.4f} vs {unforced:.4f}")
