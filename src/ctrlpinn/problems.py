"""Benchmark control problems: dynamics, costs, analytic partials, condition
data, reference solutions, and what a trained network is checked against.

Each problem supplies its interior residual operators in strong form.  The
adjoint of the spatial operator is written out analytically (the Laplacian is
self-adjoint under homogeneous Dirichlet data) instead of being transposed
numerically, so residuals stay pointwise and cheap.

Residual methods read head jets through the :class:`~ctrlpinn.autodiff.Jets`
indexing convention: ``jet.val[j]``, ``jet.dt[j]`` and ``jet.lap[j]`` are
component j of the value, its time partial and its Laplacian over the batch,
and ``jet.dx[i][j]`` its partial along axis i.  They work unchanged whether a
slot is a tape ``Var`` of shape (components, points) (training), a batched
array (closed-form oracles), or a list of per-component values.  The
spatial operators read only the Laplacian, which the training tape carries
as one slot.

Each problem also owns the outputs of a trained network:
:meth:`ControlProblem.write_artifacts` writes the final-state fields and
plots of a training run, and :meth:`ControlProblem.validate` runs the
problem's classical check and returns its report entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import svgplot, trainer, validators
from .network import ArchitectureConfig

MANIFOLD_TOL = 1e-12


@dataclass(frozen=True)
class Domain:
    """Time interval crossed with an axis-aligned spatial box (possibly empty)."""

    t0: float
    tf: float
    x_bounds: tuple = ()

    def __post_init__(self):
        if not self.t0 < self.tf:
            raise ValueError("domain requires t0 < tf")
        for lo, hi in self.x_bounds:
            if not lo < hi:
                raise ValueError("degenerate spatial bounds")

    @property
    def spatial_dim(self) -> int:
        return len(self.x_bounds)


def _check_on_manifold(name, ok):
    if not bool(np.all(ok)):
        raise ValueError(f"{name} points lie off their manifold (tolerance {MANIFOLD_TOL})")


class ControlProblem:
    """Shared condition handling; subclasses fill in the operators."""

    name: str
    domain: Domain
    n_y: int
    n_u: int
    probe_through = "lam"  # the last head probe_report reads; probes stop there

    def arch_config(self) -> ArchitectureConfig:
        return ArchitectureConfig(self.domain.spatial_dim, self.n_y, self.n_u)

    # Subclass hooks -------------------------------------------------------

    def forward_residual(self, y, u):
        raise NotImplementedError

    def adjoint_residual(self, lam, y, u, t=None, x=None):
        raise NotImplementedError

    def optimality_residual(self, lam, y, u):
        raise NotImplementedError

    def initial_state(self, x):
        """Target values of the hard initial condition, one per state."""
        raise NotImplementedError

    def terminal_adjoint_target(self, y_tf, x):
        """w_y evaluated at the terminal state, one entry per adjoint."""
        raise NotImplementedError

    def data_residuals(self, batch, outputs):
        """Supervised-data defects at the condition sets (the tracking
        integrals of the objective), from ``outputs`` as
        :meth:`condition_residuals` reads them."""
        return []

    def interior_data_residuals(self, y, t, x):
        """Supervised-data defects over interior points, from the state
        values ``y`` there (indexed by component).  Pointwise, so a column
        block of the interior set yields the defects of its own points."""
        return []

    # Cost pieces used by the quadrature validators --------------------------

    def running_cost(self, t, x, y, u):
        raise NotImplementedError

    def terminal_cost(self, x, y_tf):
        return None

    def initial_time_cost(self, x, y_t0):
        return None

    # Conditions -------------------------------------------------------------

    def condition_residuals(self, batch, outputs):
        """Pointwise defects of every named condition.

        ``outputs[name]`` holds the head values ``(y, u, lam)``, indexed by
        component like a ``Jets`` slot, at the batch's ``interior`` /
        ``initial`` / ``terminal`` / ``boundary`` point sets.  The initial
        set carries y alone (its u and lam are None): no condition reads
        them.
        Returns a dict with keys ``initial``, ``terminal_adjoint``,
        ``boundary_state``, ``boundary_adjoint`` and ``data_tracking``.
        """
        d = self.domain
        t_init, x_init = batch.initial
        t_term, x_term = batch.terminal
        t_bdry, x_bdry = batch.boundary
        _check_on_manifold("initial", np.abs(t_init - d.t0) <= MANIFOLD_TOL)
        _check_on_manifold("terminal", np.abs(t_term - d.tf) <= MANIFOLD_TOL)
        if t_bdry.size:
            on_face = np.zeros(t_bdry.shape, dtype=bool)
            for i, (lo, hi) in enumerate(d.x_bounds):
                on_face |= np.abs(x_bdry[:, i] - lo) <= MANIFOLD_TOL
                on_face |= np.abs(x_bdry[:, i] - hi) <= MANIFOLD_TOL
            _check_on_manifold("boundary", on_face)

        y_init = outputs["initial"][0]
        y_term, lam_term = outputs["terminal"][0], outputs["terminal"][2]

        targets = self.initial_state(x_init)
        initial = [y_init[j] - targets[j] for j in range(self.n_y)]

        wy = self.terminal_adjoint_target(y_term, x_term)
        terminal_adjoint = [lam_term[j] - wy[j] for j in range(self.n_y)]

        boundary_state, boundary_adjoint = [], []
        if t_bdry.size:
            y_bdry, lam_bdry = outputs["boundary"][0], outputs["boundary"][2]
            # All benchmarks use homogeneous Dirichlet data for state and
            # adjoint alike, so the defect is the raw trace.
            boundary_state = [y_bdry[j] for j in range(self.n_y)]
            boundary_adjoint = [lam_bdry[j] for j in range(self.n_y)]

        return {
            "initial": initial,
            "terminal_adjoint": terminal_adjoint,
            "boundary_state": boundary_state,
            "boundary_adjoint": boundary_adjoint,
            "data_tracking": self.data_residuals(batch, outputs),
        }

    # Probe metrics -----------------------------------------------------------

    def probe_shape(self):
        raise NotImplementedError

    def probe_points(self, shape=None):
        """The regular grid of ``shape`` points per axis over the domain
        (default :meth:`probe_shape`), time first: ``(t, x, shape)``, with
        ``t`` of shape (n,) and ``x`` of shape (n, spatial_dim)."""
        shape = tuple(shape or self.probe_shape())
        d = self.domain
        axes = [np.linspace(d.t0, d.tf, shape[0])]
        axes += [np.linspace(lo, hi, n) for (lo, hi), n in zip(d.x_bounds, shape[1:])]
        grids = np.meshgrid(*axes, indexing="ij")
        x = np.column_stack([g.ravel() for g in grids[1:]]) if d.spatial_dim else np.zeros((grids[0].size, 0))
        return grids[0].ravel(), x, shape

    def probe_report(self, t, x, y, u, lam, with_curve=False):
        raise NotImplementedError

    # Outputs of a trained network --------------------------------------------

    def field_values(self, params, n, through="u"):
        """The network's heads on the regular grid of ``n`` points per axis.

        Returns ``(t, x, (y, u, lam))``: the grid's points as
        :meth:`probe_points` lays them out, and each head up to ``through``
        reshaped to (components, n, ...).  The heads after ``through`` are
        None; by default that is lam.
        """
        t, x, shape = self.probe_points((n,) * (1 + self.domain.spatial_dim))
        heads = trainer.forward_chunked(params, t, x, through=through)
        return t, x, tuple(None if h is None else h.reshape(h.shape[0], *shape) for h in heads)

    def sampled_field(self, values):
        """:class:`ControlField` of one head component from :meth:`field_values`.

        Covers time-only problems (one x column) and 1-D spatial ones.
        """
        x0, x1 = self.domain.x_bounds[0] if self.domain.spatial_dim else (0.0, 1.0)
        return validators.ControlField(self.domain.t0, self.domain.tf, x0, x1, values.reshape(values.shape[0], -1))

    def write_artifacts(self, params, final_probe, out):
        """Final-state CSVs and plots of a training run, written into ``out``."""
        raise NotImplementedError

    def validate(self, params, out, resolution) -> dict:
        """Check the learned control classically; files go into ``out``.

        ``resolution`` is the number of grid points per axis of the exported
        control.  Returns the entries of ``report.json``.
        """
        raise NotImplementedError


def _rel_l2(a, b):
    denom = float(np.linalg.norm(b))
    if denom == 0.0:
        return float("inf")
    return float(np.linalg.norm(a - b) / denom)


def _error_by_time(t, values, target):
    """``(time, relative L2 error of values against target)`` at each
    distinct entry of ``t``, ascending, leaving out the times where the
    target vanishes (the error is undefined there)."""
    curve = []
    for tv in np.unique(t):
        sel = t == tv
        if np.linalg.norm(target[sel]) != 0.0:
            curve.append((float(tv), _rel_l2(values[sel], target[sel])))
    return curve


class AnalyticalProblem(ControlProblem):
    """Scalar linear-quadratic ODE tracking problem with a known optimal triple.

    Dynamics y' = y/2 + u on t in [0, 1], y(0) = 1, running cost y^2 + u^2/2.
    The optimal (y*, u*, lam*) are closed-form exponentials with lam* = -u*.
    """

    name = "analytical"
    n_y = 1
    n_u = 1

    def __init__(self):
        self.domain = Domain(0.0, 1.0)
        self._e3 = np.exp(3.0)

    # references ------------------------------------------------------------

    def y_star(self, t):
        t = np.asarray(t, dtype=float)
        return (2.0 * np.exp(3.0 * t) + self._e3) / (np.exp(1.5 * t) * (2.0 + self._e3))

    def u_star(self, t):
        t = np.asarray(t, dtype=float)
        return 2.0 * (np.exp(3.0 * t) - self._e3) / (np.exp(1.5 * t) * (2.0 + self._e3))

    def lam_star(self, t):
        return -self.u_star(t)

    # operators ---------------------------------------------------------------

    def forward_residual(self, y, u):
        return [y.dt[0] - (0.5 * y.val[0] + u[0])]

    def adjoint_residual(self, lam, y, u, t=None, x=None):
        return [lam.dt[0] + 0.5 * lam.val[0] + 2.0 * y.val[0]]

    def optimality_residual(self, lam, y, u):
        # Written with the sign of the benchmark statement, 0 = -lam - u;
        # the optimum is u = -lam either way.
        return [-lam[0] - u[0]]

    def initial_state(self, x):
        n = x.shape[0] if hasattr(x, "shape") else 1
        return [np.ones(n)]

    def terminal_adjoint_target(self, y_tf, x):
        n = x.shape[0] if hasattr(x, "shape") else 1
        return [np.zeros(n)]

    def data_residuals(self, batch, outputs):
        # The only supervised datum is the initial state value.
        t_init, x_init = batch.initial
        y_init = outputs["initial"][0]
        return [y_init[0] - self.initial_state(x_init)[0]]

    def running_cost(self, t, x, y, u):
        return y[0] ** 2 + 0.5 * u[0] ** 2

    def ode_rhs(self, t, y, u):
        return 0.5 * y + u

    # probes ------------------------------------------------------------------

    def probe_shape(self):
        return (1001,)

    def probe_report(self, t, x, y, u, lam, with_curve=False):
        report = {
            "err_y": _rel_l2(y[0], self.y_star(t)),
            "err_u": _rel_l2(u[0], self.u_star(t)),
            "err_lam": _rel_l2(lam[0], self.lam_star(t)),
        }
        return report

    # outputs -----------------------------------------------------------------

    def write_artifacts(self, params, final_probe, out):
        t, _, (y, u, lam) = self.field_values(params, 1001, through="lam")
        refs = (self.y_star(t), self.u_star(t), self.lam_star(t))
        rows = ["t,y,u,lam,y_ref,u_ref,lam_ref"] + [
            ",".join(repr(float(v)) for v in vals) for vals in zip(t, y[0], u[0], lam[0], *refs)
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

    def validate(self, params, out, resolution):
        """RK4 integration of the learned control against the reference state."""
        t, _, (_, u, _) = self.field_values(params, resolution)
        field_u = self.sampled_field(u[0])
        field_u.to_csv(out / "control.csv")

        def control(tv):
            return field_u.at(np.asarray(tv), 0.0)

        times, states = validators.integrate_ode(self.ode_rhs, [1.0], control, (t[0], t[-1]), steps=t.size - 1)
        y_rk = states[:, 0]
        report = {
            "rel_error_y_rk4_vs_reference": validators.relative_error(y_rk, self.y_star(times)),
            "cost_functional": validators.cost_functional(self, self.sampled_field(y_rk), field_u),
        }
        svgplot.write(out / "state_comparison.svg", svgplot.line_chart(
            [("y (RK4 with learned u)", times, y_rk), ("y*", times, self.y_star(times))],
            title="classical integration of the learned control", x_label="t",
        ))
        print(f"RK4 state vs reference: rel L2 {report['rel_error_y_rk4_vs_reference']:.4f}")
        return report


class HeatProblem(ControlProblem):
    """Distributed heating of a 1-D rod toward a prescribed final profile.

    Dynamics y_t = a * y_xx + u on [0,1] x [0,1] with homogeneous Dirichlet
    walls; the objective tracks a target profile at the initial and final
    times and penalizes control energy.  The bundled reference pair
    (y*, u* = sin(pi x) sin(pi t / 2)) satisfies the dynamics only for
    diffusivity 1.0; the benchmark constraint states 0.1.  Both facts are
    pinned by tests, and the diffusivity is a constructor knob.

    ``interior_tracking`` adds supervision of y on y*(t, x) over the interior
    as a penalty in :meth:`interior_data_residuals`.  It sits outside the
    optimality system: the objective's running cost stays u^2, so the
    penalty does not enter :meth:`adjoint_residual`.
    """

    name = "heat"
    n_y = 1
    n_u = 1
    probe_through = "u"

    def __init__(self, diffusivity: float = 0.1, interior_tracking: bool = False):
        self.domain = Domain(0.0, 1.0, ((0.0, 1.0),))
        self.diffusivity = float(diffusivity)
        if not (np.isfinite(self.diffusivity) and self.diffusivity > 0.0):
            raise ValueError(f"diffusivity must be finite and > 0, got {diffusivity!r}")
        self.interior_tracking = bool(interior_tracking)
        self._amp = 2.0 / (np.pi + 4.0 * np.pi**3)

    # references ------------------------------------------------------------

    def y_star(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        shape = (
            np.exp(-np.pi**2 * t) - np.cos(0.5 * np.pi * t) + 2.0 * np.pi * np.sin(0.5 * np.pi * t)
        )
        return self._amp * shape * np.sin(np.pi * x)

    def u_star(self, t, x):
        return np.sin(np.pi * np.asarray(x, dtype=float)) * np.sin(0.5 * np.pi * np.asarray(t, dtype=float))

    def initial_profile(self, x):
        x = np.asarray(x, dtype=float)
        return np.sin(np.pi * x) * np.sin(2.0 * np.pi * x)

    # operators ---------------------------------------------------------------

    def forward_residual(self, y, u):
        return [y.dt[0] - (self.diffusivity * y.lap[0] + u[0])]

    def adjoint_residual(self, lam, y, u, t=None, x=None):
        # The running cost is independent of y in the interior, so only the
        # (self-adjoint) diffusion term appears.
        return [lam.dt[0] + self.diffusivity * lam.lap[0]]

    def optimality_residual(self, lam, y, u):
        return [lam[0] + 2.0 * u[0]]

    def initial_state(self, x):
        return [self.initial_profile(x[:, 0])]

    def terminal_adjoint_target(self, y_tf, x):
        return [2.0 * (y_tf[0] - self.y_star(self.domain.tf, x[:, 0]))]

    def data_residuals(self, batch, outputs):
        # Tracking integrals of the objective at the initial and final times.
        # The initial tracking target y*(0, .) = 0 deliberately conflicts with
        # the hard initial profile; both defects are kept as separate
        # penalties.
        t_init, x_init = batch.initial
        t_term, x_term = batch.terminal
        y_init = outputs["initial"][0]
        y_term = outputs["terminal"][0]
        return [
            y_init[0] - self.y_star(self.domain.t0, x_init[:, 0]),
            y_term[0] - self.y_star(self.domain.tf, x_term[:, 0]),
        ]

    def interior_data_residuals(self, y, t, x):
        if not self.interior_tracking:
            return []
        # Reference-state supervision over the interior, the reading of the
        # "training data" sum that reproduces the published heat validation
        # numbers.
        return [y[0] - self.y_star(t, x[:, 0])]

    def running_cost(self, t, x, y, u):
        return u[0] ** 2

    def terminal_cost(self, x, y_tf):
        return (y_tf[0] - self.y_star(self.domain.tf, x)) ** 2

    def initial_time_cost(self, x, y_t0):
        return (y_t0[0] - self.y_star(self.domain.t0, x)) ** 2

    # probes ------------------------------------------------------------------

    def probe_shape(self):
        return (101, 101)

    def probe_report(self, t, x, y, u, lam, with_curve=False):
        xs = x[:, 0]
        target = self.y_star(t, xs)
        report = {
            "err_y": _rel_l2(y[0], target),
            "err_u": _rel_l2(u[0], self.u_star(t, xs)),
            "err_lam": None,
        }
        if with_curve:
            report["error_by_time"] = _error_by_time(t, y[0], target)  # no t = 0: the target vanishes there
        return report

    # outputs -----------------------------------------------------------------

    def write_artifacts(self, params, final_probe, out):
        n = 101
        t, x, (y, u, _) = self.field_values(params, n)
        tt, xx = t.reshape(n, n), x.reshape(n, n)
        ranges = {"x_range": self.domain.x_bounds[0], "y_range": (self.domain.t0, self.domain.tf)}
        for name, learned, ref in (("y", y[0], self.y_star(tt, xx)), ("u", u[0], self.u_star(tt, xx))):
            self.sampled_field(learned).to_csv(out / f"final_{name}.csv")
            lo = float(min(learned.min(), ref.min()))
            hi = float(max(learned.max(), ref.max()))
            svgplot.write(out / f"heatmap_{name}.svg", svgplot.heatmap(
                learned, **ranges, title=f"learned {name}(t,x)", x_label="x", y_label="t", v_min=lo, v_max=hi,
            ))
            svgplot.write(out / f"heatmap_{name}_reference.svg", svgplot.heatmap(
                ref, **ranges, title=f"reference {name}*(t,x)", x_label="x", y_label="t", v_min=lo, v_max=hi,
            ))

    def validate(self, params, out, resolution):
        """FTCS DNS driven by the learned control, against the target state."""
        n = resolution
        t, x, (_, u, _) = self.field_values(params, n)
        field_u = self.sampled_field(u[0])
        field_u.to_csv(out / "control.csv")
        dns = validators.solve_heat_dns(field_u, self.diffusivity, nx=n, initial_state=self.initial_profile)
        dns.to_csv(out / "dns_state.csv")
        table = validators.error_table(dns, self.y_star, [round(0.1 * k, 1) for k in range(1, 11)])
        validators.write_error_table(out / "relative_error_table.csv", table)
        u_ref = self.u_star(t.reshape(n, n), x.reshape(n, n))
        report = {
            "error_table": table,
            "control_effort_learned": validators.control_effort(field_u),
            "control_effort_reference": validators.control_effort(self.sampled_field(u_ref)),
        }
        tf = self.domain.tf
        svgplot.write(out / "state_comparison_tf.svg", svgplot.line_chart(
            [("DNS y(tf,x)", dns.x, dns.state_at(tf)), ("y*(tf,x)", dns.x, self.y_star(tf, dns.x))],
            title="final state: DNS with learned control vs reference", x_label="x",
        ))
        abs_err = [(tv, float(np.max(np.abs(dns.state_at(tv) - self.y_star(tv, dns.x))))) for tv, _ in table]
        svgplot.write(out / "absolute_error_loglog.svg", svgplot.line_chart(
            [("max |y - y*|", [a for a, _ in abs_err], [b for _, b in abs_err])],
            title="DNS absolute error", x_label="t", y_label="max abs error", log_y=True,
        ))
        for tv, err in table:
            print(f"t={tv:.1f}  relative error {err:.4f}")
        print(
            f"control effort: learned {report['control_effort_learned']:.4f} "
            f"vs reference {report['control_effort_reference']:.4f}"
        )
        return report


class PredatorPreyProblem(ControlProblem):
    """Reaction-diffusion herding of a prey population on the unit square.

    Two states (y1 predator, y2 prey) diffuse with +/- linear growth; only the
    prey receives a control.  The prey is steered toward a prescribed
    space-time profile through the tracking term of the running cost.  The
    predator has no published target, so it is excluded from tracking by
    default (constructor knob).
    """

    name = "predator_prey"
    n_y = 2
    n_u = 1
    probe_through = "y"

    def __init__(self, track_y1: bool = False, target_supervision: bool = False):
        self.domain = Domain(0.0, 1.0, ((0.0, 1.0), (0.0, 1.0)))
        self.track_y1 = bool(track_y1)
        self.target_supervision = bool(target_supervision)

    # references ------------------------------------------------------------

    def y2_target(self, t, x1, x2):
        t = np.asarray(t, dtype=float)
        s2 = np.sin(2.0 * np.pi * np.asarray(x1)) * np.sin(2.0 * np.pi * np.asarray(x2))
        s1 = np.sin(np.pi * np.asarray(x1)) * np.sin(np.pi * np.asarray(x2))
        return t * s2**2 + (1.0 - t) * s1

    def y1_initial(self, x1, x2):
        return np.sin(np.pi * np.asarray(x1)) * np.sin(np.pi * np.asarray(x2))

    # operators ---------------------------------------------------------------

    def forward_residual(self, y, u):
        # u1 is fixed to zero, so only the prey equation carries the control.
        return [
            y.dt[0] - (y.lap[0] - y.val[0]),
            y.dt[1] - (y.lap[1] + u[0] + y.val[1]),
        ]

    def adjoint_residual(self, lam, y, u, t=None, x=None):
        r1 = lam.dt[0] + lam.lap[0] - lam.val[0]
        if self.track_y1:
            r1 = r1 + 2.0 * (y.val[0] - self.y1_initial(x[:, 0], x[:, 1]))
        r2 = (
            lam.dt[1]
            + lam.lap[1]
            + lam.val[1]
            + 2.0 * (y.val[1] - self.y2_target(t, x[:, 0], x[:, 1]))
        )
        return [r1, r2]

    def optimality_residual(self, lam, y, u):
        return [lam[1] + 2.0 * u[0]]

    def initial_state(self, x):
        # The prey's hard initial profile is the tracking target at t = 0
        # (the "starting profile" that is then herded); it coincides with the
        # predator's stated initial profile.
        start = self.y1_initial(x[:, 0], x[:, 1])
        return [start, start.copy()]

    def data_residuals(self, batch, outputs):
        # The prey must be delivered to the prescribed final profile: its
        # terminal slice is always tracked.  Under target supervision the
        # profile additionally acts as pointwise training data over the whole
        # domain (the constraint-block reading of the benchmark statement).
        t_term, x_term = batch.terminal
        y_term = outputs["terminal"][0]
        return [y_term[1] - self.y2_target(self.domain.tf, x_term[:, 0], x_term[:, 1])]

    def interior_data_residuals(self, y, t, x):
        if not self.target_supervision:
            return []
        return [y[1] - self.y2_target(t, x[:, 0], x[:, 1])]

    def terminal_adjoint_target(self, y_tf, x):
        n = x.shape[0]
        return [np.zeros(n), np.zeros(n)]

    def running_cost(self, t, x, y, u):
        return (y[1] - self.y2_target(t, x[..., 0], x[..., 1])) ** 2 + u[0] ** 2

    # probes ------------------------------------------------------------------

    def probe_shape(self):
        return (11, 51, 51)

    def probe_report(self, t, x, y, u, lam, with_curve=False):
        target = self.y2_target(t, x[:, 0], x[:, 1])
        report = {
            "err_y": _rel_l2(y[1], target),
            "err_u": None,
            "err_lam": None,
        }
        if with_curve:
            report["error_by_time"] = _error_by_time(t, y[1], target)
        return report

    # outputs -----------------------------------------------------------------

    @staticmethod
    def _write_error_curve(curve, path):
        """The prey error-by-time curve as a table at ``path`` plus its plot."""
        validators.write_error_table(path, curve)
        svgplot.write(path.parent / "error_vs_time.svg", svgplot.line_chart(
            [("rel L2 error of y2", [c[0] for c in curve], [c[1] for c in curve])],
            title="prey tracking error over time", x_label="t", y_label="relative error",
        ))

    def write_artifacts(self, params, final_probe, out):
        curve = final_probe.get("error_by_time")
        if curve:
            self._write_error_curve(curve, out / "error_vs_time.csv")
        n = 51
        g1, g2 = np.meshgrid(*(np.linspace(lo, hi, n) for lo, hi in self.domain.x_bounds), indexing="ij")
        pts = np.column_stack([g1.ravel(), g2.ravel()])
        tf = self.domain.tf
        y, u, _ = trainer.forward_chunked(params, np.full(pts.shape[0], tf), pts, through="u")
        y2 = y[1].reshape(n, n)
        target = self.y2_target(tf, g1, g2)
        err = np.abs(y2 - target)
        lo, hi = float(min(y2.min(), target.min())), float(max(y2.max(), target.max()))
        for name, field, v_min, v_max in (
            ("y2_learned", y2, lo, hi),
            ("y2_target", target, lo, hi),
            ("y2_abs_error", err, 0.0, float(err.max())),
            ("u2_learned", u[0].reshape(n, n), None, None),
        ):
            svgplot.write(out / f"final_{name}.svg", svgplot.heatmap(
                field, x_range=self.domain.x_bounds[0], y_range=self.domain.x_bounds[1],
                title=f"{name} at t=tf", x_label="x1", y_label="x2",
                v_min=v_min, v_max=v_max,
            ))

    def validate(self, params, out, resolution):
        """The network's own prey state against the target on the probe grid.

        No classical solver covers this problem yet, so ``resolution`` is
        unused.
        """
        probe = trainer.evaluate_probe(params, self, with_curve=True)
        curve = probe["error_by_time"]
        self._write_error_curve(curve, out / "relative_error_table.csv")
        print(f"final-time y2 tracking error: {curve[-1][1]:.4f}")
        return {"err_y2": probe["err_y"], "error_by_time": curve}


PROBLEMS = {
    "analytical": AnalyticalProblem,
    "heat": HeatProblem,
    "predator_prey": PredatorPreyProblem,
}


def get_problem(name: str, **overrides) -> ControlProblem:
    """Instantiate a benchmark by id, forwarding per-problem overrides."""
    try:
        cls = PROBLEMS[name]
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; expected one of {sorted(PROBLEMS)}") from None
    return cls(**overrides)
