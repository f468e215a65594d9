"""Error norms, reference solutions, experiment presets and studies.

Errors are measured at grid nodes through the quadratic forms of the P1
interpolant: per-step L2 norm sqrt(e' M e) and H1 seminorm sqrt(e' K e)
with K the unit-diffusion stiffness.  Aggregation over steps 1..N gives
the max-in-time L2 norm and the root-dt-weighted H1 norm.
"""

import contextlib
import contextvars
import csv
from dataclasses import dataclass

import numpy as np

from .baselines import run_galerkin, run_stabilized
from .kernels import element_params
from .mesh_fem import (DirichletBC, TimeGrid, assemble_stiffness,
                       build_uniform_mesh)
from .vms_feasible import FeasibleConfig, run_feasible
from .vms_full import FullVmsConfig, run_full

__all__ = ["ErrorReport", "ExperimentPreset", "PRESETS", "METHODS",
           "error_norms", "reference_solution", "convergence_order",
           "run_method", "run_experiment", "time_convergence_study",
           "mesh_independence_study", "shared_test1_runs",
           "write_report_csv", "write_solutions_csv", "hat_profile",
           "test1_exact", "test1_bc"]

FLOAT_FMT = "%.17g"


def hat_profile(x):
    """Initial profile: 1 on |x - 0.45| <= 0.25, else 0."""
    return np.where(np.abs(x - 0.45) <= 0.25, 1.0, 0.0)


def test1_exact(x, t, a=1.0, mu=20.0):
    return np.exp(x + (mu - a) * t)


def test1_bc(a=1.0, mu=20.0):
    return DirichletBC(lambda t: np.exp((mu - a) * t),
                       lambda t: np.exp(1.0 + (mu - a) * t))


@dataclass
class ErrorReport:
    linf_l2: float
    l2_h1: float
    l2_h1_full: float
    per_step_l2: np.ndarray
    per_step_h1: np.ndarray


def error_norms(history, reference, mesh, dt):
    """Aggregate nodal-error norms over steps 1..N."""
    history = np.asarray(history, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if history.shape != reference.shape:
        raise ValueError("history and reference shapes differ")
    if history.shape[1] != mesh.n_nodes:
        raise ValueError("history does not match the mesh")
    mass, stiff = mesh.mass, assemble_stiffness(mesh, 0.0, 1.0)
    err = history - reference
    l2 = np.empty(history.shape[0] - 1)
    h1 = np.empty_like(l2)
    for n in range(1, history.shape[0]):
        e = err[n]
        l2[n - 1] = np.sqrt(max(0.0, e @ mass.matvec(e)))
        h1[n - 1] = np.sqrt(max(0.0, e @ stiff.matvec(e)))
    return ErrorReport(
        linf_l2=float(np.max(l2)),
        l2_h1=float(np.sqrt(dt * np.sum(h1 ** 2))),
        l2_h1_full=float(np.sqrt(dt * np.sum(h1 ** 2 + l2 ** 2))),
        per_step_l2=l2, per_step_h1=h1)


@dataclass(frozen=True)
class ExperimentPreset:
    id: str
    a: float
    mu: float
    h: float
    dt: float
    n_steps: int
    ic: str  # "hat" or "exp"
    bc: str  # "homogeneous" or "test1"
    n_modes: int
    P: float
    S: float
    methods: tuple = ("galerkin", "spectral-feasible", "stab-codina",
                      "stab-1d", "stab-hauke", "stab-franca")

    @property
    def n_elems(self):
        return int(round(1.0 / self.h))

    def mesh(self):
        return build_uniform_mesh(0.0, 1.0, self.n_elems)

    def tgrid(self):
        return TimeGrid.from_dt(self.dt, self.n_steps)

    def initial(self):
        return np.exp if self.ic == "exp" else hat_profile

    def dirichlet(self):
        if self.bc == "test1":
            return test1_bc(self.a, self.mu)
        return DirichletBC.homogeneous()

    def check_parameters(self):
        p = element_params(self.a, self.h, self.mu, self.dt)
        if abs(p.P - self.P) > 1e-12 * max(1.0, self.P) \
                or abs(p.S - self.S) > 1e-12 * max(1.0, self.S):
            raise ValueError("preset %s is inconsistent with (P, S)"
                             % self.id)


PRESETS = {p.id: p for p in [
    ExperimentPreset(
        id="test1", a=1.0, mu=20.0, h=0.05 / 4.0, dt=0.01, n_steps=10,
        ic="exp", bc="test1", n_modes=10, P=0.05 / 4.0 / 40.0,
        S=0.01 * 20.0 / (0.05 / 4.0) ** 2,
        methods=("spectral-full",)),
    ExperimentPreset(
        id="test2-big-peclet", a=1000.0, mu=1.0, h=0.02, dt=1e-3,
        n_steps=9, ic="hat", bc="homogeneous", n_modes=150, P=10.0, S=2.5),
    ExperimentPreset(
        id="test2-small-dt", a=1000.0, mu=1.0, h=0.02, dt=1e-5,
        n_steps=1, ic="hat", bc="homogeneous", n_modes=150, P=10.0,
        S=0.025),
    ExperimentPreset(
        id="test2-cfl", a=20.0, mu=1.0, h=0.01, dt=1.0 / 108000.0,
        n_steps=5, ic="hat", bc="homogeneous", n_modes=150, P=0.1,
        S=(1.0 / 108000.0) / 1e-4),
    ExperimentPreset(
        id="test3-a", a=300.0, mu=1.0, h=0.02, dt=1e-2, n_steps=3,
        ic="hat", bc="homogeneous", n_modes=150, P=3.0, S=25.0),
    ExperimentPreset(
        id="test3-b", a=100.0, mu=0.5, h=1e-2, dt=1e-3, n_steps=3,
        ic="hat", bc="homogeneous", n_modes=150, P=1.0, S=5.0),
    ExperimentPreset(
        id="test3-c", a=700.0, mu=1.0, h=1e-2, dt=1e-2, n_steps=3,
        ic="hat", bc="homogeneous", n_modes=150, P=3.5, S=100.0),
]}

METHODS = ("galerkin", "spectral-full", "spectral-feasible", "stab-1d",
           "stab-codina", "stab-hauke", "stab-franca")

_STAB_OF = {"stab-1d": "OneD", "stab-codina": "Codina",
            "stab-hauke": "Hauke", "stab-franca": "Franca"}


def run_method(method, mesh, tgrid, a, mu, initial=None, bc=None,
               source=None, n_modes=150, provider=None):
    """Dispatch one solver; returns the (n_steps+1, n_nodes) history."""
    if method == "galerkin":
        return run_galerkin(mesh, tgrid, a, mu, initial=initial, f=source,
                            bc=bc)
    if method in _STAB_OF:
        return run_stabilized(_STAB_OF[method], mesh, tgrid, a, mu,
                              initial=initial, f=source, bc=bc)
    if method == "spectral-full":
        config = FullVmsConfig(mesh=mesh, tgrid=tgrid, mu=mu, velocity=a,
                               bc=bc, source=source, initial=initial,
                               n_modes=n_modes)
        return run_full(config).history
    if method == "spectral-feasible":
        config = FeasibleConfig(mesh=mesh, tgrid=tgrid, mu=mu, velocity=a,
                                bc=bc, source=source, initial=initial,
                                provider=provider)
        return run_feasible(config)
    raise ValueError("unknown method %r" % method)


def reference_solution(preset, refine=64):
    """Nodal reference history on the preset's mesh.

    test1 samples the closed-form solution.  The other presets
    approximate the implicit-Euler time semi-discretisation by running
    Galerkin on a refine-times finer mesh with the same time step and
    restricting to the coarse nodes.  The semi-discrete problem evolves
    the same initial data the coarse methods use (the nodal interpolant
    of u0); starting the fine run from the raw profile instead would
    stall its Richardson convergence at the initial discontinuity.
    """
    mesh = preset.mesh()
    tgrid = preset.tgrid()
    times = tgrid.times()
    if preset.id == "test1":
        return np.array([test1_exact(mesh.nodes, t, preset.a, preset.mu)
                         for t in times])
    u0 = mesh.interpolate(preset.initial())
    fine = build_uniform_mesh(0.0, 1.0, preset.n_elems * refine)
    hist = run_galerkin(fine, tgrid, preset.a, preset.mu,
                        initial=lambda x: np.interp(x, mesh.nodes, u0),
                        bc=preset.dirichlet())
    return hist[:, ::refine]


def convergence_order(errors, steps):
    """Least-squares slope of log(error) against log(step size)."""
    errors = np.asarray(errors, dtype=float)
    steps = np.asarray(steps, dtype=float)
    if errors.size < 3 or errors.size != steps.size:
        raise ValueError("need at least three matching points")
    if np.any(errors <= 0.0) or np.any(steps <= 0.0):
        raise ValueError("convergence data must be positive")
    return float(np.polyfit(np.log(steps), np.log(errors), 1)[0])


def run_experiment(preset, methods=None, provider=None, n_modes=None,
                   refine=64):
    """Run the preset's method set against its reference.

    Returns (results, reference) where results maps method id to a dict
    with the solution history and its ErrorReport.
    """
    preset.check_parameters()
    methods = list(methods) if methods else list(preset.methods)
    mesh = preset.mesh()
    tgrid = preset.tgrid()
    reference = reference_solution(preset, refine=refine)
    results = {}
    for method in methods:
        hist = run_method(method, mesh, tgrid, preset.a, preset.mu,
                          initial=preset.initial(), bc=preset.dirichlet(),
                          n_modes=n_modes or preset.n_modes,
                          provider=provider)
        results[method] = {
            "history": hist,
            "errors": error_norms(hist, reference, mesh, tgrid.dt),
        }
    return results, reference


# The runs memoised by shared_test1_runs, keyed by the arguments of
# _test1_full_errors; None outside such a block.
_TEST1_RUNS = contextvars.ContextVar("test1_runs", default=None)


@contextlib.contextmanager
def shared_test1_runs():
    """Within the block, each distinct test1 run (h, dt, n_steps, a, mu,
    n_modes) of the studies is evaluated once; the memo ends with the
    block, so a later study runs again."""
    token = _TEST1_RUNS.set({})
    try:
        yield
    finally:
        _TEST1_RUNS.reset(token)


def _test1_full_errors(h, dt, n_steps, a, mu, n_modes):
    """ErrorReport of the full method on test1 with mesh size h and
    n_steps steps of dt, against the exact solution."""
    runs = _TEST1_RUNS.get()
    key = (h, dt, n_steps, a, mu, n_modes)
    if runs is not None and key in runs:
        return runs[key]
    mesh = build_uniform_mesh(0.0, 1.0, int(round(1.0 / h)))
    tgrid = TimeGrid.from_dt(dt, n_steps)
    config = FullVmsConfig(mesh=mesh, tgrid=tgrid, mu=mu, velocity=a,
                           bc=test1_bc(a, mu), initial=np.exp,
                           n_modes=n_modes, project_initial_subgrid=True)
    ref = np.array([test1_exact(mesh.nodes, t, a, mu)
                    for t in tgrid.times()])
    report = error_norms(run_full(config).history, ref, mesh, dt)
    if runs is not None:
        runs[key] = report
    return report


def mesh_independence_study(h_values=None, dt=0.01, n_steps=10, a=1.0,
                            mu=20.0, n_modes=10):
    """Nodal errors of the full method across meshes at fixed dt."""
    h_values = h_values if h_values is not None \
        else [0.05 / 2 ** i for i in range(2, 8)]
    rows = []
    for h in h_values:
        rep = _test1_full_errors(h, dt, n_steps, a, mu, n_modes)
        rows.append({"h": h, "linf_l2": rep.linf_l2, "l2_h1": rep.l2_h1})
    return rows


def time_convergence_study(dt_values=None, h=0.05 / 32, a=1.0, mu=20.0,
                           n_modes=10):
    """Errors of the full method under time-step halving at fixed h."""
    dt_values = dt_values if dt_values is not None \
        else [0.01 / 2 ** i for i in range(4)]
    rows = []
    for dt in dt_values:
        rep = _test1_full_errors(h, dt, int(round(0.1 / dt)), a, mu, n_modes)
        rows.append({"dt": dt, "linf_l2": rep.linf_l2, "l2_h1": rep.l2_h1})
    return rows


def write_report_csv(path, results):
    """Error table: one row per method, columns method,linf_l2,l2_h1."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "linf_l2", "l2_h1"])
        for method in results:
            rep = results[method]["errors"]
            writer.writerow([method, FLOAT_FMT % rep.linf_l2,
                             FLOAT_FMT % rep.l2_h1])


def write_solutions_csv(path, mesh, tgrid, histories):
    """Per-step nodal dumps: x,t,step,method,value rows.

    The rows of one (method, time level) come from one format call; the
    file is what csv.writer writes for the same rows (no field needs
    quoting, lines end in \\r\\n).
    """
    xs = [FLOAT_FMT % x for x in mesh.nodes.tolist()]
    ts = [FLOAT_FMT % t for t in tgrid.times().tolist()]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["x", "t", "step", "method", "value"])
        for method, hist in histories.items():
            for n, t in enumerate(ts):
                tail = (",%s,%d,%s," % (t, n, method)).replace("%", "%%") \
                    + FLOAT_FMT + "\r\n"
                fh.write((tail.join(xs) + tail) % tuple(hist[n].tolist()))
