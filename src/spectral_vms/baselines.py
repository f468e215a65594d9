"""Galerkin implicit-Euler stepper and tau-stabilized variants.

The stabilized schemes add dt a^2 tau M_s to the Galerkin matrix, where
M_s is (1/h) tridiag(-1, 2, -1) and tau is one of four published
coefficient choices.
"""

from dataclasses import dataclass

import numpy as np

from . import mesh_fem
from .mesh_fem import (DirichletBC, TriDiag, TriDiagSystem, apply_dirichlet,
                       assemble_load, assemble_mass, assemble_stiffness,
                       combine, solve_tridiag)

__all__ = ["StabChoice", "tau", "cfl_bound", "assemble_stab_matrix",
           "step_matrices", "step_galerkin", "step_stabilized",
           "run_galerkin", "run_stabilized", "STAB_KINDS"]

STAB_KINDS = ("OneD", "Codina", "Hauke", "Franca")


@dataclass(frozen=True)
class StabChoice:
    kind: str
    franca_threshold: float = 1.0

    def __post_init__(self):
        if self.kind not in STAB_KINDS:
            raise ValueError("unknown stabilization kind %r" % self.kind)
        if not (np.isfinite(self.franca_threshold)
                and self.franca_threshold > 0.0):
            raise ValueError("Franca threshold must be positive")


def tau(choice, a, mu, h, dt):
    """Stabilization coefficient, elementwise over arrays of a and h."""
    a_abs = np.abs(np.asarray(a, dtype=float))
    h = np.asarray(h, dtype=float)
    mesh_fem.check_positive("mu", mu)
    mesh_fem.check_positive("dt", dt)
    if not np.all(h > 0.0):
        raise ValueError("h must be positive")
    P = a_abs * h / (2.0 * mu)
    # the branch not taken may divide by a = 0; np.where discards it
    with np.errstate(divide="ignore", invalid="ignore"):
        if choice.kind == "OneD":
            # mu/a^2 (P coth P - 1); series limit P^2/3 for tiny P
            out = np.where(P < 1e-4, h ** 2 / (12.0 * mu),
                           mu / a_abs ** 2 * (P / np.tanh(P) - 1.0))
        elif choice.kind == "Codina":
            out = 1.0 / np.hypot(4.0 * mu / h ** 2, 2.0 * a_abs / h)
        elif choice.kind == "Hauke":
            # the advective candidate is inf at a = 0 and drops out
            out = np.minimum(np.minimum(h ** 2 / (24.24 * mu), dt),
                             h / (np.sqrt(3.0) * a_abs))
        else:
            # Franca: (h/|a|) min(P, Pbar); the P branch equals h^2/(2 mu)
            out = np.where(P <= choice.franca_threshold, h ** 2 / (2.0 * mu),
                           h / a_abs * choice.franca_threshold)
    return out[()]


def cfl_bound(P):
    """Threshold P / (3 (1 - P)) below which the Galerkin CFL number
    produces spurious temporal oscillations (valid for 0 < P < 1)."""
    if not 0.0 < P < 1.0:
        raise ValueError("the bound is defined for 0 < P < 1")
    return P / (3.0 * (1.0 - P))


def assemble_stab_matrix(mesh, coeff=1.0):
    """M_s with per-element weights: element block (coeff_K / h)
    [[1, -1], [-1, 1]]."""
    coeff = np.broadcast_to(np.asarray(coeff, dtype=float), (mesh.n_elems,))
    return TriDiag.from_blocks((coeff / mesh.h)[:, None, None]
                               * np.array([[1.0, -1.0], [-1.0, 1.0]]))


def step_matrices(mesh, a_elem, mu, dt, choice=None):
    """(lhs, mass) of one implicit-Euler step: lhs = M + dt R, plus
    dt a^2 tau M_s when a StabChoice is given."""
    m = assemble_mass(mesh)
    r = assemble_stiffness(mesh, a_elem, mu)
    if choice is None:
        return combine(lambda m, r: m + dt * r, m, r), m
    coeff = a_elem * a_elem * tau(choice, a_elem, mu, mesh.h, dt)
    return combine(lambda m, r, s: m + dt * r + dt * s, m, r,
                   assemble_stab_matrix(mesh, coeff)), m


def _solve_step(matrices, u_prev, mesh, dt, f, bc, t_new):
    lhs, m = matrices
    bc = bc or DirichletBC.homogeneous()
    t_new = dt if t_new is None else t_new
    rhs = m.matvec(u_prev) + dt * assemble_load(mesh, f, t_new)
    return solve_tridiag(apply_dirichlet(TriDiagSystem(lhs, rhs), bc, t_new))


def step_galerkin(u_prev, matrices, mesh, dt, f=None, bc=None, t_new=None):
    """(M + dt R) u = M u_prev + dt F with Dirichlet values at t_new.

    matrices is the step_matrices pair of the step's velocity; passing
    the same one to every step reuses the left-hand side and its
    factorisation.
    """
    return _solve_step(matrices, u_prev, mesh, dt, f, bc, t_new)


def step_stabilized(u_prev, matrices, mesh, dt, f=None, bc=None,
                    t_new=None):
    """Stabilized step (M + dt R + dt a^2 tau M_s) u = M u_prev + dt F.

    matrices is the step_matrices pair of the step's velocity and
    StabChoice, as in step_galerkin.
    """
    return _solve_step(matrices, u_prev, mesh, dt, f, bc, t_new)


def run_galerkin(mesh, tgrid, velocity, mu, initial=None, f=None, bc=None):
    return run_stabilized(None, mesh, tgrid, velocity, mu, initial, f, bc)


def run_stabilized(choice, mesh, tgrid, velocity, mu, initial=None, f=None,
                   bc=None):
    """March step_stabilized, or step_galerkin when choice is None."""
    dt = tgrid.dt
    step = step_galerkin if choice is None else step_stabilized
    history, _ = mesh_fem.march(
        mesh, tgrid, velocity, mesh.interpolate(initial),
        lambda a_elem: step_matrices(mesh, a_elem, mu, dt, choice),
        lambda n, u, matrices, _old, _carry: (
            step(u, matrices, mesh, dt, f, bc, (n + 1) * dt), None))
    return history
