"""Full spectral multiscale time stepper.

Each backward-Euler step solves a tridiagonal system for the nodal
unknowns in which the subgrid closure is summed mode by mode, and carries
the per-element mode amplitudes of the subgrid field to the next step.
This is the accuracy reference; the tabulated variant lives in
vms_feasible.

Every sum over the modes that does not involve the amplitudes or the
source is folded once per velocity snapshot and per distinct (a, h):
the closure into the left-hand side, the u^n part of the right-hand
side into one matrix, and the beta weights into the amplitude
operators, so a step is one element contraction with the amplitudes
(two with a source), one matrix-vector product, the solve and one
pairing of the new amplitudes with both nodal levels.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels, mesh_fem
from .mesh_fem import (DirichletBC, TriDiagSystem, apply_dirichlet,
                       assemble_load, assemble_stiffness, combine,
                       solve_tridiag, sum_element_vectors,
                       tridiags_from_blocks)

__all__ = ["FullVmsConfig", "FullVmsResult", "init_state", "step_full",
           "run_full"]


@dataclass
class FullVmsConfig:
    mesh: object
    tgrid: object
    mu: float
    velocity: object
    bc: object = None
    source: object = None
    initial: object = None
    n_modes: int = 10
    project_initial_subgrid: bool = False

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("need at least one subgrid mode")
        if not callable(self.velocity):
            self.velocity = float(self.velocity)
        if self.bc is None:
            self.bc = DirichletBC.homogeneous()


class _Snapshot:
    """Element operators of one velocity snapshot, stacked over elements.

    The kernels.element_mode_arrays entries, computed once per distinct
    (a, h) in one call, are folded per key into the operators step_full
    applies, with trial = (phi_m, p z_j) + dt b(phi_m, p z_j) and
    test_b = (z_j, phi_l) + dt b(z_j, phi_l):
      c_to_local = (z_j, phi_l) - beta test_b and beta_test_b =
      beta test_b, (n_elems, 2, J) arrays;
      carry = [beta (phi_m, p z_j), -beta trial], (n_elems, 4, J), the
      pairings of the new amplitudes with u^n and u^{n+1};
      the 2x2 blocks sum_j beta trial[m, j] test_b[l, j] of the closure
      and sum_j beta (phi_m, p z_j) test_b[l, j] of the right-hand side.
    Each is gathered to the elements, beta into an (n_elems, J) array and
    (phi_m, p z_j) into mass_phi_pz; element k has the parameters at
    entry index[k] of params.
    """

    def __init__(self, config, a_elem):
        self.config = config
        self.a_elem = a_elem
        dt = config.tgrid.dt
        self.params, self.index = kernels.distinct_element_params(
            a_elem, config.mesh.h, config.mu, dt)
        arr = kernels.element_mode_arrays(self.params, config.n_modes)
        beta = arr["beta"][:, None, :]
        beta_mpz = beta * arr["mass_phi_pz"]
        beta_trial = beta * (arr["mass_phi_pz"] + dt * arr["adv_phi_pz"])
        test_b = arr["mass_z_phi"] + dt * arr["adv_z_phi"]
        beta_test_b = beta * test_b
        # [closure, rhs block] per key, indexed [., key, l, m]
        self._blocks = np.einsum("skmj,klj->sklm",
                                 np.stack([beta_trial, beta_mpz]), test_b)
        per_key = {
            "beta": arr["beta"],
            "mass_phi_pz": arr["mass_phi_pz"],
            "c_to_local": arr["mass_z_phi"] - beta_test_b,
            "beta_test_b": beta_test_b,
            "carry": np.concatenate([beta_mpz, -beta_trial], axis=1),
        }
        for name, v in per_key.items():
            setattr(self, name, v[self.index])

    @cached_property
    def matrices(self):
        """(lhs, rhs_matrix): M + dt R minus the closure blocks, and M
        minus the right-hand side blocks."""
        mesh, dt = self.config.mesh, self.config.tgrid.dt
        closure, block = tridiags_from_blocks(self._blocks[:, self.index])
        lhs = combine(lambda m, r, c: m + dt * r - c, mesh.mass,
                      assemble_stiffness(mesh, self.a_elem, self.config.mu),
                      closure)
        return lhs, combine(np.subtract, mesh.mass, block)

    def source_modes(self, t):
        """(n_elems, J) source projections <f, p z_j>."""
        c = self.config
        return kernels.source_mode_projection(
            c.source, t, c.mesh, self.params, self.index, c.n_modes)


def _pair(arr, *levels):
    """(n_elems, J) sums over i of arr[k, i, j] w[k, i], where w holds the
    values at nodes k and k + 1 of each nodal vector in levels in turn."""
    w = np.stack([v for u in levels for v in (u[:-1], u[1:])], axis=1)
    return np.einsum("kij,ki->kj", arr, w)


def init_state(config):
    """Initial nodal interpolant, (n_elems, n_modes) subgrid mode
    amplitudes c_j, and the _Snapshot of the velocity at t = 0 they were
    projected with (None when they start at zero).

    Amplitudes start at zero unless project_initial_subgrid is set, in
    which case the interpolation remainder u0 - I_h(u0) is projected onto
    the first modes in the weighted inner product: u0 by quadrature,
    minus the closed-form pairing (phi_m, p z_j) of I_h(u0).
    """
    mesh = config.mesh
    u0 = mesh.interpolate(config.initial)
    if not (config.project_initial_subgrid and config.initial is not None):
        return u0, np.zeros((mesh.n_elems, config.n_modes)), None
    snap = _Snapshot(config, mesh_fem.project_velocity(config.velocity,
                                                       mesh, 0.0))
    projected = kernels.source_mode_projection(
        lambda x, t: config.initial(x), 0.0, mesh, snap.params, snap.index,
        config.n_modes, n_gauss=64)
    return u0, projected - _pair(snap.mass_phi_pz, u0), snap


def step_full(u_prev, c, n, config, ctx):
    """One backward-Euler spectral step from the nodal values u_prev and
    the subgrid amplitudes c; returns (u_next, c_next).

    With known = c + (phi_m, p z_j) u^n + dt f_j, the new amplitudes are
    beta (known - trial u^{n+1}), and the element right-hand side holds
    c (z_j, phi_l) - beta known test_b.  ctx is the _Snapshot of the
    velocity at the new time level, which has both folded per key: the
    u^n part of the right-hand side is one matrix, M minus the blocks
    sum_j beta (phi_m, p z_j) test_b[l, j], and the step applies

      local  = c c_to_local - dt f_j beta_test_b
      rhs    = rhs_matrix u^n + dt (f, phi_l) + sum of local over elements
      c_next = carry (u^n, u^{n+1}) + beta (c + dt f_j)

    where carry pairs beta (phi_m, p z_j) with u^n and -beta trial with
    u^{n+1}.  Passing the same ctx to every step reuses its assembled
    matrices.
    """
    mesh, dt = config.mesh, config.tgrid.dt
    t1 = (n + 1) * dt
    lhs, rhs_matrix = ctx.matrices
    local = np.einsum("kj,klj->kl", c, ctx.c_to_local)
    c_and_source = c
    if config.source is not None:
        f_dt = dt * ctx.source_modes(t1)
        local -= np.einsum("kj,klj->kl", f_dt, ctx.beta_test_b)
        c_and_source = c + f_dt
    rhs = rhs_matrix.matvec(u_prev) \
        + dt * assemble_load(mesh, config.source, t1) \
        + sum_element_vectors(local)

    sys = apply_dirichlet(TriDiagSystem(lhs, rhs), config.bc, t1)
    u_next = solve_tridiag(sys)
    c_next = _pair(ctx.carry, u_prev, u_next)
    c_next += ctx.beta * c_and_source
    return u_next, c_next


@dataclass
class FullVmsResult:
    config: FullVmsConfig
    history: np.ndarray  # (n_steps + 1, n_nodes)
    amplitudes: np.ndarray  # (n_elems, n_modes), final time level only


def run_full(config):
    """March the full spectral method over the whole time grid; the
    result keeps every nodal level but only the final amplitudes."""
    u0, amplitudes, snap0 = init_state(config)

    def build(a_elem):
        # march's own rule: the t = 0 snapshot serves a level whose
        # projection equals it
        if snap0 is not None and np.array_equal(a_elem, snap0.a_elem):
            return snap0
        return _Snapshot(config, a_elem)

    history, amplitudes = mesh_fem.march(
        config.mesh, config.tgrid, config.velocity, u0, build,
        lambda n, u, ctx, _old, c: step_full(u, c, n, config, ctx),
        carry=amplitudes)
    return FullVmsResult(config, history, amplitudes)
