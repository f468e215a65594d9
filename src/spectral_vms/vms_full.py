"""Full spectral multiscale time stepper.

Each backward-Euler step solves a tridiagonal system for the nodal
unknowns in which the subgrid closure is summed mode by mode, and carries
the per-element mode amplitudes of the subgrid field to the next step.
This is the accuracy reference; the tabulated variant lives in
vms_feasible.
"""

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import kernels, mesh_fem
from .mesh_fem import (DirichletBC, TriDiag, TriDiagSystem, VelocityField,
                       apply_dirichlet, assemble_load, assemble_mass,
                       assemble_stiffness, solve_tridiag, sum_element_vectors)

__all__ = ["FullVmsConfig", "SubgridState", "FullVmsResult", "init_state",
           "step_full", "run_full", "approximate_subgrid_state"]


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
    velocity_rule: str = "midpoint"
    source_gauss: int = 32

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("need at least one subgrid mode")
        if not isinstance(self.velocity, VelocityField):
            self.velocity = VelocityField(self.velocity)
        if self.bc is None:
            self.bc = DirichletBC.homogeneous()


@dataclass
class SubgridState:
    """Per-element mode amplitudes c_j of the subgrid field."""

    amplitudes: np.ndarray  # (n_elems, n_modes)

    @classmethod
    def zeros(cls, n_elems, n_modes):
        return cls(np.zeros((n_elems, n_modes)))

    def copy(self):
        return SubgridState(self.amplitudes.copy())


class _Snapshot:
    """Element data of one velocity snapshot, stacked over elements.

    The kernels.element_mode_arrays entries, computed once per distinct
    (a, h) in one call, are gathered into (n_elems, 2, J) arrays and beta
    into an (n_elems, J) array; element k has the parameters at entry
    index[k] of params.
    """

    def __init__(self, config, a_elem):
        self.config = config
        self.a_elem = a_elem
        self.params, self.index = kernels.distinct_element_params(
            a_elem, config.mesh.h, config.mu, config.tgrid.dt)
        per_key = kernels.element_mode_arrays(self.params, config.n_modes)
        for name, arr in per_key.items():
            setattr(self, name, arr[self.index])
        # (z_j, phi_l) + dt b(z_j, phi_l)
        self.test_b = self.mass_z_phi + config.tgrid.dt * self.adv_z_phi

    @cached_property
    def matrices(self):
        """(lhs, mass): M + dt R - (A1 + dt A2 + dt A3 + dt^2 A4), and M."""
        mesh, dt = self.config.mesh, self.config.tgrid.dt
        mass = assemble_mass(mesh)
        trial = self.mass_phi_pz + dt * self.adv_phi_pz
        closure = np.einsum("kj,kmj,klj->klm", self.beta, trial, self.test_b)
        lhs = mass + dt * assemble_stiffness(mesh, self.a_elem,
                                             self.config.mu) \
            - TriDiag.from_blocks(closure)
        return lhs, mass

    def source_modes(self, t):
        """(n_elems, J) source projections <f, p z_j>."""
        c = self.config
        return kernels.source_mode_projection(
            c.source, t, c.mesh, self.params, self.index, c.n_modes,
            c.source_gauss)


def _pair(arr, u):
    """(n_elems, J) sums over m of arr[k, m, j] u[k + m] for a nodal u."""
    return np.einsum("kmj,km->kj", arr, np.stack([u[:-1], u[1:]], axis=1))


def init_state(config):
    """Initial nodal interpolant and subgrid amplitudes.

    Amplitudes start at zero unless project_initial_subgrid is set, in
    which case the interpolation remainder u0 - I_h(u0) is projected onto
    the first modes in the weighted inner product.
    """
    mesh = config.mesh
    u0 = mesh.interpolate(config.initial)
    if not (config.project_initial_subgrid and config.initial is not None):
        return u0, SubgridState.zeros(mesh.n_elems, config.n_modes)
    a_elem = mesh_fem.project_velocity(config.velocity, mesh, 0.0,
                                       config.velocity_rule)
    params, index = kernels.distinct_element_params(
        a_elem, mesh.h, config.mu, config.tgrid.dt)
    return u0, SubgridState(kernels.source_mode_projection(
        lambda x, t: config.initial(x), 0.0, mesh, params, index,
        config.n_modes, n_gauss=64, nodal=u0))


def step_full(u_prev, state, n, config, ctx):
    """One backward-Euler spectral step; returns (u_next, state_next).

    ctx is the _Snapshot of the velocity at the new time level; passing
    the same one to every step reuses its assembled matrices.
    """
    mesh, dt = config.mesh, config.tgrid.dt
    t1 = (n + 1) * dt
    lhs, mass = ctx.matrices
    c, b, test_b = state.amplitudes, ctx.beta, ctx.test_b
    proj_u = _pair(ctx.mass_phi_pz, u_prev)
    known = c + proj_u
    # per-element subgrid carry-over, minus the (u^n, p z_j)-driven part
    # of the closure
    local = np.einsum("kj,klj->kl", (1.0 - b) * c, ctx.mass_z_phi) \
        - np.einsum("kj,klj->kl", b * (c * dt), ctx.adv_z_phi) \
        - np.einsum("kj,klj->kl", b * proj_u, test_b)
    if config.source is not None:
        f_mode = ctx.source_modes(t1)
        known += dt * f_mode
        local -= np.einsum("kj,klj->kl", b * dt * f_mode, test_b)
    rhs = mass.matvec(u_prev) + dt * assemble_load(mesh, config.source, t1) \
        + sum_element_vectors(local)

    sys = apply_dirichlet(TriDiagSystem(lhs, rhs), config.bc, t1)
    u_next = solve_tridiag(sys)
    resid = known - _pair(ctx.mass_phi_pz, u_next) \
        - dt * _pair(ctx.adv_phi_pz, u_next)
    return u_next, SubgridState(b * resid)


def approximate_subgrid_state(u_prevprev, u_prev, n, config, ctx):
    """Amplitudes rebuilt from the two-level residual instead of carried.

    ctx is the _Snapshot of the velocity at time level n.  Feeding these
    into step_full reproduces the tabulated method's one-level history
    exactly (constant-in-time velocity).
    """
    dt = config.tgrid.dt
    t0 = n * dt
    resid = _pair(ctx.mass_phi_pz, u_prevprev - u_prev) \
        - dt * _pair(ctx.adv_phi_pz, u_prev)
    if config.source is not None:
        resid += dt * ctx.source_modes(t0)
    return SubgridState(ctx.beta * resid)


@dataclass
class FullVmsResult:
    config: FullVmsConfig
    history: np.ndarray  # (n_steps + 1, n_nodes)
    amplitudes: np.ndarray  # (n_elems, n_modes), final time level only

    def sample(self, points_per_elem=8):
        """Dense samples of nodal-plus-subgrid field at the final time."""
        c = self.config
        step = c.tgrid.n_steps
        mesh, u, amps = c.mesh, self.history[step], self.amplitudes
        a_elem = mesh_fem.project_velocity(c.velocity, mesh,
                                           step * c.tgrid.dt, c.velocity_rule)
        params, index = kernels.distinct_element_params(
            a_elem, mesh.h, c.mu, c.tgrid.dt)
        xhat = np.linspace(0.0, 1.0, points_per_elem)
        j = np.arange(1, amps.shape[1] + 1)[:, None]
        # (n_elems, J, points)
        modes = kernels.mode_value(j, params, xhat)[index]
        sub = np.einsum("kj,kjx->kx", amps, modes) / np.sqrt(mesh.h)[:, None]
        lin = u[:-1, None] * (1.0 - xhat) + u[1:, None] * xhat
        xs = mesh.nodes[:-1, None] + mesh.h[:, None] * xhat
        return xs.ravel(), (lin + sub).ravel()


def run_full(config):
    """March the full spectral method over the whole time grid; the
    result keeps every nodal level but only the final amplitudes."""
    u0, state = init_state(config)
    history, state = mesh_fem.march(
        config.mesh, config.tgrid, config.velocity, config.velocity_rule,
        u0, partial(_Snapshot, config),
        lambda n, u, ctx, _old, state: step_full(u, state, n, config, ctx),
        carry=state)
    return FullVmsResult(config, history, state.amplitudes)
