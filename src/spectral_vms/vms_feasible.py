"""Feasible spectral multiscale stepper.

Drops the deepest level of the subgrid history so each step becomes a
two-level linear recursion on nodal values whose extra matrices depend
only on the per-element parameters (P, S).  Those dimensionless kernels
come from a provider: closed forms from the element Green's function,
series over a fixed number of modes, or interpolation of an offline
table.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, mesh_fem, table as table_mod
from .kernels import FAMILIES, FAMILY_ORDER
from .mesh_fem import (DirichletBC, TriDiag, TriDiagSystem, VelocityField,
                       apply_dirichlet, assemble_load, assemble_mass,
                       assemble_stiffness, solve_tridiag)

__all__ = ["DirectKernelProvider", "TableKernelProvider",
           "NullKernelProvider", "FeasibleConfig", "FeasibleMatrices",
           "assemble_matrices", "step_feasible", "first_step_policy",
           "run_feasible", "FeasibleState"]

_SIGN = np.array([-1.0, 1.0])


class DirectKernelProvider:
    """Kernels evaluated directly: closed forms from the element Green's
    function, or series summed over exactly n_modes modes.

    policy is accepted and unused, but not together with n_modes: the
    benchmark's online workload still passes a TruncationPolicy (ROADMAP
    item 6 removes it).
    """

    def __init__(self, policy=None, n_modes=None):
        if policy is not None and n_modes is not None:
            raise ValueError("give at most one of policy or n_modes")
        self.n_modes = n_modes

    def kernels(self, entries, P, S):
        """Values of each (family name, m, l) entry at the points
        (P[k], S[k]), as an (n_entries, n_points) array."""
        if self.n_modes is not None:
            return np.array([kernels.sum_series_fixed(name, m, l, P, S,
                                                      self.n_modes)
                             for name, m, l in entries])
        return kernels.closed_form_kernels(entries, P, S)

    def kernel(self, family, m, l, P, S):
        return float(self.kernels([(family, m, l)], [P], [S])[0, 0])


class TableKernelProvider:
    """Kernels interpolated from an offline table of the A1 and B1
    blocks; the other families are sums of their entries."""

    def __init__(self, table):
        self.table = table

    def kernels(self, entries, P, S):
        """Values of each (family name, m, l) entry at the points
        (P[k], S[k]), as an (n_entries, n_points) array."""
        blocks = {}
        for prefix in {name[0] for name, _, _ in entries}:
            name = prefix + "1"
            blocks[prefix] = np.array(
                [[table_mod.interpolate(self.table, name, m, l, P, S)
                  for l in (0, 1)] for m in (0, 1)])
        return kernels.kernels_from_blocks(entries, blocks)

    def kernel(self, family, m, l, P, S):
        return float(self.kernels([(family, m, l)], [P], [S])[0, 0])


class NullKernelProvider:
    """All kernels zero: reduces every step to plain Galerkin."""

    def kernels(self, entries, P, S):
        return np.zeros((len(entries), np.size(P)))

    def kernel(self, family, m, l, P, S):
        return float(self.kernels([(family, m, l)], [P], [S])[0, 0])


@dataclass
class FeasibleMatrices:
    """Subgrid matrices of one velocity snapshot, physical units."""

    A1: TriDiag
    A2: TriDiag
    A3: TriDiag
    A4: TriDiag
    B1: TriDiag
    B2: TriDiag
    B3: TriDiag
    B4: TriDiag
    mass: TriDiag
    stiff: TriDiag
    a_elem: np.ndarray
    element_kernels: dict  # A/B family -> kernels stacked over elements


_MATRIX_ENTRIES = [(name, m, l) for name in FAMILY_ORDER
                   for m, l in FAMILIES[name].index_pairs]


def _kernels_by_element(provider, params, index):
    """{family: A/B kernels stacked over elements, indexed [k, m, l],
    [k, m], [k, l] or [k]}, from one provider query over the distinct
    (P, S) of the elements."""
    keys, key_of = np.unique([(p.P, p.S) for p in params], axis=0,
                             return_inverse=True)
    vals = provider.kernels(_MATRIX_ENTRIES, keys[:, 0], keys[:, 1])
    gather = key_of.reshape(-1)[index]
    out, row = {}, 0
    for name in FAMILY_ORDER:
        fam = FAMILIES[name]
        stacked = vals[row:row + fam.n_entries].T
        out[name] = stacked.reshape(
            (len(keys),) + (2,) * len(fam.index_kind))[gather]
        row += fam.n_entries
    return out


def _mirror(local, a_elem):
    """Flip the local indices of the elements with a < 0."""
    axes = tuple(range(1, local.ndim))
    return np.where(np.expand_dims(a_elem < 0.0, axes),
                    np.flip(local, axes), local)


def assemble_matrices(mesh, a_elem, mu, dt, provider):
    """Assemble A1..A4 and B1..B4 from per-element kernels.

    For a < 0 the element is mirrored: the positive-velocity block is
    built with |a| and flipped in both local indices.
    """
    a_elem = np.broadcast_to(np.asarray(a_elem, dtype=float),
                             (mesh.n_elems,))
    params, index = kernels.distinct_element_params(a_elem, mesh.h, mu, dt)
    kern = _kernels_by_element(provider, params, index)
    h = mesh.h[:, None, None]
    a_abs = np.abs(a_elem)[:, None, None]
    mats = {}
    for prefix in ("A", "B"):
        k1 = kern[prefix + "1"]  # (n_elems, m, l)
        k2 = kern[prefix + "2"]  # (n_elems, l)
        k3 = kern[prefix + "3"]  # (n_elems, m)
        k4 = kern[prefix + "4"]  # (n_elems,)
        blocks = {
            "1": 2.0 * h * k1.transpose(0, 2, 1),
            "2": 2.0 * a_abs * _SIGN[None, :] * k2[:, :, None],
            "3": -2.0 * a_abs * _SIGN[:, None] * k3[:, None, :],
            "4": -(2.0 * a_abs ** 2 / h)
                 * np.outer(_SIGN, _SIGN) * k4[:, None, None],
        }
        for idx, block in blocks.items():
            mats[prefix + idx] = TriDiag.from_blocks(_mirror(block, a_elem))
    return FeasibleMatrices(
        **mats, mass=assemble_mass(mesh),
        stiff=assemble_stiffness(mesh, a_elem, mu),
        a_elem=a_elem, element_kernels=kern)


# The force series Fd0, Fe0, Fbd0 and Fbe0 have the sides and weight
# power of A2, A4, B2 and B4, so they are read from the matrix kernels.
_FORCE_FAMILIES = {"F1": "A2", "F2": "A4", "F3": "B2", "F4": "B4"}


def _force_vectors(mesh, mats, f, t):
    """Subgrid force vectors F1, F2 (beta weights) and F3, F4 (beta^2).

    The source is projected to its element-midpoint value, matching the
    element-constant kernel reduction.
    """
    if f is None:
        return {name: np.zeros(mesh.n_nodes) for name in _FORCE_FAMILIES}
    f_mid = np.array([f(x, t) for x in mesh.nodes[:-1] + 0.5 * mesh.h],
                     dtype=float)[:, None]
    kern = mats.element_kernels
    a_abs = np.abs(mats.a_elem)[:, None]
    out = {}
    for name, fam in _FORCE_FAMILIES.items():
        if FAMILIES[fam].index_kind == "l":
            vec = 2.0 * mesh.h[:, None] * f_mid * kern[fam]
        else:
            vec = -2.0 * a_abs * f_mid * _SIGN * kern[fam][:, None]
        out[name] = mesh_fem.sum_element_vectors(_mirror(vec, mats.a_elem))
    return out


@dataclass
class FeasibleState:
    u: np.ndarray
    u_prev: np.ndarray
    step: int


@dataclass
class FeasibleConfig:
    mesh: object
    tgrid: object
    mu: float
    velocity: object
    bc: object = None
    source: object = None
    initial: object = None
    provider: object = None
    g_pairing: str = "main"
    velocity_rule: str = "midpoint"

    def __post_init__(self):
        if not isinstance(self.velocity, VelocityField):
            self.velocity = VelocityField(self.velocity)
        if self.bc is None:
            self.bc = DirichletBC.homogeneous()
        if self.provider is None:
            self.provider = DirectKernelProvider()
        if self.g_pairing not in ("main", "appendix"):
            raise ValueError("g_pairing must be 'main' or 'appendix'")


def step_feasible(state, sys_new, sys_old, config, first=False):
    """One step of the two-level recursion; returns the new nodal field.

    sys_new / sys_old are the FeasibleMatrices at the new and old time
    levels (identical objects for a constant velocity).  With first=True
    all subgrid-history terms are dropped, equivalent to a zero initial
    subgrid.
    """
    dt = config.tgrid.dt
    n = state.step
    t1, t0 = (n + 1) * dt, n * dt
    m = sys_new.mass
    lhs = m + dt * sys_new.stiff \
        - (sys_new.A1 + dt * sys_new.A2 + dt * sys_new.A3
           + dt * dt * sys_new.A4)
    rhs = m.matvec(state.u)
    rhs -= (sys_new.A1 + dt * sys_new.A3).matvec(state.u)
    rhs += dt * assemble_load(config.mesh, config.source, t1)
    fv_new = _force_vectors(config.mesh, sys_new, config.source, t1)
    rhs -= dt * fv_new["F1"] + dt * dt * fv_new["F2"]
    if not first:
        rhs -= (sys_old.A1 + dt * sys_old.A2).matvec(state.u)
        rhs += sys_old.A1.matvec(state.u_prev)
        fv_old = _force_vectors(config.mesh, sys_old, config.source, t0)
        rhs += dt * fv_old["F1"]
        if config.g_pairing == "main":
            rhs += (sys_new.B1 + dt * sys_new.B2 + dt * sys_new.B3
                    + dt * dt * sys_new.B4).matvec(state.u)
            rhs -= (sys_new.B1 + dt * sys_new.B3).matvec(state.u_prev)
            rhs -= dt * fv_new["F3"] + dt * dt * fv_new["F4"]
        else:
            # literal reading of the boxed G1 definition: both G vectors
            # carry the advective pairing
            rhs += ((1.0 + dt) * sys_new.B3
                    + dt * (1.0 + dt) * sys_new.B4).matvec(state.u)
            rhs -= (1.0 + dt) * sys_new.B3.matvec(state.u_prev)
            rhs -= dt * (1.0 + dt) * fv_new["F4"]
    sys = apply_dirichlet(TriDiagSystem(lhs, rhs), config.bc, t1)
    return solve_tridiag(sys)


def first_step_policy(u0):
    """Initial two-level state: u^{-1} := u^0 with history terms dropped."""
    return FeasibleState(u=u0.copy(), u_prev=u0.copy(), step=0)


def _matrices_at(config, t, previous):
    """FeasibleMatrices of the velocity at time t; previous is reused when
    the projected velocity has not changed."""
    a_elem = mesh_fem.project_velocity(config.velocity, config.mesh, t,
                                       config.velocity_rule)
    if previous is not None and np.array_equal(a_elem, previous.a_elem):
        return previous
    return assemble_matrices(config.mesh, a_elem, config.mu,
                             config.tgrid.dt, config.provider)


def run_feasible(config):
    """March the feasible method; returns the (n_steps+1, n_nodes) history.

    Only the matrices of the two time levels of the current step are kept.
    """
    mesh = config.mesh
    if config.initial is None:
        u0 = np.zeros(mesh.n_nodes)
    else:
        u0 = mesh.interpolate(config.initial)
    history = np.empty((config.tgrid.n_steps + 1, mesh.n_nodes))
    history[0] = u0
    state = first_step_policy(u0)
    dt = config.tgrid.dt
    sys_old = _matrices_at(config, 0.0, None)
    for n in range(config.tgrid.n_steps):
        sys_new = _matrices_at(config, (n + 1) * dt, sys_old)
        u_next = step_feasible(state, sys_new, sys_old, config,
                               first=(n == 0))
        history[n + 1] = u_next
        state = FeasibleState(u=u_next, u_prev=state.u, step=n + 1)
        sys_old = sys_new
    return history
