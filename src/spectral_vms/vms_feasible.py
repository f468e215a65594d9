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
           "assemble_matrices", "step_feasible", "run_feasible"]

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
        (P[k], S[k]), as an (n_entries, n_points) array, from one table
        lookup."""
        blocks = table_mod.interpolate(self.table, P, S)
        return kernels.kernels_from_blocks(
            entries, {name[0]: block for name, block in blocks.items()})

    def kernel(self, family, m, l, P, S):
        return float(self.kernels([(family, m, l)], [P], [S])[0, 0])


class NullKernelProvider:
    """All kernels zero: reduces every step to plain Galerkin."""

    def kernels(self, entries, P, S):
        return np.zeros((len(entries), np.size(P)))


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
    lhs: TriDiag  # M + dt R - (A1 + dt A2 + dt A3 + dt^2 A4)
    a_elem: np.ndarray
    element_kernels: dict  # A/B family -> kernels stacked over elements


_MATRIX_ENTRIES = [(name, m, l) for name in FAMILY_ORDER
                   for m, l in FAMILIES[name].index_pairs]


def _kernels_by_element(provider, params, index):
    """{family: A/B kernels stacked over elements, indexed [k, m, l],
    [k, m], [k, l] or [k]}, from one provider query over the distinct
    (P, S) of the elements."""
    (P, S), key_of = kernels.distinct_rows((params.P, params.S))
    vals = provider.kernels(_MATRIX_ENTRIES, P, S)
    gather = key_of[index]
    out, row = {}, 0
    for name in FAMILY_ORDER:
        fam = FAMILIES[name]
        stacked = vals[row:row + fam.n_entries].T
        out[name] = stacked.reshape(
            (P.size,) + (2,) * len(fam.index_kind))[gather]
        row += fam.n_entries
    return out


def _mirror(local, a_elem, n_local):
    """Flip the n_local trailing local indices of the elements with
    a < 0; the element axis comes just before them."""
    neg = (a_elem < 0.0).reshape((-1,) + (1,) * n_local)
    return np.where(neg, np.flip(local, tuple(range(-n_local, 0))), local)


def assemble_matrices(mesh, a_elem, mu, dt, provider):
    """Assemble A1..A4 and B1..B4 from per-element kernels, and the
    left-hand side that every step with this velocity solves.

    For a < 0 the element is mirrored: the positive-velocity block is
    built with |a| and flipped in both local indices.  The element blocks
    of all eight families are mirrored and scattered as one stack.
    """
    a_elem = np.broadcast_to(np.asarray(a_elem, dtype=float),
                             (mesh.n_elems,))
    params, index = kernels.distinct_element_params(a_elem, mesh.h, mu, dt)
    kern = _kernels_by_element(provider, params, index)
    h = mesh.h[:, None, None]
    a_abs = np.abs(a_elem)[:, None, None]
    blocks = []
    for prefix in ("A", "B"):
        k1 = kern[prefix + "1"]  # (n_elems, m, l)
        k2 = kern[prefix + "2"]  # (n_elems, l)
        k3 = kern[prefix + "3"]  # (n_elems, m)
        k4 = kern[prefix + "4"]  # (n_elems,)
        blocks += [
            2.0 * h * k1.transpose(0, 2, 1),
            2.0 * a_abs * _SIGN[None, :] * k2[:, :, None],
            -2.0 * a_abs * _SIGN[:, None] * k3[:, None, :],
            -(2.0 * a_abs ** 2 / h)
            * np.outer(_SIGN, _SIGN) * k4[:, None, None],
        ]
    mats = dict(zip(FAMILY_ORDER, mesh_fem.tridiags_from_blocks(
        _mirror(np.stack(blocks), a_elem, 2))))
    mass = assemble_mass(mesh)
    lhs = mass + dt * assemble_stiffness(mesh, a_elem, mu) \
        - (mats["A1"] + dt * mats["A2"] + dt * mats["A3"]
           + dt * dt * mats["A4"])
    return FeasibleMatrices(**mats, mass=mass, lhs=lhs, a_elem=a_elem,
                            element_kernels=kern)


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
    f_mid = mesh_fem.point_values(f, mesh.nodes[:-1] + 0.5 * mesh.h, t,
                                  name="source")[:, None]
    kern = mats.element_kernels
    a_abs = np.abs(mats.a_elem)[:, None]
    out = {}
    for name, fam in _FORCE_FAMILIES.items():
        if FAMILIES[fam].index_kind == "l":
            vec = 2.0 * mesh.h[:, None] * f_mid * kern[fam]
        else:
            vec = -2.0 * a_abs * f_mid * _SIGN * kern[fam][:, None]
        out[name] = mesh_fem.sum_element_vectors(
            _mirror(vec, mats.a_elem, 1))
    return out


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


def step_feasible(n, u, u_prev, sys_new, sys_old, config):
    """Step n of the two-level recursion, from u = u^n and u_prev =
    u^{n-1}; returns u^{n+1}.

    sys_new / sys_old are the FeasibleMatrices at the new and old time
    levels (identical objects for a constant velocity).  sys_old is None
    at the first step, which drops every subgrid-history term, as a zero
    initial subgrid does; u_prev is not read there.
    """
    dt = config.tgrid.dt
    t1, t0 = (n + 1) * dt, n * dt
    rhs = sys_new.mass.matvec(u)
    rhs -= (sys_new.A1 + dt * sys_new.A3).matvec(u)
    rhs += dt * assemble_load(config.mesh, config.source, t1)
    fv_new = _force_vectors(config.mesh, sys_new, config.source, t1)
    rhs -= dt * fv_new["F1"] + dt * dt * fv_new["F2"]
    if sys_old is not None:
        rhs -= (sys_old.A1 + dt * sys_old.A2).matvec(u)
        rhs += sys_old.A1.matvec(u_prev)
        fv_old = _force_vectors(config.mesh, sys_old, config.source, t0)
        rhs += dt * fv_old["F1"]
        if config.g_pairing == "main":
            rhs += (sys_new.B1 + dt * sys_new.B2 + dt * sys_new.B3
                    + dt * dt * sys_new.B4).matvec(u)
            rhs -= (sys_new.B1 + dt * sys_new.B3).matvec(u_prev)
            rhs -= dt * fv_new["F3"] + dt * dt * fv_new["F4"]
        else:
            # literal reading of the boxed G1 definition: both G vectors
            # carry the advective pairing
            rhs += ((1.0 + dt) * sys_new.B3
                    + dt * (1.0 + dt) * sys_new.B4).matvec(u)
            rhs -= (1.0 + dt) * sys_new.B3.matvec(u_prev)
            rhs -= dt * (1.0 + dt) * fv_new["F4"]
    sys = apply_dirichlet(TriDiagSystem(sys_new.lhs, rhs), config.bc, t1)
    return solve_tridiag(sys)


def run_feasible(config):
    """March the feasible method; returns the (n_steps+1, n_nodes) history.

    Only the matrices of the two time levels of the current step are kept.
    """
    mesh, dt = config.mesh, config.tgrid.dt
    history, _ = mesh_fem.march(
        mesh, config.tgrid, config.velocity, config.velocity_rule,
        mesh.interpolate(config.initial),
        lambda a_elem: assemble_matrices(mesh, a_elem, config.mu, dt,
                                         config.provider),
        lambda n, u, sys_new, sys_old, u_prev: (
            step_feasible(n, u, u_prev, sys_new, sys_old, config), u))
    return history
