"""Feasible spectral multiscale stepper.

Drops the deepest level of the subgrid history so each step becomes a
two-level linear recursion on nodal values whose extra matrices depend
only on the per-element parameters (P, S).  Those dimensionless kernels
are sums of entries of the A1 and B1 blocks, which come from a provider:
closed forms from the element Green's function, series over a fixed
number of modes, or interpolation of an offline table.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels, mesh_fem, table as table_mod
from .kernels import FAMILY_ORDER
from .mesh_fem import (DirichletBC, TriDiag, TriDiagSystem, VelocityField,
                       apply_dirichlet, assemble_load, assemble_mass,
                       assemble_stiffness, solve_tridiag)

__all__ = ["DirectKernelProvider", "TableKernelProvider",
           "NullKernelProvider", "FeasibleConfig", "FeasibleMatrices",
           "assemble_matrices", "step_feasible", "run_feasible"]

_SIGN = np.array([-1.0, 1.0])


def _kernel_entry(provider, family, m, l, P, S):
    """One (family name, m, l) kernel entry at one point (P, S), summed
    from the provider's A1/B1 blocks."""
    return float(kernels.kernels_from_blocks(
        [(family, m, l)], provider.blocks([P], [S]))[0, 0])


class DirectKernelProvider:
    """Kernels evaluated directly: closed forms from the element Green's
    function, or series summed over exactly n_modes modes.

    policy is accepted and unused, but not together with n_modes: the
    benchmark's online workload still passes a TruncationPolicy (ROADMAP
    item 1 removes it).
    """

    def __init__(self, policy=None, n_modes=None):
        if policy is not None and n_modes is not None:
            raise ValueError("give at most one of policy or n_modes")
        self.n_modes = n_modes

    def blocks(self, P, S):
        """The A1 and B1 blocks at the points (P[k], S[k]), each an
        array (2, 2, n_points) indexed [m, l]."""
        if self.n_modes is not None:
            return kernels.series_blocks(P, S, self.n_modes)
        return kernels.green_blocks(P, S)

    kernel = _kernel_entry


class TableKernelProvider:
    """Kernels interpolated from an offline table of the A1 and B1
    blocks."""

    def __init__(self, table):
        self.table = table

    def blocks(self, P, S):
        """The A1 and B1 blocks at the points (P[k], S[k]), each an
        array (2, 2, n_points) indexed [m, l], from one table lookup."""
        values = table_mod.interpolate(self.table, P, S)
        return values["A1"], values["B1"]

    kernel = _kernel_entry


class NullKernelProvider:
    """All kernels zero: reduces every step to plain Galerkin."""

    def blocks(self, P, S):
        zero = np.zeros((2, 2, np.size(P)))
        return zero, zero


def _combine(f, *mats):
    """The TriDiag whose bands are f of the matching bands of mats: the
    band arithmetic of f applied to the TriDiags, with no TriDiag per
    operation."""
    return TriDiag(*(f(*bands) for bands in zip(
        *((m.sub, m.diag, m.sup) for m in mats))))


@dataclass
class FeasibleMatrices:
    """Subgrid matrices of one velocity snapshot, physical units.

    The combinations a step applies are formed at their first use and
    kept with the snapshot, so every step with it reuses them.
    """

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
    element_blocks: tuple  # A1 and B1 kernels per element, [k, m, l]
    dt: float

    @cached_property
    def a1_dt_a3(self):
        """A1 + dt A3, applied to u^n at the new level."""
        dt = self.dt
        return _combine(lambda a1, a3: a1 + dt * a3, self.A1, self.A3)

    @cached_property
    def a1_dt_a2(self):
        """A1 + dt A2, applied to u^n at the old level."""
        dt = self.dt
        return _combine(lambda a1, a2: a1 + dt * a2, self.A1, self.A2)

    @cached_property
    def b_main(self):
        """B1 + dt B2 + dt B3 + dt^2 B4, the main-text pairing on u^n."""
        dt = self.dt
        return _combine(lambda b1, b2, b3, b4:
                        b1 + dt * b2 + dt * b3 + dt * dt * b4,
                        self.B1, self.B2, self.B3, self.B4)

    @cached_property
    def b1_dt_b3(self):
        """B1 + dt B3, the main-text pairing on u^{n-1}."""
        dt = self.dt
        return _combine(lambda b1, b3: b1 + dt * b3, self.B1, self.B3)

    @cached_property
    def b_appendix(self):
        """(1 + dt) B3 + dt (1 + dt) B4, the appendix pairing on u^n."""
        dt = self.dt
        return _combine(lambda b3, b4: (1.0 + dt) * b3
                        + dt * (1.0 + dt) * b4, self.B3, self.B4)


def _element_blocks(provider, params, index):
    """The A1 and B1 kernel blocks of every element, arrays (n_elems, 2,
    2) indexed [k, m, l], from one provider query over the distinct
    (P, S) of the elements."""
    (P, S), key_of = kernels.distinct_rows((params.P, params.S))
    gather = key_of[index]
    return tuple(np.moveaxis(block, -1, 0)[gather]
                 for block in provider.blocks(P, S))


def _families(k1):
    """Kernels of families 1-4 from the blocks k1 of family 1, indexed
    [k, m, l], [k, l], [k, m] and [k]: a d side sums over m and an e side
    over l, because d0 = a0 + a1 and e0 = c0 + c1."""
    return k1, k1.sum(axis=1), k1.sum(axis=2), k1.sum(axis=(1, 2))


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
    element_blocks = _element_blocks(provider, params, index)
    h = mesh.h[:, None, None]
    a_abs = np.abs(a_elem)[:, None, None]
    blocks = []
    for k1, k2, k3, k4 in map(_families, element_blocks):
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
    lhs = _combine(lambda m, r, a1, a2, a3, a4:
                   m + dt * r - (a1 + dt * a2 + dt * a3 + dt * dt * a4),
                   mass, assemble_stiffness(mesh, a_elem, mu), mats["A1"],
                   mats["A2"], mats["A3"], mats["A4"])
    return FeasibleMatrices(**mats, mass=mass, lhs=lhs, a_elem=a_elem,
                            element_blocks=element_blocks, dt=dt)


def _force_vectors(mesh, mats, f, t):
    """Subgrid force vectors F1, F2 (beta weights) and F3, F4 (beta^2).

    The force series Fd0, Fe0, Fbd0 and Fbe0 have the sides and weight
    power of families 2 and 4, so they are read from those kernels.  The
    source is projected to its element-midpoint value, matching the
    element-constant kernel reduction.
    """
    if f is None:
        return dict.fromkeys(("F1", "F2", "F3", "F4"), np.zeros(mesh.n_nodes))
    f_mid = mesh_fem.point_values(f, mesh.nodes[:-1] + 0.5 * mesh.h, t,
                                  name="source")[:, None]
    a_abs = np.abs(mats.a_elem)[:, None]

    def scatter(vec):
        return mesh_fem.sum_element_vectors(_mirror(vec, mats.a_elem, 1))

    out = {}
    for (f_2, f_4), k1 in zip((("F1", "F2"), ("F3", "F4")),
                              mats.element_blocks):
        _, k2, _, k4 = _families(k1)
        out[f_2] = scatter(2.0 * mesh.h[:, None] * f_mid * k2)
        out[f_4] = scatter(-2.0 * a_abs * f_mid * _SIGN * k4[:, None])
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


def step_feasible(n, u, sys_new, sys_old, carry, config):
    """Step n of the two-level recursion from u = u^n; returns u^{n+1}
    and the carry of the next step.

    sys_new / sys_old are the FeasibleMatrices at the new and old time
    levels (identical objects for a constant velocity).  sys_old is None
    at the first step, which drops every subgrid-history term, as a zero
    initial subgrid does; carry is not read there.  Otherwise carry is
    (u^{n-1}, the force vectors of sys_old at t_n), as the previous step
    returned them, so each snapshot's source is evaluated once per time
    level.
    """
    dt = config.tgrid.dt
    t1 = (n + 1) * dt
    rhs = sys_new.mass.matvec(u)
    rhs -= sys_new.a1_dt_a3.matvec(u)
    rhs += dt * assemble_load(config.mesh, config.source, t1)
    fv_new = _force_vectors(config.mesh, sys_new, config.source, t1)
    rhs -= dt * fv_new["F1"] + dt * dt * fv_new["F2"]
    if sys_old is not None:
        u_prev, fv_old = carry
        rhs -= sys_old.a1_dt_a2.matvec(u)
        rhs += sys_old.A1.matvec(u_prev)
        rhs += dt * fv_old["F1"]
        if config.g_pairing == "main":
            rhs += sys_new.b_main.matvec(u)
            rhs -= sys_new.b1_dt_b3.matvec(u_prev)
            rhs -= dt * fv_new["F3"] + dt * dt * fv_new["F4"]
        else:
            # literal reading of the boxed G1 definition: both G vectors
            # carry the advective pairing
            rhs += sys_new.b_appendix.matvec(u)
            rhs -= (1.0 + dt) * sys_new.B3.matvec(u_prev)
            rhs -= dt * (1.0 + dt) * fv_new["F4"]
    sys = apply_dirichlet(TriDiagSystem(sys_new.lhs, rhs), config.bc, t1)
    return solve_tridiag(sys), (u, fv_new)


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
        lambda *step: step_feasible(*step, config))
    return history
