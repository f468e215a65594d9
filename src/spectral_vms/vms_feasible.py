"""Feasible spectral multiscale stepper.

Drops the deepest level of the subgrid history: the amplitudes that
vms_full.step_full carries are rebuilt every step from the two-level
residual, so each step becomes a two-level linear recursion on nodal
values.  Every operator of that recursion is a pairing sum_j w_j T_j X_j
of a trial side T, step_full's trial (phi_m, p z_j) + dt b(phi_m, p z_j)
or its plain part, with a test side X, step_full's test_b (z_j, phi_l) +
dt b(z_j, phi_l), its plain part or the part of b alone, weighted by
w = beta or beta^2.  On an element these depend only on the parameters
(P, S), as sums of entries of the dimensionless A1 (beta) and B1
(beta^2) blocks, which come from a provider: closed forms from the
element Green's function, series over a fixed number of modes, or
interpolation of an offline table.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, mesh_fem, table as table_mod
from .mesh_fem import (DirichletBC, TriDiag, TriDiagSystem, apply_dirichlet,
                       assemble_load, assemble_mass, assemble_stiffness,
                       combine, solve_tridiag, sum_element_vectors)

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


# The pairings a step applies, as (kernel block, trial side, test side):
# "0" is the plain side, "dt" the side with dt b, and "e" the e part of
# the test side's b alone.
PAIRINGS = [("A", "dt", "dt"), ("A", "0", "dt"), ("A", "dt", "0"),
            ("A", "0", "0"), ("B", "dt", "dt"), ("B", "0", "dt"),
            ("B", "dt", "e"), ("B", "0", "e")]


@dataclass
class FeasibleMatrices:
    """Subgrid pairings of one velocity snapshot, physical units.

    pairings maps each key of PAIRINGS to its assembled TriDiag, and
    row_sums to its element row sums [k, i], which times the element's
    midpoint source give the pairing's source terms.
    """

    pairings: dict
    row_sums: dict
    mass: TriDiag
    lhs: TriDiag  # M + dt R - A(dt, dt)


def _element_blocks(provider, params):
    """The A1 and B1 kernel blocks of every element, arrays (n_elems, 2,
    2) indexed [k, m, l], from one provider query over the distinct
    (P, S) of the elements."""
    (P, S), key_of = kernels.distinct_rows((params.P, params.S))
    return tuple(np.moveaxis(block, -1, 0)[key_of]
                 for block in provider.blocks(P, S))


def _mirror(local, a_elem, n_local):
    """Flip the n_local trailing local indices of the elements with
    a < 0; the element axis comes just before them."""
    neg = (a_elem < 0.0).reshape((-1,) + (1,) * n_local)
    return np.where(neg, np.flip(local, tuple(range(-n_local, 0))), local)


def assemble_matrices(mesh, a_elem, mu, dt, provider):
    """Assemble the PAIRINGS from per-element kernels, and the left-hand
    side that every step with this velocity solves.

    On an element with a > 0, b(phi_m, p z_j) = (|a|/h) s_m d_j and
    b(z_j, phi_l) = -(|a|/h) s_l e_j, where s is the sign of each hat's
    gradient, d = a_0 + a_1 and e = c_0 + c_1 in the dimensionless sides
    of the kernel blocks K[m, l] = sum_j w_j a_m c_l.  A pairing with
    trial rows T[j, m] and test rows X[i, l] is then the element block
    2 h (X K^T T^T)[i, j], where T is I or I + dt G and X is I, I - dt G
    or -G, with G[i, :] = (|a|/h) s_i.  For a < 0 the element is
    mirrored: the block is built with |a| and flipped in both local
    indices.
    """
    a_elem = np.broadcast_to(np.asarray(a_elem, dtype=float),
                             (mesh.n_elems,))
    # G of every element
    grad = (np.abs(a_elem) / mesh.h)[:, None, None] \
        * np.outer(_SIGN, np.ones(2))
    trial_dt = np.swapaxes(np.eye(2) + dt * grad, 1, 2)
    two_h = 2.0 * mesh.h[:, None, None]
    sides = {}
    for name, k in zip("AB", _element_blocks(
            provider, kernels.element_params(a_elem, mesh.h, mu, dt))):
        plain = two_h * np.swapaxes(k, 1, 2)
        for trial, block in (("0", plain), ("dt", plain @ trial_dt)):
            b_part = grad @ block  # the test side's b, before its dt
            sides[name, trial] = {"0": block, "dt": block - dt * b_part,
                                  "e": -b_part}
    blocks = _mirror(np.stack([sides[k, t][x] for k, t, x in PAIRINGS]),
                     a_elem, 2)
    pairings = dict(zip(PAIRINGS, mesh_fem.tridiags_from_blocks(blocks)))
    mass = assemble_mass(mesh)
    lhs = combine(lambda m, r, p: m + dt * r - p, mass,
                  assemble_stiffness(mesh, a_elem, mu),
                  pairings["A", "dt", "dt"])
    return FeasibleMatrices(pairings, dict(zip(PAIRINGS, blocks.sum(axis=-1))),
                            mass, lhs)


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

    def __post_init__(self):
        if not callable(self.velocity):
            self.velocity = float(self.velocity)
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
    (u^{n-1}, the midpoint source at t_n), as the previous step returned
    them, so the source is evaluated once per time level.

    The terms are those of vms_full.step_full, whose right-hand side
    holds c (z_j, phi_l) - beta known test_b with known = c +
    (phi_m, p z_j) u^n + dt f_j(t_{n+1}), once the amplitudes c are
    rebuilt from the old level as vms_full.approximate_subgrid_state
    does: beta_old ((phi_m, p z_j) u^{n-1} - trial u^n + dt f_j(t_n)).
    The plain part of known gives -A(0, dt) u^n and its source; c
    (z_j, phi_l) gives the old level's A(0, 0) u^{n-1} - A(dt, 0) u^n
    and source; and -beta c test_b gives, with beta^2 weights, the main
    pairing's B(dt, dt) u^n - B(0, dt) u^{n-1} and the old level's
    source.  The appendix pairing replaces that last part with the
    literal reading of the boxed G1 definition.
    """
    dt = config.tgrid.dt
    t1 = (n + 1) * dt
    new = sys_new.pairings
    rhs = sys_new.mass.matvec(u)
    rhs -= new["A", "0", "dt"].matvec(u)
    rhs += dt * assemble_load(config.mesh, config.source, t1)
    f_new = None if config.source is None else mesh_fem.point_values(
        config.source, config.mesh.midpoints, t1, name="source")
    # (weight, snapshot, pairing, midpoint source) of each source term
    sources = [(-dt, sys_new, ("A", "0", "dt"), f_new)]
    if sys_old is not None:
        old, (u_prev, f_old) = sys_old.pairings, carry
        rhs -= old["A", "dt", "0"].matvec(u)
        rhs += old["A", "0", "0"].matvec(u_prev)
        sources.append((dt, sys_old, ("A", "0", "0"), f_old))
        if config.g_pairing == "main":
            rhs += new["B", "dt", "dt"].matvec(u)
            rhs -= new["B", "0", "dt"].matvec(u_prev)
            # the beta^2 source terms belong to the subgrid state
            # rebuilt at t_n, so they come from the source at t_n
            sources.append((-dt, sys_old, ("B", "0", "dt"), f_old))
        else:
            # literal reading of the boxed G1 definition: both G vectors
            # carry the advective pairing
            rhs += (1.0 + dt) * (new["B", "dt", "e"].matvec(u)
                                 - new["B", "0", "e"].matvec(u_prev))
            sources.append((-dt * (1.0 + dt), sys_new, ("B", "0", "e"),
                            f_new))
    if f_new is not None:
        rhs += sum_element_vectors(sum(
            weight * f_mid[:, None] * snap.row_sums[key]
            for weight, snap, key, f_mid in sources))
    sys = apply_dirichlet(TriDiagSystem(sys_new.lhs, rhs), config.bc, t1)
    return solve_tridiag(sys), (u, f_new)


def run_feasible(config):
    """March the feasible method; returns the (n_steps+1, n_nodes) history.

    Only the matrices of the two time levels of the current step are kept.
    """
    mesh, dt = config.mesh, config.tgrid.dt
    history, _ = mesh_fem.march(
        mesh, config.tgrid, config.velocity, mesh.interpolate(config.initial),
        lambda a_elem: assemble_matrices(mesh, a_elem, config.mu, dt,
                                         config.provider),
        lambda *step: step_feasible(*step, config))
    return history
