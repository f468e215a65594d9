"""Feasible spectral multiscale stepper.

Drops the deepest level of the subgrid history: the amplitudes that
vms_full.step_full carries are rebuilt every step from the two-level
residual, so each step becomes a two-level linear recursion on nodal
values.  Its right-hand side applies pairings sum_j w_j T_j X_j of a
trial side T, step_full's trial (phi_m, p z_j) + dt b(phi_m, p z_j) or
its plain part, with a test side X, step_full's test_b (z_j, phi_l) +
dt b(z_j, phi_l) or its plain part, weighted by w = beta or beta^2: five
pairings in all.  On an element these depend only on the parameters
(P, S), as sums of entries of the dimensionless A1 (beta) and B1
(beta^2) blocks, which come from a provider: closed forms from the
element Green's function, or interpolation of an offline table.  The
left-hand side needs no provider: it is the Galerkin form of the step
at the element L-splines (Hughes, CMAME 127, 1995), whose boundary
fluxes _lspline_blocks gives exactly at every Courant number.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, mesh_fem, table as table_mod
from .mesh_fem import (DirichletBC, TriDiag, TriDiagSystem, apply_dirichlet,
                       assemble_load, solve_tridiag, sum_element_vectors)

__all__ = ["DirectKernelProvider", "TableKernelProvider", "FeasibleConfig",
           "FeasibleMatrices", "assemble_matrices", "step_feasible",
           "run_feasible"]


def _kernel_entry(provider, family, m, l, P, S):
    """One (family name, m, l) kernel entry at one point (P, S), summed
    from the provider's A1/B1 blocks."""
    return float(kernels.kernels_from_blocks(
        [(family, m, l)], provider.blocks([P], [S]))[0, 0])


class DirectKernelProvider:
    """Kernels evaluated directly, in closed form from the element
    Green's function.

    policy is accepted and unused: the benchmark's online workload still
    passes a TruncationPolicy; it stays while perfbench names it.
    """

    def __init__(self, policy=None):
        pass

    def blocks(self, P, S):
        """The A1 and B1 blocks at the points (P[k], S[k]), each an
        array (2, 2, n_points) indexed [m, l]."""
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


# The pairings a step applies, as (kernel block, trial side, test side):
# "0" is the plain side and "dt" the side with dt b.
PAIRINGS = [("A", "0", "dt"), ("A", "dt", "0"), ("A", "0", "0"),
            ("B", "dt", "dt"), ("B", "0", "dt")]


@dataclass
class FeasibleMatrices:
    """Subgrid pairings of one velocity snapshot, physical units.

    pairings maps each key of PAIRINGS to its assembled TriDiag, and
    row_sums to its element row sums [k, i], which times the element's
    midpoint source give the pairing's source terms.  lhs is exact for
    exact subgrid scales, the element L-spline fluxes of any provider.
    """

    pairings: dict
    row_sums: dict
    lhs: TriDiag  # M + dt R - A(dt, dt), from the L-spline fluxes


def _mirror(local, a_elem):
    """Flip both local indices of the blocks [..., k, 2, 2] where a < 0."""
    return np.where((a_elem < 0.0)[:, None, None], local[..., ::-1, ::-1],
                    local)


def _lspline_blocks(h, a_abs, mu, dt):
    """Element blocks [k, l, m] of M + dt R - A(dt, dt) for a >= 0: dt mu
    (delta_l1 psi_m'(h) - delta_l0 psi_m'(0)), psi_m solving psi - dt mu
    psi'' + dt a psi' = 0 with psi_m = 1 at node m, 0 at the other node.
    psi = c1 e^{r1 (x - h)} + c2 e^{r2 x}, r1 > 0 > r2 the roots of dt mu
    r^2 - dt a r - 1 = 0: no exponential exceeds 1, no entry subtracts.
    """
    q = np.sqrt(a_abs * a_abs + 4.0 * mu / dt)
    r1, r2 = (a_abs + q) / (2.0 * mu), -2.0 / (dt * (a_abs + q))
    e1, e2 = np.exp(-r1 * h), np.exp(r2 * h)
    s = dt * mu / -np.expm1(-q * h / mu)  # dt mu / (1 - e1 e2)
    return np.moveaxis(np.array([
        [s * (r1 * e1 * e2 - r2), -s * (r1 - r2) * e1],
        [-s * (r1 - r2) * e2, s * (r1 - r2 * e1 * e2)]]), -1, 0)


def assemble_matrices(mesh, a_elem, mu, dt, provider):
    """Assemble the PAIRINGS from per-element kernels, and the left-hand
    side that every step with this velocity solves.

    On an element with a > 0, b(phi_m, p z_j) = (|a|/h) s_m d_j and
    b(z_j, phi_l) = -(|a|/h) s_l e_j, where s is the sign of each hat's
    gradient, d = a_0 + a_1 and e = c_0 + c_1 in the dimensionless sides
    of the kernel blocks K[m, l] = sum_j w_j a_m c_l.  A pairing with
    trial rows T[j, m] and test rows X[i, l] is then the element block
    2 h (X K^T T^T)[i, j], where T is I or I + dt G and X is I or
    I - dt G, with G[i, :] = (|a|/h) s_i.  The left-hand side comes
    from _lspline_blocks instead.  For a < 0 the element is mirrored:
    each block is built with |a| and flipped in both local indices.
    """
    a_elem = np.broadcast_to(np.asarray(a_elem, float), mesh.n_elems)
    a_abs = np.abs(a_elem)
    grad = (a_abs / mesh.h)[:, None, None] * [[-1.0, -1.0], [1.0, 1.0]]  # G
    trial_dt = np.swapaxes(np.eye(2) + dt * grad, 1, 2)
    params = kernels.element_params(a_elem, mesh.h, mu, dt)
    (P, S), key_of = kernels.distinct_rows((params.P, params.S))
    local = {}
    for name, values in zip("AB", provider.blocks(P, S)):
        k = np.moveaxis(values, -1, 0)[key_of]  # K of every element [k, m, l]
        plain = 2.0 * mesh.h[:, None, None] * np.swapaxes(k, 1, 2)
        for trial, block in (("0", plain), ("dt", plain @ trial_dt)):
            local[name, trial, "0"] = block
            local[name, trial, "dt"] = block - dt * (grad @ block)
    blocks = _mirror(np.stack([local[key] for key in PAIRINGS]), a_elem)
    pairings = dict(zip(PAIRINGS, mesh_fem.tridiags_from_blocks(blocks)))
    lhs = TriDiag.from_blocks(_mirror(_lspline_blocks(mesh.h, a_abs, mu, dt),
                                      a_elem))
    return FeasibleMatrices(pairings, dict(zip(PAIRINGS, blocks.sum(axis=-1))),
                            lhs)


@dataclass
class FeasibleConfig:
    """One feasible run."""

    mesh: object
    tgrid: object
    mu: float
    velocity: object
    bc: object = None
    source: object = None
    initial: object = None
    provider: object = None

    def __post_init__(self):
        if not callable(self.velocity):
            self.velocity = float(self.velocity)
        if self.bc is None:
            self.bc = DirichletBC.homogeneous()
        if self.provider is None:
            self.provider = DirectKernelProvider()


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
    rebuilt from the old level as tests/oracles.approximate_subgrid_state
    does: beta_old ((phi_m, p z_j) u^{n-1} - trial u^n + dt f_j(t_n)).
    The plain part of known gives -A(0, dt) u^n and its source; c
    (z_j, phi_l) gives the old level's A(0, 0) u^{n-1} - A(dt, 0) u^n
    and source; and -beta c test_b gives, with beta^2 weights,
    B(dt, dt) u^n - B(0, dt) u^{n-1} and the old level's source.
    """
    dt = config.tgrid.dt
    t1 = (n + 1) * dt
    new = sys_new.pairings
    rhs = config.mesh.mass.matvec(u)
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
        rhs += new["B", "dt", "dt"].matvec(u)
        rhs -= new["B", "0", "dt"].matvec(u_prev)
        # the beta^2 source terms belong to the subgrid state rebuilt at
        # t_n, so they come from the source at t_n
        sources.append((-dt, sys_old, ("B", "0", "dt"), f_old))
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
