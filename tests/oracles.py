"""Shared quadrature and summation oracles used across test modules.

Everything here is computed independently of the package's closed forms:
integrals by (composite) Gauss rules, series by explicit summation, and
the Green's-function kernels in high-precision mpmath arithmetic.  The
tridiagonal solve has a one-pass Thomas elimination on numpy scalars,
which factors the matrix again on every call.  The array paths that work
on every element key at once (element mode arrays, table lookup, the
scatter of element blocks) have per-key and per-entry versions on
floats, which they must match bit for bit.
"""

import dataclasses
import math
from functools import lru_cache

import mpmath as mp
import numpy as np

from spectral_vms import kernels as K
from spectral_vms.kernels import FAMILIES
from spectral_vms.mesh_fem import (PIVOT_RTOL, SingularSystemError,
                                   assemble_load, assemble_mass,
                                   assemble_stiffness, project_velocity)
from spectral_vms.vms_feasible import DirectKernelProvider


@lru_cache(maxsize=64)
def gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=128)
def composite_gauss01(panels, n=32):
    """n-point Gauss rule on each of `panels` equal subintervals."""
    x, w = gauss01(n)
    xs = (np.arange(panels)[:, None] + x[None, :]).ravel() / panels
    ws = np.tile(w / panels, panels)
    return xs, ws


def quad_base_integrals(j, P, n=200):
    """The six reference-element integrals by quadrature; the rule grows
    with the mode index so the sine is always resolved."""
    if n > 400 or j > 40:
        x, w = composite_gauss01(max(2, int(np.ceil(j / 8.0))), 32)
    else:
        x, w = gauss01(n)
    s = np.sin(j * np.pi * x)
    em = np.exp(-P * x) * s
    ep = np.exp(P * x) * s
    return dict(d0=np.sum(w * em), e0=np.sum(w * ep),
                a0=np.sum(w * (1 - x) * em), a1=np.sum(w * x * em),
                c0=np.sum(w * (1 - x) * ep), c1=np.sum(w * x * ep))


def family_entries(names):
    """The (family, m, l) entries of the named families, over the local
    indices their a and c sides depend on, m-major."""
    return [(name, m, l) for name in names
            for m in ((0, 1) if FAMILIES[name].side1 == "a" else (0,))
            for l in ((0, 1) if FAMILIES[name].side2 == "c" else (0,))]


ALL_ENTRIES = family_entries(FAMILIES)


def series_terms(family, m, l, P, S, n_modes):
    """The first n_modes terms of one (family, m, l) series, an array of
    the broadcast shape of P and S plus a mode axis."""
    fam = FAMILIES[family]
    P, S = np.broadcast_arrays(np.asarray(P, dtype=float),
                               np.asarray(S, dtype=float))
    P, S = P[..., None], S[..., None]
    j = np.arange(1, n_modes + 1)
    a0s, a1s, d0s, c0s, c1s, e0s = K.shifted_sides(j, P)
    s1 = d0s if fam.side1 == "d" else (a0s, a1s)[m]
    s2 = e0s if fam.side2 == "e" else (c0s, c1s)[l]
    w = 1.0 / (1.0 + S * (np.float_power(P, 2) + np.pi ** 2 * j ** 2))
    if fam.weight_power == 2:
        w *= w
    return w * (s1 * s2)


def sum_series_fixed(family, m, l, P, S, n_modes):
    """One (family, m, l) series summed over exactly n_modes terms, term
    by term: the exact partial sums of the series.  A float for scalar P
    and S."""
    out = np.sum(series_terms(family, m, l, P, S, n_modes), axis=-1)
    return float(out) if out.ndim == 0 else out


def brute_series(family, m, l, P, S, n_terms=600):
    """Kernel series summed term by term from quadrature integrals."""
    fam = FAMILIES[family]
    total = 0.0
    for j in range(1, n_terms + 1):
        ref = quad_base_integrals(j, P, n=128 + 3 * j)
        s1 = ref["d0"] if fam.side1 == "d" else ref[("a0", "a1")[m]]
        s2 = ref["e0"] if fam.side2 == "e" else ref[("c0", "c1")[l]]
        w = 1.0 / (1.0 + S * (P ** 2 + np.pi ** 2 * j ** 2))
        total += (w ** fam.weight_power) * s1 * s2
    return total


def per_element_projection(f, t, p, x_left, n_modes, n_gauss):
    """One element's source terms <f, p z_j>, with f called one point at
    a time and the composite Gauss rule built anew on every call; the
    reference for the all-element kernels.source_mode_projection."""
    xg, wg = np.polynomial.legendre.leggauss(n_gauss)
    xg = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
    panels = max(1, int(np.ceil(n_modes / 8.0)))
    if panels > 1:
        xg = ((np.arange(panels)[:, None] + xg[None, :]) / panels).ravel()
        wg = np.tile(wg / panels, panels)
    fx = np.array([f(x_left + p.h * xh, t) for xh in xg])
    j = np.arange(1, n_modes + 1)
    expo = np.exp(-p.sign_a * p.P * xg)
    stable = np.sin(np.outer(j, np.pi * xg))
    weight = p.h * np.sqrt(2.0 / p.h)
    return weight * (stable * (expo * fx * wg)[None, :]).sum(axis=1)


def monolithic_step_oracle(mesh, a_elem, mu, dt, f, bc, t1, u0, c0, J):
    """Dense coupled solve of one backward-Euler step over the space
    spanned by the nodal hats plus J weighted modes per element.

    Every inner product is computed by quadrature; nothing is shared with
    the closed-form assembly path.
    """
    x, w = gauss01(96)
    nn = mesh.n_nodes
    ne = mesh.n_elems
    ndof = nn + ne * J
    A = np.zeros((ndof, ndof))
    rhs = np.zeros(ndof)

    def mode(j, P, sgn, xh):
        return np.sqrt(2.0) * np.exp(sgn * P * xh) * np.sin(j * np.pi * xh)

    def mode_d(j, P, sgn, xh):
        return np.sqrt(2.0) * np.exp(sgn * P * xh) * (
            sgn * P * np.sin(j * np.pi * xh)
            + j * np.pi * np.cos(j * np.pi * xh))

    for k in range(ne):
        h = mesh.h[k]
        a = a_elem[k]
        sgn = -1.0 if a < 0 else 1.0
        P = abs(a) * h / (2.0 * mu)
        xq = mesh.nodes[k] + h * x
        phi = np.array([1.0 - x, x])
        dphi = np.array([-np.ones_like(x), np.ones_like(x)]) / h
        zt = np.array([mode(j, P, sgn, x) for j in range(1, J + 1)]) \
            / np.sqrt(h)
        zt_d = np.array([mode_d(j, P, sgn, x) for j in range(1, J + 1)]) \
            / np.sqrt(h) / h
        weight = np.exp(-2.0 * sgn * P * x)
        pz = weight[None, :] * zt
        # analytic derivative of p z_j = sqrt(2/h) e^{-sgn P x} sin(j pi x)
        pz_d = np.array([
            np.sqrt(2.0 / h) * np.exp(-sgn * P * x) * (
                -sgn * P * np.sin(j * np.pi * x)
                + j * np.pi * np.cos(j * np.pi * x)) / h
            for j in range(1, J + 1)])

        def inner(u, v):
            return h * np.sum(w * u * v)

        def bform(du, v, dv):
            return h * np.sum(w * (a * du * v + mu * du * dv))

        gl = [k, k + 1]
        gs = [nn + k * J + j for j in range(J)]
        f_q = np.array([f(xx, t1) for xx in xq]) if f is not None else None
        # nodal test rows
        for lo, l in enumerate(gl):
            for mo, m in enumerate(gl):
                A[l, m] += inner(phi[mo], phi[lo]) \
                    + dt * bform(dphi[mo], phi[lo], dphi[lo])
                rhs[l] += inner(phi[mo], phi[lo]) * u0[m]
            for jo, s in enumerate(gs):
                A[l, s] += inner(zt[jo], phi[lo]) \
                    + dt * bform(zt_d[jo], phi[lo], dphi[lo])
                rhs[l] += inner(zt[jo], phi[lo]) * c0[k][jo]
            if f is not None:
                rhs[l] += dt * inner(f_q, phi[lo])
        # subgrid test rows (weighted modes)
        for io, s in enumerate(gs):
            for mo, m in enumerate(gl):
                A[s, m] += inner(phi[mo], pz[io]) \
                    + dt * bform(dphi[mo], pz[io], pz_d[io])
                rhs[s] += inner(phi[mo], pz[io]) * u0[m]
            for jo, s2 in enumerate(gs):
                A[s, s2] += inner(zt[jo], pz[io]) \
                    + dt * bform(zt_d[jo], pz[io], pz_d[io])
                rhs[s] += inner(zt[jo], pz[io]) * c0[k][jo]
            if f is not None:
                rhs[s] += dt * inner(f_q, pz[io])

    gl_val, gr_val = bc.values(t1)
    A[0, :] = 0.0
    A[0, 0] = 1.0
    rhs[0] = gl_val
    A[nn - 1, :] = 0.0
    A[nn - 1, nn - 1] = 1.0
    rhs[nn - 1] = gr_val
    sol = np.linalg.solve(A, rhs)
    return sol[:nn], sol[nn:].reshape(ne, J)


def _family_form(mesh, a_elem, mu, dt):
    """Dense A1..B4 of one velocity snapshot, built family by family from
    the closed-form A1/B1 blocks, and a function of the midpoint source
    values giving the force vectors F1..F4."""
    h, a_abs = mesh.h, np.abs(a_elem)
    sgn = np.array([-1.0, 1.0])
    params = K.element_params(a_elem, h, mu, dt)
    blocks = DirectKernelProvider().blocks(params.P, params.S)
    mats, family_sums = {}, []
    for prefix, block in zip("AB", blocks):
        k1 = np.moveaxis(block, -1, 0)  # [k, m, l]
        k2, k3, k4 = k1.sum(axis=1), k1.sum(axis=2), k1.sum(axis=(1, 2))
        local = {
            "1": 2.0 * h[:, None, None] * k1.transpose(0, 2, 1),
            "2": 2.0 * a_abs[:, None, None] * sgn[None, None, :]
            * k2[:, :, None],
            "3": -2.0 * a_abs[:, None, None] * sgn[None, :, None]
            * k3[:, None, :],
            "4": -(2.0 * a_abs ** 2 / h)[:, None, None]
            * np.outer(sgn, sgn) * k4[:, None, None],
        }
        for idx, elem in local.items():
            dense = np.zeros((mesh.n_nodes, mesh.n_nodes))
            for k in range(mesh.n_elems):
                block_k = elem[k][::-1, ::-1] if a_elem[k] < 0 else elem[k]
                dense[k:k + 2, k:k + 2] += block_k
            mats[prefix + idx] = dense
        family_sums.append((k2, k4))

    def forces(f_mid):
        out = {}
        for (f_2, f_4), (k2, k4) in zip((("F1", "F2"), ("F3", "F4")),
                                        family_sums):
            for name, local in (
                    (f_2, 2.0 * h[:, None] * f_mid[:, None] * k2),
                    (f_4, -2.0 * a_abs[:, None] * f_mid[:, None] * sgn
                     * k4[:, None])):
                vec = np.zeros(mesh.n_nodes)
                for k in range(mesh.n_elems):
                    vec[k:k + 2] += (local[k][::-1] if a_elem[k] < 0
                                     else local[k])
                out[name] = vec
        return out
    return mats, forces


def feasible_step_family_form(mesh, tgrid, mu, velocity, source, bc, u0,
                              g_pairing):
    """History of the feasible method written with the eight kernel
    families A1..B4 and the force vectors F1..F4, on dense matrices.

    velocity is a number or a callable a(x, t) of one point; source is a
    callable f(x, t) of a point array, taken at the element midpoints
    for F1..F4.  Each step solves (M + dt R - A1 - dt A2 - dt A3 -
    dt^2 A4) u^{n+1} = rhs with Dirichlet rows, as the family form of
    the two-level recursion had it.
    """
    dt = tgrid.dt
    M = assemble_mass(mesh).to_dense()
    history = [np.asarray(u0, dtype=float)]
    old = None
    for n in range(tgrid.n_steps):
        t1 = (n + 1) * dt
        a_elem = project_velocity(velocity, mesh, t1)
        mats, forces = _family_form(mesh, a_elem, mu, dt)
        A1, A2, A3, A4, B1, B2, B3, B4 = (
            mats[name] for name in FAMILIES)
        fv = forces(np.asarray(source(mesh.midpoints, t1), dtype=float))
        u = history[-1]
        rhs = M @ u - (A1 + dt * A3) @ u \
            + dt * assemble_load(mesh, source, t1) \
            - dt * fv["F1"] - dt * dt * fv["F2"]
        if old is not None:
            mats_old, fv_old = old
            u_prev = history[-2]
            rhs += -(mats_old["A1"] + dt * mats_old["A2"]) @ u \
                + mats_old["A1"] @ u_prev + dt * fv_old["F1"]
            if g_pairing == "main":
                rhs += (B1 + dt * B2 + dt * B3 + dt * dt * B4) @ u \
                    - (B1 + dt * B3) @ u_prev \
                    - dt * fv_old["F3"] - dt * dt * fv_old["F4"]
            else:
                rhs += (1.0 + dt) * (B3 + dt * B4) @ u \
                    - (1.0 + dt) * B3 @ u_prev \
                    - dt * (1.0 + dt) * fv["F4"]
        lhs = M + dt * assemble_stiffness(mesh, a_elem, mu).to_dense() \
            - (A1 + dt * A2 + dt * A3 + dt * dt * A4)
        for row, value in zip((0, -1), bc.values(t1)):
            lhs[row] = 0.0
            lhs[row, row] = 1.0
            rhs[row] = value
        history.append(np.linalg.solve(lhs, rhs))
        old = (mats, fv)
    return np.array(history)


# --- Green's-function kernels in high precision ----------------------
#
# u_m = K^{-1} phi_m for K = I + S (2P d/dx - d^2/dx^2), u(0) = u(1) = 0,
# written the textbook way: the polynomial particular solution
# phi_m - 2 P S phi_m' plus the homogeneous solutions e^{(P - Q) x} and
# e^{(P + Q)(x - 1)}, Q^2 = P^2 + 1/S.  Its terms cancel by many digits
# at large P S, so it is evaluated with enough digits to spare.  A
# function is a list of terms (coef, k, s) meaning coef x^k e^{s x}.


def _green_terms(f0, f1, P, S):
    """u = K^{-1} f for f = f0 (1 - x) + f1 x."""
    Q = mp.sqrt(P * P + 1 / S)
    lam, r = P + Q, P - Q
    c = 2 * P * S * (f1 - f0)
    decay = mp.exp(-lam)
    # u(0) = f0 - c + A + B e^{-lam} = 0 and u(1) = f1 - c + A e^r + B = 0
    det = 1 - decay * mp.exp(r)
    A = (c - f0 - decay * (c - f1)) / det
    B = (c - f1 - mp.exp(r) * (c - f0)) / det
    return [(f0 - c, 0, 0), (f1 - f0, 1, 0), (A, 0, r),
            (B * decay, 0, lam)]


def _mirror(terms):
    """Terms of v(x) = u(1 - x)."""
    out = []
    for c, k, s in terms:
        c = c * mp.exp(s)
        out.append((c, 0, -s))
        if k == 1:
            out.append((-c, 1, -s))
    return out


def _integral01(f, g):
    """int_0^1 f g dx; int x^k e^{s x} = 1F1(k+1; k+2; s) / (k+1)."""
    return mp.fsum(c1 * c2 * mp.hyp1f1(k1 + k2 + 1, k1 + k2 + 2, s1 + s2)
                   / (k1 + k2 + 1)
                   for c1, k1, s1 in f for c2, k2, s2 in g)


def green_kernel_blocks(P, S, dps=100):
    """A1[m][l] = 1/2 int phi_l u_m and B1[m][l] = 1/2 int u_{1-l}(1 - x)
    u_m(x), as mpf 2 x 2 lists {"A": ..., "B": ...}."""
    with mp.workdps(dps):
        P, S = mp.mpf(P), mp.mpf(S)
        u = [_green_terms(1, 0, P, S), _green_terms(0, 1, P, S)]
        phi = [[(mp.mpf(1), 0, 0), (mp.mpf(-1), 1, 0)], [(mp.mpf(1), 1, 0)]]
        return {
            "A": [[_integral01(phi[l], u[m]) / 2 for l in (0, 1)]
                  for m in (0, 1)],
            "B": [[_integral01(_mirror(u[1 - l]), u[m]) / 2
                   for l in (0, 1)] for m in (0, 1)],
        }


def green_kernels(entries, P, S, dps=100):
    """Each (family, m, l) entry at one (P, S) as a float, summed from the
    A1/B1 blocks in mpmath: a d side sums over m, an e side over l."""
    blocks = green_kernel_blocks(P, S, dps)
    out = []
    for name, m, l in entries:
        fam = FAMILIES[name]
        ms = (0, 1) if fam.side1 == "d" else (m,)
        ls = (0, 1) if fam.side2 == "e" else (l,)
        with mp.workdps(dps):
            out.append(float(mp.fsum(blocks[name[0]][i][j]
                                     for i in ms for j in ls)))
    return np.array(out)


# --- expression-form Green's-function kernel ---------------------------
#
# kernels.green_blocks as it was written before it evaluated into reused
# buffers: every stage a fresh array.  Same operations in the same order,
# so the package must match it bit for bit.


def phi1_neg(y):
    """phi1(-y) = (1 - e^{-y}) / y for y >= 0, by expm1."""
    y = np.asarray(y, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = -np.expm1(-y) / y
    return np.where(y == 0.0, 1.0, out)


def phi2_neg(y):
    """phi2(-y) = (e^{-y} - 1 + y) / y^2 for y >= 0: a Taylor series
    below y = 1, the closed form above."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    small = y < 1.0
    ys = -y[small]
    acc = np.full_like(ys, K._PHI2_TAYLOR[-1])
    for coef in K._PHI2_TAYLOR[-2::-1]:
        acc = acc * ys + coef
    out[small] = acc
    yl = y[~small]
    out[~small] = (np.expm1(-yl) + yl) / (yl * yl)
    return out


def graded_rule(lam, mu):
    """Nodes and weights (n_points, n_nodes) on [0, 1], symmetric about
    1/2, with panel break points min(1/2, 2^k / lam) in each half."""
    xg, wg = K._composite_gauss01(K._GREEN_GAUSS, 1)
    reach = np.minimum(0.5, K._GREEN_REACH / mu) * lam
    n_breaks = 1 + max(0, int(np.ceil(np.log2(reach.max()))))
    edges = np.minimum(0.5, 2.0 ** np.arange(n_breaks) / lam[:, None])
    edges = np.concatenate([np.zeros((lam.size, 1)), edges,
                            np.full((lam.size, 1), 0.5)], axis=1)
    width = np.diff(edges, axis=1)[:, :, None]
    x = (edges[:, :-1, None] + width * xg).reshape(lam.size, -1)
    w = (width * wg).reshape(lam.size, -1)
    return (np.concatenate([x, 1.0 - x[:, ::-1]], axis=1),
            np.concatenate([w, w[:, ::-1]], axis=1))


def green_chunk(P, S, a1, b1):
    """Fill a1 and b1, arrays (2, 2, n), at n points."""
    Q = np.sqrt(np.float_power(P, 2) + 1.0 / S)
    lam = P + Q
    mu = 1.0 / (S * lam)
    rho = 2.0 * P / lam
    x, w = graded_rule(lam, mu)
    y = mu[:, None] * x
    interior_f0 = -np.expm1(-y)  # mu x phi1(-mu x)
    u1 = x * ((mu / lam)[:, None] + rho[:, None] * y * phi2_neg(y))
    layer = x * np.exp(-lam[:, None] * (1.0 - x)) \
        * phi1_neg(2.0 * Q[:, None] * x) / phi1_neg(2.0 * Q)[:, None]
    n1 = -mu * (1.0 / lam + rho * phi2_neg(mu))
    n_sum = -mu * phi1_neg(mu)
    u0 = interior_f0 - u1 + (n_sum - n1)[:, None] * layer
    u1 += n1[:, None] * layer
    wu = (w * u0, w * u1)
    a1[0, 0] = 0.5 * np.sum(wu[0] * (1.0 - x), axis=1)
    a1[0, 1] = 0.5 * np.sum(wu[0] * x, axis=1)
    a1[1, 0] = 0.5 * np.sum(wu[1] * (1.0 - x), axis=1)
    a1[1, 1] = a1[0, 0]
    b1[0, 0] = 0.5 * np.sum(wu[0] * u1[:, ::-1], axis=1)
    b1[0, 1] = 0.5 * np.sum(wu[0] * u0[:, ::-1], axis=1)
    b1[1, 0] = 0.5 * np.sum(wu[1] * u1[:, ::-1], axis=1)
    b1[1, 1] = b1[0, 0]


def green_blocks_reference(P, S):
    """(A1, B1) at the points (P[k], S[k]) from green_chunk over the
    package's chunks of _GREEN_CHUNK points."""
    P, S = np.broadcast_arrays(np.asarray(P, dtype=float),
                               np.asarray(S, dtype=float))
    P, S = P.ravel(), S.ravel()
    a1 = np.empty((2, 2, P.size))
    b1 = np.empty((2, 2, P.size))
    for lo in range(0, P.size, K._GREEN_CHUNK):
        part = slice(lo, lo + K._GREEN_CHUNK)
        green_chunk(P[part], S[part], a1[:, :, part], b1[:, :, part])
    return a1, b1


def nsum_kernel(family, m, l, P, S, dps=30):
    """One kernel entry as the mode series, summed by mpmath.nsum over
    even and odd modes separately (each is free of sign changes)."""
    fam = FAMILIES[family]
    with mp.workdps(dps):
        P, S = mp.mpf(P), mp.mpf(S)

        def term(j):
            b, sigma = j * mp.pi, (-1) ** j

            def i0(c):
                return b * (1 - sigma * mp.exp(c)) / (c * c + b * b)

            def i1(c):
                d = c * c + b * b
                return b * (-2 * c + sigma * mp.exp(c) * (2 * c - d)) / d ** 2

            d0, a1, e0, c1 = i0(-P), i1(-P), i0(P), i1(P)
            s1 = d0 if fam.side1 == "d" else (d0 - a1, a1)[m]
            s2 = e0 if fam.side2 == "e" else (e0 - c1, c1)[l]
            beta = 1 / (1 + S * (P * P + mp.pi ** 2 * j * j))
            return beta ** fam.weight_power * s1 * s2

        return (mp.nsum(lambda k: term(2 * k), [1, mp.inf])
                + mp.nsum(lambda k: term(2 * k - 1), [1, mp.inf]))


def thomas_solve(sys, dtype=np.float64):
    """Thomas elimination in one pass over numpy scalars of dtype; raises
    SingularSystemError on tiny pivots and FloatingPointError when the
    solution is not finite."""
    a, c = sys.matrix.sub.astype(dtype), sys.matrix.sup.astype(dtype)
    dd = sys.matrix.diag.astype(dtype)
    rr = sys.rhs.astype(dtype)
    n = dd.size
    scale = sys.matrix.max_abs()
    if scale == 0.0:
        raise SingularSystemError("zero matrix")
    tol = PIVOT_RTOL * scale
    for i in range(1, n):
        if abs(dd[i - 1]) < tol:
            raise SingularSystemError("pivot %d below tolerance" % (i - 1))
        w = a[i - 1] / dd[i - 1]
        dd[i] -= w * c[i - 1]
        rr[i] -= w * rr[i - 1]
    if abs(dd[n - 1]) < tol:
        raise SingularSystemError("pivot %d below tolerance" % (n - 1))
    x = np.empty(n, dtype)
    x[n - 1] = rr[n - 1] / dd[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (rr[i] - c[i] * x[i + 1]) / dd[i]
    if not np.all(np.isfinite(x)):
        raise FloatingPointError("tridiagonal solve produced non-finite "
                                 "values")
    return x


# --- per-key and per-entry versions of the array paths ---------------


def key_params(params, k):
    """The ElementParams of key k of array-valued params, as floats."""
    return K.ElementParams(**{
        f.name: float(np.asarray(getattr(params, f.name))[k]
                      if np.ndim(getattr(params, f.name))
                      else getattr(params, f.name))
        for f in dataclasses.fields(K.ElementParams)})


def eigenvalue(j, p):
    """Eigenvalue mu (j pi / h)^2 + a^2 / (4 mu) of mode j on an element
    with float parameters p; beta_j = 1 / (1 + dt lambda_j)."""
    j = np.asarray(j, dtype=float)
    return p.mu * (j * np.pi / p.h) ** 2 + p.a ** 2 / (4.0 * p.mu)


def package_base_integrals(j, P):
    """The six reference-element integrals of quad_base_integrals from
    the package's kernels.shifted_sides, each times its exponential
    scale e^{+-P/2}, as element_mode_arrays scales them."""
    a0s, a1s, d0s, c0s, c1s, e0s = K.shifted_sides(j, P)
    em, ep = np.exp(-0.5 * P), np.exp(0.5 * P)
    return dict(d0=em * d0s, e0=ep * e0s, a0=em * a0s, a1=em * a1s,
                c0=ep * c0s, c1=ep * c1s)


def reconstruct_subgrid(amplitudes, p, xhat):
    """Subgrid field sum_j c_j z_j(xhat) of one element with float
    parameters p, summed mode by mode."""
    xhat = np.asarray(xhat, dtype=float)
    out = np.zeros_like(xhat)
    for idx, c in enumerate(amplitudes):
        if c != 0.0:
            out += c * np.sqrt(2.0 / p.h) * np.exp(p.sign_a * p.P * xhat) \
                * np.sin((idx + 1) * np.pi * xhat)
    return out


def per_key_mode_arrays(p, n_modes):
    """kernels.element_mode_arrays of one element key with float
    parameters p: (2, J) and (J,) arrays, from float arithmetic."""
    j = np.arange(1, n_modes + 1)
    a0s, a1s, d0s, c0s, c1s, e0s = K.shifted_sides(j, p.P)
    em, ep = np.exp(-0.5 * p.P), np.exp(0.5 * p.P)
    a_m = np.vstack([em * a0s, em * a1s])
    c_l = np.vstack([ep * c0s, ep * c1s])
    d0, e0 = em * d0s, ep * e0s
    if p.sign_a < 0.0:
        a_m, c_l = c_l, a_m
        d0, e0 = e0, d0
    sign = np.array([-1.0, 1.0])
    root_2h = np.sqrt(2.0 * p.h)
    fac = p.a * np.sqrt(2.0 / p.h)
    jf = j.astype(float)
    return {
        "mass_phi_pz": root_2h * a_m,
        "mass_z_phi": root_2h * c_l,
        "adv_phi_pz": sign[:, None] * fac * d0,
        "adv_z_phi": -sign[:, None] * fac * e0,
        "beta": 1.0 / (1.0 + p.S * (p.P ** 2 + np.pi ** 2 * jf ** 2)),
    }


def interpolate_entry(table, name, m, l, P, S):
    """(value, clamped): the area-weighted bilinear value of one stored
    entry at one float point (P, S), and whether the point lies outside
    the grid [delta, m delta]^2, up to a 1e-12 nudge in units of delta.
    A point on a top edge takes the last cell and is not clamped."""
    grid = table.grid
    delta, top = grid.delta, grid.m - 1

    def cell(v):
        i = math.floor(v / delta + 1e-12)
        outside = v / delta + 1e-12 < 1 or v / delta - 1e-12 > grid.m
        return min(max(i, 1), top), outside

    (i, clamp_p), (j, clamp_s) = cell(P), cell(S)
    arr = table.values[name][2 * m + l]
    p0, p1 = delta * i, delta * (i + 1)
    s0, s1 = delta * j, delta * (j + 1)
    q = delta * delta
    value = ((p1 - P) * (s1 - S) / q * arr[i - 1, j - 1]
             + (p1 - P) * (S - s0) / q * arr[i - 1, j]
             + (P - p0) * (s1 - S) / q * arr[i, j - 1]
             + (P - p0) * (S - s0) / q * arr[i, j])
    return float(value), clamp_p or clamp_s


def tridiag_bands(blocks):
    """(sub, diag, sup) of the sum of one matrix's (n_elems, 2, 2)
    element blocks, block k on rows and columns k, k+1."""
    diag = np.zeros(blocks.shape[0] + 1)
    diag[:-1] = blocks[:, 0, 0]
    diag[1:] += blocks[:, 1, 1]
    diag[0] += 0.0
    return blocks[:, 1, 0], diag, blocks[:, 0, 1]
