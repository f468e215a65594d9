"""1D P1 finite element basics: meshes, mass/stiffness assembly, Dirichlet
handling, tridiagonal (Thomas) solves, the element-midpoint velocity
projection and the backward-Euler march that every method runs on.

The advection velocity is a number or a pointwise callable a(x, t); every
method sees it as one constant per element, its value at the element
midpoint.

All solvers in this package produce tridiagonal systems, so the linear
algebra layer stores only the three central diagonals.  A system is
solved by Thomas elimination without pivoting, split into a
factorisation, computed once per left-hand side and cached on its
read-only TriDiag, and a substitution per right-hand side.  A pivot
failure raises SingularSystemError at the first solve with the matrix
(and at every later one).  Below DOUBLING_MIN_ROWS rows the substitution
is the one-pass loop over Python floats.  From there on each of its two
bidiagonal sweeps is recursive doubling: ceil(log2 n) numpy passes of
strides 1, 2, 4, ..., with the coefficient products of each pass laid
out once per matrix.  Its solutions differ from the loop's by rounding.
Factors with a multiplier or a ratio sup / pivot above 1 in magnitude
keep the loop, and so does a doubled solution that is not finite: the
loop computes it again and decides.
"""

import math
from collections import namedtuple
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Mesh1D",
    "TimeGrid",
    "DirichletBC",
    "TriDiag",
    "TriDiagSystem",
    "ThomasFactors",
    "DoublingFactors",
    "SingularSystemError",
    "check_positive",
    "build_uniform_mesh",
    "point_values",
    "project_velocity",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_load",
    "sum_element_vectors",
    "tridiags_from_blocks",
    "combine",
    "factor_tridiag",
    "solve_tridiag",
    "apply_dirichlet",
    "march",
]

# Relative pivot threshold below which elimination reports a singular system.
PIVOT_RTOL = 1e-14

_NON_FINITE = "tridiagonal solve produced non-finite values"


class SingularSystemError(RuntimeError):
    """Raised when tridiagonal elimination meets a vanishing pivot."""


def check_positive(name, value):
    """value as a float; raises ValueError naming it unless it is finite
    and positive (a NaN passes a `value <= 0` check)."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError("%s must be finite and positive, got %r"
                         % (name, value))
    return value


class Mesh1D:
    """Ordered partition of an interval into elements K_l = [x_l, x_{l+1}].

    nodes and h are read-only copies, so the mass matrix, assembled at
    its first use and kept, cannot go stale.
    """

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("mesh needs at least 2 elements (3 nodes)")
        h = np.diff(nodes)
        if not (np.all(h > 0.0) and np.all(np.isfinite(nodes))):
            raise ValueError("mesh nodes must be finite, strictly increasing")
        self.nodes = _read_only_copy(nodes)
        self.h = _read_only_copy(h)

    @cached_property
    def mass(self):
        """The P1 mass matrix M, shared by every method run on the mesh."""
        return assemble_mass(self)

    @property
    def n_nodes(self):
        return self.nodes.size

    @property
    def n_elems(self):
        return self.nodes.size - 1

    @property
    def midpoints(self):
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    def interpolate(self, f):
        """Nodal (Lagrange) interpolant of an array callable f(x); None
        stands for the zero function."""
        if f is None:
            return np.zeros(self.n_nodes)
        return point_values(f, self.nodes, name="interpolated function")

    def __repr__(self):
        return "Mesh1D(%g..%g, %d elems)" % (
            self.nodes[0], self.nodes[-1], self.n_elems)


def build_uniform_mesh(x_min, x_max, n_elems):
    """Uniform mesh with n_elems elements on (x_min, x_max)."""
    if not x_min < x_max:
        raise ValueError("x_min must be < x_max")
    n_elems = int(n_elems)
    if n_elems < 2:
        raise ValueError("need at least 2 elements")
    return Mesh1D(np.linspace(x_min, x_max, n_elems + 1))


class TimeGrid:
    """Uniform partition of [0, T] into N steps."""

    def __init__(self, t_final, n_steps):
        if not (n_steps >= 1 and float(n_steps).is_integer()):
            raise ValueError("need a whole number of time steps, >= 1")
        self.t_final = check_positive("t_final", t_final)
        self.n_steps = int(n_steps)
        self.dt = self.t_final / self.n_steps

    @classmethod
    def from_dt(cls, dt, n_steps):
        return cls(check_positive("dt", dt) * n_steps, n_steps)

    def times(self):
        return np.linspace(0.0, self.t_final, self.n_steps + 1)


class DirichletBC:
    """Time-dependent Dirichlet values at both ends of the domain."""

    def __init__(self, left, right):
        self.left = left if callable(left) else (lambda t, v=float(left): v)
        self.right = right if callable(right) else (lambda t, v=float(right): v)

    @classmethod
    def homogeneous(cls):
        return cls(0.0, 0.0)

    def values(self, t):
        gl, gr = self.left(t), self.right(t)
        if not (np.isfinite(gl) and np.isfinite(gr)):
            raise ValueError("boundary values must be finite")
        return gl, gr


# Gauss points per element of the P1 load, the rule of the full method's
# source projection: for f = cos 3x + x t on elements up to 0.8 wide, one
# full step then matches the monolithic Galerkin step of its space to
# roundoff, where 4 points left a 1.3e-7 gap.
_LOAD_GAUSS = 32


@lru_cache(maxsize=64)
def _composite_gauss01(n_gauss, panels):
    """n_gauss-point Gauss rule on each of `panels` equal parts of [0, 1].

    Cached per (n_gauss, panels); the returned node and weight arrays are
    read-only because every caller shares them.
    """
    xg, wg = np.polynomial.legendre.leggauss(n_gauss)
    xg = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
    if panels > 1:
        xg = ((np.arange(panels)[:, None] + xg[None, :]) / panels).ravel()
        wg = np.tile(wg / panels, panels)
    xg.flags.writeable = False
    wg.flags.writeable = False
    return xg, wg


def point_values(f, x, *args, name):
    """f(x, *args) on the point array x, as a float array of x's shape.

    User callables such as initial(x) and source(x, t) take an ndarray of
    points and return an array of the same shape; a scalar result is
    broadcast.  Raises ValueError on any other shape or on a non-finite
    value.
    """
    vals = np.asarray(f(x, *args), dtype=float)
    if vals.ndim == 0:
        vals = np.full(x.shape, vals)
    elif vals.shape != x.shape:
        raise ValueError(
            "%s returned shape %s for points of shape %s: it must take an "
            "array of points and return an array of the same shape"
            % (name, vals.shape, x.shape))
    if not np.all(np.isfinite(vals)):
        raise ValueError("%s produced non-finite values" % name)
    return vals


def _at_points(f, x, t):
    """Pointwise velocity a(x, t) evaluated at every point of an array;
    unlike initial and source, velocity callables take one point."""
    return np.array([f(xi, t) for xi in x.ravel()],
                    dtype=float).reshape(x.shape)


def project_velocity(a, mesh, t=0.0):
    """Per-element constant velocities a_K: a number, or a callable a(x, t)
    evaluated at the element midpoints.  Raises ValueError on a
    non-finite value."""
    if callable(a):
        vals = _at_points(a, mesh.midpoints, t)
    else:
        vals = np.full(mesh.n_elems, float(a))
    if not np.all(np.isfinite(vals)):
        raise ValueError("velocity projection produced non-finite values")
    return vals


class TriDiag:
    """Tridiagonal matrix stored as read-only (sub, diag, sup) bands.

    The bands are copied from the input and never written, so the Thomas
    factorisation and the Dirichlet boundary rows that solves cache on
    the matrix cannot go stale.
    """

    def __init__(self, sub, diag, sup):
        self.sub, self.diag, self.sup = (_read_only_copy(b)
                                         for b in (sub, diag, sup))
        n = self.diag.size
        if self.sub.size != n - 1 or self.sup.size != n - 1:
            raise ValueError("band lengths inconsistent with diagonal")
        self._factors = None
        self._dirichlet = None

    @property
    def n(self):
        return self.diag.size

    @classmethod
    def from_blocks(cls, blocks):
        """Sum of (n_elems, 2, 2) element blocks, block k on rows and
        columns k, k+1."""
        return tridiags_from_blocks(np.asarray(blocks, dtype=float)[None])[0]

    def matvec(self, x):
        y = self.diag * x
        y[:-1] += self.sup * x[1:]
        y[1:] += self.sub * x[:-1]
        return y

    def max_abs(self):
        return max(np.max(np.abs(self.diag)),
                   np.max(np.abs(self.sub), initial=0.0),
                   np.max(np.abs(self.sup), initial=0.0))

    def factors(self):
        """The Thomas factors of this matrix as solve_tridiag uses them,
        ThomasFactors or DoublingFactors, computed at the first call.

        A matrix whose elimination fails caches nothing, so every solve
        with it raises SingularSystemError again.
        """
        if self._factors is None:
            self._factors = _substitution_factors(factor_tridiag(self))
        return self._factors

    def dirichlet_rows(self):
        """(matrix, left, right) for Dirichlet row replacement, built at
        the first call: matrix has identity boundary rows and no coupling
        to the boundary columns; left and right are the removed couplings
        of row 1 to column 0 and of row n-2 to column n-1."""
        if self._dirichlet is None:
            sub, diag, sup = (b.copy() for b in (self.sub, self.diag,
                                                  self.sup))
            n = diag.size
            diag[0] = 1.0
            sup[0] = 0.0
            diag[n - 1] = 1.0
            sub[n - 2] = 0.0
            # read after the row n-1 update: for n = 2 that zeroes sub[0]
            left = sub[0]
            sub[0] = 0.0
            right = sup[n - 2]
            sup[n - 2] = 0.0
            self._dirichlet = (TriDiag(sub, diag, sup), left, right)
        return self._dirichlet


def _read_only_copy(values):
    values = np.array(values, dtype=float)
    values.flags.writeable = False
    return values


class TriDiagSystem:
    """Tridiagonal linear system A u = rhs."""

    def __init__(self, matrix, rhs):
        rhs = np.asarray(rhs, dtype=float)
        if rhs.size != matrix.n:
            raise ValueError("rhs length does not match matrix")
        self.matrix = matrix
        self.rhs = rhs


# A = L U from Thomas elimination without pivoting, as lists of Python
# floats: L is unit lower bidiagonal with the multipliers below its
# diagonal, U upper bidiagonal with the pivots on its diagonal and the
# superdiagonal of A above it.
ThomasFactors = namedtuple("ThomasFactors", "multipliers pivots sup")


def factor_tridiag(matrix):
    """Thomas factorisation of a TriDiag; raises SingularSystemError on a
    zero matrix or a pivot below PIVOT_RTOL times its largest entry."""
    scale = float(matrix.max_abs())
    if scale == 0.0:
        raise SingularSystemError("zero matrix")
    if math.isnan(scale):
        # a NaN on the diagonal disables every pivot check and ends in a
        # NaN solution
        raise FloatingPointError(_NON_FINITE)
    tol = PIVOT_RTOL * scale
    diag, sup = matrix.diag.tolist(), matrix.sup.tolist()
    p = diag[0]
    pivots, multipliers = [p], []
    for a, d, c in zip(matrix.sub.tolist(), diag[1:], sup):
        if abs(p) < tol:
            raise SingularSystemError("pivot %d below tolerance"
                                      % (len(pivots) - 1))
        w = a / p
        p = d - w * c
        multipliers.append(w)
        pivots.append(p)
    if abs(p) < tol:
        raise SingularSystemError("pivot %d below tolerance"
                                  % (len(pivots) - 1))
    return ThomasFactors(multipliers, pivots, sup)


def solve_tridiag(sys):
    """Solve by substitution with the matrix's cached Thomas factors.

    Raises SingularSystemError when the factorisation meets a tiny pivot
    and FloatingPointError when the solution is not finite.
    """
    return _substitute(sys.matrix.factors(), sys.rhs)


def _substitute(f, rhs):
    """x with L U x = rhs for ThomasFactors or DoublingFactors f.

    A doubled solution that is not finite, as when y / p overflows where
    the one-pass loop's (y - c x) / p does not, is computed again, once,
    by the loop, whose result decides.
    """
    if isinstance(f, DoublingFactors):
        with np.errstate(over="ignore", invalid="ignore"):
            x = _doubled_substitution(f, rhs)
        if np.all(np.isfinite(x)):
            return x
        f = ThomasFactors((-f.forward[0]).tolist(), f.pivots.tolist(),
                          f.sup.tolist())
    return _thomas_substitution(f, rhs)


def _thomas_substitution(f, rhs):
    """The one-pass forward and back substitution on Python floats."""
    r = rhs.tolist()
    for i, w in enumerate(f.multipliers):
        r[i + 1] -= w * r[i]
    x = r[-1] / f.pivots[-1]
    r[-1] = x
    for i in range(len(r) - 2, -1, -1):
        x = (r[i] - f.sup[i] * x) / f.pivots[i]
        r[i] = x
    x = np.array(r)
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(_NON_FINITE)
    return x


# Row count from which solve_tridiag substitutes by recursive doubling;
# below it the one-pass loop is faster.
DOUBLING_MIN_ROWS = 300

# The Thomas factors of an n-row matrix laid out for substitution by
# recursive doubling (H. S. Stone, J. ACM 20(1), 1973).  L y = r is the
# recurrence y_i = r_i + g_i y_{i-1} with g_i = -multiplier_i, and U x = y
# is x_i = y_i / p_i + e_i x_{i+1} with e_i = -sup_i / p_i.  forward[j]
# holds, for each row i from k = 2^j on, the product of g over rows
# i - k + 1 .. i; backward[j], for each row i up to n - 1 - k, that of e
# over rows i .. i + k - 1.  Level j + 1 is c[k:] * c[:-k] of level j.
# pivots and sup are U's diagonal and superdiagonal.
DoublingFactors = namedtuple("DoublingFactors",
                             "pivots sup forward backward")


def _substitution_factors(f):
    """ThomasFactors f below DOUBLING_MIN_ROWS rows or when a coefficient
    grows, else f as DoublingFactors."""
    n = len(f.pivots)
    if n < DOUBLING_MIN_ROWS:
        return f
    pivots, sup, g = (np.fromiter(v, float, len(v))
                      for v in (f.pivots, f.sup, f.multipliers))
    g, e = -g, -sup / pivots[:-1]
    if max(np.max(np.abs(g)), np.max(np.abs(e))) > 1.0:
        # a coefficient above 1 makes the products of a level grow, and
        # the sums that carry them cancel digits that the one-pass loop
        # keeps
        return f
    forward, backward = [g], [e]
    k = 1
    while 2 * k < n:
        g, e = g[k:] * g[:-k], e[k:] * e[:-k]
        forward.append(g)
        backward.append(e)
        k *= 2
    return DoublingFactors(pivots, sup, forward, backward)


def _doubled_substitution(f, rhs):
    """x with L U x = rhs by recursive doubling; see DoublingFactors.

    After the sweep of stride k, each row holds the sum of its recurrence
    over the 2k rows that end (forward) or start (back) at it.
    """
    y = np.array(rhs, dtype=float)
    k = 1
    for g in f.forward:
        y[k:] += g * y[:-k]
        k *= 2
    x = y / f.pivots
    k = 1
    for e in f.backward:
        x[:-k] += e * x[k:]
        k *= 2
    return x


def tridiags_from_blocks(blocks):
    """One TriDiag per leading index of (n_mats, n_elems, 2, 2) element
    blocks, each the sum of its blocks, block k on rows and columns k,
    k+1; the diagonals of all of them are summed in one pass."""
    diag = sum_element_vectors(blocks[..., [0, 1], [0, 1]])
    return [TriDiag(b[:, 1, 0], d, b[:, 0, 1]) for b, d in zip(blocks, diag)]


def combine(f, *mats):
    """The TriDiag whose bands are f of the matching bands of mats, such
    as combine(lambda m, r: m + dt * r, mass, stiffness) for M + dt R."""
    return TriDiag(*(f(*bands) for bands in zip(
        *((m.sub, m.diag, m.sup) for m in mats))))


def sum_element_vectors(local):
    """Node vectors summing (..., n_elems, 2) element vectors onto nodes
    k, k+1."""
    out = np.zeros(local.shape[:-2] + (local.shape[-2] + 1,))
    out[..., :-1] = local[..., 0]
    out[..., 1:] += local[..., 1]
    # both end nodes get their one contribution plus zero, so a -0.0
    # contribution reads 0.0 at either end
    out[..., 0] += 0.0
    return out


def assemble_mass(mesh):
    """P1 mass matrix: element block (h/6) [[2, 1], [1, 2]]."""
    return TriDiag.from_blocks(
        (mesh.h / 6.0)[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]]))


def assemble_stiffness(mesh, a_elem, mu):
    """Advection-diffusion matrix for b(w, v) = (a w', v) + mu (w', v').

    a_elem gives the per-element constant velocity.
    """
    check_positive("mu", mu)
    a_elem = np.broadcast_to(np.asarray(a_elem, dtype=float), (mesh.n_elems,))
    adv = (a_elem / 2.0)[:, None, None] * np.array([[-1.0, 1.0],
                                                    [-1.0, 1.0]])
    dif = (mu / mesh.h)[:, None, None] * np.array([[1.0, -1.0],
                                                   [-1.0, 1.0]])
    return TriDiag.from_blocks(adv + dif)


def assemble_load(mesh, f, t):
    """P1 load vector (f(., t), phi_l) by _LOAD_GAUSS-point Gauss per
    element."""
    if f is None:
        return np.zeros(mesh.n_nodes)
    xg, wg = _composite_gauss01(_LOAD_GAUSS, 1)
    xq = mesh.nodes[:-1, None] + mesh.h[:, None] * xg
    fq = point_values(f, xq, t, name="source")
    local = np.stack([np.sum(wg * fq * (1.0 - xg), axis=1),
                      np.sum(wg * fq * xg, axis=1)], axis=1)
    return sum_element_vectors(mesh.h[:, None] * local)


def apply_dirichlet(sys, bc, t):
    """Enforce Dirichlet values by row replacement with rhs correction.

    Returns a new system; boundary rows become identity rows and the
    adjacent interior rows lose their coupling to the boundary columns.
    The new matrix depends on sys.matrix alone, so it is built once per
    matrix and shared, with its factorisation, by every call.
    """
    gl, gr = bc.values(t)
    m, left, right = sys.matrix.dirichlet_rows()
    rhs = sys.rhs.copy()
    n = m.n
    rhs[0] = gl
    rhs[n - 1] = gr
    # eliminate boundary columns from the neighbouring interior rows
    rhs[1] -= left * gl
    rhs[n - 2] -= right * gr
    return TriDiagSystem(m, rhs)


def march(mesh, tgrid, velocity, u0, build, step, carry=None):
    """Backward-Euler march from the nodal values u0 over tgrid.

    Step n goes to t_{n+1} = (n + 1) dt with the snapshot build(a_elem)
    of the velocity projected at t_{n+1}; a snapshot is built again only
    when the projection changes.  step(n, u, snap, snap_old, carry)
    returns (u_next, carry): snap_old is the previous step's
    snapshot (None at step 0, so the step knows it is the first) and
    carry what the method passes from step to step.  Returns the
    (n_steps + 1, n_nodes) history and the final carry.
    """
    history = np.empty((tgrid.n_steps + 1, mesh.n_nodes))
    history[0] = u = u0
    snap = a_snap = None
    for n in range(tgrid.n_steps):
        a_elem = project_velocity(velocity, mesh, (n + 1) * tgrid.dt)
        # released before the next build, so at most one older snapshot
        # is alive while a new one is assembled
        snap_old = snap
        if snap is None or not np.array_equal(a_elem, a_snap):
            a_snap, snap = a_elem, build(a_elem)
        u, carry = step(n, u, snap, snap_old, carry)
        history[n + 1] = u
    return history, carry
