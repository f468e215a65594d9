"""Per-element eigenmode machinery for the advection-diffusion operator.

On a reference element [0, 1] with Peclet number P = |a| h / (2 mu), the
operator a w' - mu w'' with zero end values has eigenfunctions
exp(+-P xhat) sin(j pi xhat) (sign following the velocity) and eigenvalues
mu (j pi / h)^2 + a^2 / (4 mu).  Everything the solvers need reduces to six
dimensionless integrals of exp(+-P xhat) sin(j pi xhat) against 1, xhat and
1 - xhat, summed over modes with damping weights
beta_j = 1 / (1 + S (P^2 + pi^2 j^2)), S = dt mu / h^2.

Exponentials are evaluated in midpoint-shifted form (exp(+-P/2) factors
kept symbolic until products are formed) so large-P products do not
overflow prematurely.

The feasible method's kernels, the eight families below and the
pairings vms_feasible assembles, are sums of the entries of two 2x2
blocks, A1 and B1, at the element's (P, S).  green_blocks
evaluates them in closed form, as bilinear forms of the element Green's
function; series_blocks sums exactly n modes of their series.  No solver
path uses the epsilon-truncated series (sum_series_multi,
sum_series_batch, TruncationPolicy); they stay only while the
benchmark's tracer and online workload name them (ROADMAP item 1).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import mesh_fem
from .mesh_fem import _composite_gauss01

__all__ = [
    "ElementParams",
    "TruncationPolicy",
    "TruncationOverflowWarning",
    "FAMILIES",
    "element_params",
    "distinct_element_params",
    "distinct_rows",
    "beta",
    "mode_value",
    "sum_series_batch",
    "sum_series_multi",
    "series_blocks",
    "green_blocks",
    "closed_form_kernels",
    "kernels_from_blocks",
    "element_mode_arrays",
    "source_mode_projection",
]


class TruncationOverflowWarning(UserWarning):
    """Mode cap reached before the series term dropped below threshold."""


@dataclass(frozen=True)
class ElementParams:
    """Nondimensional state of elements for one time step.

    P, S, sign_a, h and a are arrays over element keys: one entry per
    distinct (a, h) from distinct_element_params, or the broadcast shape
    of element_params' a and h.  mu and dt are shared by every element.
    """

    P: np.ndarray
    S: np.ndarray
    sign_a: np.ndarray
    h: np.ndarray
    mu: float
    a: np.ndarray
    dt: float


def element_params(a, h, mu, dt):
    """Peclet number P = |a| h / (2 mu) and strength S = dt mu / h^2,
    elementwise over the broadcast shape of a and h."""
    a, h = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(h, dtype=float))
    if not np.all(h > 0.0):
        raise ValueError("h must be positive")
    mesh_fem.check_positive("mu", mu)
    mesh_fem.check_positive("dt", dt)
    if not np.all(np.isfinite(a)):
        raise ValueError("velocity must be finite")
    P = np.abs(a) * h / (2.0 * mu)
    # C pow, as Python's h ** 2; array ** 2 multiplies instead and can
    # differ in the last bit
    S = dt * mu / np.float_power(h, 2)
    return ElementParams(P=P, S=S, sign_a=np.where(a < 0.0, -1.0, 1.0),
                         h=h, mu=mu, a=a, dt=dt)


def distinct_rows(columns):
    """The distinct rows of equal-length 1-D columns, and the inverse.

    Returns (keys, inverse): keys is a tuple of columns holding each
    distinct row once, in lexicographic order, and row k equals the
    keys at inverse[k].  These are the rows and inverse of
    np.unique(np.stack(columns, axis=1), axis=0, return_inverse=True),
    from one stable lexsort; -0.0 and 0.0 fall in one row.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    order = np.lexsort(columns[::-1])  # the last key sorts first
    ordered = [c[order] for c in columns]
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for c in ordered:
        new[1:] |= c[1:] != c[:-1]
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return tuple(c[new] for c in ordered), inverse


def distinct_element_params(a_elem, h, mu, dt):
    """ElementParams once per distinct (a, h) pair of a mesh's elements.

    Returns (params, index): element k has the parameters at entry
    index[k] of the params arrays.
    """
    (a, hk), index = distinct_rows((a_elem, h))
    return element_params(a, hk, mu, dt), index


@dataclass(frozen=True)
class TruncationPolicy:
    """Series cutoff: stop at the first mode j with |term| < epsilon for
    both j and j + 1."""

    epsilon: float = 1e-10
    j_max: int = 5000

    def __post_init__(self):
        if self.epsilon <= 0.0 or self.j_max < 1:
            raise ValueError("epsilon must be > 0 and j_max >= 1")


def _per_key(v, ndim):
    """v with ndim trailing axes appended, so that each element key meets
    every mode index (and point)."""
    v = np.asarray(v)
    return v.reshape(v.shape + (1,) * ndim)


def beta(j, p):
    """Mode damping 1 / (1 + S (P^2 + pi^2 j^2)), of shape
    p.P.shape + j.shape."""
    j = np.asarray(j, dtype=float)
    # C pow, as Python's P ** 2
    return 1.0 / (1.0 + _per_key(p.S, j.ndim) * (
        _per_key(np.float_power(p.P, 2), j.ndim) + np.pi ** 2 * j ** 2))


def mode_value(j, p, xhat):
    """Normalized mode times sqrt(h): sqrt(2) e^{sign P xhat} sin(j pi xhat),
    of shape p.P.shape + the broadcast shape of j and xhat.

    The exponent carries the velocity sign, so the mode is orthonormal
    under the weight exp(-2 sign P xhat); mirroring the element instead
    would only change each mode by a constant factor.
    """
    xhat = np.asarray(xhat, dtype=float)
    if np.any(xhat < 0.0) or np.any(xhat > 1.0):
        raise ValueError("xhat must lie in [0, 1]")
    rate = _per_key(p.sign_a * p.P, np.broadcast(j, xhat).ndim)
    return np.sqrt(2.0) * np.exp(rate * xhat) * np.sin(j * np.pi * xhat)


# --- reference-element integrals --------------------------------------
#
# With b = j pi, D = c^2 + b^2 and sigma = (-1)^j:
#   I(c)  = int_0^1 exp(c xhat) sin(j pi xhat) dxhat = b (1 - sigma e^c) / D
#   J(c)  = int_0^1 xhat exp(c xhat) sin(...) dxhat = dI/dc
#         = b (-2c + sigma e^c (2c - D)) / D^2
# The shifted variants carry exp(-c/2) so that only exp(+-c/2) is ever
# formed explicitly.


def _sigma(j):
    return np.where(np.asarray(j, dtype=np.int64) % 2 == 0, 1.0, -1.0)


def _i_shifted(j, c):
    """exp(-c/2) * I(c)."""
    b = np.asarray(j, dtype=float) * np.pi
    d = c * c + b * b
    em, ep = np.exp(-0.5 * c), np.exp(0.5 * c)
    return b * (em - _sigma(j) * ep) / d


def _j_shifted(j, c):
    """exp(-c/2) * J(c)."""
    b = np.asarray(j, dtype=float) * np.pi
    d = c * c + b * b
    em, ep = np.exp(-0.5 * c), np.exp(0.5 * c)
    return b * (-2.0 * c * em + _sigma(j) * ep * (2.0 * c - d)) / d ** 2


def shifted_sides(j, P):
    """Shifted integral factors (a0, a1, d0 scaled by e^{P/2};
    c0, c1, e0 scaled by e^{-P/2}).

    Products of one a/d factor with one c/e factor equal the unshifted
    products exactly, with no exponential larger than e^{P/2} formed.
    """
    d0s = _i_shifted(j, -P)
    a1s = _j_shifted(j, -P)
    e0s = _i_shifted(j, P)
    c1s = _j_shifted(j, P)
    return d0s - a1s, a1s, d0s, e0s - c1s, c1s, e0s


_SIGN = np.array([-1.0, 1.0])  # gradient signs of the two local hats


# --- kernel families ---------------------------------------------------
#
# Each family is a dimensionless mode series  sum_j w_j side1_j side2_j
# with w = beta (weight_power 1) or beta^2 (weight_power 2):
#   side "a": int phi_m e^{-P x} sin;  side "d": d0 = a0 + a1
#   side "c": int phi_l e^{+P x} sin;  side "e": e0 = c0 + c1
# so every family is a sum of entries of A1 (beta) or B1 (beta^2).


@dataclass(frozen=True)
class Family:
    name: str
    weight_power: int
    side1: str  # "a" or "d"
    side2: str  # "c" or "e"


FAMILIES = {
    f.name: f for f in [
        Family("A1", 1, "a", "c"),
        Family("A2", 1, "d", "c"),
        Family("A3", 1, "a", "e"),
        Family("A4", 1, "d", "e"),
        Family("B1", 2, "a", "c"),
        Family("B2", 2, "d", "c"),
        Family("B3", 2, "a", "e"),
        Family("B4", 2, "d", "e"),
    ]
}


def _entry_sides(fam, m, l, sides):
    """side1 * side2 of one (family, m, l) entry from shifted_sides(j, P)."""
    a0s, a1s, d0s, c0s, c1s, e0s = sides
    s1 = d0s if fam.side1 == "d" else (a0s, a1s)[m]
    s2 = e0s if fam.side2 == "e" else (c0s, c1s)[l]
    return s1 * s2


def sum_series_multi(entries, P, s_values, policy):
    """Several kernel series over many (P, S) points at once.

    entries is a sequence of (family, m, l).  P is one Peclet number for
    every S value, or an array paired elementwise with s_values.  Each
    block of modes builds the six shifted sides and the damping weights
    once and shares them across the entries, and block sizes grow
    geometrically so short series stay cheap.  Returns (values, counts,
    overflowed), each a dict keyed by entry of arrays over the points,
    where counts hold the stopping mode index: the first mode j whose
    term and the next term are both below epsilon.  Terms up to j are
    summed, or all terms to j_max when the cap is hit.  One small term is
    not enough, because the d and e sides nearly vanish for every even j
    when P is small.
    """
    entries = [(FAMILIES[f] if isinstance(f, str) else f, m, l)
               for f, m, l in entries]
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    ns = s_values.size
    P = np.asarray(P, dtype=float)
    # a scalar P keeps the sides one column wide; a P array lays one
    # point per column, like the weights
    p_row = P if P.ndim == 0 else np.broadcast_to(P, (ns,))[None, :]
    # C pow, as scalar float arithmetic squares P; array ** 2 multiplies
    # instead and can differ in the last bit
    p_sq = np.float_power(p_row, 2)
    values = [np.zeros(ns) for _ in entries]
    counts = [np.zeros(ns, dtype=np.int64) for _ in entries]
    done = [np.zeros(ns, dtype=bool) for _ in entries]
    j0 = 1
    block = 32
    while j0 <= policy.j_max and not all(d.all() for d in done):
        jb = np.arange(j0, min(j0 + block, policy.j_max + 1))
        # one mode past the block, so the stopping test can see term j + 1
        jc = np.append(jb, jb[-1] + 1)[:, None]
        sides = shifted_sides(jc, p_row)
        w1 = 1.0 / (1.0 + (p_sq + np.pi ** 2 * jc ** 2) * s_values)
        w2 = None
        for i, (fam, m, l) in enumerate(entries):
            if done[i].all():
                continue
            if fam.weight_power == 2 and w2 is None:
                w2 = w1 * w1
            w = w1 if fam.weight_power == 1 else w2
            terms = w * _entry_sides(fam, m, l, sides)
            small = np.abs(terms) < policy.epsilon
            stop = small[:-1] & small[1:]
            hit = stop.any(axis=0)
            first = stop.argmax(axis=0)
            csum = np.cumsum(terms[:-1], axis=0)
            contrib = np.where(hit, np.take_along_axis(
                csum, first[None, :], axis=0)[0], csum[-1, :])
            act = ~done[i]
            values[i][act] += contrib[act]
            counts[i][act] = np.where(hit[act], j0 + first[act], jb[-1])
            done[i] |= act & hit
        j0 = jb[-1] + 1
        block = min(2 * block, 512)
    out_v, out_c, out_o = {}, {}, {}
    capped = np.zeros(ns, dtype=bool)
    for i, (fam, m, l) in enumerate(entries):
        key = (fam.name, m, l)
        out_v[key], out_c[key], out_o[key] = values[i], counts[i], ~done[i]
        capped |= ~done[i]
    if capped.any():
        warnings.warn(
            "series cap j_max=%d reached before epsilon=%g at P=%g"
            % (policy.j_max, policy.epsilon,
               np.broadcast_to(P, (ns,))[capped].max()),
            TruncationOverflowWarning, stacklevel=2)
    return out_v, out_c, out_o


def sum_series_batch(family, m, l, P, s_values, policy):
    """Kernel series for one (family, m, l), one P and many S values.

    Returns (values, counts, overflowed) arrays over the S values.
    """
    fam = FAMILIES[family] if isinstance(family, str) else family
    key = (fam.name, m, l)
    vals, counts, over = sum_series_multi([(fam, m, l)], P, s_values,
                                          policy)
    return vals[key], counts[key], over[key]


def series_blocks(P, S, n_modes):
    """The A1 and B1 kernel blocks summed over exactly n_modes modes.

    P and S are scalars or arrays, paired elementwise after
    broadcasting.  Returns (A1, B1), each an array (2, 2, n_points)
    indexed [m, l]: sum_j beta_j a_m c_l and sum_j beta_j^2 a_m c_l.
    """
    P, S = _check_points(P, S)
    j = np.arange(1, n_modes + 1)
    a0s, a1s, _, c0s, c1s, _ = shifted_sides(j, P[:, None])
    # C pow, as Python's P ** 2
    w = 1.0 / (1.0 + S[:, None] * (np.float_power(P, 2)[:, None]
                                   + np.pi ** 2 * j ** 2))
    a1, b1 = np.einsum("wpj,mpj,lpj->wmlp", np.stack([w, w * w]),
                       np.stack([a0s, a1s]), np.stack([c0s, c1s]))
    return a1, b1


# --- closed forms from the element Green's function ------------------
#
# With K = I + S (2P d/dx - d^2/dx^2) on [0, 1], u(0) = u(1) = 0, the
# modes e^{Px} sin(j pi x) diagonalise K with eigenvalues 1 / beta_j, so
# for u_m = K^{-1} phi_m (phi_0 = 1 - x, phi_1 = x)
#   A1[m, l] = sum_j beta_j a_m c_l   = 1/2 int phi_l u_m,
#   B1[m, l] = sum_j beta_j^2 a_m c_l = 1/2 int u_{1-l}(1 - x) u_m(x),
# the second because the adjoint of K is K mirrored about x = 1/2.  The
# d and e sides are a_0 + a_1 and c_0 + c_1, so the other six families
# are sums of A1 and B1 entries.
#
# K = S (lam - D)(D + mu) with lam = P + Q, mu = Q - P = 1 / (S lam) and
# Q^2 = P^2 + 1/S.  Variation of constants, with the O(P S) constant of
# the polynomial particular solution folded into phi-functions, gives
#   u_m = x [(f1 - f0)(mu/lam + rho (1 - phi1(-mu x))) + f0 mu phi1(-mu x)]
#         + N_m x e^{-lam (1 - x)} phi1(-2 Q x) / phi1(-2 Q),
# where f0 = phi_m(0), f1 = phi_m(1), rho = 2P / lam, and N_m makes
# u_m(1) = 0.  Every exponent is non-positive and every term is bounded,
# so no e^P-sized values cancel.  The two integrals are then taken by a
# composite Gauss rule whose panels are graded toward both ends at the
# boundary-layer rates lam and mu.

# Gauss points per panel.  Panel break points are 2^k / lam, k = 0, 1,
# ..., in each half of [0, 1], up to where e^{-lam x} and e^{-mu x} are
# both below e^{-_GREEN_REACH}; every panel spans a factor 2 in x, so
# none holds more than a few decay lengths of either exponential above
# e^{-_GREEN_REACH}.
_GREEN_GAUSS = 8
_GREEN_REACH = 32.0
# points per evaluation, which bounds the (points, nodes) workspace
_GREEN_CHUNK = 128
# 1 / (n + 2)! for the Taylor branch of phi2 near zero
_PHI2_TAYLOR = 1.0 / np.cumprod(np.arange(2.0, 19.0))

# Rows of the float workspace of one green_blocks call, each holding one
# (points, nodes) array of the current chunk.  _Y, _NEG, _E, _PHI2, _Z
# and _PHI1 append one value per point, so that phi2(-mu), phi1(-mu) and
# phi1(-2Q) come out of the ufunc calls that serve the nodes.  _WU0 and
# _WU1 double as scratch until the weighted products are formed.
(_X, _W, _OMX, _Y, _NEG, _E, _PHI2, _Z, _PHI1, _LAYER, _U0, _U1, _WU0,
 _WU1) = range(14)
_GREEN_ROWS = _WU1 + 1


def _phi1_neg(neg_y, out, zero):
    """phi1(-y) = (1 - e^{-y}) / y for y >= 0, by expm1, into out, from
    neg_y = -y; zero is boolean scratch of the same size."""
    np.expm1(neg_y, out=out)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(out, neg_y, out=out)
    np.equal(neg_y, 0.0, out=zero)
    out[zero] = 1.0


def _phi2_neg(y, neg_y, em1, out, large, closed):
    """phi2(-y) = (e^{-y} - 1 + y) / y^2 for y >= 0 into out, given
    neg_y = -y and em1 = expm1(-y): a Taylor series by Horner's rule
    below y = 1, the closed form above.

    Both branches run over every point, so nothing is gathered; large
    (boolean) and closed (float) are scratch of y's size, and neg_y is
    overwritten.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # the values at y >= 1 may overflow here; they are replaced below
        np.multiply(neg_y, _PHI2_TAYLOR[-1], out=out)
        out += _PHI2_TAYLOR[-2]
        for coef in _PHI2_TAYLOR[-3::-1]:
            out *= neg_y
            out += coef
    np.less(y, 1.0, out=large)
    np.logical_not(large, out=large)
    if large.any():
        with np.errstate(invalid="ignore", divide="ignore"):
            np.add(em1, y, out=closed)
            np.multiply(y, y, out=neg_y)
            np.divide(closed, neg_y, out=closed)
        np.copyto(out, closed, where=large)


def _n_breaks(lam, mu):
    """Panel break points 2^k / lam, k < n_breaks, per half of [0, 1]
    for one chunk of points: the last reaches min(1/2, _GREEN_REACH / mu)
    at every point of the chunk."""
    reach = np.minimum(0.5, _GREEN_REACH / mu) * lam
    return 1 + max(0, int(np.ceil(np.log2(reach.max()))))


def _graded_rule(lam, n_breaks, x, w, scratch):
    """Write nodes and weights, arrays (n_points, n_nodes) on [0, 1],
    into x and w: symmetric about 1/2, with panel break points
    min(1/2, 2^k / lam), k < n_breaks, in each half.  scratch is a flat
    float array of at least x.size / 2."""
    xg, wg = _composite_gauss01(_GREEN_GAUSS, 1)
    n = lam.size
    # panel-major, so every ufunc loop runs over the points
    edges = np.empty((n_breaks + 2, n))
    edges[0] = 0.0
    edges[-1] = 0.5
    inner = edges[1:-1]
    np.divide(2.0 ** np.arange(n_breaks)[:, None], lam, out=inner)
    np.minimum(0.5, inner, out=inner)
    width = edges[1:] - edges[:-1]
    half = x.shape[1] // 2
    panels = scratch[:n * half].reshape(n_breaks + 1, _GREEN_GAUSS, n)
    np.multiply(width[:, None], xg[:, None], out=panels)
    panels += edges[:-1, None]
    x[:, :half] = panels.reshape(half, n).T
    np.multiply(width[:, None], wg[:, None], out=panels)
    w[:, :half] = panels.reshape(half, n).T
    # the mirror image of the first half
    np.subtract(1.0, x[:, half - 1::-1], out=x[:, half:])
    w[:, half:] = w[:, half - 1::-1]


def _check_points(P, S):
    P, S = np.broadcast_arrays(np.asarray(P, dtype=float),
                               np.asarray(S, dtype=float))
    P, S = P.ravel(), S.ravel()
    if not (np.isfinite(P).all() and np.isfinite(S).all()):
        raise ValueError("P and S must be finite")
    if (P < 0.0).any() or (S <= 0.0).any():
        raise ValueError("need P >= 0 and S > 0")
    return P, S


def _green_chunk(point, n_breaks, ws, mask, a1, b1):
    """Fill a1 and b1, arrays (2, 2, n), at the n points of one chunk.

    point holds the chunk's per-point arrays (lam, -lam, mu, -mu, rho,
    mu / lam, 1 / lam, -2Q); ws is the float workspace, one row per
    stage, and mask boolean scratch of a row's size.
    """
    lam, neg_lam, mu, neg_mu, rho, mu_lam, inv_lam, neg_2q = point
    n = lam.size
    k = 2 * _GREEN_GAUSS * (n_breaks + 1)
    nk = n * k
    ext = nk + n

    def grid(row):
        return ws[row, :nk].reshape(n, k)

    x, w, omx = grid(_X), grid(_W), grid(_OMX)
    _graded_rule(lam, n_breaks, x, w, ws[_OMX])
    np.subtract(1.0, x, out=omx)
    # y = mu x at the nodes, then mu itself
    y_ext, neg_ext, e_ext = ws[_Y, :ext], ws[_NEG, :ext], ws[_E, :ext]
    y = y_ext[:nk].reshape(n, k)
    np.multiply(mu[:, None], x, out=y)
    y_ext[nk:] = mu
    np.negative(y_ext, out=neg_ext)
    np.expm1(neg_ext, out=e_ext)
    phi2_ext = ws[_PHI2, :ext]
    _phi2_neg(y_ext, neg_ext, e_ext, phi2_ext, mask[:ext], ws[_WU0, :ext])
    # phi1(-mu) = expm1(-mu) / -mu
    phi1_mu = ws[_WU0, :n]
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(e_ext[nk:], neg_mu, out=phi1_mu)
    phi1_mu[mu == 0.0] = 1.0
    # -2Q x at the nodes, then -2Q
    z_ext, phi1_ext = ws[_Z, :ext], ws[_PHI1, :ext]
    np.multiply(neg_2q[:, None], x, out=z_ext[:nk].reshape(n, k))
    z_ext[nk:] = neg_2q
    _phi1_neg(z_ext, phi1_ext, mask[:ext])

    # u_1 = x (mu/lam + rho (1 - phi1(-mu x))) + N_1 * layer, and u_0 + u_1
    # solves K u = 1
    u1 = grid(_U1)
    np.multiply(rho[:, None], y, out=u1)
    u1 *= phi2_ext[:nk].reshape(n, k)
    u1 += mu_lam[:, None]
    u1 *= x
    layer = grid(_LAYER)
    np.multiply(neg_lam[:, None], omx, out=layer)
    np.exp(layer, out=layer)
    layer *= x
    layer *= phi1_ext[:nk].reshape(n, k)
    layer /= phi1_ext[nk:, None]
    n1 = neg_mu * (inv_lam + rho * phi2_ext[nk:])
    n_sum = neg_mu * phi1_mu
    # u_0 = mu x phi1(-mu x) - u_1 + (n_sum - n1) layer
    u0, tmp = grid(_U0), grid(_WU1)
    np.negative(e_ext[:nk].reshape(n, k), out=u0)
    u0 -= u1
    np.multiply((n_sum - n1)[:, None], layer, out=tmp)
    u0 += tmp
    np.multiply(n1[:, None], layer, out=tmp)
    u1 += tmp
    # the weighted products reuse rows whose values are spent
    wu0, wu1, tmp = grid(_WU0), grid(_WU1), grid(_Y)
    np.multiply(w, u0, out=wu0)
    np.multiply(w, u1, out=wu1)
    # u_{1-l}(1 - x) on the mirrored nodes
    for out, left, right in ((a1[0, 0], wu0, omx), (a1[0, 1], wu0, x),
                             (a1[1, 0], wu1, omx),
                             (b1[0, 0], wu0, u1[:, ::-1]),
                             (b1[0, 1], wu0, u0[:, ::-1]),
                             (b1[1, 0], wu1, u1[:, ::-1])):
        np.multiply(left, right, out=tmp)
        np.add.reduce(tmp, axis=1, out=out)
        out *= 0.5
    a1[1, 1] = a1[0, 0]
    b1[1, 1] = b1[0, 0]


def green_blocks(P, S):
    """The A1 and B1 kernel blocks at the points (P[k], S[k]).

    P and S are scalars or arrays, paired elementwise after
    broadcasting.  Returns (A1, B1), each an array (2, 2, n_points)
    indexed [m, l].  A1[1, 1] = A1[0, 0] and B1[1, 1] = B1[0, 0], term
    by term of the series, so each is computed once.

    The points are evaluated in chunks of _GREEN_CHUNK, each with its own
    panel count, in one workspace allocated per call (the direct
    provider may run in threads).
    """
    P, S = _check_points(P, S)
    a1 = np.empty((2, 2, P.size))
    b1 = np.empty((2, 2, P.size))
    Q = np.sqrt(np.float_power(P, 2) + 1.0 / S)
    lam = P + Q
    mu = 1.0 / (S * lam)
    point = (lam, -lam, mu, -mu, 2.0 * P / lam, mu / lam, 1.0 / lam,
             -2.0 * Q)
    chunks = [slice(lo, lo + _GREEN_CHUNK)
              for lo in range(0, P.size, _GREEN_CHUNK)]
    n_breaks = [_n_breaks(lam[part], mu[part]) for part in chunks]
    rows = min(P.size, _GREEN_CHUNK)
    size = rows * (2 * _GREEN_GAUSS * (1 + max(n_breaks, default=0)) + 1)
    ws = np.empty((_GREEN_ROWS, size))
    mask = np.empty(size, dtype=bool)
    for part, nb in zip(chunks, n_breaks):
        _green_chunk([v[part] for v in point], nb, ws, mask,
                     a1[:, :, part], b1[:, :, part])
    return a1, b1


def kernels_from_blocks(entries, blocks):
    """Kernel entries from the A1 and B1 blocks.

    blocks is (A1, B1), arrays (2, 2, n_points) indexed [m, l]; a d side
    sums over m and an e side over l, because d0 = a0 + a1 and
    e0 = c0 + c1.  Returns an (n_entries, n_points) array.
    """
    out = []
    for name, m, l in entries:
        fam = FAMILIES[name]
        block = blocks["AB".index(name[0])]
        rows = block if fam.side1 == "d" else block[m:m + 1]
        cells = rows if fam.side2 == "e" else rows[:, l:l + 1]
        out.append(cells.sum(axis=(0, 1)))
    return np.array(out)


def closed_form_kernels(entries, P, S):
    """Values of each (family name, m, l) entry at the points (P[k], S[k]),
    as an (n_entries, n_points) array, from the element Green's function.

    P and S are scalars or arrays, paired elementwise after broadcasting.
    Against a 100-digit evaluation of the same bilinear forms, the
    largest relative error measured over P in [0, 1e3] and S in
    [1e-3, 1e3] was 4.8e-12.
    """
    return kernels_from_blocks(entries, green_blocks(P, S))


def element_mode_arrays(params, n_modes):
    """Physical per-mode quantities of every element key, for modes
    j = 1..n_modes.

    params holds K keys (1-D fields).  Returns a dict of arrays:
      mass_phi_pz[k, m, j] = (phi_m, p z_j)
      mass_z_phi[k, l, j]  = (z_j, phi_l)
      adv_phi_pz[k, m, j]  = b(phi_m, p z_j)
      adv_z_phi[k, l, j]   = b(z_j, phi_l)
      beta[k, j]
    The modes vanish at element ends, so only the advective part of b
    survives: b(phi_m, p z_j) = s_m a sqrt(2/h) d0 and b(z_j, phi_l) =
    -s_l a sqrt(2/h) e0, with s the hat gradient signs.  For a < 0,
    (phi_m, p z_j) picks up the growing exponential and (z_j, phi_l) the
    decaying one; local indices are unchanged.
    """
    j = np.arange(1, n_modes + 1)
    P = params.P[:, None]
    a0s, a1s, d0s, c0s, c1s, e0s = shifted_sides(j, P)
    em, ep = np.exp(-0.5 * P), np.exp(0.5 * P)
    a_m = np.stack([em * a0s, em * a1s], axis=1)
    c_l = np.stack([ep * c0s, ep * c1s], axis=1)
    d0, e0 = em * d0s, ep * e0s
    neg = params.sign_a < 0.0
    a_m, c_l = (np.where(neg[:, None, None], c_l, a_m),
                np.where(neg[:, None, None], a_m, c_l))
    d0, e0 = (np.where(neg[:, None], e0, d0)[:, None, :],
              np.where(neg[:, None], d0, e0)[:, None, :])
    root_2h = np.sqrt(2.0 * params.h)[:, None, None]
    fac = (params.a * np.sqrt(2.0 / params.h))[:, None, None]
    return {
        "mass_phi_pz": root_2h * a_m,
        "mass_z_phi": root_2h * c_l,
        "adv_phi_pz": _SIGN[:, None] * fac * d0,
        "adv_z_phi": -_SIGN[:, None] * fac * e0,
        "beta": beta(j, params),
    }


# Floats in the (block, n_modes, points) product that
# source_mode_projection forms per element block: about 2 MB of scratch
# whatever the mesh size.
_PROJECTION_BLOCK_FLOATS = 1 << 18


def source_mode_projection(f, t, mesh, params, index, n_modes, n_gauss=32):
    """Per-mode weighted source terms <f, p z_j> on every element, as an
    (n_elems, n_modes) array.

    f(x, t) is an array callable; element k has the parameters at entry
    index[k] of the params arrays.  The weighted mode p z_j equals
    sqrt(2/h) exp(-sign(a) P xhat) sin(j pi xhat).  An n_gauss Gauss
    rule is applied per panel, with enough panels that the highest
    requested mode is resolved.  f is called once per block of elements,
    each block holding at most _PROJECTION_BLOCK_FLOATS products of mode
    and quadrature values.
    """
    panels = max(1, int(np.ceil(n_modes / 8.0)))
    xg, wg = _composite_gauss01(n_gauss, panels)
    j = np.arange(1, n_modes + 1)
    stable = np.sin(np.outer(j, np.pi * xg))
    expo = np.exp((-params.sign_a * params.P)[:, None] * xg)
    x_left, h = mesh.nodes[:-1, None], mesh.h[:, None]
    sums = np.empty((mesh.n_elems, n_modes))
    block = max(1, _PROJECTION_BLOCK_FLOATS // stable.size)
    for start in range(0, mesh.n_elems, block):
        rows = slice(start, start + block)
        x = x_left[rows] + h[rows] * xg
        fx = mesh_fem.point_values(f, x, t, name="projected function")
        # elementwise product and .sum over the quadrature axis, not
        # matmul or einsum: the arithmetic of a one-element projection, so
        # the result does not move by roundoff with the block layout
        g = expo[index[rows]] * fx * wg
        sums[rows] = (stable * g[:, None, :]).sum(axis=2)
    weight = h * np.sqrt(2.0 / h)
    return weight * sums
