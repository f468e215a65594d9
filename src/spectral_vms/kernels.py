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

The feasible method's kernels, the eight families below and the five
pairings vms_feasible assembles, are sums of the entries of two 2x2
blocks, A1 and B1, at the element's (P, S).  green_blocks
integrates them exactly, as bilinear forms of the element Green's
function, in phi-functions or in power series (no quadrature); the
direct provider and the offline table both take the blocks from it.
No solver path sums a mode series for them: the epsilon-truncated
series (sum_series_multi, sum_series_batch, TruncationPolicy) stay
only while perfbench names them, in the benchmark's tracer and online
workload.
"""

import warnings
from dataclasses import dataclass
from math import factorial

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
    "sum_series_batch",
    "sum_series_multi",
    "green_blocks",
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


# --- closed forms from the element Green's function ------------------
#
# With K = I + S (2P d/dx - d^2/dx^2) on [0, 1], u(0) = u(1) = 0, the
# modes e^{Px} sin(j pi x) diagonalise K with eigenvalues 1 / beta_j, so
# for u_m = K^{-1} phi_m (phi_0 = 1 - x, phi_1 = x)
#   A1[m, l] = sum_j beta_j a_m c_l   = 1/2 int phi_l u_m,
#   B1[m, l] = sum_j beta_j^2 a_m c_l = 1/2 int u_{1-l}(1 - x) u_m(x)
#            = 1/2 int phi_l K^{-1} u_m,
# the middle form because the adjoint of K is K mirrored about x = 1/2.
# The d and e sides are a_0 + a_1 and c_0 + c_1, so the other six
# families are sums of A1 and B1 entries.  Both blocks are integrated
# exactly, in one of two forms, with Q^2 = P^2 + 1/S:
#
# Layer form, for Q >= _POWER_Q.  With lam = P + Q, mu = Q - P =
# 1 / (S lam) and rho = 2P / lam, variation of constants gives
#   u_m = a_m x + b_m g + d_m p + N_m L,   g = 1 - e^{-mu x},
#   p = x - g / mu,   L = [e^{-lam (1-x)} - e^{-lam - mu x}] / (1 - e^{-2Q}),
# where (a, b, d) is (-mu/lam, 1, -rho) for m = 0 and (mu/lam, 0, rho)
# for m = 1, and N_m makes u_m(1) = 0.  A1 then needs the integrals of
# x, g, p and L against 1 - x and x, and B1 their mirrored products
# int f(1 - x) h(x).  Two of the exponentials multiply to a constant or
# to e^{-2Q x}, so each of these is built from the rate integrals below
# at the rates mu, lam and 2Q; int g e^{-lam x} and int p e^{-lam x} are
# written as sums of positive terms.  No exponential exceeds 1.
#
# Power form, for Q < _POWER_Q, where u_m = O(1/S) is a difference of
# O(1) pieces of the layer form, which would lose about S^2 of B1's
# digits.  u = sum_k c_k x^k / k! solves K u = sum_k f_k x^k / k! when
#   c_{k+2} = 2P c_{k+1} + (c_k - f_k) / S.
# u_m is this series from c_0 = c_1 = 0 plus the multiple of the
# homogeneous series from (c_0, c_1) = (0, 1) that vanishes at x = 1;
# K^{-1} u_m is found the same way, and A1 and B1 are sums over k.

# Taylor series of _SERIES_TERMS terms below rate _SERIES_RATE, closed
# forms above.  Worst block error against a 100-digit oracle, over 2,870
# points with S from 1e-8 to 1e4: 1.8e-13 with 22 terms, 2.2e-14 with 24
# or 26.
_SERIES_RATE = 2.0
_SERIES_TERMS = 24
# Power form below _POWER_Q, to _POWER_TERMS terms.  The layer form
# alone was 2.4e-4 off (P = 6e-5, S = 9.2e3).  With the switch at Q = 1/2
# the worst error was 2.1e-12 (P = 0.01, S = 3.8), at Q = 1 8.0e-14, at
# 3/2 2.2e-14, at 2 (30 terms) 2.2e-14 and at 3 (38 terms) 8.1e-14.  At
# 3/2, 24 terms gave 5.8e-13.
_POWER_Q = 1.5
_POWER_TERMS = 26

# The rows of _rate_integrals, integrals over [0, 1] where E = e^{-r x},
# g = 1 - E and p = x - g / r:
#   phi1 = int E,  g_g = int g(1 - x) g,
#   phi2 = int (1 - x) E,  xe = int x E,  xxe = int x^2 E,
#   g_w0, g_w1 = int (1 - x) g, int x g,  p_w0, p_w1 = the same for p,
#   g_e, p_e = int g(1 - x) E, int p(1 - x) E,
#   g_p, p_p = int g(1 - x) p, int p(1 - x) p;
# each for small r as terms (coef, e, k), meaning coef r^e phi_k(-r) with
# phi_k(-r) = sum_n (-r)^n / (n + k)!.  The layer form reads the first 2
# rows at rate 2Q, the first 5 at lam and all 13 at mu, in that order.
_RATE_FORMS = (
    ((1, 0, 1),), ((1, 2, 2), (-2, 2, 3)),
    ((1, 0, 2),), ((1, 0, 1), (-1, 0, 2)),
    ((1, 0, 1), (-2, 0, 2), (2, 0, 3)), ((1, 1, 3),),
    ((1, 1, 2), (-1, 1, 3)), ((1, 1, 4),), ((1, 1, 3), (-1, 1, 4)),
    ((1, 1, 1), (-1, 1, 2)), ((1, 1, 2), (-2, 1, 3)),
    ((1, 2, 3), (-3, 2, 4)), ((1, 2, 4), (-4, 2, 5)))
_RATE_ROWS = len(_RATE_FORMS)
# their Taylor coefficients, one row per power n of r, each summed
# exactly over the common denominator (n + 5)! and rounded once
_RATE_TAYLOR = np.array([[sum(c * (-1) ** (n - e) * factorial(n + 5)
                              // factorial(n - e + k)
                              for c, e, k in form if n >= e)
                          / factorial(n + 5) for form in _RATE_FORMS]
                         for n in range(_SERIES_TERMS)])


def _rate_series(r, rows=_RATE_ROWS):
    """The first rows integrals of _RATE_FORMS at the rates r by their
    Taylor series, an array (rows, r.size)."""
    taylor = _RATE_TAYLOR[:, :rows, None]
    series = np.repeat(taylor[-1], r.size, axis=1)
    # r laid out in the shape of series: numpy multiplies equal shapes
    # about twice as fast as it broadcasts r over the rows
    r = np.broadcast_to(r, series.shape).copy()
    for coef in taylor[-2::-1]:
        series *= r
        series += coef
    return series


def _rate_closed(r, rows=_RATE_ROWS):
    """The first rows integrals of _RATE_FORMS at the rates r by their
    closed forms, an array (rows, r.size); phi_k(-r) by upward
    recurrence, stable for r >= 2.  They are formed in groups of 2, 3
    and 8 rows, up to the group holding the last row asked for."""
    phi0 = np.exp(-r)
    phi1 = -np.expm1(-r) / r
    g_g = 1.0 - 2.0 * phi1 + phi0
    out = [phi1, g_g]
    if rows > len(out):
        phi2 = (1.0 - phi1) / r
        xe = (phi1 - phi0) / r
        out += [phi2, xe, (2.0 * xe - phi0) / r]
    if rows > len(out):
        phi3 = (0.5 - phi2) / r
        g_w0 = 0.5 - phi2
        g_e = phi1 - phi0
        out += [g_w0, 0.5 - phi1 + phi2, 1.0 / 6.0 - phi3,
                1.0 / 3.0 - phi2 + phi3, g_e, phi2 - g_e / r,
                g_w0 - g_g / r, 1.0 / 6.0 - (2.0 * g_w0 - g_g / r) / r]
    return np.array(out[:rows])


def _put_columns(out, at, values):
    """out[:, at] = values.  A mask over the whole of out is several
    times faster than one over its columns alone."""
    out[np.broadcast_to(at, out.shape)] = values.ravel()


def _rate_integrals(rates, rows):
    """The first rows[i] integrals of _RATE_FORMS at the rates rates[i]
    > 0, a list of arrays (rows[i], rates[i].size): the Taylor series at
    the rates below _SERIES_RATE, in one evaluation for every array, the
    closed forms at the others."""
    lows = [r < _SERIES_RATE for r in rates]
    series = _rate_series(np.concatenate(
        [r[low] for r, low in zip(rates, lows)]), max(rows))
    out, start = [], 0
    for low, count in zip(lows, rows):
        stop = start + np.count_nonzero(low)
        at_r = np.empty((count, low.size))
        _put_columns(at_r, low, series[:count, start:stop])
        out.append(at_r)
        start = stop
    del series  # freed before the closed forms: a lower peak per chunk
    for at_r, r, low in zip(out, rates, lows):
        high = ~low
        _put_columns(at_r, high, _rate_closed(r[high], len(at_r)))
    return out


def _check_points(P, S):
    """P and S as flat float arrays of one length, checked, with
    Q^2 = P^2 + 1/S."""
    P, S = np.broadcast_arrays(np.asarray(P, dtype=float),
                               np.asarray(S, dtype=float))
    P, S = P.ravel(), S.ravel()
    if not (np.isfinite(P).all() and np.isfinite(S).all()):
        raise ValueError("P and S must be finite")
    if (P < 0.0).any() or (S <= 0.0).any():
        raise ValueError("need P >= 0 and S > 0")
    with np.errstate(over="ignore"):
        q2 = np.float_power(P, 2) + 1.0 / S
    if not np.isfinite(q2).all():
        raise ValueError("P^2 + 1/S must be finite")
    return P, S, q2


def _layer_integrals(P, S, q2):
    """mu, mu / lam, rho, the rate integrals at mu and the integrals of
    the layer term L against 1 - x, x, g, p and L, in the layer form of
    the comment above, with q2 = Q^2.  The rates at lam and 2Q and the
    other temporaries are freed on return, before the pieces are formed,
    which lowers the peak of a table chunk."""
    Q = np.sqrt(q2)
    lam = P + Q
    with np.errstate(over="ignore"):
        mu = 1.0 / (S * lam)  # 0, its limit, where S lam overflows
    at_mu, at_lam = _rate_integrals((mu, lam), (_RATE_ROWS, 5))
    _, _, phi2, xe, _, g_w0, _, _, _, g_e, p_e, _, _ = at_mu
    lam_phi2, lam_xe, lam_xxe = at_lam[2:]
    # Q >= 3/2 here, so 2Q lies above _SERIES_RATE
    two_q = 2.0 * Q
    q_phi1, q_g_g = _rate_closed(two_q, 2)
    e_lam = np.exp(-lam)
    c = 1.0 / (two_q * q_phi1)  # 1 / (1 - e^{-2Q})
    g_lam = mu * (lam * lam_xe + mu * e_lam * phi2) / two_q
    p_lam = mu * (0.5 * lam * lam_xxe + e_lam * g_w0) / two_q
    # int L(1 - x) L(x) = c^2 e^{-lam} times int g(1 - x) g at rate 2Q
    l_terms = (c * (lam_xe - e_lam * phi2), c * (lam_phi2 - e_lam * xe),
               c * (g_lam - e_lam * g_e), c * (p_lam - e_lam * p_e),
               c * c * e_lam * q_g_g)
    return mu, mu / lam, 2.0 * P / lam, at_mu, l_terms


def _layer_blocks(P, S, q2, a1, b1, at):
    """A1 and B1 in the layer form of the comment above, with q2 = Q^2,
    written to a1[m, l][at] and b1[m, l][at] for [m, l] other than
    [1, 1]."""
    mu, mu_lam, rho, at_mu, (l_w0, l_w1, g_l, p_l, l_l) = \
        _layer_integrals(P, S, q2)
    (phi1, g_g, phi2, _, _, g_w0, g_w1, p_w0, p_w1, _, _, g_p,
     p_p) = at_mu
    # u_0 and u_1 over the pieces (x, g, p, L): N_1 cancels the rest of
    # u_1 at x = 1, and N_0 = -g(1) - N_1 because u_0 + u_1 = K^{-1} 1 =
    # g - g(1) L.  w holds the pieces' integrals against 1 - x and x,
    # pair their mirrored products.
    n1 = -(mu_lam + rho * mu * phi2)
    u = ((-mu_lam, 1.0, -rho, -mu * phi1 - n1), (mu_lam, 0.0, rho, n1))
    w = ((1.0 / 6.0, g_w0, p_w0, l_w0), (1.0 / 3.0, g_w1, p_w1, l_w1))
    pair = ((1.0 / 6.0, g_w0, p_w0, l_w0), (g_w0, g_g, g_p, g_l),
            (p_w0, g_p, p_p, p_l), (l_w0, g_l, p_l, l_l))
    for m, um in enumerate(u):
        pair_u = [sum(a * b for a, b in zip(row, um)) for row in pair]
        for l in range(2 - m):  # [1, 1] is a copy of [0, 0]
            a1[m, l][at] = 0.5 * sum(a * b for a, b in zip(um, w[l]))
            b1[m, l][at] = 0.5 * sum(a * b for a, b in zip(u[1 - l], pair_u))


# Per term k of sum_k c_k x^k / k!: its value at x = 1 and its integrals
# against 1 - x and x.
_POWER_WEIGHTS = np.array([[1.0 / factorial(k), 1.0 / factorial(k + 2),
                            (k + 1.0) / factorial(k + 2)]
                           for k in range(_POWER_TERMS)])
# f_k of phi_0 = 1 - x, of phi_1 = x and of the homogeneous series
_POWER_PHI = np.zeros((_POWER_TERMS, 3))
_POWER_PHI[:2, :2] = ((1.0, 0.0), (-1.0, 1.0))


def _power_blocks(P, S, a1, b1, at):
    """A1 and B1 in the power form of the comment above, written to
    a1[..., at] and b1[..., at]."""
    two_p, inv_s = 2.0 * P, 1.0 / S
    # c_k and c_{k+1} of six series: K^{-1} phi_0, K^{-1} phi_1 and the
    # homogeneous series H, then K^{-1} of each of the three
    c = np.zeros((6, P.size))
    c_next = np.zeros((6, P.size))
    c_next[2] = 1.0
    f = np.empty((6, P.size))
    sums = np.zeros((3, 6, P.size))
    for weights, phi in zip(_POWER_WEIGHTS, _POWER_PHI):
        sums += weights[:, None, None] * c
        f[:3] = phi[:, None]
        f[3:] = c[:3]
        c, c_next = c_next, two_p * c_next + inv_s * (c - f)
    at_1, w0, w1 = sums
    # u_m = U_m + alpha_m H and K^{-1} u_m = V_m + alpha_m V_H + beta_m H
    # vanish at x = 1
    alpha = -at_1[:2] / at_1[2]
    beta = -(at_1[3:5] + alpha * at_1[5]) / at_1[2]
    for l, w in enumerate((w0, w1)):
        _put_columns(a1[:, l], at, 0.5 * (w[:2] + alpha * w[2]))
        _put_columns(b1[:, l], at,
                     0.5 * (w[3:5] + alpha * w[5] + beta * w[2]))


def green_blocks(P, S):
    """The A1 and B1 kernel blocks at the points (P[k], S[k]).

    P and S are scalars or arrays, paired elementwise after
    broadcasting.  Returns (A1, B1), each an array (2, 2, n_points)
    indexed [m, l].  A1[1, 1] = A1[0, 0] and B1[1, 1] = B1[0, 0], term
    by term of the series, so each is computed once.

    Each point is integrated exactly, in the power form where Q < 3/2
    and in the layer form elsewhere (see the comment above); each form
    runs on its own points only.  Every operation is elementwise, so a
    point's blocks have the same bits whatever other points share the
    call.  A call costs about 0.35 ms plus 0.4 us a layer-form point and
    0.7 us a power-form point, and its peak memory, the result included,
    is about 0.4 KB a point (2-core Xeon VM, numpy 2.4.6).
    """
    P, S, q2 = _check_points(P, S)
    power = q2 < _POWER_Q ** 2
    layer = ~power
    a1, b1 = np.empty((2, 2, 2, P.size))
    # Both forms run on every call, also on no points.  Skipping an empty
    # form would make small calls cheaper with no fewer traced spans,
    # and a faster pass of the same spans lengthens perfbench's traced
    # run quadratically (see ROADMAP, aim 1).
    _power_blocks(P[power], S[power], a1, b1, power)
    _layer_blocks(P[layer], S[layer], q2[layer], a1, b1, layer)
    a1[1, 1] = a1[0, 0]
    b1[1, 1] = b1[0, 0]
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


# (element, mode, point) triples per element block of
# source_mode_projection: f is called once per block, on at most this
# many floats divided by n_modes, so the scratch stays bounded whatever
# the mesh size.
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
        # einsum, not matmul: einsum sums each (element, mode) entry as
        # one dot product of two contiguous quadrature rows, the same
        # loop whatever the number of rows, so a row keeps its bits
        # under any block layout; BLAS matmul picks its accumulation
        # order from the operand shapes, and a row then moves by roundoff
        g = expo[index[rows]]  # a gathered copy: expo stays as it is
        g *= fx
        g *= wg
        sums[rows] = np.einsum("kq,jq->kj", g, stable)
    weight = h * np.sqrt(2.0 / h)
    return weight * sums
