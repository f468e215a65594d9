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
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ElementParams",
    "TruncationPolicy",
    "TruncationOverflowWarning",
    "ModeKernels",
    "FAMILIES",
    "element_params",
    "distinct_element_params",
    "beta",
    "eigenvalue",
    "mode_value",
    "base_integrals",
    "bilinear_couplings",
    "sum_series",
    "sum_series_batch",
    "sum_series_multi",
    "sum_series_fixed",
    "required_modes",
    "reconstruct_subgrid",
    "element_mode_arrays",
    "source_mode_projection",
]


class TruncationOverflowWarning(UserWarning):
    """Mode cap reached before the series term dropped below threshold."""


@dataclass(frozen=True)
class ElementParams:
    """Nondimensional state of one element for one time step."""

    P: float
    S: float
    sign_a: float
    h: float
    mu: float
    a: float
    dt: float


def element_params(a, h, mu, dt):
    """Peclet number P = |a| h / (2 mu) and strength S = dt mu / h^2."""
    if h <= 0.0 or mu <= 0.0 or dt <= 0.0:
        raise ValueError("h, mu and dt must be positive")
    if not np.isfinite(a):
        raise ValueError("velocity must be finite")
    P = abs(a) * h / (2.0 * mu)
    S = dt * mu / h ** 2
    return ElementParams(P=P, S=S, sign_a=(-1.0 if a < 0.0 else 1.0),
                         h=h, mu=mu, a=float(a), dt=dt)


def distinct_element_params(a_elem, h, mu, dt):
    """ElementParams once per distinct (a, h) pair of a mesh's elements.

    Returns (params, index): element k has the parameters params[index[k]].
    """
    keys, index = np.unique(
        np.stack([np.asarray(a_elem, dtype=float), h], axis=1), axis=0,
        return_inverse=True)
    return ([element_params(a, hk, mu, dt) for a, hk in keys],
            index.reshape(-1))


@dataclass(frozen=True)
class TruncationPolicy:
    """Series cutoff: stop at the first mode j with |term| < epsilon for
    both j and j + 1."""

    epsilon: float = 1e-10
    j_max: int = 5000

    def __post_init__(self):
        if self.epsilon <= 0.0 or self.j_max < 1:
            raise ValueError("epsilon must be > 0 and j_max >= 1")


def beta(j, p):
    """Mode damping 1 / (1 + S (P^2 + pi^2 j^2))."""
    j = np.asarray(j, dtype=float)
    return 1.0 / (1.0 + p.S * (p.P ** 2 + np.pi ** 2 * j ** 2))


def eigenvalue(j, p):
    """Eigenvalue mu (j pi / h)^2 + a^2 / (4 mu); beta = 1/(1 + dt lambda)."""
    j = np.asarray(j, dtype=float)
    return p.mu * (j * np.pi / p.h) ** 2 + p.a ** 2 / (4.0 * p.mu)


def mode_value(j, p, xhat):
    """Normalized mode times sqrt(h): sqrt(2) e^{sign P xhat} sin(j pi xhat).

    The exponent carries the velocity sign, so the mode is orthonormal
    under the weight exp(-2 sign P xhat); mirroring the element instead
    would only change each mode by a constant factor.
    """
    xhat = np.asarray(xhat, dtype=float)
    if np.any(xhat < 0.0) or np.any(xhat > 1.0):
        raise ValueError("xhat must lie in [0, 1]")
    return np.sqrt(2.0) * np.exp(p.sign_a * p.P * xhat) \
        * np.sin(j * np.pi * xhat)


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


@dataclass(frozen=True)
class ModeKernels:
    """Unshifted reference integrals for one (j, P)."""

    d0: float  # int e^{-P x} sin(j pi x)
    e0: float  # int e^{+P x} sin(j pi x)
    a0: float  # int (1-x) e^{-P x} sin(j pi x)
    a1: float  # int x e^{-P x} sin(j pi x)
    c0: float  # int (1-x) e^{+P x} sin(j pi x)
    c1: float  # int x e^{+P x} sin(j pi x)


# 64-point Gauss rule for the cross-validation fallback.
_GX64, _GW64 = np.polynomial.legendre.leggauss(64)
_GX64 = 0.5 * (_GX64 + 1.0)
_GW64 = 0.5 * _GW64


def base_integrals(j, P, method="closed"):
    """Closed-form reference integrals; method='quadrature' cross-checks
    with a 64-point Gauss rule (not overflow-safe for large P)."""
    if j < 1:
        raise ValueError("mode index must be >= 1")
    if method == "quadrature":
        s = np.sin(j * np.pi * _GX64)
        em = np.exp(-P * _GX64) * s
        ep = np.exp(P * _GX64) * s
        return ModeKernels(
            d0=float(np.sum(_GW64 * em)), e0=float(np.sum(_GW64 * ep)),
            a0=float(np.sum(_GW64 * (1.0 - _GX64) * em)),
            a1=float(np.sum(_GW64 * _GX64 * em)),
            c0=float(np.sum(_GW64 * (1.0 - _GX64) * ep)),
            c1=float(np.sum(_GW64 * _GX64 * ep)))
    if method != "closed":
        raise ValueError("unknown method %r" % method)
    a0s, a1s, d0s, c0s, c1s, e0s = shifted_sides(j, P)
    em, ep = np.exp(-0.5 * P), np.exp(0.5 * P)
    return ModeKernels(d0=float(em * d0s), e0=float(ep * e0s),
                       a0=float(em * a0s), a1=float(em * a1s),
                       c0=float(ep * c0s), c1=float(ep * c1s))


_SIGN = np.array([-1.0, 1.0])  # gradient signs of the two local hats


def bilinear_couplings(j, p):
    """Physical couplings b(phi_m, p z_j) and b(z_j, phi_l), m, l in {0,1}.

    The modes vanish at element ends, so only the advective part
    survives: b(phi_m, p z_j) = s_m a sqrt(2/h) d0 and
    b(z_j, phi_l) = -s_l a sqrt(2/h) e0 (d0 and e0 swap for a < 0).
    """
    k = base_integrals(j, p.P)
    d0, e0 = (k.d0, k.e0) if p.sign_a >= 0.0 else (k.e0, k.d0)
    fac = p.a * np.sqrt(2.0 / p.h)
    return _SIGN * fac * d0, -_SIGN * fac * e0


# --- kernel families ---------------------------------------------------
#
# Each family is a dimensionless mode series  sum_j w_j side1_j side2_j
# with w = beta (weight_power 1) or beta^2 (weight_power 2):
#   side "a": int phi_m e^{-P x} sin;  side "d": d0
#   side "c": int phi_l e^{+P x} sin;  side "e": e0
# index kind tells which local indices the value depends on.


_INDEX_PAIRS = {"ml": ((0, 0), (0, 1), (1, 0), (1, 1)),
                "m": ((0, 0), (1, 0)), "l": ((0, 0), (0, 1)),
                "": ((0, 0),)}


@dataclass(frozen=True)
class Family:
    name: str
    weight_power: int
    side1: str  # "a" or "d"
    side2: str  # "c" or "e"
    index_kind: str  # "ml", "m", "l" or ""

    @property
    def index_pairs(self):
        """Local indices (m, l) of the flat entries, in entry order."""
        return _INDEX_PAIRS[self.index_kind]

    @property
    def n_entries(self):
        return len(self.index_pairs)

    def entry(self, m, l):
        """Flat entry index for local indices (m, l)."""
        if self.index_kind == "ml":
            return 2 * m + l
        if self.index_kind == "m":
            return m
        if self.index_kind == "l":
            return l
        return 0


FAMILIES = {
    f.name: f for f in [
        Family("A1", 1, "a", "c", "ml"),
        Family("A2", 1, "d", "c", "l"),
        Family("A3", 1, "a", "e", "m"),
        Family("A4", 1, "d", "e", ""),
        Family("B1", 2, "a", "c", "ml"),
        Family("B2", 2, "d", "c", "l"),
        Family("B3", 2, "a", "e", "m"),
        Family("B4", 2, "d", "e", ""),
    ]
}

FAMILY_ORDER = ["A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4"]


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


def sum_series(family, m, l, p, policy):
    """Truncated dimensionless kernel series at the element's (P, S)."""
    values, _, _ = sum_series_batch(family, m, l, p.P, [p.S], policy)
    return float(values[0])


def sum_series_fixed(family, m, l, P, S, n_modes):
    """Kernel series summed over exactly n_modes terms.

    P and S are scalars, or arrays paired elementwise; the result has
    their broadcast shape (a float for scalars).
    """
    fam = FAMILIES[family] if isinstance(family, str) else family
    P, S = np.broadcast_arrays(np.asarray(P, dtype=float),
                               np.asarray(S, dtype=float))
    P, S = P[..., None], S[..., None]
    j = np.arange(1, n_modes + 1)
    g = _entry_sides(fam, m, l, shifted_sides(j, P))
    w = 1.0 / (1.0 + S * (np.float_power(P, 2) + np.pi ** 2 * j ** 2))
    if fam.weight_power == 2:
        w *= w
    out = np.sum(w * g, axis=-1)
    return float(out) if out.ndim == 0 else out


def required_modes(p, policy):
    """Stopping index of the A1 (0,0) kernel series at the element's
    parameters."""
    _, counts, _ = sum_series_batch("A1", 0, 0, p.P, [p.S], policy)
    return int(counts[0])


def reconstruct_subgrid(amplitudes, p, xhat):
    """Subgrid field sum_j c_j z_j(xhat) sampled at reference points."""
    xhat = np.asarray(xhat, dtype=float)
    out = np.zeros_like(xhat)
    root_h = np.sqrt(p.h)
    for idx, c in enumerate(amplitudes):
        if c != 0.0:
            out += c * mode_value(idx + 1, p, xhat) / root_h
    return out


def element_mode_arrays(p, n_modes):
    """Physical per-mode element quantities for modes j = 1..n_modes.

    Returns a dict of arrays:
      mass_phi_pz[m, j] = (phi_m, p z_j)       mass_z_phi[l, j] = (z_j, phi_l)
      adv_phi_pz[m, j]  = b(phi_m, p z_j)      adv_z_phi[l, j]  = b(z_j, phi_l)
      beta[j], lam[j]
    Local indices are mirrored internally when a < 0.
    """
    j = np.arange(1, n_modes + 1)
    a0s, a1s, d0s, c0s, c1s, e0s = shifted_sides(j, p.P)
    em, ep = np.exp(-0.5 * p.P), np.exp(0.5 * p.P)
    a_m = np.vstack([em * a0s, em * a1s])
    c_l = np.vstack([ep * c0s, ep * c1s])
    d0, e0 = em * d0s, ep * e0s
    if p.sign_a < 0.0:
        # (phi_m, p z_j) picks up the growing exponential and (z_j, phi_l)
        # the decaying one; local indices are unchanged
        a_m, c_l = c_l, a_m
        d0, e0 = e0, d0
    root_2h = np.sqrt(2.0 * p.h)
    fac = p.a * np.sqrt(2.0 / p.h)
    return {
        "mass_phi_pz": root_2h * a_m,
        "mass_z_phi": root_2h * c_l,
        "adv_phi_pz": _SIGN[:, None] * fac * d0,
        "adv_z_phi": -_SIGN[:, None] * fac * e0,
        "beta": beta(j, p),
        "lam": eigenvalue(j, p),
    }


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


def source_mode_projection(f, t, p, x_left, n_modes, n_gauss=32):
    """Per-mode weighted source terms <f, p z_j> over one element.

    The weighted mode p z_j equals sqrt(2/h) exp(-sign(a) P xhat)
    sin(j pi xhat).  An n_gauss Gauss rule is applied per panel, with
    enough panels that the highest requested mode is resolved.
    """
    panels = max(1, int(np.ceil(n_modes / 8.0)))
    xg, wg = _composite_gauss01(n_gauss, panels)
    fx = np.array([f(x, t) for x in x_left + p.h * xg])
    j = np.arange(1, n_modes + 1)
    expo = np.exp(-p.sign_a * p.P * xg)
    stable = np.sin(np.outer(j, np.pi * xg))
    weight = p.h * np.sqrt(2.0 / p.h)
    return weight * (stable * (expo * fx * wg)[None, :]).sum(axis=1)
