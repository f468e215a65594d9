"""Property tests: the closed-form kernels against the high-precision
Green's-function oracle, the array kernel paths against their per-point
calls, green_blocks bit for bit against its expression form, the
all-keys element paths (distinct keys, element mode arrays,
table lookup) against their per-key and per-entry versions, detection of
any single-byte corruption of a saved table, the tridiagonal solve
against a dense solve on systems that are not diagonally dominant and bit
for bit against one-pass Thomas elimination, the mirror symmetry of both
spectral methods, and one full spectral step against the dense
monolithic solve."""

import functools
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from oracles import (ALL_ENTRIES, family_entries, green_blocks_reference,
                     green_kernels, interpolate_entry, key_params,
                     monolithic_step_oracle, per_key_mode_arrays,
                     series_terms, thomas_solve, tridiag_bands)

from spectral_vms import baselines as B
from spectral_vms import kernels as K
from spectral_vms import mesh_fem
from spectral_vms import table as T
from spectral_vms import vms_feasible as F
from spectral_vms import vms_full as V
from spectral_vms.mesh_fem import (DirichletBC, Mesh1D,
                                   SingularSystemError, TimeGrid, TriDiag,
                                   TriDiagSystem, apply_dirichlet,
                                   assemble_mass, assemble_stiffness,
                                   build_uniform_mesh, project_velocity,
                                   solve_tridiag, tridiags_from_blocks)

SETTINGS = settings(max_examples=40, deadline=None, database=None)

# P = 0 and tiny P are where the d and e sides vanish for even modes
P_VALUES = st.one_of(st.sampled_from([0.0, 1e-5, 1e-3]),
                     st.floats(0.0, 40.0))
S_VALUES = st.floats(1e-3, 1e3)
POINTS = st.lists(st.tuples(P_VALUES, S_VALUES), min_size=1, max_size=8)
SOME_ENTRIES = st.lists(st.sampled_from(ALL_ENTRIES), min_size=1, max_size=6,
                        unique=True)


# Largest relative error of closed_form_kernels against the oracle that
# the property accepts; the worst measured on 1,470 points of the box was
# 4.8e-12, from rounding at large S.
CLOSED_FORM_RTOL = 1e-10
ORACLE_P = st.one_of(st.sampled_from([0.0, 1e-5, 1e-3]),
                     st.floats(0.0, 1e3),
                     st.floats(-5.0, 3.0).map(lambda e: 10.0 ** e))
ORACLE_S = st.one_of(st.floats(1e-3, 1e3),
                     st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))


@settings(max_examples=60, deadline=None, database=None)
@given(points=st.lists(st.tuples(ORACLE_P, ORACLE_S), min_size=1,
                       max_size=4))
def test_closed_form_kernels_match_oracle(points):
    # every P value in {0, 1e-5, 1e-3} is always among the points
    points = points + [(p, points[0][1]) for p in (0.0, 1e-5, 1e-3)]
    P, S = np.array(points).T
    got = K.closed_form_kernels(ALL_ENTRIES, P, S)
    for k, (p, s) in enumerate(points):
        want = green_kernels(ALL_ENTRIES, p, s)
        assert np.all(want > 0.0)
        np.testing.assert_allclose(got[:, k], want, rtol=CLOSED_FORM_RTOL,
                                   atol=0, err_msg="P=%r S=%r" % (p, s))


# Points for green_blocks against its expression form: P = 0 and S down
# to 1e-8, where mu = 1 / (S lam) is large and most nodes take the closed
# form of phi2, and large S, where every node takes its Taylor series.
GREEN_P = st.one_of(st.just(0.0), st.floats(0.0, 1e3),
                    st.floats(-5.0, 3.0).map(lambda e: 10.0 ** e))
GREEN_S = st.one_of(st.just(1e-8), st.floats(1e-3, 1e3),
                    st.floats(-8.0, 3.0).map(lambda e: 10.0 ** e))


@settings(max_examples=40, deadline=None, database=None)
@given(points=st.lists(st.tuples(GREEN_P, GREEN_S), min_size=1,
                       max_size=12),
       n_fill=st.integers(0, 3 * K._GREEN_CHUNK), seed=st.integers(0, 2 ** 16))
@example(points=[(0.0, 1e-8), (0.0, 1e3), (1e3, 1e-8), (20.0, 2.5)],
         n_fill=2 * K._GREEN_CHUNK, seed=0)
def test_green_blocks_equal_expression_form_bitwise(points, n_fill, seed):
    # the drawn points, then seeded ones, so that sets span several
    # chunks whose panel counts differ
    rng = np.random.default_rng(seed)
    fill_p = np.where(rng.random(n_fill) < 0.1, 0.0,
                      10.0 ** rng.uniform(-5.0, 3.0, n_fill))
    fill_s = 10.0 ** rng.uniform(-8.0, 3.0, n_fill)
    P = np.concatenate([np.array(points)[:, 0], fill_p])
    S = np.concatenate([np.array(points)[:, 1], fill_s])
    got = K.green_blocks(P, S)
    want = green_blocks_reference(P, S)
    for g, r in zip(got, want):
        assert g.tobytes() == r.tobytes()


@SETTINGS
@given(points=POINTS, entries=SOME_ENTRIES)
def test_array_series_equals_per_point_calls(points, entries):
    # a short cap keeps small-S points cheap and exercises capped cells
    policy = K.TruncationPolicy(epsilon=1e-10, j_max=300)
    P, S = np.array(points).T
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", K.TruncationOverflowWarning)
        vals, counts, over = K.sum_series_multi(entries, P, S, policy)
        for k, (p, s) in enumerate(points):
            v1, c1, o1 = K.sum_series_multi(entries, p, [s], policy)
            for key in entries:
                assert vals[key][k] == v1[key][0]
                assert counts[key][k] == c1[key][0]
                assert over[key][k] == o1[key][0]


@SETTINGS
@given(points=POINTS, n_modes=st.integers(1, 200))
def test_series_blocks_array_equals_per_point_calls(points, n_modes):
    P, S = np.array(points).T
    got = K.series_blocks(P, S, n_modes)
    for k, (p, s) in enumerate(points):
        for block, one in zip(got, K.series_blocks(p, s, n_modes)):
            assert one.shape == (2, 2, 1)
            assert block[:, :, k].tobytes() == one[:, :, 0].tobytes()


# Families from series_blocks differ from the term-by-term sums of their
# own series by roundoff only: the summation order changes, and a d or e
# side is summed over block entries after the mode sum instead of before.
# The bound is in units of eps * sum_j |t_j| of the family's terms.  The
# worst measured on 2.2 million (entry, point) pairs (P in [0, 40], S in
# [1e-3, 1e3], 1 to 200 modes) was 13.3; relative to the largest entry at
# a point, the gap was at most 1.8e-15 for P <= 3.5, 7.3e-14 for P <= 10
# and 2.1e-10 for P <= 20.
SERIES_ROUNDOFF = 32.0


@SETTINGS
@given(points=POINTS, n_modes=st.integers(1, 200))
def test_series_blocks_families_match_term_sums(points, n_modes):
    P, S = np.array(points).T
    got = K.kernels_from_blocks(ALL_ENTRIES, K.series_blocks(P, S, n_modes))
    for row, entry in enumerate(ALL_ENTRIES):
        terms = series_terms(*entry, P, S, n_modes)
        bound = SERIES_ROUNDOFF * np.finfo(float).eps * np.abs(terms).sum(-1)
        assert np.all(np.abs(got[row] - terms.sum(-1)) <= bound), entry


GRID = T.TableGrid(delta=0.25, m=12)


def _table(values):
    return T.KernelTable(grid=GRID, values={"A1": values})


RANDOM_VALUES = np.random.default_rng(7).standard_normal((4, 12, 12))
QUERY = st.floats(-1.0, GRID.p_max + 1.0)


@SETTINGS
@given(points=st.lists(st.tuples(QUERY, QUERY), min_size=1, max_size=20))
@example(points=[(GRID.p_max, GRID.p_max), (4 * GRID.delta, GRID.p_max)])
def test_array_interpolate_equals_scalar_calls(points):
    # one lookup of every entry at every point equals the per-entry float
    # formula bit for bit, and counts each point outside the grid once;
    # a point on a top edge is inside
    P, S = np.array(points).T
    table = _table(RANDOM_VALUES)
    got = T.interpolate(table, P, S)
    assert list(got) == ["A1"] and got["A1"].shape == (2, 2, len(points))
    clamped = 0
    for k, (p, s) in enumerate(points):
        for _, m, l in family_entries(("A1",)):
            want, clamp = interpolate_entry(table, "A1", m, l, p, s)
            assert got["A1"][m, l, k] == want
        clamped += clamp
    assert table.clamp_count == clamped


# Element keys: a few values drawn again and again, so rows repeat, with
# both zeros and values one ulp apart.
KEY_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), -2.5, 1e-300]),
    st.floats(-1e3, 1e3))


@SETTINGS
@given(rows=st.lists(st.tuples(KEY_VALUES, KEY_VALUES), min_size=1,
                     max_size=30))
def test_distinct_rows_equal_unique_rows(rows):
    a, h = np.array(rows).T
    (ka, kh), inverse = K.distinct_rows((a, h))
    want, want_inverse = np.unique(np.stack([a, h], axis=1), axis=0,
                                   return_inverse=True)
    # equal as values: -0.0 and 0.0 share a row in both
    np.testing.assert_array_equal(np.stack([ka, kh], axis=1), want)
    np.testing.assert_array_equal(inverse, want_inverse.reshape(-1))
    np.testing.assert_array_equal(ka[inverse], a)
    np.testing.assert_array_equal(kh[inverse], h)


@SETTINGS
@given(elements=st.lists(
           st.tuples(st.one_of(st.sampled_from([0.0, -0.0]),
                               st.floats(-300.0, 300.0)),
                     st.sampled_from([0.01, 0.02, 0.1, 1.0 / 3.0])),
           min_size=1, max_size=12),
       mu=st.floats(0.1, 5.0), dt=st.floats(1e-4, 1e-1),
       n_modes=st.integers(1, 40))
def test_element_mode_arrays_equal_per_key_arithmetic(elements, mu, dt,
                                                      n_modes):
    a, h = np.array(elements).T
    params, index = K.distinct_element_params(a, h, mu, dt)
    got = K.element_mode_arrays(params, n_modes)
    for k in range(params.P.size):
        want = per_key_mode_arrays(key_params(params, k), n_modes)
        assert sorted(got) == sorted(want)
        for name, arr in want.items():
            assert got[name][k].tobytes() == arr.tobytes(), (k, name)


@SETTINGS
@given(data=st.data(), n_mats=st.integers(1, 8), n_elems=st.integers(1, 12))
def test_stacked_block_scatter_equals_per_matrix(data, n_mats, n_elems):
    values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))
    blocks = np.array(data.draw(st.lists(
        values, min_size=n_mats * n_elems * 4,
        max_size=n_mats * n_elems * 4))).reshape(n_mats, n_elems, 2, 2)
    mats = tridiags_from_blocks(blocks)
    assert len(mats) == n_mats
    for got, one in zip(mats, blocks):
        for band, want in zip((got.sub, got.diag, got.sup),
                              tridiag_bands(one)):
            assert band.tobytes() == want.tobytes()


INSIDE = st.floats(GRID.delta * 1.001, GRID.p_max * 0.999)
OUTSIDE = st.one_of(st.floats(-1.0, GRID.delta * 0.999),
                    st.floats(GRID.p_max * 1.001, GRID.p_max + 1.0))


@SETTINGS
@given(inside=st.lists(st.tuples(INSIDE, INSIDE), max_size=10),
       outside=st.lists(st.tuples(OUTSIDE, INSIDE), max_size=10),
       coeffs=st.tuples(*[st.floats(-2.0, 2.0)] * 4))
def test_interpolate_exact_on_bilinear_data(inside, outside, coeffs):
    c0, cp, cs, cps = coeffs

    def bilinear(p, s):
        return c0 + cp * p + cs * s + cps * p * s

    axis = GRID.axis()
    node_values = bilinear(axis[:, None], axis[None, :])
    table = _table(np.broadcast_to(node_values, (4, 12, 12)))
    points = inside + [(s, p) if k % 2 else (p, s)
                       for k, (p, s) in enumerate(outside)]
    P, S = np.array(points, dtype=float).reshape(-1, 2).T
    got = T.interpolate(table, P, S)["A1"][0, 1]
    # boundary cells extrapolate linearly, so clamped points are exact too
    np.testing.assert_allclose(got, bilinear(P, S), rtol=0, atol=1e-10)
    assert table.clamp_count == len(outside)


@functools.lru_cache(maxsize=None)
def _small_table_bytes():
    """A saved one-family 3x3 table."""
    grid = T.TableGrid(delta=0.5, m=3)
    values = np.random.default_rng(11).standard_normal((4, 3, 3))
    table = T.KernelTable(grid=grid, values={"B1": values})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "small.bin")
        T.save_table(table, path)
        with open(path, "rb") as fh:
            return fh.read()


@SETTINGS
@given(data=st.data(), flip=st.integers(1, 255))
def test_any_single_byte_corruption_is_detected(data, flip):
    blob = bytearray(_small_table_bytes())
    blob[data.draw(st.integers(0, len(blob) - 1), label="byte")] ^= flip
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corrupt.bin")
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(T.TableFormatError):
            T.load_table(path)


# Thomas elimination does not pivot.  Its computed factors satisfy
# L U = A + dA and its solution (A + dA') x = b, with |dA|, |dA'| a few
# units of roundoff times |L||U| componentwise (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., sections 9.3 and 9.6; the
# bidiagonal factors make every constant small).  The property accepts a
# residual |A x - b| up to TRIDIAG_RESIDUAL_ULPS * eps * |L||U||x| in
# every row, which also covers the roundoff of forming the residual; the
# worst ratio measured over 3,300 random and spectral systems was 1.7.
TRIDIAG_RESIDUAL_ULPS = 8
EPS = np.finfo(float).eps
# Gradual underflow adds an absolute error of at most half the smallest
# subnormal to every product and quotient (Higham, section 2.1, the model
# with underflow), which no multiple of eps covers.  A multiplier l_i
# rounded into the subnormal range carries that error times (U x)_{i-1}
# into row i of the residual, and the pivots and back substitution carry
# it times (U x)_i; so each row also accepts TRIDIAG_UNDERFLOW_UNITS
# smallest subnormals times 1 + (|U||x|)_{i-1} + (|U||x|)_i.
TRIDIAG_UNDERFLOW_UNITS = 4
TINY = np.finfo(float).smallest_subnormal


def _thomas_factors(m):
    """Multipliers l and pivots d of A = L U, with L unit lower and U
    upper bidiagonal (U's superdiagonal is A's)."""
    l = np.zeros(m.n - 1)
    d = m.diag.copy()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # a zero or tiny pivot leaves inf or nan behind, and the solve
        # raises
        for i in range(1, m.n):
            l[i - 1] = m.sub[i - 1] / d[i - 1]
            d[i] -= l[i - 1] * m.sup[i - 1]
    return l, d


def _abs_u_times(m, d, v):
    """|U| v for the upper bidiagonal factor and a non-negative v."""
    uv = np.abs(d) * v
    uv[:-1] += np.abs(m.sup) * v[1:]
    return uv


def _abs_lu_times(m, l, d, v):
    """|L||U| v for the bidiagonal factors and a non-negative v."""
    out = _abs_u_times(m, d, v)
    out[1:] += np.abs(l) * out[:-1].copy()
    return out


def _residual_bound(m, l, d, x):
    """Largest |A x - b| per row that the computed Thomas solution x may
    leave: the eps term plus the underflow term."""
    ux = _abs_u_times(m, d, np.abs(x))
    underflow = 1.0 + ux
    underflow[1:] += ux[:-1]
    return (TRIDIAG_RESIDUAL_ULPS * EPS * _abs_lu_times(m, l, d, np.abs(x))
            + TRIDIAG_UNDERFLOW_UNITS * TINY * underflow)


def _check_against_dense(m, rhs):
    """solve_tridiag either raises on a pivot below its tolerance or meets
    the residual bound and agrees with a dense solve."""
    l, d = _thomas_factors(m)
    dense = m.to_dense()
    try:
        x = solve_tridiag(TriDiagSystem(m, rhs))
    except SingularSystemError:
        assert np.min(np.abs(d)) < 1e-14 * m.max_abs() * (1.0 + 1e-12)
        return
    bound = _residual_bound(m, l, d, x)
    resid = np.abs(dense @ x - rhs)
    assert np.all(resid <= bound)
    # x - x_dense = A^{-1} (r - r_dense): both residuals bound the gap
    x_dense = np.linalg.solve(dense, rhs)
    gap = np.linalg.norm(np.linalg.inv(dense), np.inf) * (
        np.max(bound) + 8 * m.n * EPS * np.linalg.norm(dense, np.inf)
        * np.max(np.abs(x_dense)))
    assert np.max(np.abs(x - x_dense)) <= gap


BAND = st.floats(-1.0, 1.0)


# Random bands that are not diagonally dominant are mostly ill
# conditioned: about 7 draws in 10 fail the cond < 1e12 filter, and
# Hypothesis draws again until it has max_examples that pass.  Its
# filter_too_much health check then fails about one run in 13, so it is
# off here; every example that runs still meets every assertion.
@settings(SETTINGS, suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data(), n=st.integers(2, 40))
def test_tridiag_solve_matches_dense_without_dominance(data, n):
    sub = np.array(data.draw(st.lists(BAND, min_size=n - 1,
                                      max_size=n - 1), label="sub"))
    sup = np.array(data.draw(st.lists(BAND, min_size=n - 1,
                                      max_size=n - 1), label="sup"))
    diag = np.array(data.draw(st.lists(BAND, min_size=n, max_size=n),
                              label="diag"))
    m = TriDiag(sub, diag, sup)
    off = np.abs(m.to_dense()).sum(axis=1) - np.abs(diag)
    assume(np.any(np.abs(diag) < off))
    assume(m.max_abs() > 0.0)
    with np.errstate(divide="ignore"):  # singular: cond is inf
        assume(np.linalg.cond(m.to_dense()) < 1e12)
    rhs = np.array(data.draw(st.lists(BAND, min_size=n, max_size=n),
                             label="rhs"))
    _check_against_dense(m, rhs)


def test_tridiag_solve_with_subnormal_multiplier():
    # cond 1.06, but the multiplier of row 2 is subnormal, so the residual
    # of that row is a few subnormals (-3e-323) while the eps term of the
    # bound rounds to about one: only the underflow term admits it
    m = TriDiag([1.0, 2.225073858507203e-309], [0.0625, 0.0, 1.0],
                [1.0, 0.0])
    rhs = np.array([1.0, 0.0, 0.0])
    assert np.linalg.cond(m.to_dense()) < 1.1
    l, d = _thomas_factors(m)
    assert 0.0 < abs(l[1]) < np.finfo(float).tiny
    _check_against_dense(m, rhs)


@SETTINGS
@given(P=st.floats(1.0, 40.0), S=st.floats(0.05, 50.0),
       n_elems=st.integers(2, 40), sign=st.sampled_from([-1.0, 1.0]),
       seed=st.integers(0, 2 ** 16))
def test_tridiag_solve_matches_dense_on_spectral_systems(P, S, n_elems,
                                                         sign, seed):
    # the left-hand side of a full spectral step with 50 modes and the
    # Dirichlet rows, as step_full solves it; about two in three of these
    # are not diagonally dominant
    mesh = build_uniform_mesh(0.0, 1.0, n_elems)
    h, mu = mesh.h[0], 1.0
    config = V.FullVmsConfig(
        mesh=mesh, tgrid=TimeGrid.from_dt(S * h * h / mu, 1), mu=mu,
        velocity=sign * 2.0 * mu * P / h, n_modes=50,
        bc=DirichletBC(0.3, -0.2))
    lhs, _ = V._Snapshot(config, project_velocity(config.velocity, mesh,
                                                  0.0)).matrices
    rhs = np.random.default_rng(seed).standard_normal(mesh.n_nodes)
    system = apply_dirichlet(TriDiagSystem(lhs, rhs), config.bc, 0.0)
    _check_against_dense(system.matrix, system.rhs)


def test_tridiag_exactly_zero_pivot_raises():
    # nonsingular (determinant -1), but elimination without pivoting
    # meets the pivot 1 - 1 * 1 = 0 in row 1
    m = TriDiag([1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0])
    rhs = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(m.matvec(np.linalg.solve(m.to_dense(), rhs)),
                               rhs)
    with pytest.raises(SingularSystemError, match="pivot 1"):
        solve_tridiag(TriDiagSystem(m, rhs))


def _assert_same_outcome(system, solve=solve_tridiag):
    """solve returns the one-pass oracle's bits, or raises the oracle's
    error with its message."""
    try:
        with np.errstate(all="ignore"):  # numpy scalars warn on overflow
            want = thomas_solve(system)
    except (SingularSystemError, FloatingPointError) as exc:
        with pytest.raises(type(exc)) as info:
            solve(system)
        assert str(info.value) == str(exc)
        return
    got = solve(system)
    np.testing.assert_array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@SETTINGS
@given(data=st.data(), n=st.integers(2, 40), n_rhs=st.integers(1, 4),
       dirichlet=st.booleans())
def test_factored_solve_is_bitwise_one_pass_thomas(data, n, n_rhs,
                                                   dirichlet):
    # random bands are rarely diagonally dominant, and exact zeros reach
    # the pivot checks; every right-hand side after the first reuses the
    # cached factors (of the Dirichlet rows when applied)
    def band(size, label):
        return np.array(data.draw(st.lists(BAND, min_size=size,
                                           max_size=size), label=label))

    m = TriDiag(band(n - 1, "sub"), band(n, "diag"), band(n - 1, "sup"))
    for k in range(n_rhs):
        system = TriDiagSystem(m, band(n, "rhs %d" % k))
        if dirichlet:
            gl, gr = data.draw(st.tuples(BAND, BAND), label="bc %d" % k)
            system = apply_dirichlet(system, DirichletBC(gl, gr), 0.0)
        _assert_same_outcome(system)


def _bands(sub, diag, sup, dominant):
    """TriDiag(sub, diag, sup), made row diagonally dominant when asked
    by adding each row's off-diagonal magnitudes to its diagonal's."""
    if dominant:
        off = np.abs(np.r_[0.0, sub]) + np.abs(np.r_[sup, 0.0])
        diag = np.copysign(np.abs(diag) + off, diag)
    return TriDiag(sub, diag, sup)


@settings(SETTINGS, max_examples=20)
@given(n=st.integers(mesh_fem.BLOCK_MIN_ROWS, 2 * mesh_fem.BLOCK_MIN_ROWS),
       seed=st.integers(0, 2 ** 16), dominant=st.booleans(),
       dirichlet=st.booleans())
def test_block_size_one_is_bitwise_one_pass_thomas(n, seed, dominant,
                                                   dirichlet):
    # above the crossover solve_tridiag substitutes in blocks; forced to
    # one row per block it is the one-pass loop for any n
    rng = np.random.default_rng(seed)
    m = _bands(*(rng.uniform(-1.0, 1.0, k) for k in (n - 1, n, n - 1)),
               dominant)
    system = TriDiagSystem(m, rng.uniform(-1.0, 1.0, n))
    if dirichlet:
        system = apply_dirichlet(system, DirichletBC(0.3, -0.2), 0.0)
    _assert_same_outcome(system,
                         lambda s: mesh_fem._solve_in_blocks(s, 1))


# The blocked substitution sums each block's local solution and its
# carried entry times an impulse response, so it is not the one-pass
# loop's arithmetic, and the componentwise bound of _check_against_dense
# is not claimed for it.  It runs only on factors whose multipliers and
# ratios sup/pivot are at most 1 in magnitude, where |L||U| is at most a
# few times |A|; the property accepts the normwise residual
# ||A x - b|| <= BLOCKED_RESIDUAL_ULPS eps ||A|| ||x|| (infinity norms).
# The worst ratio measured was 1.21, over 6,000 random, Galerkin,
# spectral-full and spectral-feasible systems with n in [2, 60] and
# block sizes 2 to 64, and 0.96 over 120 with n in [300, 3000]; the
# one-pass loop's own worst on the same systems was 1.21.  Gradual
# underflow adds at most half a subnormal per operation, and each row of
# the residual receives the errors of a handful of operations with
# coefficients at most 2 (the ratios are bounded by 1), so the bound
# also admits BLOCKED_UNDERFLOW_UNITS smallest subnormals.
BLOCKED_RESIDUAL_ULPS = 4
BLOCKED_UNDERFLOW_UNITS = 16


def _step_system(kind, n, sign, P, S, rng):
    """The Dirichlet-row system of one step of a method on n nodes at
    element Peclet number P and S = mu dt / h^2, with a random rhs."""
    mesh = build_uniform_mesh(0.0, 1.0, n - 1)
    h, mu = mesh.h[0], 1.0
    dt, a = S * h * h / mu, sign * 2.0 * mu * P / h
    if kind == "galerkin":
        lhs, _ = B.step_matrices(mesh, np.full(mesh.n_elems, a), mu, dt)
    elif kind == "spectral-feasible":
        lhs = F.assemble_matrices(mesh, np.full(mesh.n_elems, a), mu, dt,
                                  F.DirectKernelProvider()).lhs
    else:
        config = V.FullVmsConfig(mesh=mesh, tgrid=TimeGrid.from_dt(dt, 1),
                                 mu=mu, velocity=a, n_modes=50)
        lhs, _ = V._Snapshot(config, project_velocity(a, mesh, 0.0)).matrices
    return apply_dirichlet(TriDiagSystem(lhs, rng.standard_normal(n)),
                           DirichletBC(0.3, -0.2), 0.0)


@SETTINGS
@given(data=st.data(), n=st.integers(2, 60), b=st.integers(2, 64),
       kind=st.sampled_from(["band", "dominant band", "galerkin",
                             "spectral-full", "spectral-feasible"]))
def test_blocked_solve_meets_the_normwise_residual_bound(data, n, b, kind):
    if kind.endswith("band"):
        def band(size, label):
            return np.array(data.draw(st.lists(BAND, min_size=size,
                                               max_size=size), label=label))

        m = _bands(band(n - 1, "sub"), band(n, "diag"), band(n - 1, "sup"),
                   kind == "dominant band")
        system = TriDiagSystem(m, band(n, "rhs"))
    else:
        assume(n >= 3)
        system = _step_system(
            kind, n, data.draw(st.sampled_from([-1.0, 1.0]), label="sign"),
            data.draw(st.floats(0.01, 40.0), label="P"),
            data.draw(st.floats(0.05, 50.0), label="S"),
            np.random.default_rng(data.draw(st.integers(0, 2 ** 16),
                                            label="seed")))
    m, rhs = system.matrix, system.rhs
    try:
        with np.errstate(all="ignore"):
            want = thomas_solve(system)
    except (SingularSystemError, FloatingPointError) as exc:
        # the blocked path falls back to the loop when it overflows; the
        # loop overflowing alone would take a solution within rounding of
        # the largest float, out of reach of these draws
        with pytest.raises(type(exc)) as info:
            mesh_fem._solve_in_blocks(system, b)
        assert str(info.value) == str(exc)
        return
    x = mesh_fem._solve_in_blocks(system, b)
    factors = mesh_fem._substitution_factors(mesh_fem.factor_tridiag(m), b)
    if not isinstance(factors, mesh_fem.BlockedFactors):
        # growing impulse responses keep the one-pass loop
        assert x.tobytes() == want.tobytes()
        return
    dense = m.to_dense()
    norm_a = np.linalg.norm(dense, np.inf)
    bound = (BLOCKED_RESIDUAL_ULPS * EPS * norm_a * np.max(np.abs(x))
             + BLOCKED_UNDERFLOW_UNITS * TINY)
    assert np.max(np.abs(dense @ x - rhs)) <= bound
    # x - x_dense = A^{-1} (r - r_dense): both residuals bound the gap
    x_dense = np.linalg.solve(dense, rhs)
    gap = np.linalg.norm(np.linalg.inv(dense), np.inf) * (
        bound + 8 * n * EPS * norm_a * np.max(np.abs(x_dense)))
    assert np.max(np.abs(x - x_dense)) <= gap


# Largest relative gap, over the whole history, between a run and the
# mirror image of the run with velocity -a and mirrored data.  The two
# are mirror images in exact arithmetic and the mirrored meshes have
# bitwise reversed element sizes, so the gap is rounding alone (reversed
# elimination and summation orders, mirrored quadrature points).  For
# spectral-feasible it stays below MIRROR_RTOL (2.0e-15 in 120 random
# draws).  For spectral-full it grows with the largest element Peclet
# number P: its left-hand side M + dt R - C subtracts an 8-mode closure
# C that nearly cancels M + dt R, so one relative rounding of the terms
# is amplified by the solve.  The gap of the draw pinned below is
# 2.95e-11 at P = 21; at P = 42 a one-step gap reaches 1.5e-7.  The
# rounding amplification of the closure series alone, sum |t_j| / |sum
# t_j| of its kernel terms, stays between 14 and 112 over P = 21..42,
# so it does not bound the gap.  What does is Skeel's componentwise
# condition number of the solve over the absolute terms of that sum,
# _full_lhs_amplification: in 6,000 draws weighted toward large P the
# gap was at most 41 eps times it, and in 1,000 draws of this strategy
# at most 1.2 eps times it.  spectral-full therefore gets
# max(MIRROR_RTOL, MIRROR_ULPS eps amplification).  The amplification
# reached 1e9 at P = 36, so the bound stays below 1e-4 and a block
# mirrored the wrong way, an O(1) relative gap, still fails.
MIRROR_RTOL = 1e-11
MIRROR_ULPS = 256


def _full_lhs_amplification(config):
    """|| |A^-1| E ||_inf for the first left-hand side A of a
    spectral-full run, with its Dirichlet rows in place.

    E sums the absolute values of the terms A is formed from: the mass
    matrix, dt |R| and, per element and mode j, |beta_j| (|(phi_m, p z_j)|
    + dt |b(phi_m, p z_j)|) (|(z_j, phi_l)| + dt |b(z_j, phi_l)|).  A
    relative rounding of eps in every term moves the solution by about
    eps times this.
    """
    mesh, dt = config.mesh, config.tgrid.dt
    ctx = V._Snapshot(config, project_velocity(config.velocity, mesh, dt))
    arr = {name: value[ctx.index] for name, value in
           K.element_mode_arrays(ctx.params, config.n_modes).items()}
    trial = np.abs(arr["mass_phi_pz"]) + dt * np.abs(arr["adv_phi_pz"])
    test = np.abs(arr["mass_z_phi"]) + dt * np.abs(arr["adv_z_phi"])
    closure = np.einsum("kj,kmj,klj->klm", np.abs(ctx.beta), trial, test)
    terms = (assemble_mass(mesh).to_dense()
             + dt * np.abs(assemble_stiffness(mesh, ctx.a_elem,
                                              config.mu).to_dense())
             + TriDiag.from_blocks(closure).to_dense())
    terms[[0, -1]] = 0.0  # identity boundary rows are exact
    lhs = ctx.matrices[0].dirichlet_rows()[0].to_dense()
    return np.max(np.abs(np.linalg.inv(lhs)) @ terms.sum(axis=1))


@SETTINGS
@given(widths=st.lists(st.floats(0.2, 1.0), min_size=3, max_size=12),
       log_a=st.floats(-0.5, 1.8), sign=st.sampled_from([-1.0, 1.0]),
       log_dt=st.floats(-3.0, -1.0), steps=st.integers(1, 5),
       gl=BAND, gr=BAND, method=st.sampled_from(["full", "feasible"]))
@example(widths=[0.25, 1.0, 0.25], log_a=1.5, sign=-1.0, log_dt=-1.0,
         steps=1, gl=0.0, gr=0.0, method="full")
@example(widths=[0.25, 1.0, 0.25], log_a=1.8, sign=-1.0, log_dt=-3.0,
         steps=1, gl=0.0, gr=0.0, method="full")
@example(widths=[0.25, 1.0, 0.25], log_a=1.8, sign=1.0, log_dt=-3.0,
         steps=1, gl=0.5, gr=-0.3, method="full")
def test_negated_velocity_gives_the_mirrored_history(widths, log_a, sign,
                                                     log_dt, steps, gl, gr,
                                                     method):
    w = np.array(widths)
    nodes = np.concatenate([[-1.0], -1.0 + 2.0 * np.cumsum(w) / w.sum()])
    nodes[-1] = 1.0
    mesh, mirrored = Mesh1D(nodes), Mesh1D(-nodes[::-1])
    np.testing.assert_array_equal(mirrored.h, mesh.h[::-1])
    a = sign * 10.0 ** log_a
    tgrid = TimeGrid.from_dt(10.0 ** log_dt, steps)

    def u0(x):
        return np.sin(2.0 * x + 0.3) + 0.5 * x ** 2

    def f(x, t):
        return 1.0 + x + t

    runs, breakdowns, bound = [], [], MIRROR_RTOL
    for m, vel, initial, bc, source in [
            (mesh, a, u0, DirichletBC(gl, gr), f),
            (mirrored, -a, lambda x: u0(-x), DirichletBC(gr, gl),
             lambda x, t: f(-x, t))]:
        common = dict(mesh=m, tgrid=tgrid, mu=1.0, velocity=vel, bc=bc,
                      source=source, initial=initial)
        if method == "full":
            config = V.FullVmsConfig(n_modes=8, **common)
            try:
                runs.append(V.run_full(config).history)
            except SingularSystemError as exc:
                breakdowns.append(str(exc))
                continue
            bound = max(bound, MIRROR_ULPS * EPS
                        * _full_lhs_amplification(config))
        else:
            runs.append(F.run_feasible(F.FeasibleConfig(**common)))
    if breakdowns:
        # the 8-mode closure breaks the pivot check of its left-hand side
        # (largest entry above 1e14 on the pinned draws); the mirror image
        # must break down alike
        assert len(breakdowns) == 2 and breakdowns[0] == breakdowns[1]
        return
    plus, minus = runs
    gap = np.max(np.abs(plus - minus[:, ::-1])) / np.max(np.abs(plus))
    assert gap <= bound


# Criterion 3's bound on the nodal and amplitude gaps between step_full
# and the dense monolithic solve, relative to the size of the state:
# MONOLITHIC_RTOL * max(1, |u_ref|, |c_ref|).  The random amplitudes carry
# a subgrid of size about 0.2 e^P into the step, so the state can reach
# hundreds.  On the first pinned draw (P about 4.25 on the wide element)
# |u_ref| = 54 and |c_ref| = 334; the package is 1.3e-9 off the oracle,
# whose own answer moves by 2.5e-9 between 24- and 200-point quadrature,
# so an absolute 1e-10 asks for more than the oracle resolves.  With a
# bounded state the gap is roundoff: below 2e-14 in 300 random draws.
# The sources are a cubic and cos 3x + x t; the second pinned draw is the
# coarse mesh where a 4-point load rule was 1.3e-7 off.
MONOLITHIC_RTOL = 1e-10
MAX_ELEMS = 8
SOURCES = {"cubic": lambda x, t: 1.0 + x - 2.0 * x ** 3 + x * t,
           "cos": lambda x, t: np.cos(3.0 * x) + x * t}


@settings(max_examples=30, deadline=None, database=None)
@given(widths=st.lists(st.floats(0.2, 1.0), min_size=2, max_size=MAX_ELEMS),
       speeds=st.lists(st.floats(0.1, 3.0), min_size=MAX_ELEMS,
                       max_size=MAX_ELEMS),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=MAX_ELEMS,
                      max_size=MAX_ELEMS),
       mu=st.floats(0.2, 1.0), log_dt=st.floats(-3.0, -1.0),
       n_modes=st.integers(1, 5),
       source=st.sampled_from([None, "cubic", "cos"]),
       gl=BAND, gr=BAND, seed=st.integers(0, 2 ** 16))
@example(widths=[0.797, 0.367], speeds=[2.5] + [1.0] * (MAX_ELEMS - 1),
         signs=[-1.0] * MAX_ELEMS, mu=0.2012, log_dt=-3.0, n_modes=1,
         source=None, gl=0.0, gr=0.0, seed=13)
@example(widths=[0.8, 0.2], speeds=[1.0] * MAX_ELEMS,
         signs=[1.0] * MAX_ELEMS, mu=1.0, log_dt=-1.0, n_modes=3,
         source="cos", gl=0.0, gr=0.0, seed=0)
def test_full_step_matches_monolithic_oracle(widths, speeds, signs, mu,
                                             log_dt, n_modes, source,
                                             gl, gr, seed):
    # random nonuniform mesh, one velocity of either sign per element, and
    # random subgrid amplitudes carried into the step
    w = np.array(widths)
    nodes = np.concatenate([[0.0], np.cumsum(w) / w.sum()])
    nodes[-1] = 1.0
    mesh = Mesh1D(nodes)
    a_elem = (np.array(signs) * np.array(speeds))[:mesh.n_elems]
    dt = 10.0 ** log_dt

    def velocity(x, t):
        return a_elem[np.searchsorted(nodes, x) - 1]

    source = SOURCES.get(source)
    bc = DirichletBC(gl, gr)
    config = V.FullVmsConfig(
        mesh=mesh, tgrid=TimeGrid.from_dt(dt, 1), mu=mu, velocity=velocity,
        bc=bc, source=source, initial=lambda x: np.sin(2.0 * x + 0.3),
        n_modes=n_modes)
    u0, state = V.init_state(config)
    state[:] = 0.2 * np.random.default_rng(seed).standard_normal(
        state.shape)
    projected = project_velocity(config.velocity, mesh, dt)
    np.testing.assert_array_equal(projected, a_elem)
    u1, state1 = V.step_full(u0, state, 0, config,
                             V._Snapshot(config, projected))
    u_ref, c_ref = monolithic_step_oracle(mesh, a_elem, mu, dt, source, bc,
                                          dt, u0, state, n_modes)
    bound = MONOLITHIC_RTOL * max(1.0, np.max(np.abs(u_ref)),
                                  np.max(np.abs(c_ref)))
    assert np.max(np.abs(u1 - u_ref)) <= bound
    assert np.max(np.abs(state1 - c_ref)) <= bound
