"""Property tests: the array kernel paths against their per-point calls,
and detection of any single-byte corruption of a saved table."""

import functools
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectral_vms import kernels as K
from spectral_vms import table as T
from spectral_vms import vms_feasible as F

SETTINGS = settings(max_examples=40, deadline=None, database=None)

ENTRIES = [(name, m, l) for name in K.FAMILY_ORDER
           for m, l in K.FAMILIES[name].index_pairs]

# P = 0 and tiny P are where the d and e sides vanish for even modes
P_VALUES = st.one_of(st.sampled_from([0.0, 1e-5, 1e-3]),
                     st.floats(0.0, 40.0))
S_VALUES = st.floats(1e-3, 1e3)
POINTS = st.lists(st.tuples(P_VALUES, S_VALUES), min_size=1, max_size=8)
SOME_ENTRIES = st.lists(st.sampled_from(ENTRIES), min_size=1, max_size=6,
                        unique=True)


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
@given(points=POINTS, entry=st.sampled_from(ENTRIES),
       n_modes=st.integers(1, 200))
def test_direct_fixed_modes_array_equals_scalar(points, entry, n_modes):
    P, S = np.array(points).T
    provider = F.DirectKernelProvider(n_modes=n_modes)
    got = provider.kernels([entry], P, S)
    assert got.shape == (1, len(points))
    for k, (p, s) in enumerate(points):
        assert got[0, k] == K.sum_series_fixed(*entry, p, s, n_modes)


GRID = T.TableGrid(delta=0.25, m=12)


def _table(values):
    return T.KernelTable(grid=GRID, policy=K.TruncationPolicy(),
                         values={"A1": values})


RANDOM_VALUES = np.random.default_rng(7).standard_normal((4, 12, 12))
QUERY = st.floats(-1.0, GRID.p_max + 1.0)


@SETTINGS
@given(points=st.lists(st.tuples(QUERY, QUERY), min_size=1, max_size=20),
       entry=st.sampled_from(K.FAMILIES["A1"].index_pairs))
def test_array_interpolate_equals_scalar_calls(points, entry):
    P, S = np.array(points).T
    arrays, scalars = _table(RANDOM_VALUES), _table(RANDOM_VALUES)
    got = T.interpolate(arrays, "A1", *entry, P, S)
    for k, (p, s) in enumerate(points):
        assert got[k] == T.interpolate(scalars, "A1", *entry, p, s)
    assert arrays.clamp_count == scalars.clamp_count


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
    got = T.interpolate(table, "A1", 0, 1, P, S)
    # boundary cells extrapolate linearly, so clamped points are exact too
    np.testing.assert_allclose(got, bilinear(P, S), rtol=0, atol=1e-10)
    assert table.clamp_count == len(outside)


@functools.lru_cache(maxsize=None)
def _small_table_bytes():
    """A saved one-family 3x3 table with some capped cells."""
    grid = T.TableGrid(delta=0.5, m=3)
    values = np.random.default_rng(11).standard_normal((1, 3, 3))
    table = T.KernelTable(grid=grid, policy=K.TruncationPolicy(),
                          values={"A4": values},
                          overflow_cells={"A4": np.eye(3, dtype=bool)})
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
