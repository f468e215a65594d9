import types

import numpy as np
import pytest

from spectral_vms import table as T

from oracles import ALL_ENTRIES, closed_form_kernels


def small_table(delta=0.5, m=6):
    return T.generate_table(T.TableGrid(delta=delta, m=m))


def test_generate_matches_direct_sums():
    grid = T.TableGrid(delta=10.0, m=2)
    table = T.generate_table(grid)
    for name in T.TABLE_FAMILIES:
        for i, P in enumerate(grid.axis()):
            vals = closed_form_kernels([(name, 0, 1)], P, grid.axis())
            np.testing.assert_array_equal(table.values[name][1, i], vals[0])


def test_generate_all_families_shapes():
    table = T.generate_table(T.TableGrid(delta=1.0, m=3))
    assert table.families() == ["A1", "B1"]
    for name in table.families():
        assert table.values[name].shape == (4, 3, 3)
        assert np.all(np.isfinite(table.values[name]))


def test_worker_count_does_not_change_output(monkeypatch):
    # 16 nodes in 4 chunks, so that two workers share them
    monkeypatch.setattr(T, "_CHUNK_POINTS", 4)
    grid = T.TableGrid(delta=2.0, m=4)
    t1 = T.generate_table(grid)
    t2 = T.generate_table(grid, workers=2)
    for name in ("A1", "B1"):
        np.testing.assert_array_equal(t1.values[name], t2.values[name])


@pytest.mark.parametrize("chunk", [64, 2048])
def test_table_is_one_green_blocks_call_over_the_node_list(monkeypatch,
                                                           chunk):
    # the grid takes both forms; 900 nodes make 15 chunks of 64 (the last
    # one short) or one of 2048
    from spectral_vms.kernels import green_blocks

    monkeypatch.setattr(T, "_CHUNK_POINTS", chunk)
    grid = T.TableGrid(delta=0.2, m=30)
    table = T.generate_table(grid)
    P, S = np.meshgrid(grid.axis(), grid.axis(), indexing="ij")
    for name, block in zip(T.TABLE_FAMILIES, green_blocks(P, S)):
        assert table.values[name].tobytes() \
            == block.reshape(4, grid.m, grid.m).tobytes()


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records the requested size
    and maps in this process, so no process starts."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, tasks):
        return list(map(func, tasks))


def test_worker_pool_is_capped_at_the_number_of_chunks(monkeypatch):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    grid = T.TableGrid(delta=1.0, m=3)  # 9 nodes
    serial = T.generate_table(grid)
    monkeypatch.setattr(T, "_CHUNK_POINTS", 4)  # 3 chunks
    pooled = T.generate_table(grid, workers=8)
    monkeypatch.setattr(T, "_CHUNK_POINTS", 9)  # 1 chunk: no pool
    single = T.generate_table(grid, workers=8)
    assert _RecordingPool.sizes == [3]
    for name in T.TABLE_FAMILIES:
        assert pooled.values[name].tobytes() == serial.values[name].tobytes()
        assert single.values[name].tobytes() == serial.values[name].tobytes()


# tracemalloc peak of the reduced grid's build, at most 1.64 MB (the
# peak with ten P rows per green_blocks call): measured 1,489,301 bytes
# with 2,048-point chunks (numpy 2.4.6), 1,644,952 with ten P rows
REDUCED_BUILD_PEAK_BYTES = 1_640_000


def test_reduced_table_build_stays_within_its_memory_bound():
    import tracemalloc

    grid = T.TableGrid(delta=0.2, m=100)
    tracemalloc.start()
    try:
        T.generate_table(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= REDUCED_BUILD_PEAK_BYTES


def test_save_load_roundtrip(tmp_path):
    table = small_table()
    path = tmp_path / "kernels.bin"
    T.save_table(table, path)
    loaded = T.load_table(path)
    assert loaded.grid == table.grid
    assert loaded.families() == list(table.families())
    for name in table.families():
        np.testing.assert_array_equal(loaded.values[name],
                                      table.values[name])
    # byte-identical resave
    path2 = tmp_path / "again.bin"
    T.save_table(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_truncated_file_rejected(tmp_path):
    table = small_table()
    path = tmp_path / "kernels.bin"
    T.save_table(table, path)
    blob = path.read_bytes()
    for cut in (3, 20, len(blob) - 9, len(blob) - 1):
        bad = tmp_path / ("cut%d.bin" % cut)
        bad.write_bytes(blob[:cut])
        with pytest.raises(T.TableFormatError):
            T.load_table(bad)


def test_corrupted_payload_rejected(tmp_path):
    table = small_table()
    path = tmp_path / "kernels.bin"
    T.save_table(table, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(T.TableFormatError):
        T.load_table(path)


@pytest.mark.parametrize("version", [1, 2, 99])
def test_version_bump_rejected(tmp_path, version):
    table = small_table()
    path = tmp_path / "kernels.bin"
    T.save_table(table, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = version.to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(T.UnsupportedVersionError, match="version %d"
                       % version) as exc:
        T.load_table(path)
    assert "spectral-vms offline" in str(exc.value)


def test_loaded_values_are_read_only(tmp_path):
    path = tmp_path / "kernels.bin"
    T.save_table(small_table(), path)
    loaded = T.load_table(path)
    for arr in loaded.values.values():
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\0" * 100)
    with pytest.raises(T.TableFormatError):
        T.load_table(path)


@pytest.mark.parametrize("families", [["A1"], ["A1", "A1"], ["B1", "A1"]])
def test_families_other_than_a1_then_b1_rejected(tmp_path, families):
    # a well-formed file whose family list is not exactly A1, B1 fails to
    # load, instead of failing later in the first lookup of B1
    grid = T.TableGrid(delta=0.5, m=3)
    table = types.SimpleNamespace(grid=grid, values={
        name: np.ones((4, 3, 3)) for name in T.TABLE_FAMILIES},
        families=lambda: families)
    path = tmp_path / "kernels.bin"
    T.save_table(table, path)
    with pytest.raises(T.TableFormatError, match="holds families"):
        T.load_table(path)


@pytest.mark.parametrize("delta, m", [(float("nan"), 3), (float("inf"), 3),
                                      (1e308, 3), (0.5, 2.5),
                                      (0.5, float("nan"))])
def test_grid_rejects_non_finite_or_fractional_values(delta, m):
    # NaN passes a `delta <= 0` check and 2.5 passes `m < 2`
    with pytest.raises(ValueError):
        T.TableGrid(delta=delta, m=m)


def save_with_grid(path, delta, m):
    """A digest-valid table file whose header holds the grid (delta, m),
    which TableGrid need not accept."""
    table = types.SimpleNamespace(
        grid=types.SimpleNamespace(delta=delta, m=m),
        values={name: np.ones((4, m, m)) for name in T.TABLE_FAMILIES},
        families=lambda: list(T.TABLE_FAMILIES))
    T.save_table(table, path)


@pytest.mark.parametrize("delta, m", [(float("nan"), 3), (float("inf"), 3),
                                      (1e308, 3), (-0.5, 3), (0.5, 1)])
def test_bad_grid_in_a_digest_valid_file_rejected(tmp_path, delta, m):
    path = tmp_path / "kernels.bin"
    save_with_grid(path, delta, m)
    with pytest.raises(T.TableFormatError, match="bad grid"):
        T.load_table(path)


def make_synthetic_table(func, delta=0.5, m=8, family="A1"):
    grid = T.TableGrid(delta=delta, m=m)
    axis = grid.axis()
    vals = np.empty((4, m, m))
    for e in range(4):
        vals[e] = func(axis[:, None], axis[None, :])
    return T.KernelTable(grid=grid, values={family: vals})


def test_interpolate_exact_at_nodes_and_bilinear():
    table = make_synthetic_table(lambda P, S: 2.0 + 3.0 * P - 5.0 * S
                                 + 7.0 * P * S)
    grid = table.grid
    for P in grid.axis():
        for S in grid.axis():
            got = T.interpolate(table, P, S)["A1"][0, 0]
            want = 2.0 + 3.0 * P - 5.0 * S + 7.0 * P * S
            assert got == pytest.approx(want, rel=1e-13)
    rng = np.random.default_rng(1)
    for _ in range(100):
        P = rng.uniform(grid.delta, grid.p_max)
        S = rng.uniform(grid.delta, grid.p_max)
        got = T.interpolate(table, P, S)["A1"][0, 0]
        want = 2.0 + 3.0 * P - 5.0 * S + 7.0 * P * S
        assert got == pytest.approx(want, rel=1e-12)


def test_interpolate_node_value_is_stored_value():
    table = small_table()
    grid = table.grid
    for i in (0, 2, 5):
        for j in (1, 3, 4):
            got = T.interpolate(table, grid.delta * (i + 1),
                                grid.delta * (j + 1))["B1"][1, 0]
            want = table.values["B1"][2, i, j]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_interpolate_cell_center_mean():
    table = small_table()
    grid = table.grid
    arr = table.values["A1"][1]
    P = grid.delta * 2.5
    S = grid.delta * 3.5
    got = T.interpolate(table, P, S)["A1"][0, 1]
    want = 0.25 * (arr[1, 2] + arr[1, 3] + arr[2, 2] + arr[2, 3])
    assert got == pytest.approx(want, rel=1e-12)


def test_interpolate_weights_positive_partition_in_cell():
    table = make_synthetic_table(lambda P, S: np.ones_like(P + S))
    rng = np.random.default_rng(2)
    for _ in range(50):
        P = rng.uniform(table.grid.delta, table.grid.p_max)
        S = rng.uniform(table.grid.delta, table.grid.p_max)
        assert T.interpolate(table, P, S)["A1"][0, 0] == pytest.approx(1.0)


def test_interpolate_clamp_extrapolates_continuously():
    table = make_synthetic_table(lambda P, S: 1.0 / (P + S))
    pmax = table.grid.p_max
    eps = 1e-9
    lo = T.interpolate(table, pmax - eps, 1.0)["A1"][0, 0]
    hi = T.interpolate(table, pmax + eps, 1.0)["A1"][0, 0]
    assert abs(hi - lo) < 1e-6
    # clamps are counted once per query point, whatever the number of
    # families, entries or clamped axes
    before = table.clamp_count
    T.interpolate(table, [pmax + 1.0, 0.5 * table.grid.delta, 1.0],
                  [1.0, 1.0, 1.0])
    T.interpolate(table, -1.0, pmax + 1.0)
    assert table.clamp_count == before + 3
    # points on the top edges lie in the last cell: exact node values,
    # and not counted
    delta = table.grid.delta
    got = T.interpolate(table, [pmax, delta], [pmax, pmax])["A1"][0, 0]
    assert got.tolist() == [1.0 / (2 * pmax), 1.0 / (delta + pmax)]
    assert table.clamp_count == before + 3


def test_interpolation_error_against_direct_sums():
    # sampled interpolation error on a coarse table: recorded bound
    grid = T.TableGrid(delta=0.2, m=20)  # P, S up to 4
    table = T.generate_table(grid)
    rng = np.random.default_rng(3)
    rels = []
    for _ in range(60):
        P = rng.uniform(grid.delta, grid.p_max)
        S = rng.uniform(grid.delta, grid.p_max)
        got = T.interpolate(table, P, S)["A1"][0, 0]
        ref = closed_form_kernels([("A1", 0, 0)], P, S)[0, 0]
        rels.append(abs(got - ref) / max(1e-12, abs(ref)))
    rels = np.array(rels)
    assert np.median(rels) <= 1e-2  # coarse grid; the fine grid is ~1e-3
    assert np.max(rels) <= 2e-1


def test_table_provider_sums_interpolated_blocks():
    # the provider's blocks are the interpolated A1/B1 blocks, and at
    # grid nodes every family summed from them reproduces the closed forms
    from spectral_vms.kernels import kernels_from_blocks
    from spectral_vms.vms_feasible import TableKernelProvider

    table = small_table()
    provider = TableKernelProvider(table)
    P = np.array([1.0, 1.7, 2.5])
    S = np.array([0.5, 2.2, 3.0])
    a1, b1 = provider.blocks(P, S)
    blocks = T.interpolate(table, P, S)
    assert a1.tobytes() == blocks["A1"].tobytes()
    assert b1.tobytes() == blocks["B1"].tobytes()
    got = kernels_from_blocks(ALL_ENTRIES, (a1, b1))
    direct = closed_form_kernels(ALL_ENTRIES, P[[0, 2]], S[[0, 2]])
    np.testing.assert_allclose(got[:, [0, 2]], direct, rtol=1e-14, atol=0)


def test_provider_kernel_is_the_derived_entry():
    # the scalar kernel() of both providers is one entry summed from
    # their blocks
    from spectral_vms.kernels import kernels_from_blocks
    from spectral_vms.vms_feasible import (DirectKernelProvider,
                                           TableKernelProvider)

    for provider in (DirectKernelProvider(), TableKernelProvider(
            small_table())):
        for name, m, l in (("A1", 1, 0), ("A2", 0, 1), ("B3", 1, 0),
                           ("B4", 0, 0)):
            want = kernels_from_blocks([(name, m, l)],
                                       provider.blocks([1.7], [2.2]))
            got = provider.kernel(name, m, l, 1.7, 2.2)
            assert type(got) is float and got == want[0, 0]
