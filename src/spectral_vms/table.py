"""Offline kernel tables over the (P, S) parameter grid.

The A1 and B1 kernel blocks are precomputed on a uniform grid
P_i = delta*i, S_j = delta*j (i, j = 1..m), stored in a digest-checked
binary file and interpolated online with the area-weighted bilinear rule;
the other six families are sums of their entries.  Queries outside the
grid clamp to the boundary cell, which extrapolates linearly; a per-table
counter records how many query points lay outside it.
"""

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .kernels import green_blocks
# Bound here, though the table no longer sums series, because the
# benchmark's tracer (perfbench/tracing.py) wraps this binding and
# perfbench/test_perfbench.py asserts that it does; it goes when the
# benchmark is re-pointed (ROADMAP item 1).
from .kernels import sum_series_multi  # noqa: F401

__all__ = ["TableGrid", "KernelTable", "TableFormatError",
           "UnsupportedVersionError", "TABLE_FAMILIES", "generate_table",
           "save_table", "load_table", "interpolate"]

MAGIC = b"SVMK"
FORMAT_VERSION = 3
DIGEST_SIZE = 8
TABLE_FAMILIES = ("A1", "B1")
# entries of one stored 2x2 block, [m, l] in row-major order
BLOCK_ENTRIES = 4


class TableFormatError(RuntimeError):
    """Corrupt or inconsistent table file."""


class UnsupportedVersionError(TableFormatError):
    """Table file written with an unknown format version."""


@dataclass(frozen=True)
class TableGrid:
    """Axes P_i = delta*i and S_j = delta*j for i, j = 1..m."""

    delta: float = 0.02
    m: int = 1000

    def __post_init__(self):
        if self.delta <= 0.0 or self.m < 2:
            raise ValueError("need delta > 0 and at least 2 grid points")

    @property
    def p_max(self):
        return self.delta * self.m

    def axis(self):
        return self.delta * np.arange(1, self.m + 1)


@dataclass
class KernelTable:
    grid: TableGrid
    values: dict  # family name -> array (4, m, m), P-major
    clamp_count: int = 0

    def families(self):
        return [name for name in TABLE_FAMILIES if name in self.values]


def _compute_row(args):
    """A1 and B1 entries, (4, m) each, for one P row; pure function for
    worker pools."""
    P, s_axis = args
    a1, b1 = green_blocks(P, s_axis)
    return a1.reshape(4, -1), b1.reshape(4, -1)


def generate_table(grid, workers=1):
    """Tabulate the A1 and B1 kernels over the whole (P, S) grid.

    Rows (fixed P) are evaluated one at a time, so temporaries stay
    proportional to m; with workers > 1 they are computed in a process
    pool, assembled in order, so output does not depend on the worker
    count.
    """
    axis = grid.axis()
    values = {name: np.empty((4, grid.m, grid.m)) for name in TABLE_FAMILIES}
    tasks = [(P, axis) for P in axis]
    if workers > 1:
        import multiprocessing
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_compute_row, tasks, chunksize=8)
    else:
        results = map(_compute_row, tasks)
    for i, (a1, b1) in enumerate(results):
        values["A1"][:, i, :] = a1
        values["B1"][:, i, :] = b1
    return KernelTable(grid=grid, values=values)


def _header(table, names):
    header = bytearray()
    header += MAGIC
    header += struct.pack("<I", FORMAT_VERSION)
    header += struct.pack("<d", table.grid.delta)
    header += struct.pack("<I", table.grid.m)
    header += struct.pack("<I", len(names))
    for name in names:
        header += struct.pack("<8sI", name.encode("ascii"), BLOCK_ENTRIES)
    # zero padding keeps the float64 payload 8-byte aligned when loaded
    header += bytes(-len(header) % 8)
    return header


def save_table(table, path):
    """Write the table in the versioned little-endian binary format.

    Layout: header (magic, version, grid, family names and entry counts,
    zero padding to 8 bytes), the values of each family, and an 8-byte
    BLAKE2b digest of every byte before it.
    """
    names = table.families()
    digest = hashlib.blake2b(digest_size=DIGEST_SIZE)
    with open(path, "wb") as fh:
        def emit(buf):
            fh.write(buf)
            digest.update(buf)

        emit(_header(table, names))
        for name in names:
            emit(np.ascontiguousarray(table.values[name], dtype="<f8"))
        fh.write(digest.digest())


def _unpack(fmt, blob, offset, what):
    size = struct.calcsize(fmt)
    if offset + size > len(blob):
        raise TableFormatError("truncated file while reading %s" % what)
    return struct.unpack_from(fmt, blob, offset), offset + size


def load_table(path):
    """Read a table file, verifying magic, version, length and digest.

    The value arrays are read-only views into the bytes read from disk.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise TableFormatError("bad magic bytes")
    (version,), pos = _unpack("<I", blob, 4, "version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            "unsupported table format version %d (this build reads "
            "version %d); regenerate the table with `spectral-vms offline`"
            % (version, FORMAT_VERSION))
    (delta, m, n_fam), pos = _unpack("<dII", blob, pos, "grid")
    names = []
    for _ in range(n_fam):
        (raw, count), pos = _unpack("<8sI", blob, pos, "family")
        name = raw.rstrip(b"\0").decode("ascii", "replace")
        if name not in TABLE_FAMILIES:
            raise TableFormatError("unknown kernel family %r" % name)
        if count != BLOCK_ENTRIES:
            raise TableFormatError("entry count mismatch for %s" % name)
        names.append(name)
    pos += -pos % 8
    payload_bytes = 8 * BLOCK_ENTRIES * m * m * len(names)
    expected = pos + payload_bytes + DIGEST_SIZE
    if len(blob) < expected:
        raise TableFormatError("truncated file: %d of %d bytes"
                               % (len(blob), expected))
    if len(blob) > expected:
        raise TableFormatError("trailing bytes after digest")
    digest = hashlib.blake2b(memoryview(blob)[:-DIGEST_SIZE],
                             digest_size=DIGEST_SIZE)
    if digest.digest() != blob[-DIGEST_SIZE:]:
        raise TableFormatError("table digest mismatch")
    values = {}
    for name in names:
        values[name] = np.frombuffer(
            blob, "<f8", count=BLOCK_ENTRIES * m * m,
            offset=pos).reshape(BLOCK_ENTRIES, m, m)
        pos += 8 * BLOCK_ENTRIES * m * m
    return KernelTable(grid=TableGrid(delta=delta, m=int(m)), values=values)


def interpolate(table, P, S):
    """Area-weighted bilinear values of every stored family at (P, S).

    P and S are scalars, or arrays paired elementwise.  Returns {family
    name: array (2, 2) + the broadcast shape of P and S, indexed [m, l]}.
    Each cell corner is weighted by the area of the sub-rectangle
    diagonally opposite the query point, normalised by the cell area;
    the cells and weights are found once for all families.  Queries
    outside [delta, m delta]^2 clamp the cell index, which linearly
    extrapolates the boundary cell; the table's clamp_count grows by one
    per such query point.  Points on the top edges lie in the last cell
    and are not counted.
    """
    grid = table.grid
    delta = grid.delta
    P, S = np.broadcast_arrays(np.asarray(P, dtype=float),
                               np.asarray(S, dtype=float))
    if not (np.isfinite(P).all() and np.isfinite(S).all()):
        raise ValueError("P and S must be finite")

    def cell_index(v):
        # nudge queries sitting an ulp off a grid line onto it
        r = v / delta
        i = np.floor(r + 1e-12)
        outside = (i < 1) | (r - 1e-12 > grid.m)
        return np.clip(i, 1, grid.m - 1).astype(np.int64), outside

    i, clamp_p = cell_index(P)
    j, clamp_s = cell_index(S)
    table.clamp_count += int(np.count_nonzero(clamp_p | clamp_s))
    p0, p1 = delta * i, delta * (i + 1)
    s0, s1 = delta * j, delta * (j + 1)
    q = delta * delta
    w00 = (p1 - P) * (s1 - S) / q
    w01 = (p1 - P) * (S - s0) / q
    w10 = (P - p0) * (s1 - S) / q
    w11 = (P - p0) * (S - s0) / q
    out = {}
    for name in table.families():
        # array index of grid node P_i is i - 1
        arr = table.values[name]
        out[name] = (w00 * arr[:, i - 1, j - 1] + w01 * arr[:, i - 1, j]
                     + w10 * arr[:, i, j - 1] + w11 * arr[:, i, j]
                     ).reshape((2, 2) + P.shape)
    return out
