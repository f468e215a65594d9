"""Offline kernel tables over the (P, S) parameter grid.

The dimensionless mode-series kernels are precomputed on a uniform grid
P_i = delta*i, S_j = delta*j (i, j = 1..m), stored in a digest-checked
binary file and interpolated online with the area-weighted bilinear rule.
Queries outside the grid clamp to the boundary cell, which extrapolates
linearly; a per-table counter records how often that happened.
"""

import hashlib
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import (FAMILIES, FAMILY_ORDER, TruncationPolicy,
                      sum_series_multi)

__all__ = ["TableGrid", "KernelTable", "TableFormatError",
           "UnsupportedVersionError", "generate_table", "save_table",
           "load_table", "interpolate"]

MAGIC = b"SVMK"
FORMAT_VERSION = 2
DIGEST_SIZE = 8


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
    policy: TruncationPolicy
    values: dict  # family name -> array (n_entries, m, m), P-major
    # family name -> bool (m, m), cells whose series stopped at j_max
    overflow_cells: dict = field(default_factory=dict)
    clamp_count: int = 0

    def families(self):
        return [name for name in FAMILY_ORDER if name in self.values]

    def capped_cells(self):
        """Number of (family, cell) pairs whose series hit the mode cap."""
        return sum(int(np.count_nonzero(mask))
                   for mask in self.overflow_cells.values())


def _compute_row(args):
    """All kernel entries for one P row; pure function for worker pools."""
    P, s_axis, policy, family_names = args
    wanted = [(name, m, l) for name in family_names
              for (m, l) in FAMILIES[name].index_pairs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vals, _, over = sum_series_multi(wanted, P, s_axis, policy)
    row = {}
    overflow = {}
    for name in family_names:
        fam = FAMILIES[name]
        entries = np.empty((fam.n_entries, s_axis.size))
        ovf = np.zeros(s_axis.size, dtype=bool)
        for m, l in fam.index_pairs:
            entries[fam.entry(m, l)] = vals[(name, m, l)]
            ovf |= over[(name, m, l)]
        row[name] = entries
        overflow[name] = ovf
    return row, overflow


def generate_table(grid, policy=None, families=None, workers=1,
                   progress=False):
    """Tabulate the dimensionless kernels over the whole (P, S) grid.

    Rows (fixed P) are independent; with workers > 1 they are computed in
    a process pool, assembled in order, so output does not depend on the
    worker count.
    """
    policy = policy or TruncationPolicy()
    family_names = list(families) if families else list(FAMILY_ORDER)
    axis = grid.axis()
    values = {name: np.empty((FAMILIES[name].n_entries, grid.m, grid.m))
              for name in family_names}
    overflow = {name: np.zeros((grid.m, grid.m), dtype=bool)
                for name in family_names}
    tasks = [(P, axis, policy, family_names) for P in axis]
    if workers > 1:
        import multiprocessing
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_compute_row, tasks, chunksize=8)
    else:
        results = map(_compute_row, tasks)
    for i, (row, over) in enumerate(results):
        for name in family_names:
            values[name][:, i, :] = row[name]
            overflow[name][i, :] = over[name]
        if progress and (i + 1) % 50 == 0:
            print("table rows %d/%d" % (i + 1, grid.m), flush=True)
    return KernelTable(grid=grid, policy=policy, values=values,
                       overflow_cells=overflow)


def _header(table, names):
    header = bytearray()
    header += MAGIC
    header += struct.pack("<I", FORMAT_VERSION)
    header += struct.pack("<d", table.grid.delta)
    header += struct.pack("<I", table.grid.m)
    header += struct.pack("<I", len(names))
    for name in names:
        header += struct.pack("<8sI", name.encode("ascii"),
                              FAMILIES[name].n_entries)
    header += struct.pack("<d", table.policy.epsilon)
    header += struct.pack("<I", table.policy.j_max)
    # zero padding keeps the float64 payload 8-byte aligned when loaded
    header += bytes(-len(header) % 8)
    return header


def save_table(table, path):
    """Write the table in the versioned little-endian binary format.

    Layout: header (magic, version, grid, families, truncation policy,
    zero padding to 8 bytes), the values of each family, one packed
    capped-cell mask per family, and an 8-byte BLAKE2b digest of every
    byte before it.
    """
    names = table.families()
    m = table.grid.m
    digest = hashlib.blake2b(digest_size=DIGEST_SIZE)
    with open(path, "wb") as fh:
        def emit(buf):
            fh.write(buf)
            digest.update(buf)

        emit(_header(table, names))
        for name in names:
            emit(np.ascontiguousarray(table.values[name], dtype="<f8"))
        for name in names:
            mask = table.overflow_cells.get(name,
                                            np.zeros((m, m), dtype=bool))
            emit(np.packbits(mask))
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
        if name not in FAMILIES:
            raise TableFormatError("unknown kernel family %r" % name)
        if count != FAMILIES[name].n_entries:
            raise TableFormatError("entry count mismatch for %s" % name)
        names.append(name)
    (epsilon, j_max), pos = _unpack("<dI", blob, pos, "policy")
    pos += -pos % 8
    mask_bytes = -(-m * m // 8)
    payload_bytes = sum(8 * FAMILIES[name].n_entries * m * m
                        for name in names)
    expected = pos + payload_bytes + len(names) * mask_bytes + DIGEST_SIZE
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
        count = FAMILIES[name].n_entries
        values[name] = np.frombuffer(blob, "<f8", count=count * m * m,
                                     offset=pos).reshape(count, m, m)
        pos += 8 * count * m * m
    overflow = {}
    for name in names:
        packed = np.frombuffer(blob, np.uint8, count=mask_bytes, offset=pos)
        overflow[name] = np.unpackbits(packed, count=m * m).astype(
            bool).reshape(m, m)
        pos += mask_bytes
    return KernelTable(grid=TableGrid(delta=delta, m=int(m)),
                       policy=TruncationPolicy(epsilon=epsilon,
                                               j_max=int(j_max)),
                       values=values, overflow_cells=overflow)


def interpolate(table, family, m, l, P, S, count_clamps=True):
    """Area-weighted bilinear value of one kernel entry at (P, S).

    P and S are scalars, or arrays paired elementwise.  Each cell corner
    is weighted by the area of the sub-rectangle diagonally opposite the
    query point, normalised by the cell area.  Out-of-range queries clamp
    the cell index, which linearly extrapolates the boundary cell; the
    table's clamp_count grows by one per clamped point.
    """
    grid = table.grid
    name = family if isinstance(family, str) else family.name
    fam = FAMILIES[name]
    arr = table.values[name][fam.entry(m, l)]
    delta = grid.delta
    P = np.asarray(P, dtype=float)
    S = np.asarray(S, dtype=float)
    if not (np.isfinite(P).all() and np.isfinite(S).all()):
        raise ValueError("P and S must be finite")

    def cell_index(v):
        # nudge queries sitting an ulp below a grid line onto it
        i = np.floor(v / delta + 1e-12)
        clamped = (i < 1) | (i > grid.m - 1)
        return np.clip(i, 1, grid.m - 1).astype(np.int64), clamped

    i, clamp_p = cell_index(P)
    j, clamp_s = cell_index(S)
    if count_clamps:
        table.clamp_count += int(np.count_nonzero(clamp_p | clamp_s))
    p0, p1 = delta * i, delta * (i + 1)
    s0, s1 = delta * j, delta * (j + 1)
    q = delta * delta
    w00 = (p1 - P) * (s1 - S) / q
    w01 = (p1 - P) * (S - s0) / q
    w10 = (P - p0) * (s1 - S) / q
    w11 = (P - p0) * (S - s0) / q
    # array index of grid node P_i is i - 1
    return (w00 * arr[i - 1, j - 1] + w01 * arr[i - 1, j]
            + w10 * arr[i, j - 1] + w11 * arr[i, j])
