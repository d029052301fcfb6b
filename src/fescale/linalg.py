"""Sparse linear algebra substrate.

CSR matrices with a structurally symmetric pattern, reverse Cuthill-McKee
bandwidth reduction, and a banded LU factorization with diagonal pivoting.
Factorizations are retained and reused for repeated multi-RHS solves; a
solve never mutates the factorization. Matrices of one pattern can be
factorized into the slots of one padded band stack and solved together in
one stacked call, bit for bit as if solved one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from fescale.errors import SingularMatrixError, StructuralError

# Relative diagonal-pivot tolerance: pivots at or below this fraction of the
# row's largest magnitude raise SingularMatrixError instead of perturbing.
PIVOT_RTOL = 1e-14


@dataclass(frozen=True)
class SparseMatrix:
    """Square sparse matrix in compressed sparse row format.

    Within each row the column indices are strictly increasing, and the
    pattern is expected to be structurally symmetric (entry (i, j) present
    iff (j, i) is); :func:`compute_ordering` checks this once per pattern.
    """

    n_rows: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ro, ci, v = self.row_offsets, self.col_indices, self.values
        if len(ro) != self.n_rows + 1 or ro[0] != 0 or ro[-1] != len(ci):
            raise StructuralError("inconsistent row offsets")
        if len(v) != len(ci):
            raise StructuralError("values/col_indices length mismatch")
        if np.any(np.diff(ro) < 0):
            raise StructuralError("row offsets must be nondecreasing")

    @classmethod
    def from_coo(cls, n, rows, cols, values=None):
        """Build from triplets, summing duplicates and sorting each row."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise StructuralError("triplet index out of range")
        if values is None:
            values = np.zeros(rows.shape, dtype=np.float64)
        else:
            values = np.asarray(values, dtype=np.float64)
        # lexicographic sort by (row, col), then reduce duplicates
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        if rows.size:
            keep = np.empty(rows.shape, dtype=bool)
            keep[0] = True
            keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            group = np.cumsum(keep) - 1
            summed = np.zeros(int(group[-1]) + 1, dtype=np.float64)
            np.add.at(summed, group, values)
            rows, cols, values = rows[keep], cols[keep], summed
        row_offsets = np.zeros(n + 1, dtype=np.int64)
        np.add.at(row_offsets, rows + 1, 1)
        np.cumsum(row_offsets, out=row_offsets)
        return cls(n, row_offsets, cols, values)

    @classmethod
    def from_dense(cls, a):
        a = np.asarray(a, dtype=np.float64)
        rows, cols = np.nonzero(a)
        return cls.from_coo(a.shape[0], rows, cols, a[rows, cols])

    def to_dense(self):
        a = np.zeros((self.n_rows, self.n_rows))
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.row_offsets))
        a[rows, self.col_indices] = self.values
        return a

    def row_of_entries(self):
        return np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.row_offsets))

    def bandwidth(self):
        if len(self.col_indices) == 0:
            return 0
        return int(np.max(np.abs(self.row_of_entries() - self.col_indices)))

    def is_structurally_symmetric(self):
        rows = self.row_of_entries()
        fwd = set(zip(rows.tolist(), self.col_indices.tolist()))
        return all((j, i) in fwd for (i, j) in fwd)

    def with_values(self, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.values.shape:
            raise StructuralError("value array shape mismatch")
        return SparseMatrix(self.n_rows, self.row_offsets, self.col_indices, values)


@dataclass(frozen=True)
class Permutation:
    """Bijection on [0, n): forward maps old->new, inverse maps new->old."""

    forward: np.ndarray
    inverse: np.ndarray

    def __post_init__(self):
        n = len(self.forward)
        if len(self.inverse) != n or not np.array_equal(self.forward[self.inverse], np.arange(n)):
            raise StructuralError("forward/inverse are not mutually inverse")

    @classmethod
    def identity(cls, n):
        idx = np.arange(n, dtype=np.int64)
        return cls(idx, idx.copy())

    @classmethod
    def from_forward(cls, forward):
        forward = np.asarray(forward, dtype=np.int64)
        inverse = np.empty_like(forward)
        inverse[forward] = np.arange(len(forward), dtype=np.int64)
        return cls(forward, inverse)


@dataclass(frozen=True)
class BandLayout:
    """Where the entries of one sparsity pattern sit in a padded band.

    Every matrix of the pattern is factorized into an array of ``shape``:
    band row ``half + i`` holds row i of the permuted matrix, entry (i, j) at
    band column ``j - i + half``, and ``half`` zero rows above and below let
    every row step of the elimination and of the substitutions address a
    full-width sheared view. Built once per pattern and ordering.
    """

    n: int
    half_bandwidth: int
    perm: Permutation
    rows: np.ndarray  # padded band row of every stored entry
    cols: np.ndarray  # band column of every stored entry

    @classmethod
    def of(cls, pattern: SparseMatrix, perm: Permutation | None = None) -> BandLayout:
        n = pattern.n_rows
        if perm is None:
            perm = Permutation.identity(n)
        if len(perm.forward) != n:
            raise StructuralError("permutation size does not match matrix")
        rows = perm.forward[pattern.row_of_entries()]
        cols = perm.forward[pattern.col_indices]
        half = int(np.max(np.abs(rows - cols))) if len(cols) else 0
        return cls(n, half, perm, rows + half, cols - rows + half)

    @property
    def shape(self):
        return (self.n + 2 * self.half_bandwidth, 2 * self.half_bandwidth + 1)

    def empty_stack(self, count) -> np.ndarray:
        """Writable ``(count,) + shape`` band stack, one slot per matrix.

        Consecutive slots overlap in their padding: the bottom padding rows
        of slot i are the top padding rows of slot i + 1. Padding is never
        read into a matrix row, so a slot can be refactorized without
        disturbing its neighbours. Slots start as the identity, so a stacked
        solve through a slot that was never factorized returns its
        right-hand side unchanged.
        """
        n, half = self.n, self.half_bandwidth
        buf = np.zeros((count * (n + half) + half, 2 * half + 1))
        s0, s1 = buf.strides
        bands = as_strided(buf, (count,) + self.shape, ((n + half) * s0, s0, s1))
        bands[:, half:half + n, half] = 1.0
        return bands

    def factors(self, bands) -> Factorization:
        """Read-only factorization view of one band or of a band stack."""
        view = bands.view()
        view.setflags(write=False)
        return Factorization(self.n, self.half_bandwidth, view, self.perm)


@dataclass(frozen=True)
class Factorization:
    """Banded LU factors of a permuted matrix, or of a stack of them.

    ``band`` is one padded band (see :class:`BandLayout`) or a stack of
    bands with a leading axis; L (unit diagonal, below) and U replace the
    matrix entries. The view is read-only, so a solve never mutates it. A
    factorization written into a slot of a band stack stays valid until the
    slot is factorized again.
    """

    n: int
    half_bandwidth: int
    band: np.ndarray
    perm: Permutation


def _adjacency(pattern: SparseMatrix):
    """Neighbor lists (diagonal excluded) of the pattern graph."""
    cols = pattern.col_indices
    off = pattern.row_offsets
    return [cols[off[i]:off[i + 1]][cols[off[i]:off[i + 1]] != i] for i in range(pattern.n_rows)]


def _pseudo_peripheral(adj, start, degrees):
    """Walk to a node of (near-)maximal eccentricity; deterministic."""
    node = start
    last_ecc = -1
    for _ in range(8):
        levels = _bfs_levels(adj, node)
        ecc = len(levels) - 1
        if ecc <= last_ecc:
            break
        last_ecc = ecc
        far = levels[-1]
        node = far[np.lexsort((far, degrees[far]))[0]]
    return node


def _bfs_levels(adj, root):
    seen = {root}
    level = [root]
    levels = [np.array([root], dtype=np.int64)]
    while True:
        nxt = []
        for u in level:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        if not nxt:
            return levels
        level = sorted(nxt)
        levels.append(np.array(level, dtype=np.int64))


def compute_ordering(pattern: SparseMatrix) -> Permutation:
    """Bandwidth-reducing permutation (reverse Cuthill-McKee).

    Deterministic for identical patterns. Requires a structurally symmetric
    pattern with no empty rows. If RCM would not improve on the natural
    ordering, the identity permutation is returned so the permuted bandwidth
    never exceeds the original one.
    """
    n = pattern.n_rows
    if n == 0:
        return Permutation.identity(0)
    if np.any(np.diff(pattern.row_offsets) == 0):
        raise StructuralError("pattern has an empty row")
    if not pattern.is_structurally_symmetric():
        raise StructuralError("pattern is not structurally symmetric")

    adj = _adjacency(pattern)
    degrees = np.array([len(a) for a in adj], dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    order = []
    while len(order) < n:
        remaining = np.flatnonzero(~visited)
        start = _pseudo_peripheral(adj, remaining[0], degrees)
        # Cuthill-McKee sweep of this component, children sorted by degree
        queue = [start]
        visited[start] = True
        while queue:
            u = queue.pop(0)
            order.append(u)
            nb = [v for v in adj[u] if not visited[v]]
            nb.sort(key=lambda v: (degrees[v], v))
            for v in nb:
                visited[v] = True
            queue.extend(nb)
    order.reverse()
    forward = np.empty(n, dtype=np.int64)
    forward[np.array(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
    perm = Permutation.from_forward(forward)

    rows = pattern.row_of_entries()
    new_bw = int(np.max(np.abs(forward[rows] - forward[pattern.col_indices])))
    if new_bw > pattern.bandwidth():
        return Permutation.identity(n)
    return perm


def factorize(a: SparseMatrix, perm: Permutation | BandLayout | None = None,
              out: np.ndarray | None = None) -> Factorization:
    """LU-factorize a sparse matrix under ``perm``.

    ``perm`` is a :class:`Permutation` or a :class:`BandLayout` built for
    the pattern of ``a`` (which skips recomputing the scatter indices); the
    band is sized from the largest permuted |i - j|. ``out`` is a writable
    slot of :meth:`BandLayout.empty_stack`: it is overwritten, and the
    returned factorization is a view of it (after a failure the slot holds
    no factorization until it is factorized again). Without ``out`` a new
    band is allocated.

    Banded Doolittle elimination with diagonal pivoting: a pivot whose
    magnitude falls at or below ``PIVOT_RTOL`` times the row's largest
    original magnitude raises :class:`SingularMatrixError` carrying the
    failing row index (original numbering). The result is reusable for any
    number of subsequent solves.
    """
    layout = perm if isinstance(perm, BandLayout) else BandLayout.of(a, perm)
    n, half = layout.n, layout.half_bandwidth
    if a.n_rows != n or len(a.values) != len(layout.rows):
        raise StructuralError("matrix does not match the band layout")
    if out is None:
        band = np.zeros(layout.shape)
    elif out.shape != layout.shape:
        raise StructuralError(f"band slot shape {out.shape} does not match {layout.shape}")
    else:
        band = out
        band.fill(0.0)
    band[layout.rows, layout.cols] = a.values
    if n == 0:
        return layout.factors(band)

    diag = band[half:half + n, half]
    # permuted-row scale for the pivot test
    tol = PIVOT_RTOL * np.abs(band[half:half + n]).max(axis=1)
    # Row step k, as views built once: L column k below the pivot, U row k
    # right of it, and the trailing block sheared one column left per row.
    # Near the last row the views reach into the zero padding.
    s0, s1 = band.strides
    lower = as_strided(band[half + 1:, half - 1:], (n, half), (s0, s0 - s1))
    trailing = as_strided(band[half + 1:, half:], (n, half, half), (s0, s0 - s1, s1))
    lower_col = lower[:, :, None]
    upper_row = band[half:half + n, None, half + 1:]
    update = np.empty((half, half))
    for k in range(n):
        piv = diag[k]
        if abs(piv) <= tol[k]:
            raise SingularMatrixError(layout.perm.inverse[k], piv)
        col = lower[k]
        np.divide(col, piv, out=col)
        np.multiply(lower_col[k], upper_row[k], out=update)
        block = trailing[k]
        np.subtract(block, update, out=block)
    return layout.factors(band)


def solve(f: Factorization, rhs: np.ndarray) -> np.ndarray:
    """Forward/backward substitution for one or many right-hand sides.

    For one factorization ``rhs`` is shaped (n,) or (n, m); for a stack of
    b factorizations it is (n, b, m), block ``rhs[:, i]`` solved against
    factorization i. The result matches. Every column and every stacked
    system goes through identical elementwise operations, so a stacked
    m-column solve equals the separate single-column solves bit for bit.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    n, half = f.n, f.half_bandwidth
    stacked = f.band.ndim == 3
    if stacked:
        ok = rhs.ndim == 3 and rhs.shape[:2] == (n, f.band.shape[0])
    else:
        ok = rhs.ndim in (1, 2) and rhs.shape[0] == n
    if not ok:
        raise StructuralError(
            f"rhs shape {rhs.shape} does not match factorized dimension {n}"
        )
    if n == 0:
        return rhs.copy()
    bands = f.band if stacked else f.band[None]
    blocks = rhs if stacked else rhs.reshape(n, 1, -1)
    b, m = blocks.shape[1:]
    # x[half + i] holds row i of every system, so each row step updates one
    # contiguous block of rows
    x = np.zeros((n + 2 * half, b, m))
    x[half:half + n] = blocks[f.perm.inverse]
    # views built once: L column k below the diagonal, U column k above it
    # (rows k-h..k-1), and the pivots, each with the stack axis inside
    sb, s0, s1 = bands.strides
    lower = as_strided(bands[:, half + 1:, half - 1:], (n, half, b, 1), (s0, s0 - s1, sb, 0))
    upper = as_strided(bands[:, :, 2 * half:], (n, half, b, 1), (s0, s0 - s1, sb, 0))
    diag = as_strided(bands[:, half:, half], (n, b, 1), (s0, sb, 0))
    update = np.empty((half, b, m))
    for k in range(n - 1):  # L has unit diagonal
        np.multiply(lower[k], x[half + k], out=update)
        rows = x[half + k + 1:2 * half + k + 1]
        np.subtract(rows, update, out=rows)
    for k in range(n - 1, -1, -1):
        xk = x[half + k]
        np.divide(xk, diag[k], out=xk)
        np.multiply(upper[k], xk, out=update)
        rows = x[k:half + k]
        np.subtract(rows, update, out=rows)
    out = x[half:half + n][f.perm.forward]
    return out if stacked else out.reshape(rhs.shape)
