"""Linear algebra substrate.

CSR matrices with a structurally symmetric pattern, and retained dense
factors computed by numpy's LAPACK. The retained factor of a matrix is its
inverse: a factorization scatters the CSR values into a dense buffer and
inverts it, and every later solve is one matrix-vector product per
right-hand-side column. A solve never mutates the factorization. Matrices of
one pattern can be factorized into the slots of one stack and solved
together in one stacked call, bit for bit as if solved one by one.

Dense storage bounds the size: a system of more than ``MAX_DENSE_N``
unknowns is refused when a two-scale model is built. Reverse Cuthill-McKee
ordering stays available for patterns (:func:`compute_ordering`); the
dense kernel does not need it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fescale.errors import SingularMatrixError, StructuralError

# A matrix whose condition number ||A||_inf * ||A^-1||_inf reaches
# 1 / PIVOT_RTOL raises SingularMatrixError instead of being inverted.
PIVOT_RTOL = 1e-14
# Largest dense system: one retained factor takes n^2 * 8 bytes (2.9 MB at
# n = 600) per RVE, and its inversion grows as n^3.
MAX_DENSE_N = 600


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
class DenseLayout:
    """Where the entries of one sparsity pattern sit in a dense (n, n) matrix.

    Built once per pattern: ``flat`` holds the row-major index i * n + j of
    every stored entry, so a matrix of the pattern scatters into a dense
    buffer in one indexed assignment.
    """

    n: int
    flat: np.ndarray

    @classmethod
    def of(cls, pattern: SparseMatrix) -> DenseLayout:
        n = pattern.n_rows
        return cls(n, pattern.row_of_entries() * n + pattern.col_indices)

    def empty_stack(self, count) -> np.ndarray:
        """Writable ``(count, n, n)`` stack of retained factors, one slot per matrix.

        Slots start as the identity, so a stacked solve through a slot that
        was never factorized returns its right-hand side unchanged.
        """
        stack = np.zeros((count, self.n, self.n))
        np.einsum("kii->ki", stack)[:] = 1.0
        return stack

    def factors(self, stack) -> Factorization:
        """Read-only factorization view of one slot or of a stack of slots."""
        view = stack.view()
        view.setflags(write=False)
        return Factorization(self.n, view)


@dataclass(frozen=True)
class Factorization:
    """The retained factor of a matrix, its inverse, or a stack of them.

    ``inverse`` is (n, n) or, for a stack, (b, n, n). The view is read-only,
    so a solve never mutates it. A factor written into a slot of a stack
    stays valid until the slot is factorized again.
    """

    n: int
    inverse: np.ndarray

    @property
    def half_bandwidth(self):
        """n - 1: the factor is dense."""
        return max(self.n - 1, 0)


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


def _inf_norm(m):
    return np.abs(m).sum(axis=1).max(initial=0.0)


def _dependent_row(dense):
    """(row, distance) of the first row numerically dependent on the rows before it.

    |R[k, k]| of the QR factorization of the transpose is the distance of
    row k from the span of rows 0..k-1. The first row whose distance is at
    most sqrt(PIVOT_RTOL) of its own norm is named, else the row that is
    relatively nearest to the span of the rows before it.
    """
    dist = np.abs(np.diagonal(np.linalg.qr(dense.T, mode="r")))
    rel = dist / np.maximum(np.linalg.norm(dense, axis=1), np.finfo(np.float64).tiny)
    weak = np.flatnonzero(rel <= np.sqrt(PIVOT_RTOL))
    k = int(weak[0]) if weak.size else int(np.argmin(rel))
    return k, dist[k]


def factorize(a: SparseMatrix, layout: DenseLayout | None = None,
              out: np.ndarray | None = None) -> Factorization:
    """Retained factor of a sparse matrix: its inverse, from numpy's LAPACK.

    ``layout`` is the :class:`DenseLayout` of the pattern of ``a`` (built
    here when not given). ``out`` is a writable slot of
    :meth:`DenseLayout.empty_stack`: it receives the inverse, and the
    returned factorization is a view of it; after a failure the slot is
    left as it was. Without ``out`` a new array is allocated.

    A matrix that LAPACK finds singular, whose inverse is not finite, or
    whose condition number ||A||_inf * ||A^-1||_inf reaches 1 / PIVOT_RTOL
    raises :class:`SingularMatrixError` naming the first row that is
    numerically dependent on the rows before it. The result is reusable for
    any number of subsequent solves.
    """
    layout = DenseLayout.of(a) if layout is None else layout
    n = layout.n
    if a.n_rows != n or len(a.values) != len(layout.flat):
        raise StructuralError("matrix does not match the dense layout")
    if out is not None and out.shape != (n, n):
        raise StructuralError(f"slot shape {out.shape} does not match {(n, n)}")
    dense = np.zeros(n * n)
    dense[layout.flat] = a.values
    dense = dense.reshape(n, n)
    try:
        inverse = np.linalg.inv(dense)
    except np.linalg.LinAlgError:
        inverse = None
    if (inverse is None or not np.isfinite(inverse).all()
            or _inf_norm(dense) * _inf_norm(inverse) >= 1.0 / PIVOT_RTOL):
        raise SingularMatrixError(*_dependent_row(dense))
    if out is None:
        out = inverse
    else:
        out[...] = inverse
    return layout.factors(out)


def solve(f: Factorization, rhs: np.ndarray) -> np.ndarray:
    """Apply the retained factor to one or many right-hand sides.

    For one factorization ``rhs`` is shaped (n,) or (n, m); for a stack of
    b factorizations it is (n, b, m), block ``rhs[:, i]`` solved against
    factorization i. The result matches. Each column is one batched
    matrix-vector product over the stack, so a column's result depends only
    on its own matrix and vector: a stacked m-column solve equals the
    separate single-column solves bit for bit.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    n = f.n
    stacked = f.inverse.ndim == 3
    if stacked:
        ok = rhs.ndim == 3 and rhs.shape[:2] == (n, f.inverse.shape[0])
    else:
        ok = rhs.ndim in (1, 2) and rhs.shape[0] == n
    if not ok:
        raise StructuralError(
            f"rhs shape {rhs.shape} does not match factorized dimension {n}"
        )
    if n == 0:
        return rhs.copy()
    inverses = f.inverse if stacked else f.inverse[None]
    blocks = rhs if stacked else rhs.reshape(n, 1, -1)
    x = np.empty(blocks.shape)
    for j in range(blocks.shape[2]):
        # contiguous operands keep every column on the same BLAS path
        col = np.ascontiguousarray(blocks[:, :, j].T)[..., None]
        x[:, :, j] = np.matmul(inverses, col)[..., 0].T
    return x if stacked else x.reshape(rhs.shape)
