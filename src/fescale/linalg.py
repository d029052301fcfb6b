"""Linear algebra substrate: retained dense factors from numpy's LAPACK.

The retained factor of a matrix is its inverse: a factorization inverts a
dense matrix, and every later solve is one matrix-vector product per
right-hand-side column. A solve never mutates the factorization. Matrices of
one size can be factorized into the slots of one stack (:func:`empty_stack`)
and solved together in one stacked call, bit for bit as if solved one by one.

Dense storage bounds the size: a system of more than ``MAX_DENSE_N``
unknowns is refused when a two-scale model is built. Reverse Cuthill-McKee
ordering of a matrix's nonzero pattern stays available
(:func:`compute_ordering`); the dense kernel does not need it.
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


def empty_stack(count, n) -> np.ndarray:
    """Writable ``(count, n, n)`` stack of retained factors, one slot per matrix.

    Slots start as the identity, so a stacked solve through a slot that was
    never factorized returns its right-hand side unchanged.
    """
    stack = np.zeros((count, n, n))
    np.einsum("kii->ki", stack)[:] = 1.0
    return stack


def factors(stack) -> Factorization:
    """Read-only factorization view of one slot or of a stack of slots."""
    view = stack.view()
    view.setflags(write=False)
    return Factorization(stack.shape[-1], view)


def _adjacency(nz):
    """Neighbor lists (diagonal excluded) of the graph of a nonzero pattern."""
    return [np.flatnonzero(row) for row in nz & ~np.eye(len(nz), dtype=bool)]


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


def compute_ordering(a: np.ndarray) -> np.ndarray:
    """Bandwidth-reducing ordering (reverse Cuthill-McKee) of the nonzeros of ``a``.

    Returns the forward index array: row i of ``a`` becomes row
    ``forward[i]``. Deterministic for identical patterns. Requires a
    structurally symmetric pattern with no empty rows. If RCM would not
    improve on the natural ordering, the identity is returned so the
    permuted bandwidth never exceeds the original one.
    """
    nz = np.asarray(a) != 0
    n = len(nz)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if not nz.any(axis=1).all():
        raise StructuralError("pattern has an empty row")
    if not np.array_equal(nz, nz.T):
        raise StructuralError("pattern is not structurally symmetric")

    adj = _adjacency(nz)
    degrees = np.array([len(nbrs) for nbrs in adj], dtype=np.int64)
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

    rows, cols = np.nonzero(nz)
    if np.abs(forward[rows] - forward[cols]).max() > np.abs(rows - cols).max():
        return np.arange(n, dtype=np.int64)
    return forward


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


def factorize(a: np.ndarray, out: np.ndarray | None = None) -> Factorization:
    """Retained factor of a dense square matrix: its inverse, from numpy's LAPACK.

    ``out`` is a writable slot of :func:`empty_stack`: it receives the
    inverse, and the returned factorization is a view of it; after a failure
    the slot is left as it was. Without ``out`` a new array is allocated.

    A matrix that LAPACK finds singular, whose inverse is not finite, or
    whose condition number ||A||_inf * ||A^-1||_inf reaches 1 / PIVOT_RTOL
    raises :class:`SingularMatrixError` naming the first row that is
    numerically dependent on the rows before it. The result is reusable for
    any number of subsequent solves.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError(f"matrix shape {a.shape} is not square")
    if out is not None and out.shape != a.shape:
        raise StructuralError(f"slot shape {out.shape} does not match {a.shape}")
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inverse = None
    if (inverse is None or not np.isfinite(inverse).all()
            or _inf_norm(a) * _inf_norm(inverse) >= 1.0 / PIVOT_RTOL):
        raise SingularMatrixError(*_dependent_row(a))
    if out is None:
        out = inverse
    else:
        out[...] = inverse
    return factors(out)


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
