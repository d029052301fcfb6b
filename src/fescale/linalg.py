"""Linear algebra substrate: dense LU solves from numpy's LAPACK.

A factorization is one LU solve. :func:`factorize` solves a dense square
matrix, in one LAPACK call, for the right-hand sides known at that point
and returns them solved (``Factorization.columns``); the solve is also what
finds a singular matrix. numpy keeps no LU factor between calls, so each
later :func:`solve` of a factorization factorizes its matrix again: a caller
that needs several columns of one matrix passes them to :func:`factorize`
together. No inverse is formed: an LU solve takes about (2/3) n^3 flops
against (8/3) n^3 for an inverse, and is the more accurate of the two
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002,
ch. 14).

Every solve appends a fixed probe column z, z_i = cos(i), so ||z||_inf = 1.
Its solution gives ||A||_inf ||A^-1 z||_inf, a lower bound on the condition
number (Dixon 1983, SIAM J. Numer. Anal. 20(4)), for 2n^2 flops. It also
keeps every solve at two or more columns, where LAPACK gives a column the
same bits whatever the other columns hold (a one-column solve takes another
path).

Dense storage bounds the size: a system of more than ``MAX_DENSE_N``
unknowns is refused when a two-scale model is built. Reverse Cuthill-McKee
ordering of a matrix's nonzero pattern stays available
(:func:`compute_ordering`); the dense kernel does not need it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from fescale.errors import SingularMatrixError, StructuralError

# A matrix whose probe estimate ||A||_inf * ||A^-1 z||_inf / ||z||_inf of the
# condition number reaches 1 / PIVOT_RTOL raises SingularMatrixError.
PIVOT_RTOL = 1e-14
# Largest dense system: an LU solve grows as n^3 and holds the n^2 * 8 byte
# matrix (2.9 MB at n = 600) while it runs; nothing of that size is kept.
MAX_DENSE_N = 600


@dataclass(frozen=True)
class Factorization:
    """A dense square matrix that passed an LU solve, and the columns it solved.

    ``matrix`` is a read-only view of the factorized matrix, which
    :func:`solve` solves again; ``columns`` holds the right-hand sides given
    to :func:`factorize`, solved.
    """

    n: int
    matrix: np.ndarray
    columns: np.ndarray

    @property
    def half_bandwidth(self):
        """n - 1: the matrix is dense."""
        return max(self.n - 1, 0)


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


@lru_cache(maxsize=8)
def _probe(n):
    """The probe column z_i = cos(i) of an n-unknown solve, built once per size."""
    z = np.cos(np.arange(n))
    z.setflags(write=False)
    return z


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


def factorize(a: np.ndarray, rhs: np.ndarray | None = None) -> Factorization:
    """LU-solve a dense square matrix for ``rhs``, shaped (n,) or (n, m), in one call.

    The solution, shaped as ``rhs`` ((n, 0) without it), is the returned
    factorization's ``columns``. The factorization keeps a read-only view
    of ``a``, which must not change while the factorization is solved
    again. A singular matrix raises :class:`SingularMatrixError` (see
    :func:`solve`).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError(f"matrix shape {a.shape} is not square")
    view = a.view()
    view.setflags(write=False)
    columns = _lu_solve(view, np.zeros((len(a), 0)) if rhs is None else rhs)
    return Factorization(len(a), view, columns)


def solve(f: Factorization, rhs: np.ndarray) -> np.ndarray:
    """LU-solve the factorized matrix again for ``rhs``, shaped (n,) or (n, m); the result matches.

    One LAPACK call on the right-hand sides with the probe column appended.
    A matrix that LAPACK finds singular, a result that is not finite, or a
    probe estimate ||A||_inf * ||A^-1 z||_inf of the condition number that
    reaches 1 / PIVOT_RTOL raises :class:`SingularMatrixError` naming the
    first row that is numerically dependent on the rows before it.
    """
    return _lu_solve(f.matrix, rhs)


def _lu_solve(a, rhs):
    """One LAPACK solve of ``a`` for ``rhs`` and the probe column; see :func:`solve`."""
    rhs = np.asarray(rhs, dtype=np.float64)
    n = len(a)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise StructuralError(
            f"rhs shape {rhs.shape} does not match factorized dimension {n}"
        )
    if n == 0:
        return rhs.copy()
    block = np.empty((n, rhs.size // n + 1))
    block[:, :-1] = rhs.reshape(n, -1)
    block[:, -1] = _probe(n)
    try:
        x = np.linalg.solve(a, block)
    except np.linalg.LinAlgError:
        x = None
    if (x is None or not np.isfinite(x).all()
            or _inf_norm(a) * np.abs(x[:, -1]).max() >= 1.0 / PIVOT_RTOL):
        raise SingularMatrixError(*_dependent_row(a))
    return x[:, :-1].reshape(rhs.shape)
