"""Linear algebra substrate: dense Cholesky solves from numpy's bundled LAPACK.

A factorization is one Cholesky solve. :func:`factorize` solves a dense
symmetric positive definite (SPD) matrix, in one LAPACK ``dposv`` call, for
the right-hand sides known at that point and returns them solved
(``Factorization.columns``); the solve is also what finds a singular
matrix. No factor is kept between calls, so each later :func:`solve` of a
factorization factorizes its matrix again: a caller that needs several
columns of one matrix passes them to :func:`factorize` together. No
inverse is formed: a Cholesky solve takes about (1/3) n^3 flops, half an
LU solve's (2/3) n^3, against (8/3) n^3 for an LU inverse (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 10
and 14).

A caller that solves many matrices of one size in a row, such as a micro
sweep over the RVEs of a shard, prepares the work around LAPACK once for
all of them: their right-hand sides already in LAPACK's row layout with the
probe row (:func:`probe_blocks`), each ||A||_inf from its packed values,
and one check of every solve afterwards (:func:`probe_passed`). Each
matrix then costs one ``factorize(a, block, prepared=True)`` call, which
solves ``block`` in place and lets LAPACK overwrite the caller's scratch
matrix ``a``: no copy, no transpose and no probe check per matrix.

The contract is that every matrix is SPD: the micro stiffness (J2 with
hardening h >= 0, rigid modes removed by the periodic map and the anchor)
and the macro tangent (the symmetric condensed tangent, rigid modes
removed by the Dirichlet data). LAPACK reads one triangle, the upper one
of the C-order matrix, which is its own Fortran transpose. A matrix that
is not positive definite (an indefinite or singular one) raises
:class:`SingularMatrixError`. ``dposv`` is looked up once in the OpenBLAS
library that numpy's wheels ship (:func:`openblas_function`); with a numpy
built without it, each solve falls back to ``np.linalg.solve``, an LU solve
that accepts any nonsingular matrix.

Every solve appends a fixed probe column z, z_i = cos(i), so ||z||_inf = 1.
Its solution gives ||A||_inf ||A^-1 z||_inf, a lower bound on the condition
number (Dixon 1983, SIAM J. Numer. Anal. 20(4)), for 2n^2 flops; a matrix
whose ||A||_inf is not finite, a NaN in the triangle LAPACK does not read
included, fails the same test. It also keeps every solve at two or more
columns (a one-column solve takes another path). Only up to a block width
that depends on n does LAPACK then give a column the same bits whatever
the other columns hold: at n = 116 up to 40 right-hand sides at least, at
n = 436 up to 10, and at 12 no column keeps its one-column bits. The
solver's layouts are fixed (1 or 5 right-hand sides per micro solve, within
the limit at n = 436; n + 4 once per micro model), so its bits do not
depend on what other columns hold.

Dense storage bounds the size: a system of more than ``MAX_DENSE_N``
unknowns is refused when a two-scale model is built. Reverse Cuthill-McKee
ordering of a matrix's nonzero pattern stays available
(:func:`compute_ordering`); the dense kernel does not need it.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from dataclasses import dataclass

import numpy as np

from fescale.errors import SingularMatrixError, StructuralError

# A matrix whose probe estimate ||A||_inf * ||A^-1 z||_inf / ||z||_inf of the
# condition number is not below 1 / PIVOT_RTOL raises SingularMatrixError.
PIVOT_RTOL = 1e-14
# Largest dense system: a solve grows as n^3 and holds the matrix and its
# factor, n^2 * 8 bytes each (2.9 MB at n = 600), while it runs; nothing of
# that size is kept.
MAX_DENSE_N = 600


@dataclass(frozen=True)
class Factorization:
    """A dense SPD matrix that passed a Cholesky solve, and the columns it solved.

    ``matrix`` is a read-only view of the factorized matrix, which
    :func:`solve` solves again; ``columns`` holds the right-hand sides given
    to :func:`factorize`, solved. A prepared solve keeps no matrix.
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


@functools.lru_cache(maxsize=8)
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


def factorize(a: np.ndarray, rhs: np.ndarray | None = None, prepared: bool = False) -> Factorization:
    """Cholesky-solve a dense SPD matrix for ``rhs``, shaped (n,) or (n, m), in one call.

    The solution, shaped as ``rhs`` ((n, 0) without it), is the returned
    factorization's ``columns``. The factorization keeps a read-only view
    of ``a``, which must not change while the factorization is solved
    again. A matrix that is singular or not positive definite raises
    :class:`SingularMatrixError` (see :func:`solve`).

    ``prepared=True`` is one solve of a prepared batch (see the module
    docstring): ``a`` is a symmetric C-order float64 scratch matrix, whose
    upper triangle LAPACK may overwrite with the factor, and ``rhs`` one
    (m + 1, n) block of :func:`probe_blocks`, solved in place and returned
    as ``columns``; ``matrix`` is None. Only a matrix that LAPACK finds not
    positive definite raises :class:`SingularMatrixError`, its rows named
    from the lower triangle, which LAPACK leaves as it is; the caller checks
    the probe rows (:func:`probe_passed`).
    """
    if prepared:
        x = _cholesky_solve(a, rhs)
        if x is None:
            raise SingularMatrixError(*_dependent_row(np.tril(a) + np.tril(a, -1).T))
        if x is not rhs:
            rhs[...] = x
        return Factorization(len(a), None, rhs)
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError(f"matrix shape {a.shape} is not square")
    view = a.view()
    view.setflags(write=False)
    columns = _checked_solve(view, np.zeros((len(a), 0)) if rhs is None else rhs)
    return Factorization(len(a), view, columns)


def solve(f: Factorization, rhs: np.ndarray) -> np.ndarray:
    """Cholesky-solve the factorized matrix again for ``rhs``, shaped (n,) or (n, m); the result matches.

    One LAPACK call on the right-hand sides with the probe column appended.
    A matrix that LAPACK finds singular or not positive definite, a result
    that is not finite, or a probe estimate ||A||_inf * ||A^-1 z||_inf of
    the condition number that is not below 1 / PIVOT_RTOL raises
    :class:`SingularMatrixError` naming the first row that is numerically
    dependent on the rows before it.
    """
    return _checked_solve(f.matrix, rhs)


def probe_blocks(count, m, n):
    """Right-hand-side blocks (count, m + 1, n) of ``count`` solves of m columns of an n-unknown matrix.

    Row j < m of a block is right-hand side j, for the caller to fill, and
    row m the probe; each block is C order, which is LAPACK's column-major
    (n, m + 1).
    """
    blocks = np.empty((count, m + 1, n))
    blocks[:, m] = _probe(n)
    return blocks


def probe_passed(blocks, norms):
    """Per solved block of :func:`probe_blocks` (k, m + 1, n), whether its solve stands.

    It does when every value is finite and the probe estimate
    ``norms`` (k,) ||A||_inf times ||A^-1 z||_inf of the condition number
    is below 1 / PIVOT_RTOL; a non-finite ||A||_inf fails.
    """
    return np.isfinite(blocks).all(axis=(1, 2)) & (norms * np.abs(blocks[:, -1]).max(axis=1)
                                                   < 1.0 / PIVOT_RTOL)


def _checked_solve(a, rhs):
    """One LAPACK solve of ``a`` for ``rhs`` and the probe column; see :func:`solve`."""
    rhs = np.asarray(rhs, dtype=np.float64)
    n = len(a)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise StructuralError(
            f"rhs shape {rhs.shape} does not match factorized dimension {n}"
        )
    if n == 0:
        return rhs.copy()
    m = rhs.size // n
    block = probe_blocks(1, m, n)
    block[0, :m] = rhs.reshape(n, m).T
    x = _cholesky_solve(np.array(a, dtype=np.float64, order="C"), block[0])
    if x is None or not probe_passed(x[None], _inf_norm(a))[0]:
        raise SingularMatrixError(*_dependent_row(a))
    return x[:m].T.reshape(rhs.shape)


@functools.cache
def bundled_openblas():
    """The OpenBLAS library bundled with numpy, as a ``ctypes.CDLL``, or None.

    numpy's wheels ship ``libscipy_openblas64_`` in ``numpy.libs``: its
    ILP64 LAPACK and its thread-count calls, which numpy itself does not
    expose. A numpy built on another BLAS has no such library. Loaded once
    per process; a forked process inherits the cache.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            pass
    return None


def openblas_function(name, argtypes, restype=None):
    """Function ``name`` of :func:`bundled_openblas` with its ctypes signature, or None."""
    func = getattr(bundled_openblas(), name, None)
    if func is not None:
        func.argtypes, func.restype = argtypes, restype
    return func


_INT64 = ctypes.POINTER(ctypes.c_int64)


@functools.cache
def _dposv():
    """LAPACK's dposv (ILP64, with the trailing length of its character argument), or None."""
    return openblas_function("scipy_dposv_64_", (ctypes.c_char_p, _INT64, _INT64, ctypes.c_void_p,
                                                 _INT64, ctypes.c_void_p, _INT64, _INT64, ctypes.c_size_t))


def _cholesky_solve(a, block):
    """Solve ``a`` x = b for the rows b of ``block`` (m, n), in place; None if LAPACK fails.

    ``dposv`` factorizes ``a``, a C-order float64 matrix, in place: it reads
    its upper triangle (the lower one of the Fortran matrix, ``uplo`` "L")
    and overwrites it with the factor. Without it, ``np.linalg.solve`` (LU)
    solves into a new array instead and leaves ``a`` as it is. This is the
    kernel's one entry point to LAPACK.
    """
    dposv = _dposv()
    if dposv is None:
        try:
            return np.linalg.solve(a, block.T).T
        except np.linalg.LinAlgError:
            return None
    n, info = ctypes.c_int64(len(a)), ctypes.c_int64()
    dposv(b"L", n, ctypes.c_int64(len(block)), a.ctypes.data, n, block.ctypes.data, n, info, 1)
    return block if info.value == 0 else None
