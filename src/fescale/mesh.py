"""Finite-element geometry, kinematics and assembly shared by both scales.

Two-dimensional meshes of linear triangles (one quadrature point) and
bilinear quads (2x2 Gauss), both served by one isoparametric kernel that
each kind drives with its integration rule (parent shape-function
derivatives and weights). The B-operator of an integration point maps the
element nodal displacements, interleaved node-major as (ux0, uy0, ux1, ...),
to the four displacement-gradient components (H11, H12, H21, H22). One
:class:`AssemblyPlan` per mesh and DOF map computes gradients, internal
forces and the tangent stiffness for the macro system and every RVE; a
stiffness is kept as its packed values on the plan's index ``flat``, which
only the plan reads: it scatters them into a dense matrix to be factorized
and takes their infinity norms.

The element kernels are stacked matrix products (``np.matmul``, one BLAS
call per element and batch row) on operators laid out at plan build, and
every sum over elements is one :func:`scatter_add` pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fescale.errors import MeshQualityError, StructuralError

TRI3 = "tri3"
QUAD4 = "quad4"

# integration rule of each element kind: parent shape-function derivatives
# dN/dxi (point, node, parent direction) and weights; one point for the
# triangle, the 2x2 Gauss rule on [-1, 1]^2 for the quad
_GP = 1.0 / np.sqrt(3.0)
_RULES = {
    TRI3: (np.array([[[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]]), np.array([0.5])),
    QUAD4: (np.array([0.25 * np.array([[-(1 - eta), -(1 - xi)], [1 - eta, -(1 + xi)],
                                       [1 + eta, 1 + xi], [-(1 + eta), 1 - xi]])
                      for xi, eta in [(-_GP, -_GP), (_GP, -_GP), (_GP, _GP), (-_GP, _GP)]]),
            np.ones(4)),
}


@dataclass(frozen=True)
class ElementBlock:
    """Homogeneous group of elements of one kind."""

    kind: str
    connectivity: np.ndarray

    def __post_init__(self):
        conn = np.asarray(self.connectivity, dtype=np.int64)
        object.__setattr__(self, "connectivity", conn)
        if self.kind not in _RULES:
            raise StructuralError(f"unknown element kind {self.kind!r}")
        expected = _RULES[self.kind][0].shape[1]
        if conn.ndim != 2 or conn.shape[1] != expected:
            raise StructuralError(f"{self.kind} connectivity must be (n, {expected})")

    @property
    def n_elements(self):
        return self.connectivity.shape[0]

    @property
    def n_quad(self):
        return len(_RULES[self.kind][1])


@dataclass(frozen=True)
class Mesh:
    """Nodes in the reference configuration plus element blocks."""

    nodes: np.ndarray
    blocks: tuple[ElementBlock, ...]

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise StructuralError("nodes must be an (n, 2) array")
        for block in self.blocks:
            if block.connectivity.size and block.connectivity.max() >= len(nodes):
                raise StructuralError("connectivity index exceeds node count")
            if block.connectivity.size and block.connectivity.min() < 0:
                raise StructuralError("negative connectivity index")

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_dofs(self):
        return 2 * self.n_nodes

    @property
    def n_elements(self):
        return sum(b.n_elements for b in self.blocks)


def block_operators(mesh: Mesh, block: ElementBlock, first_element: int):
    """Stacked (weights, B) arrays of one block: (n_el, n_q) and (n_el, n_q, 4, 2*n_en).

    One isoparametric pass per quadrature point of the kind's rule; the
    weights include the Jacobian determinant. A non-positive determinant
    raises :class:`MeshQualityError` naming the element (numbered from
    ``first_element``).
    """
    dn_rule, w_rule = _RULES[block.kind]
    xy = np.swapaxes(mesh.nodes[block.connectivity], 1, 2)  # (e, 2, n_en)
    n_el, _, n_en = xy.shape
    w = np.empty((n_el, len(w_rule)))
    dndx = np.empty((n_el, len(w_rule), n_en, 2))
    for q, dn in enumerate(dn_rule):
        jac = np.einsum("ar,ena->enr", dn, xy)  # (e, 2, 2): dx_n/dxi_r
        detj = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        bad = np.flatnonzero(detj <= 0.0)
        if bad.size:
            raise MeshQualityError(first_element + bad[0], detj[bad[0]])
        inv = np.stack([jac[:, 1, 1], -jac[:, 0, 1], -jac[:, 1, 0], jac[:, 0, 0]],
                       axis=1).reshape(-1, 2, 2) / detj[:, None, None]  # dxi_r/dx_n
        dndx[:, q] = np.einsum("ar,erx->eax", dn, inv)
        w[:, q] = w_rule[q] * detj
    b = np.zeros((n_el, len(w_rule), 4, 2 * n_en))
    b[..., 0, 0::2] = b[..., 2, 1::2] = dndx[..., 0]  # H11 = dux/dx, H21 = duy/dx
    b[..., 1, 0::2] = b[..., 3, 1::2] = dndx[..., 1]  # H12 = dux/dy, H22 = duy/dy
    return w, b


def scatter_add(index, parts, size):
    """Sums into (..., size) arrays of the values ``parts`` at positions ``index`` (m,).

    ``parts`` are (..., m_i) arrays whose concatenation along the last axis
    matches ``index``; a single part is used in place. One ``np.bincount``
    covers every row, each row's indices offset by row * size. It adds in
    index order from zero, the order of the unbuffered ``ufunc.at`` form of
    ``np.add`` into zeros, so the sums equal that form's bit for bit.
    """
    values = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    lead = values.shape[:-1]
    rows = np.arange(math.prod(lead))[:, None]
    out = np.bincount((rows * size + index).ravel(), values.ravel(), rows.size * size)
    return out.astype(np.float64, copy=False).reshape(lead + (size,))


def element_dofs(conn):
    """Interleaved node-major DOF indices per element: (n_el, 2*n_en)."""
    n_el, n_en = conn.shape
    dofs = np.empty((n_el, 2 * n_en), dtype=np.int64)
    dofs[:, 0::2] = 2 * conn
    dofs[:, 1::2] = 2 * conn + 1
    return dofs


@dataclass(frozen=True)
class PlanBlock:
    """One element block of an :class:`AssemblyPlan`.

    ``w`` (n_el, n_q) holds the integration weights; ``Bq`` (n_el, n_q*4,
    2*n_en) is B with the points stacked, and ``wBt`` (n_el, 2*n_en, n_q*4)
    the transpose of w*B, both contiguous. ``red`` holds the reduced
    equation of every element DOF (-1 = eliminated); ``ips`` is the block's
    slice of the global integration-point order.
    """

    w: np.ndarray
    Bq: np.ndarray
    wBt: np.ndarray
    edofs: np.ndarray
    red: np.ndarray
    ips: slice


class AssemblyPlan:
    """Element kernel of one mesh under one DOF map, used at both scales.

    Built once per mesh and DOF map. A stiffness of the ``n`` reduced
    equations is kept packed: its values on ``flat``, the sorted row-major
    indices i * n + j of the reduced DOF pairs (i, j) that meet in some
    element, which is structurally symmetric by construction. Outside the
    plan a stiffness is read through :meth:`dense` and :meth:`inf_norms`
    only, so the packed layout is the plan's alone. Integration
    points are numbered block by block, element-major then quadrature-local;
    per-point arrays follow that order.

    Leading axes of the kernels' arguments are a batch (one row per RVE at
    the micro scale). Each row's operands keep the layout of a single row,
    so every row is computed by the same BLAS calls and comes out bit for
    bit as it would alone.
    """

    def __init__(self, mesh: Mesh, dof_map: np.ndarray):
        self.n_dofs = mesh.n_dofs
        self.n = n = int(dof_map.max(initial=-1)) + 1
        self.blocks = []
        empty = np.zeros(0, dtype=np.int64)
        ip_element = [empty]
        first_el = first_ip = 0
        for block in mesh.blocks:
            w, b = block_operators(mesh, block, first_el)
            bq = b.reshape(w.shape[0], -1, b.shape[-1])
            wbt = np.ascontiguousarray(np.swapaxes((w[..., None, None] * b).reshape(bq.shape), 1, 2))
            edofs = element_dofs(block.connectivity)
            self.blocks.append(PlanBlock(w, bq, wbt, edofs, dof_map[edofs],
                                         slice(first_ip, first_ip + w.size)))
            ip_element.append(np.repeat(first_el + np.arange(block.n_elements), block.n_quad))
            first_el += block.n_elements
            first_ip += w.size
        self.n_ip = first_ip
        self.ip_element = np.concatenate(ip_element)
        self.weights = np.concatenate([np.zeros(0)] + [blk.w.ravel() for blk in self.blocks])
        # scatter indices of every block, in block order: the DOF of each
        # element force entry, and the packed-value slot of each element
        # stiffness entry, the rank of its DOF pair's key i * n + j among
        # all keys; a pair off the reduced rows and columns takes the key
        # n * n, above every kept one, so its rank is len(flat), a spare slot
        self.dof_index = np.concatenate([empty] + [blk.edofs.ravel() for blk in self.blocks])
        pairs = [(blk.red[:, :, None], blk.red[:, None, :]) for blk in self.blocks]
        keys = [np.where((i >= 0) & (j >= 0), i * n + j, n * n).ravel() for i, j in pairs]
        distinct, self.slot_index = sorted_unique(np.concatenate([empty] + keys))
        self.flat = distinct[distinct < n * n]
        # where each row's segment of the packed values starts (``flat`` is row-major)
        self._row_starts = np.flatnonzero(np.diff(self.flat // n, prepend=-1))

    def dense(self, values, out=None):
        """Dense matrices (..., n, n) of packed stiffness values (..., len(flat)).

        With ``out``, a C-contiguous array of that shape, fills it in place,
        whatever it held, and returns it.
        """
        out = np.empty(values.shape[:-1] + (self.n, self.n)) if out is None else out
        out.fill(0.0)
        # the last axis indexed as the first of the transposes: an Ellipsis
        # index would cost a few microseconds on every one-matrix call
        out.reshape(values.shape[:-1] + (-1,)).T[self.flat] = values.T
        return out

    def inf_norms(self, values):
        """||K||_inf (...,) of packed stiffness values (..., len(flat)): each one's largest row sum of |K|.

        One sum over each row's segment of the packed values, not over the
        n x n matrix; a non-finite value in either triangle makes it
        non-finite.
        """
        return np.add.reduceat(np.abs(values), self._row_starts, axis=-1).max(axis=-1)

    def gradients(self, u):
        """Displacement gradients (..., n_ip, 4) of nodal displacements ``u`` (..., n_dofs)."""
        out = np.empty(u.shape[:-1] + (self.n_ip, 4))
        for blk in self.blocks:
            # take() lays each row's element DOFs out contiguously, as for one row
            g = blk.Bq @ np.take(u, blk.edofs, axis=-1)[..., None]
            out[..., blk.ips, :] = g.reshape(u.shape[:-1] + (-1, 4))
        return out

    def internal_force(self, sigma):
        """Nodal forces (..., n_dofs), sum of B^T w sigma, of per-point stresses (..., n_ip, 4)."""
        lead = sigma.shape[:-2]
        fe = [(blk.wBt @ sigma[..., blk.ips, :].reshape(lead + (len(blk.w), -1, 1)))
              .reshape(lead + (-1,)) for blk in self.blocks]
        return scatter_add(self.dof_index, fe, self.n_dofs)

    def stiffness(self, d):
        """Packed values (..., len(flat)) of sum B^T w D B, and each block's element stiffness.

        ``d`` holds per-point tangents (..., n_ip, 4, 4). Element stiffnesses
        are returned whole, (..., n_el, 2*n_en, 2*n_en) per block; only
        entries on reduced rows and columns enter the packed values.
        """
        lead = d.shape[:-3]
        kes = []
        for blk in self.blocks:
            n_el, n_q = blk.w.shape
            db = d[..., blk.ips, :, :].reshape(lead + (n_el, n_q, 4, 4)) @ blk.Bq.reshape(n_el, n_q, 4, -1)
            kes.append(blk.wBt @ db.reshape(lead + blk.Bq.shape))
            del db  # a batch's temporaries are large: each is freed once used
        kvals = scatter_add(self.slot_index, [ke.reshape(lead + (-1,)) for ke in kes], len(self.flat) + 1)
        return kvals[..., :-1], kes


def sorted_unique(keys):
    """The distinct values of ``keys`` (non-negative integers), ascending, and each key's rank among them.

    One sort: a key's rank is the number of distinct values below it, the
    same for equal keys in whatever order the sort leaves them, so the sort
    need not be stable.
    """
    order = np.argsort(keys)
    first = np.diff(keys[order], prepend=-1) != 0
    rank = np.empty_like(order)
    rank[order] = np.cumsum(first) - 1
    return keys[order][first], rank


def count_pieces(mesh: Mesh):
    """Number of pieces the elements form when joined across shared edges.

    Elements that meet at a single node do not join: such a node is a hinge,
    about which a piece can turn freely.
    """
    keys, owner = [], []
    first = 0
    for block in mesh.blocks:
        conn = block.connectivity
        ends = np.sort(np.stack([conn, np.roll(conn, -1, axis=1)], axis=2), axis=2)
        keys.append((ends[..., 0] * mesh.n_nodes + ends[..., 1]).ravel())
        owner.append(first + np.repeat(np.arange(len(conn)), conn.shape[1]))
        first += len(conn)
    if not first:
        return 0
    keys, owner = np.concatenate(keys), np.concatenate(owner)
    order = np.argsort(keys, kind="stable")
    keys, owner = keys[order], owner[order]
    shared = np.flatnonzero(keys[1:] == keys[:-1])
    left, right = owner[shared], owner[shared + 1]
    label = np.arange(first)
    while True:
        before = label.copy()
        np.minimum.at(label, left, label[right])
        np.minimum.at(label, right, label[left])
        label = label[label]
        if np.array_equal(label, before):
            return len(sorted_unique(label)[0])
