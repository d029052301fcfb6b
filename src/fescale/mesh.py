"""Finite-element geometry, kinematics and assembly shared by both scales.

Two-dimensional meshes of linear triangles (one quadrature point) and
bilinear quads (2x2 Gauss). The B-operator of an integration point maps the
element nodal displacements, interleaved node-major as (ux0, uy0, ux1, ...),
to the four displacement-gradient components (H11, H12, H21, H22). One
:class:`AssemblyPlan` per mesh and DOF map computes gradients, internal
forces and the tangent stiffness for the macro system and every RVE; a
stiffness is kept as its packed values on the plan's index ``flat`` and
scattered into a dense matrix when it is factorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fescale.errors import MeshQualityError, StructuralError

TRI3 = "tri3"
QUAD4 = "quad4"

# parent coordinates and weights of the 2x2 Gauss rule on [-1, 1]^2
_GP = 1.0 / np.sqrt(3.0)
_QUAD_POINTS = np.array([[-_GP, -_GP], [_GP, -_GP], [_GP, _GP], [-_GP, _GP]])


@dataclass(frozen=True)
class ElementBlock:
    """Homogeneous group of elements of one kind."""

    kind: str
    connectivity: np.ndarray

    def __post_init__(self):
        conn = np.asarray(self.connectivity, dtype=np.int64)
        object.__setattr__(self, "connectivity", conn)
        expected = {TRI3: 3, QUAD4: 4}.get(self.kind)
        if expected is None:
            raise StructuralError(f"unknown element kind {self.kind!r}")
        if conn.ndim != 2 or conn.shape[1] != expected:
            raise StructuralError(f"{self.kind} connectivity must be (n, {expected})")

    @property
    def n_elements(self):
        return self.connectivity.shape[0]

    @property
    def n_quad(self):
        return 1 if self.kind == TRI3 else 4


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


def _tri3_arrays(conn, nodes, first_element):
    """Batched weights/B/coordinates for a linear-triangle block."""
    xy = nodes[conn]                      # (e, 3, 2)
    d1 = xy[:, 1] - xy[:, 0]
    d2 = xy[:, 2] - xy[:, 0]
    detj = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    bad = np.flatnonzero(detj <= 0.0)
    if bad.size:
        raise MeshQualityError(first_element + bad[0], detj[bad[0]])
    area = 0.5 * detj
    # constant shape-function gradients: dN/dx via the inverse Jacobian
    dndx = np.empty((len(conn), 3, 2))
    dndx[:, 1, 0] = d2[:, 1] / detj
    dndx[:, 1, 1] = -d2[:, 0] / detj
    dndx[:, 2, 0] = -d1[:, 1] / detj
    dndx[:, 2, 1] = d1[:, 0] / detj
    dndx[:, 0] = -dndx[:, 1] - dndx[:, 2]
    b = np.zeros((len(conn), 1, 4, 6))
    for a in range(3):
        b[:, 0, 0, 2 * a] = dndx[:, a, 0]      # H11 = dux/dx
        b[:, 0, 1, 2 * a] = dndx[:, a, 1]      # H12 = dux/dy
        b[:, 0, 2, 2 * a + 1] = dndx[:, a, 0]  # H21 = duy/dx
        b[:, 0, 3, 2 * a + 1] = dndx[:, a, 1]  # H22 = duy/dy
    w = area.reshape(-1, 1)
    coords = xy.mean(axis=1).reshape(-1, 1, 2)
    return w, b, coords


def _quad4_arrays(conn, nodes, first_element):
    """Batched weights/B/coordinates for a bilinear-quad block (2x2 Gauss)."""
    xy = nodes[conn]                      # (e, 4, 2)
    n_el = len(conn)
    w = np.empty((n_el, 4))
    b = np.zeros((n_el, 4, 4, 8))
    coords = np.empty((n_el, 4, 2))
    for q, (xi, eta) in enumerate(_QUAD_POINTS):
        shape = 0.25 * np.array([
            (1 - xi) * (1 - eta), (1 + xi) * (1 - eta),
            (1 + xi) * (1 + eta), (1 - xi) * (1 + eta),
        ])
        dn = 0.25 * np.array([
            [-(1 - eta), -(1 - xi)],
            [(1 - eta), -(1 + xi)],
            [(1 + eta), (1 + xi)],
            [-(1 + eta), (1 - xi)],
        ])                                # (4 nodes, 2 parent dirs)
        jac = np.einsum("ar,ena->enr", dn, np.swapaxes(xy, 1, 2))  # (e, 2, 2): dx_n/dxi_r
        detj = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        bad = np.flatnonzero(detj <= 0.0)
        if bad.size:
            raise MeshQualityError(first_element + bad[0], detj[bad[0]])
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1] / detj
        inv[:, 0, 1] = -jac[:, 0, 1] / detj
        inv[:, 1, 0] = -jac[:, 1, 0] / detj
        inv[:, 1, 1] = jac[:, 0, 0] / detj
        dndx = np.einsum("ar,erx->eax", dn, inv)  # (e, 4 nodes, 2)
        w[:, q] = detj  # unit Gauss weights on the 2x2 rule
        for a in range(4):
            b[:, q, 0, 2 * a] = dndx[:, a, 0]
            b[:, q, 1, 2 * a] = dndx[:, a, 1]
            b[:, q, 2, 2 * a + 1] = dndx[:, a, 0]
            b[:, q, 3, 2 * a + 1] = dndx[:, a, 1]
        coords[:, q] = shape @ xy
    return w, b, coords


def block_operators(mesh: Mesh, block: ElementBlock, first_element: int):
    """Stacked (weights, B, coordinates) arrays for one block.

    Shapes: weights (n_el, n_q), B (n_el, n_q, 4, 2*n_en),
    coordinates (n_el, n_q, 2). Weights include the Jacobian determinant.
    """
    if block.kind == TRI3:
        return _tri3_arrays(block.connectivity, mesh.nodes, first_element)
    return _quad4_arrays(block.connectivity, mesh.nodes, first_element)


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

    ``red`` holds the reduced equation of every element DOF (-1 =
    eliminated); ``slots`` are the packed-value positions (in the plan's
    ``flat``) of the entries of the element stiffness selected by ``kept``;
    ``ips`` is the block's slice of the global integration-point order.
    """

    w: np.ndarray
    B: np.ndarray
    edofs: np.ndarray
    red: np.ndarray
    kept: np.ndarray
    slots: np.ndarray
    ips: slice


class AssemblyPlan:
    """Element kernel of one mesh under one DOF map, used at both scales.

    Built once per mesh and DOF map. A stiffness of the ``n`` reduced
    equations is kept packed: its values on ``flat``, the sorted row-major
    indices i * n + j of the reduced DOF pairs (i, j) that meet in some
    element, which is structurally symmetric by construction. Integration
    points are numbered block by block, element-major then quadrature-local;
    per-point arrays follow that order.
    """

    def __init__(self, mesh: Mesh, dof_map: np.ndarray):
        self.n_dofs = mesh.n_dofs
        self.n = n = int(dof_map.max(initial=-1)) + 1
        reds = [dof_map[element_dofs(block.connectivity)] for block in mesh.blocks]
        keys = [red[:, :, None] * n + red[:, None, :] for red in reds]
        kept = [(red[:, :, None] >= 0) & (red[:, None, :] >= 0) for red in reds]
        self.flat = np.unique(np.concatenate([np.zeros(0, dtype=np.int64)]
                                             + [k[m] for k, m in zip(keys, kept)]))
        self.blocks = []
        ip_element = [np.zeros(0, dtype=np.int64)]
        first_el = first_ip = 0
        for block, red, key, keep in zip(mesh.blocks, reds, keys, kept):
            w, b, _ = block_operators(mesh, block, first_el)
            self.blocks.append(PlanBlock(w, b, element_dofs(block.connectivity), red, keep,
                                         np.searchsorted(self.flat, key[keep]),
                                         slice(first_ip, first_ip + w.size)))
            ip_element.append(np.repeat(first_el + np.arange(block.n_elements), block.n_quad))
            first_el += block.n_elements
            first_ip += w.size
        self.n_ip = first_ip
        self.ip_element = np.concatenate(ip_element)
        self.weights = np.concatenate([np.zeros(0)] + [blk.w.ravel() for blk in self.blocks])

    def dense(self, values):
        """Dense matrices (..., n, n) of packed stiffness values (..., len(flat))."""
        out = np.zeros(values.shape[:-1] + (self.n * self.n,))
        out[..., self.flat] = values
        return out.reshape(values.shape[:-1] + (self.n, self.n))

    def gradients(self, u):
        """Displacement gradients (..., n_ip, 4) of nodal displacements ``u`` (..., n_dofs).

        Leading axes are a batch (one row per RVE at the micro scale); each
        row comes out as it would alone.
        """
        out = np.empty(u.shape[:-1] + (self.n_ip, 4))
        for blk in self.blocks:
            # take() keeps each row's element DOFs contiguous, as einsum's
            # summation order (and so the bits) depends on the layout
            g = np.einsum("eqab,...eb->...eqa", blk.B, np.take(u, blk.edofs, axis=-1))
            out[..., blk.ips, :] = g.reshape(u.shape[:-1] + (-1, 4))
        return out

    def internal_force(self, sigma):
        """Nodal forces (..., n_dofs), sum of B^T w sigma, of per-point stresses (..., n_ip, 4)."""
        lead = sigma.shape[:-2]
        f = np.zeros(lead + (self.n_dofs,))
        for blk in self.blocks:
            sig = sigma[..., blk.ips, :].reshape(lead + blk.w.shape + (4,))
            fe = np.einsum("eqab,...eqa->...eb", blk.B, blk.w[..., None] * sig)
            np.add.at(f, (..., blk.edofs.ravel()), fe.reshape(lead + (-1,)))
        return f

    def stiffness(self, d):
        """Packed values (..., len(flat)) of sum B^T w D B, and each block's element stiffness.

        ``d`` holds per-point tangents (..., n_ip, 4, 4). Element stiffnesses
        are returned whole, (..., n_el, 2*n_en, 2*n_en) per block; only
        entries on reduced rows and columns enter the packed values.
        """
        lead = d.shape[:-3]
        kvals = np.zeros(lead + (len(self.flat),))
        kes = []
        for blk in self.blocks:
            dw = blk.w[..., None, None] * d[..., blk.ips, :, :].reshape(lead + blk.w.shape + (4, 4))
            tmp = np.einsum("eqab,...eqac->...eqbc", blk.B, dw)
            del dw  # a batch's temporaries are large: each is freed once used
            ke = np.einsum("...eqbc,eqcd->...ebd", tmp, blk.B)
            del tmp
            np.add.at(kvals, (..., blk.slots), ke[..., blk.kept])
            kes.append(ke)
        return kvals, kes


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
            return len(np.unique(label))
