"""Tests for element kinematics: B-operators, weights, stiffness pattern."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from fescale.errors import MeshQualityError
from fescale.mesh import (
    QUAD4,
    TRI3,
    AssemblyPlan,
    ElementBlock,
    Mesh,
    count_pieces,
    structure_of_stiffness,
)
from tests_support import build_integration_points, total_area


def unit_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh(nodes, [ElementBlock(TRI3, [[0, 1, 2]])])


def unit_quad():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return Mesh(nodes, [ElementBlock(QUAD4, [[0, 1, 2, 3]])])


def distorted_quad():
    nodes = np.array([[0.0, 0.0], [1.3, 0.1], [1.1, 0.9], [-0.2, 1.2]])
    return Mesh(nodes, [ElementBlock(QUAD4, [[0, 1, 2, 3]])])


def two_triangles():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return Mesh(nodes, [ElementBlock(TRI3, [[0, 1, 2], [1, 3, 2]])])


class TestIntegrationPoints:
    def test_unit_triangle_hand_values(self):
        pts = build_integration_points(unit_triangle())
        assert len(pts) == 1
        ip = pts[0]
        assert ip.weight == pytest.approx(0.5, abs=1e-15)
        # dN1/dx = -1, dN1/dy = -1, dN2/dx = 1, dN3/dy = 1
        expected = np.zeros((4, 6))
        expected[0, 0::2] = [-1.0, 1.0, 0.0]
        expected[1, 0::2] = [-1.0, 0.0, 1.0]
        expected[2, 1::2] = [-1.0, 1.0, 0.0]
        expected[3, 1::2] = [-1.0, 0.0, 1.0]
        assert_allclose(ip.b_operator, expected, atol=1e-15)

    def test_unit_quad_weights(self):
        pts = build_integration_points(unit_quad())
        assert len(pts) == 4
        assert_allclose([ip.weight for ip in pts], 0.25, rtol=1e-15)

    def test_rigid_translation_zero_gradient(self):
        for mesh in (unit_triangle(), distorted_quad()):
            u = np.tile([0.37, -1.2], mesh.n_nodes)
            for ip in build_integration_points(mesh):
                assert_allclose(ip.b_operator @ u[ip.dofs], 0.0, atol=1e-14)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_patch_linear_field_reproduced(self, seed):
        g = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(2, 2))
        for mesh in (unit_triangle(), unit_quad(), distorted_quad(), two_triangles()):
            u = (mesh.nodes @ g.T).ravel()
            for ip in build_integration_points(mesh):
                h = ip.b_operator @ u[ip.dofs]
                assert_allclose(h, g.ravel(), atol=1e-12)

    def test_weights_sum_to_area(self):
        for mesh, area in ((unit_triangle(), 0.5), (unit_quad(), 1.0), (two_triangles(), 1.0)):
            assert total_area(mesh) == pytest.approx(area, rel=1e-12)
        dq = distorted_quad()
        x, y = dq.nodes[:, 0], dq.nodes[:, 1]
        shoelace = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        assert total_area(dq) == pytest.approx(shoelace, rel=1e-12)

    def test_per_element_weight_sum(self):
        mesh = distorted_quad()
        pts = build_integration_points(mesh)
        assert sum(ip.weight for ip in pts) == pytest.approx(total_area(mesh), rel=1e-12)

    def test_negative_jacobian_names_element(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mesh = Mesh(nodes, [ElementBlock(TRI3, [[0, 2, 1]])])  # clockwise
        with pytest.raises(MeshQualityError) as exc:
            build_integration_points(mesh)
        assert exc.value.element == 0


class TestCountPieces:
    # two unit quads side by side, joined along x = 1 or only at (1, 1)
    NODES = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [2.0, 0.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]])

    def test_elements_sharing_an_edge_are_one_piece(self):
        mesh = Mesh(self.NODES, [ElementBlock(QUAD4, [[0, 1, 2, 3], [1, 4, 5, 2]])])
        assert count_pieces(mesh) == 1

    def test_elements_sharing_only_a_node_are_two_pieces(self):
        mesh = Mesh(self.NODES, [ElementBlock(QUAD4, [[0, 1, 2, 3], [2, 5, 6, 7]])])
        assert count_pieces(mesh) == 2

    def test_blocks_join_across_a_shared_edge(self):
        mesh = Mesh(self.NODES, [ElementBlock(QUAD4, [[0, 1, 2, 3]]),
                                 ElementBlock(TRI3, [[1, 4, 5], [1, 5, 2]])])
        assert count_pieces(mesh) == 1


class TestStiffnessPattern:
    def test_single_triangle_dense(self):
        mesh = unit_triangle()
        pat = structure_of_stiffness(mesh, np.arange(6))
        assert pat.n_rows == 6
        assert len(pat.col_indices) == 36

    def test_shared_edge_uncoupled_corners(self):
        mesh = two_triangles()
        pat = structure_of_stiffness(mesh, np.arange(8))
        dense = pat.to_dense()
        rows = pat.row_of_entries()
        coupled = set(zip(rows.tolist(), pat.col_indices.tolist()))
        # nodes 0 and 3 never share an element
        for i in (0, 1):
            for j in (6, 7):
                assert (i, j) not in coupled and (j, i) not in coupled
        assert dense.shape == (8, 8)

    def test_quad_grid_matches_brute_force(self):
        # 4x4 grid of quads, 25 nodes
        nx = ny = 4
        nodes = np.array([[i, j] for j in range(ny + 1) for i in range(nx + 1)], dtype=float)
        conn = []
        for j in range(ny):
            for i in range(nx):
                n0 = j * (nx + 1) + i
                conn.append([n0, n0 + 1, n0 + nx + 2, n0 + nx + 1])
        mesh = Mesh(nodes, [ElementBlock(QUAD4, conn)])
        dof_map = np.arange(mesh.n_dofs)
        pat = structure_of_stiffness(mesh, dof_map)

        expected = np.zeros((mesh.n_dofs, mesh.n_dofs), dtype=bool)
        for row in conn:
            dofs = np.array([[2 * n, 2 * n + 1] for n in row]).ravel()
            expected[np.ix_(dofs, dofs)] = True
        got = np.zeros_like(expected)
        got[pat.row_of_entries(), pat.col_indices] = True
        assert np.array_equal(got, expected)

    def test_pattern_respects_dof_map_elimination(self):
        mesh = unit_triangle()
        dof_map = np.array([-1, -1, 0, 1, 2, 3])
        pat = structure_of_stiffness(mesh, dof_map)
        assert pat.n_rows == 4
        assert len(pat.col_indices) == 16

    def test_pattern_structurally_symmetric(self):
        pat = structure_of_stiffness(two_triangles(), np.arange(8))
        assert pat.is_structurally_symmetric()


def mixed_mesh():
    """Two triangles and two distorted quads on a 3x1 strip: two element blocks."""
    nodes = np.array([[i, j] for j in range(2) for i in range(4)], dtype=float)
    nodes[[1, 2, 5, 6]] += np.random.default_rng(5).uniform(-0.15, 0.15, (4, 2))
    return Mesh(nodes, [
        ElementBlock(TRI3, [[2, 3, 7], [2, 7, 6]]),
        ElementBlock(QUAD4, [[0, 1, 5, 4], [1, 2, 6, 5]]),
    ])


class TestAssemblyPlan:
    """The plan's block kernels against an element-by-element oracle."""

    def setup_method(self):
        self.mesh = mesh = mixed_mesh()
        # node 0 and the y DOF of node 4 eliminated, the x DOF of node 7
        # merged onto that of node 3 (as a periodic slave onto its master)
        dof_map = np.full(mesh.n_dofs, -1, dtype=np.int64)
        kept = [d for d in range(mesh.n_dofs) if d not in (0, 1, 9, 14)]
        dof_map[kept] = np.arange(len(kept))
        dof_map[14] = dof_map[6]
        self.dof_map = dof_map
        self.pattern = structure_of_stiffness(mesh, dof_map)
        self.plan = AssemblyPlan(mesh, dof_map, self.pattern)
        self.points = build_integration_points(mesh)
        rng = np.random.default_rng(8)
        n_ip = len(self.points)
        self.u = rng.standard_normal(mesh.n_dofs)
        self.sigma = rng.standard_normal((n_ip, 4))
        self.d = rng.standard_normal((n_ip, 4, 4))

    def test_point_order_and_weights(self):
        assert [len(b.w.ravel()) for b in self.plan.blocks] == [2, 8]
        assert self.plan.n_ip == len(self.points) == 10
        assert_array_equal(self.plan.ip_element, [ip.element for ip in self.points])
        assert_allclose(self.plan.weights, [ip.weight for ip in self.points], rtol=1e-12)

    def test_gradients(self):
        expected = [ip.b_operator @ self.u[ip.dofs] for ip in self.points]
        assert_allclose(self.plan.gradients(self.u), expected, rtol=1e-12)

    def test_internal_force(self):
        expected = np.zeros(self.mesh.n_dofs)
        for ip, sig in zip(self.points, self.sigma):
            expected[ip.dofs] += ip.weight * ip.b_operator.T @ sig
        assert_allclose(self.plan.internal_force(self.sigma), expected, rtol=1e-12)

    def test_stiffness(self):
        n_el = self.mesh.n_elements
        ke = [0.0] * n_el
        for ip, d in zip(self.points, self.d):
            ke[ip.element] = ke[ip.element] + ip.weight * ip.b_operator.T @ d @ ip.b_operator
        dense = np.zeros((self.pattern.n_rows,) * 2)
        for e, ip in {ip.element: ip for ip in self.points}.items():
            red = self.dof_map[ip.dofs]
            keep = np.flatnonzero(red >= 0)
            np.add.at(dense, (red[keep][:, None], red[keep][None, :]), ke[e][np.ix_(keep, keep)])
        kvals, kes = self.plan.stiffness(self.d)
        assert_allclose(self.pattern.with_values(kvals).to_dense(), dense, rtol=1e-12)
        per_element = [k for block in kes for k in block]
        assert len(per_element) == n_el
        for got, want in zip(per_element, ke):
            assert_allclose(got, want, rtol=1e-12)
