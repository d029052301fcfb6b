"""Tests for element kinematics: B-operators, weights, the stiffness index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from fescale.benchmarks import (
    BENCHMARK_BUILDERS,
    BUILTIN_RVES,
    build_benchmark,
    rve_porous_quad,
    rve_porous_tri,
)
from fescale.errors import MeshQualityError
from fescale.mesh import (
    QUAD4,
    TRI3,
    AssemblyPlan,
    ElementBlock,
    Mesh,
    count_pieces,
    element_dofs,
    scatter_add,
    sorted_unique,
)
from fescale.rve import MicroGeometry
from tests_support import PLASTIC, build_integration_points, total_area


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
    # a quad block and a triangle block sharing the edge x = 1, y in [0, 1]
    MIXED = [ElementBlock(QUAD4, [[0, 1, 2, 3]]), ElementBlock(TRI3, [[1, 4, 5], [1, 5, 2]])]

    def test_elements_sharing_an_edge_are_one_piece(self):
        mesh = Mesh(self.NODES, [ElementBlock(QUAD4, [[0, 1, 2, 3], [1, 4, 5, 2]])])
        assert count_pieces(mesh) == 1

    def test_elements_sharing_only_a_node_are_two_pieces(self):
        mesh = Mesh(self.NODES, [ElementBlock(QUAD4, [[0, 1, 2, 3], [2, 5, 6, 7]])])
        assert count_pieces(mesh) == 2

    def test_blocks_join_across_a_shared_edge(self):
        assert count_pieces(Mesh(self.NODES, self.MIXED)) == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=50))
def test_sorted_unique_matches_np_unique(values):
    keys = np.array(values, dtype=np.int64)
    distinct, rank = sorted_unique(keys)
    want, inverse = np.unique(keys, return_inverse=True)
    assert_array_equal(distinct, want)
    assert_array_equal(rank, inverse)
    assert rank.dtype == np.int64


def stiffness_pattern(mesh, dof_map):
    """The plan's packed-value index ``flat`` as a dense boolean (n, n) pattern."""
    plan = AssemblyPlan(mesh, np.asarray(dof_map))
    pattern = np.zeros(plan.n * plan.n, dtype=bool)
    pattern[plan.flat] = True
    return plan, pattern.reshape(plan.n, plan.n)


class TestStiffnessPattern:
    def test_single_triangle_dense(self):
        plan, pattern = stiffness_pattern(unit_triangle(), np.arange(6))
        assert plan.n == 6 and len(plan.flat) == 36 and pattern.all()

    def test_shared_edge_uncoupled_corners(self):
        _, pattern = stiffness_pattern(two_triangles(), np.arange(8))
        # nodes 0 and 3 never share an element
        assert pattern.shape == (8, 8)
        assert not pattern[:2, 6:].any() and not pattern[6:, :2].any()

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
        expected = np.zeros((mesh.n_dofs, mesh.n_dofs), dtype=bool)
        for row in conn:
            dofs = np.array([[2 * n, 2 * n + 1] for n in row]).ravel()
            expected[np.ix_(dofs, dofs)] = True
        _, pattern = stiffness_pattern(mesh, np.arange(mesh.n_dofs))
        assert_array_equal(pattern, expected)

    def test_pattern_respects_dof_map_elimination(self):
        plan, _ = stiffness_pattern(unit_triangle(), [-1, -1, 0, 1, 2, 3])
        assert plan.n == 4 and len(plan.flat) == 16

    def test_pattern_structurally_symmetric(self):
        # two blocks, eliminated DOFs and a slave DOF merged onto its master:
        # flat is sorted and unique, symmetric, and holds exactly the pairs
        # of reduced DOFs that meet in some element
        mesh, dof_map = mixed_mesh(), mixed_dof_map()
        plan, pattern = stiffness_pattern(mesh, dof_map)
        assert np.all(np.diff(plan.flat) > 0)
        assert_array_equal(pattern, pattern.T)
        expected = np.zeros_like(pattern)
        for block in mesh.blocks:
            for nodes in block.connectivity:
                red = dof_map[np.ravel([[2 * n, 2 * n + 1] for n in nodes])]
                red = red[red >= 0]
                expected[np.ix_(red, red)] = True
        assert_array_equal(pattern, expected)


def reference_pattern(mesh, dof_map):
    """``flat`` and ``slot_index`` of a plan by ``np.unique`` and ``np.searchsorted``.

    ``flat`` holds the distinct keys i * n + j of the element DOF pairs
    that are both kept; a kept pair's slot is its key's position in
    ``flat``, an eliminated one's the spare slot len(flat).
    """
    n = int(dof_map.max(initial=-1)) + 1
    reds = [dof_map[element_dofs(block.connectivity)] for block in mesh.blocks]
    keys = np.concatenate([(red[:, :, None] * n + red[:, None, :]).ravel() for red in reds])
    kept = np.concatenate([((red[:, :, None] >= 0) & (red[:, None, :] >= 0)).ravel() for red in reds])
    flat = np.unique(keys[kept])
    return flat, np.where(kept, np.searchsorted(flat, keys), len(flat))


# the benchmark sizes whose plans are checked
PLAN_SIZES = {"notched-shear": {"n_macro": 6, "n_micro": 6},
              "notched-bending-2d": {"nx": 10, "ny": 3, "n_micro": 6},
              "plate-hole-tension": {"n_macro": 6, "n_micro": 6}}


def shipped_plans():
    """(name, mesh, dof_map, plan) of every benchmark's macro and micro mesh and the mixed test meshes.

    The benchmarks are built at ``PLAN_SIZES``; the built-in RVEs at their default resolutions.
    """
    for name in sorted(BENCHMARK_BUILDERS):
        model = build_benchmark(name, "monolithic-stored", **PLAN_SIZES[name])
        system, geom = model.system, model.micro_geometry
        dof_map = np.full(system.mesh.n_dofs, -1, dtype=np.int64)
        dof_map[system.free] = np.arange(system.n_free)
        yield f"{name}-macro", system.mesh, dof_map, system.plan
        yield f"{name}-micro", geom.mesh, geom.pmap.dof_map, geom.plan
    for name, (builder, phases, n) in BUILTIN_RVES.items():  # at each default resolution
        geom = MicroGeometry(builder(*[PLASTIC] * phases, **({} if n is None else {"n": n})))
        yield f"{name}-rve", geom.mesh, geom.pmap.dof_map, geom.plan
    mesh = Mesh(TestCountPieces.NODES[:6], TestCountPieces.MIXED)
    # node 0 and the y DOF of node 4 eliminated, the x DOF of node 5 merged
    # onto that of node 1
    eliminated = np.full(12, -1, dtype=np.int64)
    kept = [d for d in range(12) if d not in (0, 1, 9, 10)]
    eliminated[kept] = np.arange(len(kept))
    eliminated[10] = eliminated[2]
    for dof_map in (np.arange(12), eliminated):
        yield "count-pieces-mixed", mesh, dof_map, AssemblyPlan(mesh, dof_map)
    mesh, dof_map = mixed_mesh(), mixed_dof_map()
    yield "mixed", mesh, dof_map, AssemblyPlan(mesh, dof_map)


def test_plan_pattern_equals_unique_and_searchsorted():
    # one sort of every block's pair keys gives the plan's packed index and
    # scatter slots as a sorted unique pass and a search over it do
    names = []
    for name, mesh, dof_map, plan in shipped_plans():
        flat, slots = reference_pattern(mesh, dof_map)
        assert_array_equal(plan.flat, flat, err_msg=name)
        assert_array_equal(plan.slot_index, slots, err_msg=name)
        assert plan.flat.dtype == plan.slot_index.dtype == np.int64
        names.append(name)
    assert len(names) == 14


def mixed_mesh():
    """Two triangles and two distorted quads on a 3x1 strip: two element blocks."""
    nodes = np.array([[i, j] for j in range(2) for i in range(4)], dtype=float)
    nodes[[1, 2, 5, 6]] += np.random.default_rng(5).uniform(-0.15, 0.15, (4, 2))
    return Mesh(nodes, [
        ElementBlock(TRI3, [[2, 3, 7], [2, 7, 6]]),
        ElementBlock(QUAD4, [[0, 1, 5, 4], [1, 2, 6, 5]]),
    ])


def mixed_dof_map():
    """DOF map of :func:`mixed_mesh` with eliminated and merged DOFs.

    Node 0 and the y DOF of node 4 are eliminated, and the x DOF of node 7
    is merged onto that of node 3 (as a periodic slave onto its master).
    """
    dof_map = np.full(16, -1, dtype=np.int64)
    kept = [d for d in range(16) if d not in (0, 1, 9, 14)]
    dof_map[kept] = np.arange(len(kept))
    dof_map[14] = dof_map[6]
    return dof_map


class TestAssemblyPlan:
    """The plan's block kernels against an element-by-element oracle."""

    def setup_method(self):
        self.mesh = mesh = mixed_mesh()
        self.dof_map = dof_map = mixed_dof_map()
        self.plan = AssemblyPlan(mesh, dof_map)
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
        dense = np.zeros((self.plan.n,) * 2)
        for e, ip in {ip.element: ip for ip in self.points}.items():
            red = self.dof_map[ip.dofs]
            keep = np.flatnonzero(red >= 0)
            np.add.at(dense, (red[keep][:, None], red[keep][None, :]), ke[e][np.ix_(keep, keep)])
        kvals, kes = self.plan.stiffness(self.d)
        assert_allclose(self.plan.dense(kvals), dense, rtol=1e-12)
        per_element = [k for block in kes for k in block]
        assert len(per_element) == n_el
        for got, want in zip(per_element, ke):
            assert_allclose(got, want, rtol=1e-12)


PLANS = {
    "tri3-rve": lambda: MicroGeometry(rve_porous_tri(PLASTIC, n=4)).plan,
    "quad4-rve": lambda: MicroGeometry(rve_porous_quad(PLASTIC, n=4)).plan,
    "mixed": lambda: AssemblyPlan(mixed_mesh(), mixed_dof_map()),
}


def kernel_inputs(plan, rows, seed=11):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((rows, plan.n_dofs)), rng.standard_normal((rows, plan.n_ip, 4)),
            rng.standard_normal((rows, plan.n_ip, 4, 4)))


def kernel_outputs(plan, u, sigma, d):
    kvals, kes = plan.stiffness(d)
    return [plan.gradients(u), plan.internal_force(sigma), kvals] + kes


class TestBatchedKernels:
    """Each batch row comes out of the plan's kernels as it does alone, bit for bit."""

    @pytest.mark.parametrize("rows", [1, 3, 16, "masked", "strided"])
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_rows_equal_single_row_calls_bitwise(self, name, rows):
        plan = PLANS[name]()
        if rows == "masked":  # a boolean selection of scattered rows (a copy)
            pick = np.arange(20) % 3 != 1
            inputs = [x[pick] for x in kernel_inputs(plan, 20)]
        elif rows == "strided":  # every third row, a non-contiguous view
            inputs = [x[::3] for x in kernel_inputs(plan, 20)]
        else:
            inputs = kernel_inputs(plan, rows)
        batch = kernel_outputs(plan, *inputs)
        for i in range(len(inputs[0])):
            alone = kernel_outputs(plan, *(x[i:i + 1] for x in inputs))
            unbatched = kernel_outputs(plan, *(x[i] for x in inputs))  # as the macro system calls
            for got, want, plain in zip(batch, alone, unbatched):
                assert_array_equal(got[i], want[0])
                assert_array_equal(got[i], plain)

    def test_scatter_equals_add_at_where_blocks_share_slots(self):
        plan = PLANS["mixed"]()
        d = kernel_inputs(plan, 3)[2]
        kvals, kes = plan.stiffness(d)
        tri, quad = np.split(plan.slot_index, [kes[0][0].size])
        assert np.intersect1d(tri[tri < len(plan.flat)], quad).size
        want = np.zeros((3, len(plan.flat) + 1))  # the last slot takes the eliminated entries
        np.add.at(want, (..., plan.slot_index), np.concatenate([ke.reshape(3, -1) for ke in kes], axis=1))
        assert_array_equal(kvals, want[:, :-1])
        values = np.random.default_rng(2).standard_normal((3, len(plan.dof_index)))
        want = np.zeros((3, plan.n_dofs))
        np.add.at(want, (..., plan.dof_index), values)
        assert_array_equal(scatter_add(plan.dof_index, [values], plan.n_dofs), want)
