"""Tests for the linear algebra substrate: ordering, retained factors, multi-RHS solves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from fescale import rve as R
from fescale.benchmarks import build_benchmark, default_materials, rve_porous_quad, rve_porous_tri
from fescale.errors import SingularMatrixError, StructuralError
from fescale.linalg import (
    PIVOT_RTOL,
    DenseLayout,
    Permutation,
    SparseMatrix,
    compute_ordering,
    factorize,
    solve,
)


def bandwidth_of(pattern, perm):
    """Exhaustive bandwidth evaluation of a permuted pattern (test oracle)."""
    rows = pattern.row_of_entries()
    return int(np.max(np.abs(perm.forward[rows] - perm.forward[pattern.col_indices])))


def tridiagonal_pattern(n):
    rows, cols = [], []
    for i in range(n):
        for j in (i - 1, i, i + 1):
            if 0 <= j < n:
                rows.append(i)
                cols.append(j)
    return SparseMatrix.from_coo(n, rows, cols)


def five_point_grid_pattern(nx, ny):
    n = nx * ny
    rows, cols = [], []
    for iy in range(ny):
        for ix in range(nx):
            i = iy * nx + ix
            for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
                jx, jy = ix + dx, iy + dy
                if 0 <= jx < nx and 0 <= jy < ny:
                    rows.append(i)
                    cols.append(jy * nx + jx)
    return SparseMatrix.from_coo(n, rows, cols)


def arrow_pattern(n):
    rows = list(range(n)) + [n - 1] * (n - 1) + list(range(n - 1))
    cols = list(range(n)) + list(range(n - 1)) + [n - 1] * (n - 1)
    return SparseMatrix.from_coo(n, rows, cols)


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    return SparseMatrix.from_dense(a)


class TestComputeOrdering:
    def test_tridiagonal_stays_optimal(self):
        pat = tridiagonal_pattern(10)
        perm = compute_ordering(pat)
        assert bandwidth_of(pat, perm) == 1

    def test_five_point_grid_bandwidth(self):
        pat = five_point_grid_pattern(4, 4)
        perm = compute_ordering(pat)
        assert bandwidth_of(pat, perm) <= 4

    def test_arrow_matrix_improves(self):
        pat = arrow_pattern(10)
        perm = compute_ordering(pat)
        assert bandwidth_of(pat, perm) < 9

    def test_never_worse_than_natural(self):
        for pat in (tridiagonal_pattern(7), five_point_grid_pattern(3, 5), arrow_pattern(8)):
            perm = compute_ordering(pat)
            assert bandwidth_of(pat, perm) <= pat.bandwidth()

    def test_nonsymmetric_pattern_rejected(self):
        pat = SparseMatrix.from_coo(3, [0, 1, 2, 0], [0, 1, 2, 2])
        with pytest.raises(StructuralError):
            compute_ordering(pat)

    def test_deterministic(self):
        pat = five_point_grid_pattern(5, 3)
        p1 = compute_ordering(pat)
        p2 = compute_ordering(pat)
        assert_array_equal(p1.forward, p2.forward)


class TestFactorize:
    def test_identity_solve_returns_rhs(self):
        a = SparseMatrix.from_dense(np.eye(5))
        f = factorize(a)
        b = np.array([3.0, -1.0, 0.5, 2.0, 9.0])
        assert_array_equal(solve(f, b), b)

    def test_spd_2x2_hand_elimination(self):
        a = SparseMatrix.from_dense(np.array([[4.0, 1.0], [1.0, 3.0]]))
        f = factorize(a)
        x = solve(f, np.array([1.0, 2.0]))
        assert_allclose(x, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-14)

    def test_singular_matrix_raises(self):
        a = SparseMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularMatrixError) as exc:
            factorize(a)
        assert exc.value.pivot_index == 1

    def test_diagonal_multi_rhs(self):
        a = SparseMatrix.from_dense(np.diag([2.0, 4.0]))
        f = factorize(a)
        assert_array_equal(solve(f, np.array([2.0, 8.0])), [1.0, 2.0])

    def test_unit_vector_identity(self):
        f = factorize(SparseMatrix.from_dense(np.eye(6)))
        e3 = np.zeros(6)
        e3[3] = 1.0
        assert_array_equal(solve(f, e3), e3)

    def test_random_spd_known_solution(self):
        a = random_spd(20, seed=7)
        x_star = np.random.default_rng(8).standard_normal(20)
        rhs = a.to_dense() @ x_star
        f = factorize(a)
        x = solve(f, rhs)
        assert_allclose(x, x_star, rtol=1e-10)

    def test_dimension_mismatch(self):
        f = factorize(SparseMatrix.from_dense(np.eye(4)))
        with pytest.raises(StructuralError):
            solve(f, np.zeros(5))

    def test_empty_system(self):
        f = factorize(SparseMatrix.from_coo(0, [], []))
        assert solve(f, np.zeros((0, 3))).shape == (0, 3)


class TestResidualBound:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("use_ordering", [False, True])
    def test_residual_bound(self, seed, use_ordering):
        # with the ordering, the RCM-permuted system is solved and permuted back
        a = random_spd(30, seed)
        dense = a.to_dense()
        perm = compute_ordering(a) if use_ordering else Permutation.identity(30)
        f = factorize(relabel(a, Permutation(perm.inverse, perm.forward)))
        rng = np.random.default_rng(100 + seed)
        b = rng.standard_normal((30, 3))
        x = solve(f, b[perm.inverse])[perm.forward]
        res = np.abs(dense @ x - b).max()
        scale = np.abs(dense).max() * np.abs(x).max() + np.abs(b).max()
        assert res <= 1e-10 * scale

    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_residual_bound_property(self, n, seed):
        a = random_spd(n, seed)
        dense = a.to_dense()
        f = factorize(a)
        b = np.random.default_rng(seed + 1).standard_normal(n)
        x = solve(f, b)
        res = np.abs(dense @ x - b).max()
        scale = np.abs(dense).max() * np.abs(x).max() + np.abs(b).max()
        assert res <= 1e-10 * scale


class TestFactorizationReuse:
    def test_multi_rhs_matches_columnwise_bitwise(self):
        a = random_spd(15, seed=3)
        f = factorize(a)
        b = np.random.default_rng(4).standard_normal((15, 4))
        block = solve(f, b)
        for j in range(4):
            assert_array_equal(block[:, j], solve(f, b[:, j]))

    def test_repeat_solve_identical_and_no_mutation(self):
        a = random_spd(12, seed=5)
        f = factorize(a)
        factor_before = f.inverse.copy()
        b = np.random.default_rng(6).standard_normal(12)
        x1 = solve(f, b)
        x2 = solve(f, b)
        assert_array_equal(x1, x2)
        assert_array_equal(f.inverse, factor_before)
        assert not f.inverse.flags.writeable

    def test_permutation_identity_roundtrip(self):
        p = Permutation.from_forward([2, 0, 1, 3])
        assert_array_equal(p.forward[p.inverse], np.arange(4))
        assert_array_equal(p.inverse[p.forward], np.arange(4))


def band_matrix(n, half, seed, pattern=None):
    """Random nonsymmetric values, diagonally dominant, on a symmetric pattern.

    The default pattern is the full band of half-bandwidth ``half``.
    """
    if pattern is None:
        offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        pattern = SparseMatrix.from_coo(n, *np.nonzero(offset <= half))
    rng = np.random.default_rng(seed)
    rows = pattern.row_of_entries()
    values = rng.standard_normal(len(rows))
    values[rows == pattern.col_indices] += 2.0 * n
    return pattern.with_values(values)


def relabel(a, perm):
    """The matrix whose ``perm``-permuted form is ``a``."""
    inv = perm.inverse
    return SparseMatrix.from_coo(a.n_rows, inv[a.row_of_entries()], inv[a.col_indices], a.values)


def inverse_apply(a, rhs):
    """Oracle: numpy's inverse of the dense matrix times one right-hand side column.

    LAPACK's inverse of the same dense matrix is the same array, and a
    matrix-vector product takes the path of a one-column solve, so the
    results agree bit for bit.
    """
    return np.linalg.inv(a.to_dense()) @ rhs


def stacked(matrices, slots=None):
    """Factor stack with ``matrices[i]`` factorized into slot ``slots[i]``."""
    layout = DenseLayout.of(matrices[0])
    slots = range(len(matrices)) if slots is None else slots
    stack = layout.empty_stack(max(slots) + 1)
    for a, slot in zip(matrices, slots):
        factorize(a, layout, out=stack[slot])
    return layout, stack


class TestStackedSolve:
    # (n, half): sparsity patterns from a band that reaches the matrix edge
    # at every row to one much narrower than the matrix
    SIZES = [(5, 4), (9, 8), (14, 3), (30, 7)]

    @pytest.mark.parametrize("n,half", SIZES)
    @pytest.mark.parametrize("cols", [1, 4, 5])
    def test_stack_equals_per_matrix_solves_bitwise(self, n, half, cols):
        perm = Permutation.from_forward(np.random.default_rng(n).permutation(n))
        matrices = [relabel(band_matrix(n, half, seed), perm) for seed in range(4)]
        layout, stack = stacked(matrices)
        assert stack.shape == (4, n, n)
        rhs = np.random.default_rng(cols).standard_normal((n, 4, cols))
        x = solve(layout.factors(stack), rhs)
        assert x.shape == rhs.shape
        for i, a in enumerate(matrices):
            single = factorize(a)
            assert_array_equal(stack[i], single.inverse)
            assert_array_equal(x[:, i], solve(single, rhs[:, i]))
            for j in range(cols):
                assert_array_equal(x[:, i, j], solve(single, rhs[:, i, j]))
                assert_array_equal(x[:, i, j], inverse_apply(a, rhs[:, i, j]))

    def test_five_columns_equal_four_plus_one(self):
        matrices = [band_matrix(20, 6, seed) for seed in range(3)]
        layout, stack = stacked(matrices)
        f = layout.factors(stack)
        rhs = np.random.default_rng(9).standard_normal((20, 3, 5))
        x = solve(f, rhs)
        assert_array_equal(x[..., :4], solve(f, rhs[..., :4]))
        assert_array_equal(x[..., 4:], solve(f, rhs[..., 4:]))

    def test_unfactorized_slots_return_rhs(self):
        matrices = [band_matrix(12, 4, 0), band_matrix(12, 4, 1)]
        layout, stack = stacked(matrices, slots=[1, 3])
        rhs = np.random.default_rng(2).standard_normal((12, 4, 5))
        with np.errstate(all="raise"):
            x = solve(layout.factors(stack), rhs)
        assert_array_equal(x[:, 0], rhs[:, 0])
        assert_array_equal(x[:, 2], rhs[:, 2])
        for j in range(5):
            assert_array_equal(x[:, 1, j], inverse_apply(matrices[0], rhs[:, 1, j]))
            assert_array_equal(x[:, 3, j], inverse_apply(matrices[1], rhs[:, 3, j]))

    def test_refactorized_slot_keeps_no_stale_entries(self):
        # a 5-point grid is sparse, so entries of the first matrix that the
        # second does not store would survive if the buffer were reused
        pattern = five_point_grid_pattern(5, 4)
        first, second = band_matrix(20, 0, 3, pattern), band_matrix(20, 0, 4, pattern)
        layout, stack = stacked([first])
        f = factorize(second, layout, out=stack[0])
        fresh = factorize(second)
        assert_array_equal(stack[0], fresh.inverse)
        assert_array_equal(f.inverse, fresh.inverse)
        assert not f.inverse.flags.writeable
        rhs = np.random.default_rng(5).standard_normal((20, 1, 5))
        assert_array_equal(solve(layout.factors(stack), rhs)[:, 0, 2],
                           inverse_apply(second, rhs[:, 0, 2]))

    def test_singular_pivot_inside_sweep_names_original_row(self):
        # zero row and column 6 of a matrix otherwise far from singular; the
        # failed slot keeps what it held
        a = band_matrix(10, 3, 7)
        dense = a.to_dense()
        dense[6, :] = 0.0
        dense[:, 6] = 0.0
        a = a.with_values(dense[a.row_of_entries(), a.col_indices])
        layout = DenseLayout.of(a)
        stack = layout.empty_stack(2)
        with pytest.raises(SingularMatrixError) as exc:
            factorize(a, layout, out=stack[1])
        assert exc.value.pivot_index == 6
        assert_array_equal(stack, layout.empty_stack(2))

    def test_shape_mismatches_rejected(self):
        a = band_matrix(6, 2, 0)
        layout = DenseLayout.of(a)
        stack = layout.empty_stack(2)
        with pytest.raises(StructuralError):
            factorize(a, layout, out=np.zeros((6, 5)))
        with pytest.raises(StructuralError):
            factorize(band_matrix(7, 2, 0), layout)
        with pytest.raises(StructuralError):
            solve(layout.factors(stack), np.zeros((6, 3, 1)))
        with pytest.raises(StructuralError):
            solve(layout.factors(stack), np.zeros((6, 1)))


def plastic_micro_stiffness(micro):
    """Reduced tangent stiffness of one RVE of ``micro`` at a plastic state."""
    p = R.RveBatch(R.MicroGeometry(micro))
    p.H[0] = [0.0, 0.01, 0.01, 0.004]
    R.assemble(p)
    assert p.plastic_flow[0]
    return p.geom.pattern.with_values(p.kvals[0])


def elastic_macro_stiffness(name, **sizes):
    """Macro tangent stiffness of a shipped benchmark with an isotropic elastic tangent."""
    system = build_benchmark(name, "monolithic-stored", **sizes).system
    c = np.broadcast_to(default_materials(name).elastic.stiffness(), (system.plan.n_ip, 4, 4))
    return system.assemble(np.zeros((system.plan.n_ip, 4)), c)[1]


class TestDenseKernel:
    @pytest.mark.parametrize("matrix", [
        pytest.param(lambda: plastic_micro_stiffness(
            rve_porous_quad(default_materials("plate-hole-tension"), n=8)), id="plate-hole-micro"),
        pytest.param(lambda: plastic_micro_stiffness(
            rve_porous_tri(default_materials("notched-shear"), n=5)), id="notched-shear-micro"),
        pytest.param(lambda: elastic_macro_stiffness(
            "notched-bending-2d", nx=10, ny=3, n_micro=6), id="notched-bending-macro"),
    ])
    def test_inverse_residual_within_rounding(self, matrix):
        # ||A X - I|| within a few n eps ||A|| ||X||, the bound of a
        # backward-stable inversion
        a = matrix()
        n = a.n_rows
        x = factorize(a).inverse
        dense = a.to_dense()
        residual = np.abs(dense @ x - np.eye(n)).sum(axis=1).max()
        scale = np.abs(dense).sum(axis=1).max() * np.abs(x).sum(axis=1).max()
        assert residual <= 4 * n * np.finfo(np.float64).eps * scale

    def test_near_singular_matrix_names_the_dependent_row(self):
        # row 5 is a combination of rows 1 and 3 up to a relative 1e-15:
        # not exactly singular, but beyond the condition limit
        rng = np.random.default_rng(12)
        dense = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        dense[5] = dense[1] - 2.0 * dense[3]
        dense[5, 0] *= 1.0 + 1e-15
        a = SparseMatrix.from_dense(dense)
        with pytest.raises(SingularMatrixError) as exc:
            factorize(a)
        assert exc.value.pivot_index == 5

    def test_ill_conditioned_matrix_below_the_limit_is_inverted(self):
        dense = np.diag([1.0, 1.0, 0.1 / PIVOT_RTOL])
        f = factorize(SparseMatrix.from_dense(dense))
        assert_array_equal(f.inverse, np.linalg.inv(dense))

    def test_non_finite_entry_raises(self):
        dense = np.eye(4)
        dense[2, 1] = np.nan
        with pytest.raises(SingularMatrixError):
            factorize(SparseMatrix.from_dense(dense))
