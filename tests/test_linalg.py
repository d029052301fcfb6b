"""Tests for the linear algebra substrate: ordering, Cholesky solves, multi-RHS solves."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from fescale import benchmarks, cli, linalg, macro, material
from fescale import rve as R
from fescale.benchmarks import build_benchmark, default_materials, rve_porous_quad, rve_porous_tri
from fescale.errors import SingularMatrixError, StructuralError
from fescale.linalg import PIVOT_RTOL, compute_ordering, factorize, solve


def bandwidth_of(pattern, forward):
    """Exhaustive bandwidth of a pattern under an ordering (test oracle)."""
    rows, cols = np.nonzero(pattern)
    return int(np.max(np.abs(forward[rows] - forward[cols])))


def band_pattern(n, half):
    return np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= half


def five_point_grid_pattern(nx, ny):
    n = nx * ny
    pattern = np.eye(n, dtype=bool)
    for i in range(n):
        ix, iy = i % nx, i // nx
        if ix + 1 < nx:
            pattern[i, i + 1] = pattern[i + 1, i] = True
        if iy + 1 < ny:
            pattern[i, i + nx] = pattern[i + nx, i] = True
    return pattern


def arrow_pattern(n):
    pattern = np.eye(n, dtype=bool)
    pattern[-1] = pattern[:, -1] = True
    return pattern


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


class TestComputeOrdering:
    def test_tridiagonal_stays_optimal(self):
        pat = band_pattern(10, 1)
        assert bandwidth_of(pat, compute_ordering(pat)) == 1

    def test_five_point_grid_bandwidth(self):
        pat = five_point_grid_pattern(4, 4)
        assert bandwidth_of(pat, compute_ordering(pat)) <= 4

    def test_arrow_matrix_improves(self):
        pat = arrow_pattern(10)
        assert bandwidth_of(pat, compute_ordering(pat)) < 9

    def test_never_worse_than_natural(self):
        for pat in (band_pattern(7, 1), five_point_grid_pattern(3, 5), arrow_pattern(8)):
            natural = bandwidth_of(pat, np.arange(len(pat)))
            assert bandwidth_of(pat, compute_ordering(pat)) <= natural

    def test_nonsymmetric_pattern_rejected(self):
        pat = np.eye(3)
        pat[0, 2] = 1.0
        with pytest.raises(StructuralError, match="symmetric"):
            compute_ordering(pat)

    def test_empty_row_rejected(self):
        pat = np.eye(3)
        pat[1, 1] = 0.0
        with pytest.raises(StructuralError, match="empty row"):
            compute_ordering(pat)

    def test_deterministic(self):
        pat = five_point_grid_pattern(5, 3)
        assert_array_equal(compute_ordering(pat), compute_ordering(pat))


class TestFactorize:
    def test_identity_solve_returns_rhs(self):
        f = factorize(np.eye(5))
        b = np.array([3.0, -1.0, 0.5, 2.0, 9.0])
        assert_array_equal(solve(f, b), b)

    def test_spd_2x2_hand_elimination(self):
        f = factorize(np.array([[4.0, 1.0], [1.0, 3.0]]))
        x = solve(f, np.array([1.0, 2.0]))
        assert_allclose(x, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-14)

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularMatrixError) as exc:
            factorize(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert exc.value.pivot_index == 1

    def test_diagonal_multi_rhs(self):
        # power-of-4 pivots: the Cholesky factor diag(2, 4) is exact
        f = factorize(np.diag([4.0, 16.0]))
        assert_array_equal(solve(f, np.array([4.0, 32.0])), [1.0, 2.0])

    def test_symmetric_indefinite_matrix_raises(self):
        # nonsingular (eigenvalues 3 and -1) but not positive definite
        with pytest.raises(SingularMatrixError):
            factorize(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))

    def test_unit_vector_identity(self):
        f = factorize(np.eye(6))
        e3 = np.zeros(6)
        e3[3] = 1.0
        assert_array_equal(solve(f, e3), e3)

    def test_random_spd_known_solution(self):
        a = random_spd(20, seed=7)
        x_star = np.random.default_rng(8).standard_normal(20)
        x = solve(factorize(a), a @ x_star)
        assert_allclose(x, x_star, rtol=1e-10)

    def test_dimension_mismatch(self):
        f = factorize(np.eye(4))
        with pytest.raises(StructuralError):
            solve(f, np.zeros(5))

    def test_empty_system(self):
        f = factorize(np.zeros((0, 0)))
        assert solve(f, np.zeros((0, 3))).shape == (0, 3)


class TestResidualBound:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("use_ordering", [False, True])
    def test_residual_bound(self, seed, use_ordering):
        # with the ordering, the RCM-permuted system is solved and permuted back
        a = random_spd(30, seed)
        forward = compute_ordering(a) if use_ordering else np.arange(30)
        inverse = np.argsort(forward)
        f = factorize(a[np.ix_(inverse, inverse)])
        rng = np.random.default_rng(100 + seed)
        b = rng.standard_normal((30, 3))
        x = solve(f, b[inverse])[forward]
        res = np.abs(a @ x - b).max()
        scale = np.abs(a).max() * np.abs(x).max() + np.abs(b).max()
        assert res <= 1e-10 * scale

    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_residual_bound_property(self, n, seed):
        a = random_spd(n, seed)
        b = np.random.default_rng(seed + 1).standard_normal(n)
        x = solve(factorize(a), b)
        res = np.abs(a @ x - b).max()
        scale = np.abs(a).max() * np.abs(x).max() + np.abs(b).max()
        assert res <= 1e-10 * scale


class TestFactorizationReuse:
    def test_multi_rhs_matches_columnwise_bitwise(self):
        f = factorize(random_spd(15, seed=3))
        b = np.random.default_rng(4).standard_normal((15, 4))
        block = solve(f, b)
        for j in range(4):
            assert_array_equal(block[:, j], solve(f, b[:, j]))

    def test_repeat_solve_identical_and_no_mutation(self):
        f = factorize(random_spd(12, seed=5))
        factor_before = f.matrix.copy()
        b = np.random.default_rng(6).standard_normal(12)
        x1 = solve(f, b)
        x2 = solve(f, b)
        assert_array_equal(x1, x2)
        assert_array_equal(f.matrix, factor_before)
        assert not f.matrix.flags.writeable

    def test_permutation_identity_roundtrip(self):
        # the ordering is a bijection on [0, n): its inverse undoes it both ways
        for pat in (five_point_grid_pattern(4, 3), arrow_pattern(6)):
            forward = compute_ordering(pat)
            inverse = np.argsort(forward)
            assert_array_equal(forward[inverse], np.arange(len(pat)))
            assert_array_equal(inverse[forward], np.arange(len(pat)))


def band_matrix(n, half, seed, pattern=None):
    """Random symmetric values on a symmetric pattern, the diagonal raised by 4n (SPD here).

    The default pattern is the full band of half-bandwidth ``half``.
    """
    pattern = band_pattern(n, half) if pattern is None else pattern
    a = np.zeros((n, n))
    a[pattern] = np.random.default_rng(seed).standard_normal(np.count_nonzero(pattern))
    a = a + a.T
    a[np.diag_indices(n)] += 4.0 * n
    return a


def zero_row_and_column():
    """Row and column 6 of an SPD matrix set to zero."""
    a = band_matrix(10, 3, 7)
    a[6, :] = a[:, 6] = 0.0
    return a


class TestStackedSolve:
    # (n, half): nonzero patterns from a band that reaches the matrix edge
    # at every row to one much narrower than the matrix
    SIZES = [(5, 4), (9, 8), (14, 3), (30, 7)]

    @pytest.mark.parametrize("n,half", SIZES)
    @pytest.mark.parametrize("cols", [1, 4, 5])
    def test_stack_equals_per_matrix_solves_bitwise(self, n, half, cols):
        # one solve per matrix of a stack, in any order, equals the solves
        # of each of its columns alone: no state passes between calls and
        # a column's bits do not depend on how many others it is solved with
        perm = np.random.default_rng(n).permutation(n)
        matrices = [band_matrix(n, half, seed)[np.ix_(perm, perm)] for seed in range(4)]
        rhs = np.random.default_rng(cols).standard_normal((4, n, cols))
        stack = [factorize(a, b).columns for a, b in zip(matrices, rhs)]
        for i in reversed(range(4)):
            a = matrices[i]
            x = factorize(a, rhs[i]).columns
            assert x.shape == (n, cols)
            assert_array_equal(x, stack[i])
            assert_array_equal(x, solve(factorize(a), rhs[i]))
            for j in range(cols):
                assert_array_equal(x[:, j], solve(factorize(a), rhs[i, :, j]))
                assert_array_equal(x[:, j], factorize(a, rhs[i, :, j]).columns)

    def test_five_columns_equal_four_plus_one(self):
        # the condensation layout: the tangent columns and the residual
        # column get the same bits solved together as apart
        for seed in range(3):
            a = band_matrix(20, 6, seed)
            rhs = np.random.default_rng(9 + seed).standard_normal((20, 5))
            x = factorize(a, rhs).columns
            assert_array_equal(x[:, :4], factorize(a, rhs[:, :4]).columns)
            assert_array_equal(x[:, 4], factorize(a, rhs[:, 4]).columns)

    def test_column_bits_do_not_depend_on_the_other_columns(self):
        # a column's bits depend only on the matrix and its own values: the
        # other columns of the layout may hold anything, zeros included
        a = band_matrix(30, 7, 4)
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal((30, 5))
        want = factorize(a, rhs).columns
        for others in (np.zeros((30, 4)), rng.standard_normal((30, 4)), 1e12 * rhs[:, :4]):
            assert_array_equal(factorize(a, np.concatenate([others, rhs[:, 4:]], axis=1)).columns[:, 4],
                               want[:, 4])
            assert_array_equal(factorize(a, np.concatenate([rhs[:, :4], others[:, :1]], axis=1))
                               .columns[:, :4], want[:, :4])

    def test_micro_layout_columns_equal_one_column_solves_at_n436(self):
        # the bits of a column hold whatever the other columns hold only up
        # to a block width that depends on n: at n = 436 (plate-hole,
        # n_micro 16) a block of 12 right-hand sides already changes them.
        # The micro solves' layout, 4 tangent columns and the residual
        # column, is within it: each column gets its one-column solve's bits
        geom = R.MicroGeometry(rve_porous_quad(default_materials("plate-hole-tension"), n=16))
        rves = R.RveBatch(geom)
        rves.H[0] = [0.0, 0.01, 0.01, 0.004]
        with macro._one_blas_thread():
            R.assemble(rves)
            assert geom.n_reduced == 436 and rves.plastic_flow[0]
            rves.solved[:] = False
            R._solve_columns(rves, np.ones(1, dtype=bool))
            k = geom.plan.dense(rves.kvals[0])
            for j in range(4):
                assert_array_equal(rves.x_h[0, :, j], factorize(k, rves.dr_dH[0, :, j]).columns)
            assert_array_equal(rves.x_r[0], factorize(k, rves.r_hat[0]).columns)

    @pytest.mark.parametrize("micro, n", [
        (lambda: rve_porous_tri(default_materials("notched-shear"), n=5), 44),
        (lambda: rve_porous_quad(default_materials("plate-hole-tension"), n=8), 116),
        (lambda: rve_porous_quad(default_materials("plate-hole-tension"), n=16), 436),
    ], ids=["n44", "n116", "n436"])
    def test_prepared_columns_equal_generic_columns(self, micro, n):
        # a prepared solve, the micro sweeps' form (the block in LAPACK's
        # row layout with the probe row, solved in place, and the scratch
        # matrix overwritten), gives the generic path's bits, in the five-
        # and the one-column layout
        geom = R.MicroGeometry(micro())
        rves = R.RveBatch(geom)
        rves.H[0] = [0.0, 0.01, 0.01, 0.004]
        with macro._one_blas_thread():
            R.assemble(rves)
            assert geom.n_reduced == n and rves.plastic_flow[0]
            for rhs in (np.concatenate([rves.dr_dH[0], rves.r_hat[0, :, None]], axis=1), rves.r_hat[0]):
                m = 1 if rhs.ndim == 1 else rhs.shape[1]
                block = linalg.probe_blocks(1, m, n)[0]
                block[:m] = rhs.reshape(n, m).T
                k = geom.plan.dense(rves.kvals[0])
                f = factorize(k, block, prepared=True)
                assert f.columns is block and f.n == n and f.matrix is None
                want = factorize(geom.plan.dense(rves.kvals[0]), rhs).columns
                assert_array_equal(block[:m].T.reshape(rhs.shape), want)
                assert linalg.probe_passed(block[None], geom.inf_norms(rves.kvals[:1])).tolist() == [True]

    @pytest.mark.parametrize("plastic", [False, True], ids=["virgin", "plastic"])
    def test_packed_inf_norm_equals_the_dense_row_sum_norm(self, plastic):
        # ||K||_inf from each row's segment of the packed values, as the
        # probe check takes it, is the dense matrix's to rounding (the sums
        # add the same values in another order, without the zeros)
        geom = R.MicroGeometry(rve_porous_quad(default_materials("plate-hole-tension"), n=8))
        rves = R.RveBatch(geom, 2)
        rves.H[:] = [[0.0, 0.01, 0.01, 0.004], [0.002, -0.008, -0.008, 0.001]]
        if plastic:
            R.assemble(rves)
            assert rves.plastic_flow.all()
        dense = np.abs(geom.plan.dense(rves.kvals)).sum(axis=2).max(axis=1)
        assert_allclose(geom.inf_norms(rves.kvals), dense, rtol=geom.n_reduced * np.finfo(float).eps)

    def test_singular_pivot_inside_sweep_names_original_row(self):
        with pytest.raises(SingularMatrixError) as exc:
            factorize(zero_row_and_column(), np.ones((10, 5)))
        assert exc.value.pivot_index == 6

    def test_shape_mismatches_rejected(self):
        f = factorize(band_matrix(6, 2, 0))
        with pytest.raises(StructuralError):
            factorize(band_matrix(7, 2, 0)[:6])
        with pytest.raises(StructuralError):
            factorize(band_matrix(6, 2, 0), np.zeros((5, 2)))
        with pytest.raises(StructuralError):
            solve(f, np.zeros((6, 3, 1)))
        with pytest.raises(StructuralError):
            solve(f, np.zeros((5, 1)))


def plastic_micro_stiffness(micro):
    """Reduced tangent stiffness of one RVE of ``micro`` at a plastic state."""
    p = R.RveBatch(R.MicroGeometry(micro))
    p.H[0] = [0.0, 0.01, 0.01, 0.004]
    R.assemble(p)
    assert p.plastic_flow[0]
    return p.geom.plan.dense(p.kvals[0])


def elastic_macro_stiffness(name, **sizes):
    """Macro tangent stiffness of a shipped benchmark with an isotropic elastic tangent."""
    system = build_benchmark(name, "monolithic-stored", **sizes).system
    c = np.broadcast_to(default_materials(name).elastic.stiffness(), (system.plan.n_ip, 4, 4))
    return system.assemble(np.zeros((system.plan.n_ip, 4)), c)[1]


def near_singular_gram():
    """M^T M with column 5 of M a combination of columns 1 and 3 up to a relative 1e-15.

    Row 5 is the same combination of rows 1 and 3: not exactly singular,
    but beyond the condition limit.
    """
    rng = np.random.default_rng(12)
    m = rng.standard_normal((8, 8)) + 8 * np.eye(8)
    m[:, 5] = m[:, 1] - 2.0 * m[:, 3]
    m[0, 5] *= 1.0 + 1e-15
    return m.T @ m


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
        # the backward error of the Cholesky solve: ||A x - b|| within a few
        # n eps ||A|| ||x|| for every column of a condensation layout
        a = matrix()
        n = len(a)
        b = np.random.default_rng(n).standard_normal((n, 5))
        x = factorize(a, b).columns
        residual = np.abs(a @ x - b).max(axis=0)
        scale = np.abs(a).sum(axis=1).max() * np.abs(x).max(axis=0)
        assert np.all(residual <= 4 * n * np.finfo(np.float64).eps * scale)

    def test_near_singular_matrix_names_the_dependent_row(self):
        with pytest.raises(SingularMatrixError) as exc:
            factorize(near_singular_gram())
        assert exc.value.pivot_index == 5

    def test_ill_conditioned_matrix_below_the_limit_is_inverted(self):
        # a power-of-4 pivot, whose Cholesky factor 2^21 is exact, below 0.1 / PIVOT_RTOL
        assert 4.0**21 <= 0.1 / PIVOT_RTOL < 4.0**22
        dense = np.diag([1.0, 1.0, 4.0**21])
        assert_array_equal(solve(factorize(dense), np.eye(3)), np.linalg.inv(dense))

    def test_non_finite_entry_raises(self):
        dense = np.eye(4)
        dense[2, 1] = np.nan
        with pytest.raises(SingularMatrixError):
            factorize(dense)


def non_finite_entry():
    dense = np.eye(4)
    dense[2, 1] = np.nan
    return dense


class TestLuFallback:
    # a numpy without the bundled dposv: every solve is np.linalg.solve's LU

    def test_bundled_dposv_is_found(self):
        if linalg.bundled_openblas() is None:
            pytest.skip("numpy is not built on its bundled OpenBLAS")
        assert linalg._dposv() is not None

    @pytest.mark.parametrize("n", [1, 6, 30])
    def test_solves_within_rounding(self, n, monkeypatch):
        a = random_spd(n, seed=n)
        rhs = np.random.default_rng(n).standard_normal((n, 5))
        want = factorize(a, rhs).columns
        monkeypatch.setattr(linalg, "_dposv", lambda: None)
        got = factorize(a, rhs).columns
        block = np.concatenate([rhs, np.cos(np.arange(n))[:, None]], axis=1)
        assert_array_equal(got, np.linalg.solve(a, block)[:, :5])
        assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("lapack", [True, False], ids=["dposv", "lu"])
    def test_prepared_solve_matches_the_generic_one(self, lapack, monkeypatch):
        # with either kernel a prepared solve leaves the generic path's
        # columns in its block, and a matrix the kernel cannot factorize
        # raises with the generic path's row, named from the lower triangle
        if not lapack:
            monkeypatch.setattr(linalg, "_dposv", lambda: None)
        for a in (random_spd(30, seed=2), zero_row_and_column()):
            n = len(a)
            rhs = np.random.default_rng(n).standard_normal((n, 5))
            block = linalg.probe_blocks(1, 5, n)[0]
            block[:5] = rhs.T
            try:
                want = factorize(a, rhs).columns
            except SingularMatrixError as exc:
                with pytest.raises(SingularMatrixError) as got:
                    factorize(a.copy(), block, prepared=True)
                assert got.value.pivot_index == exc.pivot_index
                continue
            assert_array_equal(factorize(a.copy(), block, prepared=True).columns[:5].T, want)

    @pytest.mark.parametrize("matrix", [
        pytest.param(lambda: np.ones((2, 2)), id="singular"),
        pytest.param(near_singular_gram, id="near-singular"),
        pytest.param(zero_row_and_column, id="zero-row"),
        pytest.param(non_finite_entry, id="non-finite"),
    ])
    def test_raises_as_dposv_does(self, matrix, monkeypatch):
        a = matrix()
        rhs = np.ones((len(a), 5))
        with pytest.raises(SingularMatrixError) as want:
            factorize(a, rhs)
        monkeypatch.setattr(linalg, "_dposv", lambda: None)
        with pytest.raises(SingularMatrixError) as got:
            factorize(a, rhs)
        assert got.value.pivot_index == want.value.pivot_index


def load_perfbench_tracer(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_finds_every_name_it_wraps(tmp_path, monkeypatch):
    # perfbench's traced run wraps fescale functions and methods by name and
    # reads n and half_bandwidth of a factorization: a renamed or deleted
    # name fails here before it fails a traced benchmark run
    tracer = load_perfbench_tracer(monkeypatch)
    fs = SimpleNamespace(benchmarks=benchmarks, cli=cli, linalg=linalg, macro=macro,
                         material=material, rve=R)
    originals = (linalg.factorize, linalg.solve, macro.run, R.assemble)
    trace = tracer.Tracer(fs, layers=True, work_dir=str(tmp_path))
    try:
        trace.__enter__()
        f = linalg.factorize(random_spd(6, 0))
        linalg.solve(f, np.ones((6, 2)))
    finally:
        trace.__exit__(None, None, None)
    assert (linalg.factorize, linalg.solve, macro.run, R.assemble) == originals
    assert trace.stats[("macro.linalg", None)][0] == 2
    assert tracer.factorize_flops(f) > 0 and tracer.solve_flops(f, 2) > 0
