"""Tests for the periodic micro problem: constraints, homogenization, schemes."""

import copy

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fescale import linalg, macro, material
from fescale import rve as R
from fescale.benchmarks import (
    BENCH_SOLVER_DEFAULTS,
    build_benchmark,
    default_materials,
    grid_quads,
    rve_laminate,
    rve_porous_quad,
    rve_composite,
    rve_porous_tri,
    rve_single_element,
)
from fescale.errors import GeometryError, SingularMatrixError
from fescale.macro import SolverSettings, run
from fescale.material import ElasticParams, PlasticParams
from fescale.mesh import QUAD4, ElementBlock, Mesh

ELASTIC = ElasticParams(E=100.0, nu=0.3)
STIFF = ElasticParams(E=1000.0, nu=0.3)
PLASTIC = PlasticParams(ELASTIC, sigma0=1.0, h=2.0)

H_MIXED = np.array([0.004, 0.002, -0.001, -0.003])
H_SHEAR = np.array([0.0, 0.02, 0.02, 0.0])


def homogeneous_geom(n=4):
    return R.MicroGeometry(rve_laminate(ELASTIC, ELASTIC, n=n))


def porous_geom(mat=PLASTIC, n=6):
    return R.MicroGeometry(rve_porous_tri(mat, n=n))


def laminate_geom(mat_bottom=ELASTIC, mat_top=STIFF, n=4):
    return R.MicroGeometry(rve_laminate(mat_bottom, mat_top, n=n))


def condense(rve, alg_stress=True):
    """Stress and tangent of a batch of one RVE from the condensation call."""
    sigma, c = R.homogenized_tangent_and_alg_stress(rve, alg_stress)
    return sigma[0], c[0]


def converge(rve, h_target, tol=1e-10, max_iter=40):
    """Homogenized stress and tangent after a converged staggered micro solve."""
    R.solve_micro_staggered(rve, np.asarray(h_target, dtype=float), tol, max_iter)
    return condense(rve, alg_stress=False)


def stiffness(rves, i=0):
    """RVE i's last assembled tangent stiffness as a dense matrix."""
    return rves.geom.plan.dense(rves.kvals[i])


def laminate_closed_form(mats, fracs):
    """Exact laminate stiffness (layer normal = y), 4-component layout."""
    lam = np.array([m.lam for m in mats])
    mu = np.array([m.mu for m in mats])
    big_m = lam + 2.0 * mu
    f = np.asarray(fracs)
    sf = (f / big_m).sum()
    a = (f * lam / big_m).sum()
    c = np.zeros((4, 4))
    c[3, 3] = 1.0 / sf
    c[0, 3] = c[3, 0] = a / sf
    c[0, 0] = (f * (big_m - lam**2 / big_m)).sum() + a**2 / sf
    mu_star = 1.0 / (f / mu).sum()
    c[1:3, 1:3] = mu_star
    return c


class TestPeriodicMap:
    def test_nine_node_grid_counts(self):
        nodes, conn = grid_quads(2, 2)
        mesh = Mesh(nodes, [ElementBlock(QUAD4, conn)])
        pm = R.build_periodic_map(mesh)
        corner_pairs = [p for p in pm.pairs if p[1] == pm.anchor_node]
        edge_pairs = [p for p in pm.pairs if p[1] != pm.anchor_node]
        assert len(edge_pairs) == 2  # 4 constrained DOFs
        assert len(corner_pairs) == 3
        assert_allclose(mesh.nodes[pm.anchor_node], [0.0, 0.0])
        # reduced residual length = master DOFs minus the two anchor DOFs
        assert pm.n_reduced == len(pm.master_dofs) - 2
        assert pm.n_reduced == 6

    def test_offsets_match_coordinates(self):
        geom = porous_geom()
        for plus, minus, off in geom.pmap.pairs:
            assert_allclose(off, geom.mesh.nodes[plus] - geom.mesh.nodes[minus], atol=1e-12)

    def test_single_element_three_corner_constraints(self):
        geom = R.MicroGeometry(rve_single_element(ELASTIC))
        pm = geom.pmap
        assert len(pm.pairs) == 3
        assert all(minus == pm.anchor_node for _, minus, _ in pm.pairs)
        assert pm.n_reduced == 0
        assert_allclose(geom.mesh.nodes[pm.anchor_node], [0.0, 0.0])

    def test_master_slave_disjoint(self):
        pm = porous_geom().pmap
        assert not set(pm.master_dofs.tolist()) & set(pm.slave_dofs.tolist())

    def test_unmatched_boundary_node_raises(self):
        nodes, conn = grid_quads(2, 2)
        nodes = nodes.copy()
        nodes[5, 1] += 0.21  # mid-right node moved off its mirror position
        mesh = Mesh(nodes, [ElementBlock(QUAD4, conn)])
        with pytest.raises(GeometryError, match="distance"):
            R.build_periodic_map(mesh)


class TestAssemble:
    def test_uniform_field_self_equilibrated(self):
        p = R.RveBatch(homogeneous_geom())
        p.H[0] = H_MIXED  # u_hat = 0 means u = H*X exactly
        R.assemble(p)
        assert p.residual_norm[0] <= 1e-14 * ELASTIC.E

    def test_unloaded_virgin_state(self):
        p = R.RveBatch(porous_geom())
        R.assemble(p)
        assert p.residual_norm[0] == 0.0
        assert not p.plastic_flow[0]
        k = stiffness(p)
        assert np.abs(k - k.T).max() <= 1e-10 * np.abs(k).max()

    def test_dr_dh_against_finite_difference(self):
        geom = laminate_geom()
        p = R.RveBatch(geom)
        p.H[0] = H_MIXED
        p.u_hat[0] = 1e-3 * np.sin(np.arange(geom.n_reduced))
        R.assemble(p)
        dr_dh = p.dr_dH[0].copy()
        step = 1e-7
        for c in range(4):
            hp, hm = H_MIXED.copy(), H_MIXED.copy()
            hp[c] += step
            hm[c] -= step
            p.H[0] = hp
            R.assemble(p)
            rp = p.r_hat[0].copy()
            p.H[0] = hm
            R.assemble(p)
            rm = p.r_hat[0].copy()
            fd = (rp - rm) / (2 * step)
            scale = max(np.abs(dr_dh[:, c]).max(), 1.0)
            assert np.abs(fd - dr_dh[:, c]).max() <= 1e-5 * scale


class TestHomogenization:
    def test_homogeneous_elastic_identity(self):
        p = R.RveBatch(homogeneous_geom())
        sigma, _ = converge(p, H_MIXED)
        assert_allclose(sigma, ELASTIC.stiffness() @ H_MIXED, rtol=1e-10)

    def test_zero_load_zero_stress(self):
        p = R.RveBatch(porous_geom())
        sigma, _ = converge(p, np.zeros(4))
        assert_array_equal(sigma, np.zeros(4))

    def test_laminate_transverse_reuss(self):
        p = R.RveBatch(laminate_geom())
        e = 0.002
        sigma, _ = converge(p, [0.0, 0.0, 0.0, e])
        big_m = [m.lam + 2 * m.mu for m in (ELASTIC, STIFF)]
        reuss = 1.0 / (0.5 / big_m[0] + 0.5 / big_m[1])
        assert_allclose(sigma[3], reuss * e, rtol=1e-8)

    def test_boundary_sum_equals_volume_average(self):
        for geom in (laminate_geom(), porous_geom()):
            p = R.RveBatch(geom)
            converge(p, H_MIXED)
            assert_allclose(
                p.sigma_bar, R.volume_average_stress(p),
                rtol=1e-10, atol=1e-12 * ELASTIC.E,
            )

    def test_averaging_relation_any_constrained_field(self):
        # volume form on a full mesh, surface form on the porous mesh
        rng = np.random.default_rng(11)
        p = R.RveBatch(laminate_geom())
        p.H[0] = H_MIXED
        p.u_hat[0] = 1e-3 * rng.standard_normal(p.geom.n_reduced)
        assert_allclose(R.average_gradient(p), p.H, atol=1e-10)
        q = R.RveBatch(porous_geom())
        q.H[0] = H_MIXED
        q.u_hat[0] = 1e-3 * rng.standard_normal(q.geom.n_reduced)
        assert_allclose(R.boundary_average_gradient(q), q.H, atol=1e-10)

    def test_hill_mandel_at_equilibrium(self):
        geom = porous_geom()
        p = R.RveBatch(geom)
        sigma, _ = converge(p, H_MIXED)
        rng = np.random.default_rng(3)
        for _ in range(3):
            h_var = rng.standard_normal(4)
            u_var = rng.standard_normal(geom.n_reduced)
            u_full = R.full_displacement(geom, u_var, h_var)
            hv = geom.plan.gradients(u_full)
            lhs = np.einsum("q,qa,qa->", geom.weights_flat, R.evaluate_points(p)[0][0], hv) / geom.volume
            rhs = sigma @ h_var
            assert_allclose(lhs, rhs, rtol=1e-9)

    def test_anti_periodic_boundary_forces(self):
        geom = porous_geom()
        p = R.RveBatch(geom)
        converge(p, H_MIXED)
        f = p.f_full[0].reshape(-1, 2)
        fmax = np.abs(f).max()
        corner_group = np.zeros(2)
        anchor = geom.pmap.anchor_node
        for plus, minus, _ in geom.pmap.pairs:
            if minus == anchor:
                corner_group += f[plus]
            else:
                assert_allclose(f[plus], -f[minus], atol=1e-9 * fmax)
        assert_allclose(corner_group + f[anchor], 0.0, atol=1e-9 * fmax)

    def test_interior_forces_vanish_at_equilibrium(self):
        geom = porous_geom()
        p = R.RveBatch(geom)
        converge(p, H_MIXED)
        interior = np.setdiff1d(np.arange(geom.mesh.n_nodes), geom.boundary_nodes)
        f = p.f_full[0].reshape(-1, 2)
        assert np.abs(f[interior]).max() <= 1e-9 * np.abs(f).max()


class TestStaggeredMicro:
    def test_elastic_single_iteration(self):
        p = R.RveBatch(porous_geom(mat=ELASTIC))
        assert R.solve_micro_staggered(p, H_MIXED, 1e-10, 40).tolist() == [1]

    def test_plastic_converges_with_symmetric_tangent(self):
        p = R.RveBatch(porous_geom())
        R.begin_increment(p)
        (iters,) = R.solve_micro_staggered(p, H_SHEAR * 0.5, 5e-3, 20)
        assert p.residual_norm[0] <= 5e-3 * R.residual_reference(p)[0]
        assert iters >= 2
        _, c = condense(p, alg_stress=False)
        assert np.abs(c - c.T).max() <= 1e-8 * np.abs(c).max()

    def test_budget_overrun_signals_divergence(self):
        p = R.RveBatch(porous_geom())
        R.solve_micro_staggered(p, H_SHEAR * 0.5, 1e-10, 1)
        assert p.failed[0]
        assert_array_equal(condense(p, alg_stress=False)[1], np.zeros((4, 4)))

    def test_already_converged_counts_one_recheck(self):
        p = R.RveBatch(porous_geom(mat=ELASTIC))
        converge(p, H_MIXED)
        R.commit(p)
        # same target again: re-check only, no solves needed
        assert R.solve_micro_staggered(p, H_MIXED, 1e-10, 40).tolist() == [1]

    def test_staggered_factorization_counts(self):
        p = R.RveBatch(porous_geom())
        R.begin_increment(p)
        (iters,) = R.solve_micro_staggered(p, H_SHEAR * 0.45, 1e-9, 20)
        condense(p, alg_stress=False)
        # plastic: one factorization per Newton solve plus the tangent one
        assert p.counts[0, R.FACTORIZATIONS] == iters + 1

    def test_converged_plastic_solve_skips_the_residual_column(self):
        # sigma_alg is sigma_bar after a converged micro solve, so only the
        # four tangent columns are solved: one auxiliary solve, not two
        p = R.RveBatch(porous_geom())
        R.begin_increment(p)
        R.solve_micro_staggered(p, H_SHEAR * 0.45, 1e-9, 20)
        sigma, c = condense(p, alg_stress=False)
        assert p.plastic_flow[0] and not p.flagged[0]
        assert p.counts[0, R.AUX_SOLVES] == 1
        assert_array_equal(sigma, p.sigma_bar[0])
        # condensing again, with the residual correction, gives the same tangent bit for bit
        assert_array_equal(condense(p)[1], c)


class TestMonolithicMicro:
    def test_zero_rhs_zero_update(self):
        p = R.RveBatch(porous_geom())
        R.assemble(p)
        du = R.micro_update_monolithic(p, np.zeros((1, 4)))
        assert_array_equal(du, np.zeros((1, p.geom.n_reduced)))

    def test_elastic_update_reaches_equilibrium(self):
        p = R.RveBatch(porous_geom(mat=ELASTIC))
        converge(p, H_MIXED)
        R.commit(p)
        R.begin_increment(p)
        R.micro_update_monolithic(p, [0.5 * H_MIXED])
        R.assemble(p)
        assert p.residual_norm[0] <= 1e-10 * R.residual_reference(p)[0]

    def test_agreement_with_staggered_from_same_state(self):
        geom = porous_geom()
        a = R.RveBatch(geom)
        sig_a, _ = converge(a, H_SHEAR * 0.5, tol=1e-12)

        b = R.RveBatch(geom)
        R.assemble(b)
        R.micro_update_monolithic(b, [H_SHEAR * 0.5])
        for _ in range(40):
            R.assemble(b)
            if b.residual_norm[0] <= 1e-12 * R.residual_reference(b)[0]:
                break
            R.micro_update_monolithic(b, np.zeros((1, 4)))
        scale = np.abs(sig_a).max()
        assert_allclose(b.sigma_bar[0], sig_a, rtol=1e-8, atol=1e-8 * scale)


def at_plastic_states(rves, first=0):
    """``rves`` as RVEs first..first+b-1, each assembled at a plastic state of its own."""
    for row, i in enumerate(range(first, first + rves.b)):
        rves.H[row] = H_SHEAR * (0.3 + 0.05 * i)
        rves.u_hat[row] = 1e-3 * np.cos(np.arange(rves.geom.n_reduced) + i)
    R.assemble(rves)
    return rves


def shard_of(geom, count, first=0):
    """A batch of RVEs first..first+count-1, each assembled at a plastic state of its own."""
    return at_plastic_states(R.RveBatch(geom, count), first)


def sweep_shard(geom, count, store, first=0):
    """A macro shard of ``shard_of``'s RVEs; its monolithic sweeps are plain unless ``store``."""
    shard = macro._Shard(geom, count, store)
    at_plastic_states(shard.rves, first)
    return shard


def assert_rves_alike(batch, singles, alg_stress):
    """Each RVE of ``batch`` condenses, counts and iterates as its one-RVE batch, bit for bit."""
    sigma, c = R.homogenized_tangent_and_alg_stress(batch, alg_stress)
    for i, p in enumerate(singles):
        sigma_p, c_p = R.homogenized_tangent_and_alg_stress(p, alg_stress)
        assert_array_equal(sigma[i], sigma_p[0])
        assert_array_equal(c[i], c_p[0])
        assert_array_equal(batch.counts[i], p.counts[0])
        assert_array_equal(batch.u_hat[i], p.u_hat[0])


# Staggered notched-shear (n_macro=3, n_micro=4, dt 0.25, n_max=3, tolerances
# 1e-9, the linear-extrapolation predictor) cuts 5 times: micro problems
# diverge while the rest of their shard converge. Per increment (factorizations, aux_solves, micro_iters_total,
# cut_events), as computed by the per-RVE tangent path before the shard-wide
# condensation call, except where a linear-flagged RVE now takes the virgin
# columns and tangent after a rollback instead of solving K0 and condensing
# again (increments 1, 2, 4 and 5).
CUT_COUNTERS = [
    (18, 0, 40, 1), (18, 0, 40, 1), (0, 0, 0, 0), (34, 9, 53, 1), (57, 16, 79, 1),
    (44, 15, 51, 0), (74, 24, 80, 0), (115, 47, 111, 1), (65, 24, 72, 0), (48, 18, 50, 0),
    (47, 18, 49, 0), (48, 18, 50, 0), (48, 18, 50, 0), (47, 18, 49, 0), (48, 18, 50, 0),
]


class TestStackedSweep:
    @pytest.mark.parametrize("store, sweep", [
        pytest.param(True, "monolithic", id="True"),
        pytest.param(False, "monolithic", id="False"),
        pytest.param(True, "staggered", id="staggered"),
    ])
    def test_batch_equals_one_rve_at_a_time_bitwise(self, store, sweep, monkeypatch):
        geom = porous_geom()
        if sweep == "monolithic":
            # one sweep of each shard (update, assembly, condensation), then
            # a second condensation, which solves again what a plain shard dropped
            batch, singles = sweep_shard(geom, 3, store), [sweep_shard(geom, 1, store, i) for i in range(3)]
            dh = np.outer(np.arange(1, 4), [1e-3, -2e-3, 5e-4, 1e-3])
            updates, update = [], R.micro_update_monolithic
            monkeypatch.setattr(R, "micro_update_monolithic",
                                lambda rves, delta_h: updates.append(update(rves, delta_h)) or updates[-1])
            for i, shard in enumerate([batch] + singles):
                shard.block.h[:] = dh if shard is batch else dh[i - 1:i]
                shard.monolithic()
            du = updates[0]
            for i in range(3):
                assert_array_equal(du[i], updates[1 + i][0])
            # a plain shard keeps only the flagged RVEs' columns past its sweep
            assert_array_equal(batch.rves.solved, store | batch.rves.flagged)
            assert_rves_alike(batch.rves, [p.rves for p in singles], alg_stress=True)
            return
        assembled = []  # the RVEs of every assembly pass: the line search shows here
        assemble = R.assemble

        def counting(rves, mask=None, newton=False):
            assembled.append(np.ones(rves.b, dtype=bool) if mask is None else mask.copy())
            return assemble(rves, mask, newton)

        monkeypatch.setattr(R, "assemble", counting)
        # the shard states, each at a target of its own; then virgin RVEs
        # whose loops take 1, 3 and 4 Newton steps (the last one with a
        # line search) next to one that backtracks and overruns its budget
        cases = [
            (shard_of(geom, 3), [shard_of(geom, 1, first=i) for i in range(3)],
             np.outer(0.4 + 0.05 * np.arange(3), H_SHEAR), 30, [8, 12, 18], [False] * 3, [True] * 3),
            (R.RveBatch(geom, 4), [R.RveBatch(geom) for _ in range(4)],
             np.outer([0.1, 0.3, 0.5, 8.0], H_SHEAR), 5, [1, 3, 4, 5], [False] * 3 + [True],
             [False, False, True, True]),
        ]
        for batch, singles, h, max_iter, iters, failed, backtracks in cases:
            assembled.clear()
            assert R.solve_micro_staggered(batch, h, 1e-9, max_iter).tolist() == iters
            assert batch.failed.tolist() == failed
            passes = np.sum(assembled, axis=0)
            for i, p in enumerate(singles):
                assembled.clear()
                assert R.solve_micro_staggered(p, h[i], 1e-9, max_iter).tolist() == [iters[i]]
                assert p.failed[0] == failed[i]
                assert len(assembled) == passes[i]
                assert (len(assembled) > 1 + p.counts[0, R.UPDATE_SOLVES]) == backtracks[i]
            assert_rves_alike(batch, singles, alg_stress=False)

    def test_skipped_rve_gets_no_solve_and_a_zero_row(self):
        geom = porous_geom()
        rves, full = shard_of(geom, 3), shard_of(geom, 3)
        rves.failed[1] = True
        sigma, c = R.homogenized_tangent_and_alg_stress(rves)
        sigma_full, c_full = R.homogenized_tangent_and_alg_stress(full)
        assert_array_equal(sigma[1], np.zeros(4))
        assert_array_equal(c[1], np.zeros((4, 4)))
        assert rves.counts[1, R.AUX_SOLVES] == rves.counts[1, R.FACTORIZATIONS] == 0
        assert full.counts[1, R.AUX_SOLVES] == 2 and full.counts[1, R.FACTORIZATIONS] == 1
        for i in (0, 2):
            assert_array_equal(sigma[i], sigma_full[i])
            assert_array_equal(c[i], c_full[i])
            assert_array_equal(rves.counts[i], full.counts[i])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_staggered_cuts_keep_their_counters(self, workers):
        settings = SolverSettings(dt_initial=0.25, dt_max=0.25, n_max=3, tol_macro=1e-9,
                                  tol_micro=1e-9, parallel_workers=workers,
                                  predictor="extrapolate")
        rep = run(build_benchmark("notched-shear", "staggered", n_macro=3, n_micro=4), settings)
        assert rep.converged
        assert [(r.factorizations, r.aux_solves, r.micro_iters_total, r.cut_events)
                for r in rep.records] == CUT_COUNTERS

    def test_singular_pivot_in_sweep_names_the_row(self):
        # a singular micro stiffness fails its RVE, not the sweep; the
        # factorization names the dependent row
        geom = porous_geom()
        rves = shard_of(geom, 2)
        dense = stiffness(rves, 1)
        dense[5, :] = 0.0
        dense[:, 5] = 0.0
        rves.kvals[1] = dense.ravel()[geom.plan.flat]
        du = R.micro_update_monolithic(rves, np.zeros((2, 4)))
        assert rves.failed.tolist() == [False, True]
        assert rves.counts[:, R.UPDATE_SOLVES].tolist() == [1, 0]
        assert_array_equal(du[1], np.zeros(geom.n_reduced))
        with pytest.raises(SingularMatrixError) as exc:
            linalg.factorize(stiffness(rves, 1))
        assert exc.value.pivot_index == 5


# applied gradients of three staggered sweeps of five plate-hole RVEs, in
# units of H_SHEAR: plastic loading, partial unloading, then both at once
PLATE_SWEEPS = [[0.05, 0.1, 0.2, 0.3, 0.5], [0.02, 0.12, 0.15, 0.25, 0.6], [0.3, 0.05, 0.4, 0.1, 0.65]]


class TestNewtonRounds:
    """A staggered sweep's Newton rounds defer the sensitivities and sigma_bar to the converging round."""

    @staticmethod
    def sweeps(monkeypatch=None):
        """Per sweep of a plate-hole batch: the batch after it and, given ``monkeypatch``, the dr/dH rows
        each sensitivity call made."""
        geom = R.MicroGeometry(rve_porous_quad(default_materials("plate-hole-tension"), n=8))
        rves = R.RveBatch(geom, len(PLATE_SWEEPS[0]))
        made = []
        if monkeypatch is not None:
            sensitivities = R._sensitivities

            def recording(geom, kes):
                out = sensitivities(geom, kes)
                made.extend(out[0])
                return out

            monkeypatch.setattr(R, "_sensitivities", recording)
        for scale in PLATE_SWEEPS:
            made.clear()
            R.begin_increment(rves)
            R.solve_micro_staggered(rves, np.outer(scale, H_SHEAR), 1e-9, 30)
            assert not rves.failed.any()
            yield rves, list(made)
            R.commit(rves)

    def test_converged_rves_hold_what_a_full_assembly_gives_bitwise(self):
        fresh_seen = flagged_seen = 0
        for rves, _ in self.sweeps():
            full = copy.deepcopy(rves)
            full.plastic_flow[:] = True  # as if never assembled: every assembly is fresh
            R.assemble(full)
            fresh = np.flatnonzero(~rves.flagged)
            for name in ("kvals", "dr_dH", "dsig_du", "dsig_dh"):
                assert getattr(rves, name)[fresh].tobytes() == getattr(full, name)[fresh].tobytes(), name
            assert rves.sigma_bar.tobytes() == full.sigma_bar.tobytes()
            fresh_seen += len(fresh)
            flagged_seen += rves.flagged.sum()
        assert fresh_seen and flagged_seen

    def test_each_fresh_converged_rve_gets_its_sensitivities_once(self, monkeypatch):
        # the rows the sensitivity helper made in a sweep are the converged
        # fresh RVEs' final dr/dH, each once; a flagged RVE takes the virgin rows
        for rves, made in self.sweeps(monkeypatch):
            fresh = np.flatnonzero(~rves.flagged)
            assert sorted(row.tobytes() for row in made) == sorted(rves.dr_dH[i].tobytes() for i in fresh)
            assert len({row.tobytes() for row in made}) == len(fresh)
            virgin = rves.geom.virgin_dr_dH.tobytes()
            assert all(rves.dr_dH[i].tobytes() == virgin for i in np.flatnonzero(rves.flagged))


def one_rve_in_a_shard(geom, count, slot):
    """Columns, update, stress and tangent of one plastic RVE at ``slot`` of a shard.

    The other RVEs of the shard sit at states of their own.
    """
    rves = R.RveBatch(geom, count)
    for k in range(count):
        rves.H[k] = H_SHEAR * (0.4 if k == slot else 0.3 + 0.01 * k)
        rves.u_hat[k] = 1e-3 * np.cos(np.arange(geom.n_reduced) + (0 if k == slot else k + 1))
    R.assemble(rves)
    du = R.micro_update_monolithic(rves, np.tile([1e-3, -2e-3, 5e-4, 1e-3], (count, 1)))
    first_columns = rves.x_h[slot].copy(), rves.x_r[slot].copy()
    R.assemble(rves)
    sigma, c = R.homogenized_tangent_and_alg_stress(rves)
    return (*first_columns, rves.x_h[slot].copy(), rves.x_r[slot].copy(), du[slot], sigma[slot],
            c[slot])


class TestShardPlacement:
    def test_same_rve_gets_the_same_bits_in_any_shard_and_slot(self):
        # each RVE's columns are its own LAPACK call and each product with
        # them one matrix-vector product per RVE, so the neighbours cannot leak in
        geom = porous_geom()
        alone = one_rve_in_a_shard(geom, 1, 0)
        for count in (1, 3, 16):
            for slot in (0, count - 1):
                placed = one_rve_in_a_shard(geom, count, slot)
                for want, got in zip(alone, placed):
                    assert_array_equal(got, want)


class TestTangentAndAlgStress:
    def test_exactly_converged_alg_stress_equals_stress(self):
        p = R.RveBatch(porous_geom())
        R.assemble(p)  # virgin: residual exactly zero
        sigma, _ = condense(p)
        assert_array_equal(sigma, p.sigma_bar[0])

    def test_alg_stress_correction_against_dense_oracle(self):
        geom = porous_geom()
        p = R.RveBatch(geom)
        p.H[0] = H_SHEAR * 0.4
        p.u_hat[0] = 1e-3 * np.cos(np.arange(geom.n_reduced))
        R.assemble(p)
        assert p.residual_norm[0] > 0
        sigma, c = condense(p)
        kd = stiffness(p)
        expected = p.sigma_bar[0] - p.dsig_du[0] @ np.linalg.solve(kd, p.r_hat[0])
        assert_allclose(sigma, expected, rtol=1e-9)
        x = np.linalg.solve(kd, p.dr_dH[0])
        assert_allclose(c, p.dsig_dh[0] - p.dsig_du[0] @ x, rtol=1e-9)

    def test_homogeneous_elastic_tangent_identity(self):
        p = R.RveBatch(homogeneous_geom())
        _, c = converge(p, H_MIXED)
        assert_allclose(c, ELASTIC.stiffness(), atol=1e-9 * ELASTIC.E)

    def test_porous_elastic_voigt_bound(self):
        geom = porous_geom(mat=ELASTIC)
        p = R.RveBatch(geom)
        _, c = converge(p, np.zeros(4))
        solid_fraction = geom.weights_flat.sum() / geom.volume
        c_voigt = solid_fraction * ELASTIC.stiffness()
        probes3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0.5)]
        for e11, e22, gam in probes3:
            h = np.array([e11, gam / 2, gam / 2, e22])
            q_t = h @ c @ h
            q_v = h @ c_voigt @ h
            assert 0.0 < q_t <= q_v * (1 + 1e-9)  # Reuss bound for a void is zero

    def test_laminate_matches_closed_form(self):
        p = R.RveBatch(laminate_geom())
        _, c = converge(p, np.zeros(4))
        expected = laminate_closed_form((ELASTIC, STIFF), (0.5, 0.5))
        assert_allclose(c, expected, atol=1e-8 * np.abs(expected).max())

    def test_laminate_between_voigt_and_reuss(self):
        p = R.RveBatch(laminate_geom())
        _, c = converge(p, np.zeros(4))

        def c3(m):
            return np.array([
                [m.lam + 2 * m.mu, m.lam, 0.0],
                [m.lam, m.lam + 2 * m.mu, 0.0],
                [0.0, 0.0, m.mu],
            ])

        c_voigt = 0.5 * c3(ELASTIC) + 0.5 * c3(STIFF)
        c_reuss = np.linalg.inv(0.5 * np.linalg.inv(c3(ELASTIC)) + 0.5 * np.linalg.inv(c3(STIFF)))
        for e11, e22, gam in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 1)]:
            h = np.array([e11, gam / 2, gam / 2, e22])
            e3 = np.array([e11, e22, gam])
            q_t = h @ c @ h
            assert e3 @ c_reuss @ e3 * (1 - 1e-9) <= q_t <= e3 @ c_voigt @ e3 * (1 + 1e-9)

    def test_consistent_tangent_vs_reconverged_fd(self):
        # smooth plastic state: finite differences of the re-converged stress
        geom = porous_geom()
        h_star = np.array([0.008, 0.009, 0.009, -0.006])

        def converged_sigma(h):
            p = R.RveBatch(geom)
            return converge(p, h, tol=1e-12, max_iter=60)[0]

        p = R.RveBatch(geom)
        _, c_star = converge(p, h_star, tol=1e-12, max_iter=60)
        active = R.evaluate_points(p)[1][0]
        assert active.any() and not active.all()
        step = 1e-6
        fd = np.empty((4, 4))
        for c in range(4):
            hp, hm = h_star.copy(), h_star.copy()
            hp[c] += step
            hm[c] -= step
            fd[:, c] = (converged_sigma(hp) - converged_sigma(hm)) / (2 * step)
        scale = np.abs(c_star).max()
        assert np.abs(fd - c_star).max() <= 1e-4 * scale

    def test_elastic_fd_tangent(self):
        geom = porous_geom(mat=ELASTIC)
        p = R.RveBatch(geom)
        _, c_h = converge(p, H_MIXED)
        step = 1e-6
        fd = np.empty((4, 4))
        for c in range(4):
            hp, hm = H_MIXED.copy(), H_MIXED.copy()
            hp[c] += step
            hm[c] -= step
            pa, pb = R.RveBatch(geom), R.RveBatch(geom)
            fd[:, c] = (converge(pa, hp)[0] - converge(pb, hm)[0]) / (2 * step)
        assert np.abs(fd - c_h).max() <= 1e-4 * np.abs(c_h).max()


class TestStateDiscipline:
    def test_states_commit_only_on_commit(self):
        p = R.RveBatch(porous_geom())
        R.begin_increment(p)
        R.solve_micro_staggered(p, H_SHEAR * 0.45, 1e-9, 30)
        assert p.states.alpha_bar.max() == 0.0  # not yet committed
        assert p.plastic_flow[0]
        R.commit(p)
        assert p.states.alpha_bar.max() > 0.0
        # matrices assembled with a plastic tangent are not carried over
        R.assemble(p)
        assert not p.flagged[0]

    def test_alpha_nondecreasing_across_commits(self):
        p = R.RveBatch(porous_geom())
        prev = R.committed_alpha_bar(p)
        for k in (0.3, 0.45, 0.6):
            R.begin_increment(p)
            R.solve_micro_staggered(p, H_SHEAR * k, 1e-9, 30)
            R.commit(p)
            cur = R.committed_alpha_bar(p)
            assert np.all(cur >= prev - 1e-15)
            prev = cur

    def test_rollback_restores_converged_point(self):
        geom = porous_geom()
        p = R.RveBatch(geom)
        R.begin_increment(p)
        R.solve_micro_staggered(p, H_SHEAR * 0.4, 1e-9, 30)
        R.commit(p)
        u_saved, h_saved = p.u_hat.copy(), p.H.copy()
        R.begin_increment(p)
        R.solve_micro_staggered(p, H_SHEAR * 5.0, 1e-9, 3)
        assert p.failed[0]
        R.rollback(p)
        assert_array_equal(p.u_hat, u_saved)
        assert_array_equal(p.H, h_saved)
        # the rolled-back assembly is a fresh one at the committed point
        # (the converged residual was evaluated from the states before the
        # commit, so it need not match it bit for bit)
        q = R.RveBatch(geom)
        q.states = p.states.copy()
        q.u_hat, q.H = u_saved.copy(), h_saved.copy()
        R.assemble(q)
        assert_array_equal(p.r_hat, q.r_hat)
        assert_array_equal(p.residual_norm, q.residual_norm)

    def test_linear_flag_reuses_factorization(self):
        p = R.RveBatch(porous_geom(mat=ELASTIC))
        R.begin_increment(p)
        converge(p, H_MIXED)
        R.commit(p)
        f_before = p.counts[0, R.FACTORIZATIONS]
        R.begin_increment(p)
        converge(p, 2 * H_MIXED)
        assert p.counts[0, R.FACTORIZATIONS] == f_before  # elastic stiffness never refactorized


@pytest.fixture(scope="module", params=["quad", "tri"])
def shipped_rve(request):
    """The plate-hole quad RVE (n = 116) or the notched-shear tri RVE (n = 44)."""
    if request.param == "quad":
        geom = R.MicroGeometry(rve_porous_quad(default_materials("plate-hole-tension"), n=8))
    else:
        geom = R.MicroGeometry(rve_porous_tri(default_materials("notched-shear"), n=5))
    assert geom.n_reduced == {"quad": 116, "tri": 44}[request.param]
    return geom


def per_rve_arrays(rves):
    """Every per-RVE array of a batch by name, the material states' arrays as (b, points, ...)."""
    out = {name: v for name, v in vars(rves).items() if isinstance(v, np.ndarray) and v.shape[:1] == (rves.b,)}
    for kind in ("states", "trial"):
        s = getattr(rves, kind)
        out[f"{kind}.eps_p"] = s.eps_p.reshape(rves.b, -1, 4)
        out[f"{kind}.alpha_bar"] = s.alpha_bar.reshape(rves.b, -1)
    return out


class TestVirginRve:
    @pytest.mark.parametrize("count", [1, 3, 16])
    def test_batch_construction_solves_and_evaluates_nothing(self, shipped_rve, count, monkeypatch):
        # the virgin RVE is the geometry's: a batch only copies its rows
        def forbidden(*args, **kwargs):
            raise AssertionError("called while a batch is built")

        monkeypatch.setattr(linalg, "factorize", forbidden)
        monkeypatch.setattr(material, "evaluate_batch", forbidden)
        assert R.RveBatch(shipped_rve, count).solved.all()

    @pytest.mark.parametrize("count", [1, 3, 16])
    def test_every_rve_is_the_virgin_row_bitwise(self, shipped_rve, count):
        # the assembled rows are the geometry's virgin_<name>; the virgin
        # RVE is at rest, so every other row is zero, and its columns are solved
        batch = R.RveBatch(shipped_rve, count)
        for name, a in per_rve_arrays(batch).items():
            row = getattr(shipped_rve, f"virgin_{name}", np.full(a.shape[1:], name == "solved", a.dtype))
            assert a.tobytes() == np.repeat(row[None], count, axis=0).tobytes(), name
        # each RVE's (4, n) block of dsig/du stays column-major
        assert batch.dsig_du.strides[1:] == (8, 32)
        assert not batch.failed.any() and not batch.plastic_flow.any()

    def test_the_geometry_holds_the_one_matrix(self):
        # per RVE the batch keeps its condensation columns, 5n numbers; the
        # one n x n array is the geometry's virgin factor K0^-1
        geom = porous_geom()
        n, b = geom.n_reduced, 3
        rves = R.RveBatch(geom, b)
        assert n not in (geom.n_ip, b, 4)
        batch = [a for a in vars(rves).values() if isinstance(a, np.ndarray)]
        assert not [a.shape for a in batch if a.shape[-2:] == (n, n)]
        assert rves.x_h.shape == (b, n, 4) and rves.x_r.shape == (b, n)
        square = [name for name, a in vars(geom).items() if isinstance(a, np.ndarray) and a.shape[-2:] == (n, n)]
        assert square == ["virgin_inverse"]


@pytest.fixture(scope="module")
def two_passes():
    """Batches of the notched-bending composite RVE (J2 matrix, elastic inclusion).

    ``two_passes(rows)`` is a batch of the given rows of three RVEs,
    assembled, committed and assembled again, without a second commit.
    """
    geom = R.MicroGeometry(rve_composite(default_materials("notched-bending-2d"), STIFF, n=6))
    h1 = np.outer([0.6, 0.8, 1.0], [0.004, 0.008, 0.008, -0.002])
    h2 = np.outer([1.0, 0.5, 1.3], [-0.002, 0.009, 0.007, 0.003])
    u = 2e-3 * np.sin(np.arange(geom.n_reduced) + np.arange(3)[:, None])

    def passes(rows):
        rves = R.RveBatch(geom, len(h1[rows]))
        rves.H[:], rves.u_hat[:] = h1[rows], u[rows]
        R.assemble(rves)
        R.commit(rves)
        rves.H[:] = h2[rows]
        R.assemble(rves)
        return rves

    return passes


class TestCompositeShard:
    def test_one_pass_equals_one_rve_passes_bitwise(self, two_passes):
        # a 3-RVE shard is assembled, committed and assembled again in one
        # pass each, with one material evaluation over all its points; every
        # per-RVE array equals that of the RVE's own one-RVE batch
        shard = two_passes(slice(None))
        active = R.evaluate_points(shard)[1]
        assert 0 < shard.states.alpha_bar.max() and active.any() and not active.all()
        assert (active.sum(axis=1) != active[0].sum()).any()
        got = per_rve_arrays(shard)
        for i in range(3):
            want = per_rve_arrays(two_passes(slice(i, i + 1)))
            assert got.keys() == want.keys()
            for name, a in want.items():
                assert got[name][i:i + 1].tobytes() == a.tobytes(), (i, name)

    def test_points_on_demand_are_those_the_assembly_evaluated(self, two_passes):
        # after a plastic pass and before its commit, the point stresses
        # give the assembly's internal forces bit for bit, and the yielding
        # flags its per-RVE plastic flow
        shard = two_passes(slice(None))
        sigma, active = R.evaluate_points(shard)
        assert shard.plastic_flow.any()
        assert shard.geom.plan.internal_force(sigma).tobytes() == shard.f_full.tobytes()
        assert_array_equal(active.any(axis=1), shard.plastic_flow)


class TestRetainedColumns:
    @pytest.mark.parametrize("scheme, solver", [
        pytest.param("staggered", {"dt_initial": 0.125, "dt_max": 0.125}, id="staggered"),
        pytest.param("monolithic-stored", {"dt_initial": 0.125, "dt_max": 0.125}, id="monolithic-stored"),
        pytest.param("staggered", {"dt_initial": 0.25, "dt_max": 0.25, "n_max": 3}, id="staggered-cuts"),
    ])
    def test_flagged_rve_has_the_virgin_matrices_bitwise(self, scheme, solver, monkeypatch):
        # a linear-flagged RVE is solved on the geometry's virgin columns: that
        # holds because the matrices it kept are the virgin ones bit for
        # bit, here checked after every assembly of a run through elastic,
        # yielding and plastic increments; in the cut case rollbacks
        # reassemble RVEs over the columns of a failed attempt
        model = build_benchmark("notched-shear", scheme, n_macro=3, n_micro=4)
        geom = model.micro_geometry
        assemble, seen = R.assemble, []

        def checked(rves, mask=None, newton=False):
            out = assemble(rves, mask, newton)
            rows = np.flatnonzero(rves.flagged & (True if mask is None else mask))
            seen.append(len(rows))
            for name in ("kvals", "dr_dH", "dsig_du", "dsig_dh", "x_h"):
                virgin = getattr(geom, f"virgin_{name}")
                assert getattr(rves, name)[rows].tobytes() == np.repeat(virgin[None], len(rows), axis=0).tobytes()
            assert rves.solved[rows].all()
            return out

        monkeypatch.setattr(R, "assemble", checked)
        rep = run(model, SolverSettings(tol_macro=1e-9, tol_micro=1e-9, **solver))
        assert rep.converged and any(r.plastic_flow for r in rep.records)
        assert any(r.cut_events for r in rep.records) == ("n_max" in solver)
        assert sum(seen) > 0

    def test_flagged_condensation_is_the_virgin_tangent(self):
        # a flagged RVE's tangent is C0 with no solve; a fresh assembly of
        # the same elastic state condenses to it bit for bit
        geom = porous_geom()
        p = R.RveBatch(geom)
        for h in (0.1 * H_MIXED, 0.2 * H_MIXED):
            R.begin_increment(p)
            converge(p, h)
            R.commit(p)
        assert p.flagged[0] and not p.plastic_flow[0]
        counts = p.counts.copy()
        sigma, c = condense(p)
        assert c.tobytes() == geom.virgin_c.tobytes()
        assert_array_equal(sigma, p.sigma_bar[0])
        assert_array_equal(p.counts, counts)
        fresh = R.RveBatch(geom)
        fresh.states = p.states.copy()
        fresh.u_hat, fresh.H = p.u_hat.copy(), p.H.copy()
        fresh.plastic_flow[:] = True  # as if never assembled: the assembly is fresh
        R.assemble(fresh)
        assert not fresh.flagged[0]
        assert condense(fresh, alg_stress=False)[1].tobytes() == geom.virgin_c.tobytes()
        assert fresh.counts[0, R.AUX_SOLVES] == fresh.counts[0, R.FACTORIZATIONS] == 1

    def test_batch_keeps_no_point_array_but_the_material_states(self, shipped_rve):
        # per point the batch keeps only the committed and trial material
        # states; the geometry's linear maps keep the nodal force map alone
        geom, b = shipped_rve, 3
        assert geom.n_ip not in (geom.n_reduced, geom.mesh.n_dofs, b)
        rves = R.RveBatch(geom, b)
        R.monolithic_pass(rves, np.zeros((b, 4)))
        per_point = [name for name, a in per_rve_arrays(rves).items() if a.shape[1:2] == (geom.n_ip,)]
        assert sorted(per_point) == ["states.alpha_bar", "states.eps_p", "trial.alpha_bar", "trial.eps_p"]
        assert geom.response.shape == (4, geom.mesh.n_dofs)

    def test_virgin_factor_is_the_inverse_of_the_virgin_stiffness(self):
        geom = porous_geom()
        rves = R.RveBatch(geom)
        R.assemble(rves)  # the virgin state, assembled
        k0 = stiffness(rves)
        assert_array_equal(rves.kvals[0], geom.virgin_kvals)
        n = geom.n_reduced
        assert_allclose(k0 @ geom.virgin_inverse, np.eye(n), atol=1e-10)
        assert_allclose(k0 @ geom.virgin_x_h, rves.dr_dH[0], atol=1e-10 * np.abs(rves.dr_dH).max())

    @pytest.mark.parametrize("tangent", [True, False], ids=["five-column", "residual-only"])
    @pytest.mark.parametrize("fault", [None, "singular", "nan-upper", "nan-lower"],
                             ids=["regular", "singular-middle", "nan-upper-middle", "nan-lower-middle"])
    def test_reused_matrix_does_not_leak_between_rves(self, tangent, fault):
        # the RVEs of a call share one matrix, which LAPACK overwrites with
        # each factor: each RVE's columns are bitwise those of its own
        # stiffness solved alone, and a singular RVE in the middle, or one
        # with a NaN in one packed slot of either triangle (LAPACK reads the
        # upper one only), fails alone, uncounted
        geom = porous_geom()
        rves = shard_of(geom, 3)
        rows, cols = np.divmod(geom.plan.flat, geom.n_reduced)
        if fault == "singular":
            rves.kvals[1, (rows == 0) | (cols == 0)] = 0.0
        elif fault is not None:
            rves.kvals[1, np.flatnonzero(rows < cols if fault == "nan-upper" else rows > cols)[7]] = np.nan
        x_h, x_r, counts = rves.x_h.copy(), rves.x_r.copy(), rves.counts.copy()
        R._solve_columns(rves, np.ones(3, dtype=bool), tangent)
        for i in range(3):
            if fault is not None and i == 1:
                assert rves.failed[i] and not rves.solved[i]
                assert_array_equal(rves.counts[i], counts[i])
                assert_array_equal(rves.x_h[i], x_h[i])
                assert_array_equal(rves.x_r[i], x_r[i])
                continue
            rhs = rves.r_hat[i, :, None]
            if tangent:
                rhs = np.concatenate([rves.dr_dH[i], rhs], axis=1)
            alone = linalg.factorize(geom.plan.dense(rves.kvals[i]), rhs).columns
            assert rves.solved[i] and not rves.failed[i]
            assert rves.counts[i, R.FACTORIZATIONS] == counts[i, R.FACTORIZATIONS] + 1
            assert_array_equal(rves.x_r[i], alone[:, -1])
            assert_array_equal(rves.x_h[i], alone[:, :4] if tangent else x_h[i])


# applied gradients of a load-unload path, in units of H_SHEAR: plastic flow
# up to 0.8, then elastic unloading to 0.4 and reloading to 0.6
LOAD_UNLOAD = [0.2, 0.5, 0.8, 0.7, 0.6, 0.5, 0.4, 0.5, 0.6]


class TestLoadUnload:
    """An RVE unloading elastically from plastic flow is flagged at its second elastic assembly."""

    @staticmethod
    def staggered(shard, h):
        shard.block.h[:] = h
        shard.staggered(1e-10, 40)

    @staticmethod
    def monolithic(shard, h):
        """Monolithic sweeps of ``shard``, each a pass and the condensation call, to micro equilibrium at ``h``."""
        shard.block.h[:] = h - shard.rves.H[0]
        for _ in range(40):
            shard.monolithic()
            if shard.block.rnorm[0] <= 1e-10 * shard.block.ref[0]:
                return
            shard.block.h[:] = 0.0
        raise AssertionError("no micro equilibrium")

    @pytest.mark.parametrize("sweep, store", [("staggered", True), ("monolithic", True),
                                              ("monolithic", False)],
                             ids=["staggered", "monolithic-stored", "monolithic"])
    def test_unloading_rve_reuses_the_virgin_matrices(self, sweep, store):
        geom = porous_geom()
        shard = macro._Shard(geom, 1, store)
        rves = shard.rves
        factorizations, plastic = [], []
        for k in LOAD_UNLOAD:
            R.begin_increment(rves)
            before = rves.counts[0, R.FACTORIZATIONS]
            getattr(self, sweep)(shard, k * H_SHEAR)
            factorizations.append(rves.counts[0, R.FACTORIZATIONS] - before)
            plastic.append(rves.plastic_flow[0])
            R.commit(rves)
        assert plastic == [False, True, True] + [False] * 6
        # the first unloading assembly follows a plastic one and is fresh;
        # from the second on the RVE is flagged and factorizes nothing
        assert factorizations[3] > 0 and not any(factorizations[4:])
        assert rves.flagged[0] and rves.states.alpha_bar.max() > 0.0
        fresh = R.RveBatch(geom)
        fresh.states = rves.states.copy()
        fresh.u_hat, fresh.H = rves.u_hat.copy(), rves.H.copy()
        fresh.plastic_flow[:] = True  # as if never assembled: the assembly is fresh
        R.assemble(fresh)
        assert not fresh.flagged[0]
        for name in ("kvals", "dr_dH", "dsig_du", "dsig_dh"):
            assert_array_equal(getattr(rves, name), getattr(fresh, name), name)
        assert_array_equal(rves.x_h[0], geom.virgin_x_h)


# sizes at which each shipped benchmark has both plastic and certified passes
CERTIFIED_SIZES = {
    "notched-shear": {"n_macro": 3, "n_micro": 4},
    "plate-hole-tension": {"n_macro": 3, "n_micro": 4},
    "notched-bending-2d": {"nx": 6, "ny": 2, "n_micro": 4},
}


def assert_near(got, want, rtol, what):
    """|got - want| within rtol of want's largest magnitude."""
    assert np.abs(got - want).max() <= rtol * np.abs(want).max(), what


class TestCertifiedElastic:
    """Certified-elastic RVEs of a monolithic sweep take their condensed linear response."""

    @pytest.mark.parametrize("name", sorted(CERTIFIED_SIZES))
    def test_certified_pass_is_what_an_assembly_finds(self, name, monkeypatch):
        # after every certified pass of a run, the certified RVEs assembled
        # in full at the same (u_hat, H) yield at no point, and give the
        # superposed stresses, forces and trial state
        update, certified = R.certified_update, []

        def checked(rves, delta_h):
            rest = update(rves, delta_h)
            cert = ~rest
            if cert.any():
                full = copy.deepcopy(rves, memo={id(rves.geom): rves.geom})
                R.assemble(full, cert)
                assert not full.plastic_flow[cert].any() and full.flagged[cert].all()
                for field, rtol in (("sigma_bar", 1e-12), ("f_full", 1e-10)):
                    assert_near(getattr(rves, field)[cert], getattr(full, field)[cert], rtol, field)
                for kind in ("eps_p", "alpha_bar"):
                    trial, want, committed = (getattr(s, kind).reshape(rves.b, -1)[cert]
                                              for s in (rves.trial, full.trial, rves.states))
                    assert_array_equal(trial, committed)
                    assert np.abs(trial - want).max() <= 1e-12 * np.abs(want).max(), kind
                certified.append(cert.sum())
            return rest

        monkeypatch.setattr(R, "certified_update", checked)
        rep = run(build_benchmark(name, "monolithic-stored", **CERTIFIED_SIZES[name]),
                  SolverSettings(**BENCH_SOLVER_DEFAULTS[name]))
        assert rep.converged and any(r.plastic_flow for r in rep.records)
        assert sum(certified) > 0

    @staticmethod
    def drive(geom, steps, rves=None):
        """One-RVE monolithic sweeps by ``steps``; per pass (certified, sigma_bar, active).

        Each sweep is a shard's: the pass, then the condensation call. The
        walk starts from rest unless a batch ``rves`` is given.
        """
        rves = R.RveBatch(geom) if rves is None else rves
        passes = []
        for dh in steps:
            certified = R.monolithic_pass(rves, np.reshape(dh, (1, 4)))[0]
            R.homogenized_tangent_and_alg_stress(rves)  # the sweep's condensation call
            passes.append((certified, rves.sigma_bar[0].copy(), R.evaluate_points(rves)[1][0]))
        return rves, passes

    def test_fixed_step_is_certified_below_the_radius_and_yields_as_without_it(self, monkeypatch):
        # a first pass at rest records the radius; a fixed step along one
        # direction stays certified below it, the first pass past it is a
        # full one, and the walk yields at the same pass and points, with
        # the same stresses, as with every radius 0
        geom = porous_geom()
        rves, _ = self.drive(geom, [np.zeros(4)])
        rho = rves.radius[0]
        assert 0.0 < rho < np.inf
        step = rho / 3.5 * H_SHEAR / np.linalg.norm(H_SHEAR)
        steps = [np.zeros(4)] + [step] * 60
        _, passes = self.drive(geom, steps)
        certified = [c for c, _, _ in passes]
        assert certified[:5] == [False, True, True, True, False]
        first_yield = next(k for k, (_, _, active) in enumerate(passes) if active.any())
        assert not certified[first_yield]

        def radius_zero(rves, mask=None, newton=False):
            out = assemble(rves, mask, newton)
            rves.radius[:] = 0.0
            return out

        assemble = R.assemble
        monkeypatch.setattr(R, "assemble", radius_zero)
        _, uncertified = self.drive(geom, steps)
        assert not any(c for c, _, _ in uncertified)
        for k, ((_, sigma, active), (_, want, active0)) in enumerate(zip(passes, uncertified)):
            assert_array_equal(active, active0)
            assert_near(sigma, want, 1e-12, k)

    def test_rollback_after_certified_passes_restores_the_committed_state(self):
        geom = porous_geom()
        step = 1e-4 * H_SHEAR
        rves, _ = self.drive(geom, [step])
        R.commit(rves)
        at_commit = {name: getattr(rves, name).copy() for name in
                     ("sigma_bar", "f_full", "r_hat", "residual_norm", "u_hat", "H")}
        _, passes = self.drive(geom, [step] * 3, rves)
        assert all(c for c, _, _ in passes)
        R.rollback(rves)
        for name, want in at_commit.items():
            assert_array_equal(getattr(rves, name), want, name)
        assert_array_equal(rves.trial.eps_p, rves.states.eps_p)
        assert_array_equal(rves.trial.alpha_bar, rves.states.alpha_bar)
        assert rves.radius[0] == 0.0
