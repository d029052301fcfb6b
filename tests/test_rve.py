"""Tests for the periodic micro problem: constraints, homogenization, schemes."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fescale import linalg
from fescale import rve as R
from fescale.benchmarks import grid_quads, rve_laminate, rve_porous_tri, rve_single_element
from fescale.errors import GeometryError, MicroDivergenceError, SingularMatrixError, StructuralError
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


def converge(rve, h_target, tol=1e-10, max_iter=40):
    return R.solve_micro_staggered(rve, np.asarray(h_target, dtype=float), tol, max_iter)


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
        p = R.RveProblem(homogeneous_geom())
        p.H = H_MIXED.copy()  # u_hat = 0 means u = H*X exactly
        asm = R.assemble(p)
        assert asm.residual_norm <= 1e-14 * ELASTIC.E

    def test_unloaded_virgin_state(self):
        p = R.RveProblem(porous_geom())
        asm = R.assemble(p)
        assert asm.residual_norm == 0.0
        assert not asm.plastic_flow
        k = asm.k_t.to_dense()
        assert np.abs(k - k.T).max() <= 1e-10 * np.abs(k).max()

    def test_dr_dh_against_finite_difference(self):
        geom = laminate_geom()
        p = R.RveProblem(geom)
        p.H = H_MIXED.copy()
        p.u_hat = 1e-3 * np.sin(np.arange(geom.n_reduced))
        asm = R.assemble(p)
        step = 1e-7
        for c in range(4):
            hp, hm = p.H.copy(), p.H.copy()
            hp[c] += step
            hm[c] -= step
            p.H = hp
            rp = R.assemble(p).r_hat.copy()
            p.H = hm
            rm = R.assemble(p).r_hat.copy()
            p.H = H_MIXED.copy()
            fd = (rp - rm) / (2 * step)
            scale = max(np.abs(asm.dr_dH[:, c]).max(), 1.0)
            assert np.abs(fd - asm.dr_dH[:, c]).max() <= 1e-5 * scale


class TestHomogenization:
    def test_homogeneous_elastic_identity(self):
        p = R.RveProblem(homogeneous_geom())
        out = converge(p, H_MIXED)
        assert_allclose(out.sigma_bar, ELASTIC.stiffness() @ H_MIXED, rtol=1e-10)

    def test_zero_load_zero_stress(self):
        p = R.RveProblem(porous_geom())
        out = converge(p, np.zeros(4))
        assert_array_equal(out.sigma_bar, np.zeros(4))

    def test_laminate_transverse_reuss(self):
        p = R.RveProblem(laminate_geom())
        e = 0.002
        out = converge(p, [0.0, 0.0, 0.0, e])
        big_m = [m.lam + 2 * m.mu for m in (ELASTIC, STIFF)]
        reuss = 1.0 / (0.5 / big_m[0] + 0.5 / big_m[1])
        assert_allclose(out.sigma_bar[3], reuss * e, rtol=1e-8)

    def test_boundary_sum_equals_volume_average(self):
        for geom in (laminate_geom(), porous_geom()):
            p = R.RveProblem(geom)
            converge(p, H_MIXED)
            assert_allclose(
                R.homogenize_stress(p), R.volume_average_stress(p),
                rtol=1e-10, atol=1e-12 * ELASTIC.E,
            )

    def test_averaging_relation_any_constrained_field(self):
        # volume form on a full mesh, surface form on the porous mesh
        rng = np.random.default_rng(11)
        p = R.RveProblem(laminate_geom())
        p.H = H_MIXED.copy()
        p.u_hat = 1e-3 * rng.standard_normal(p.geom.n_reduced)
        assert_allclose(R.average_gradient(p), p.H, atol=1e-10)
        q = R.RveProblem(porous_geom())
        q.H = H_MIXED.copy()
        q.u_hat = 1e-3 * rng.standard_normal(q.geom.n_reduced)
        assert_allclose(R.boundary_average_gradient(q), q.H, atol=1e-10)

    def test_hill_mandel_at_equilibrium(self):
        geom = porous_geom()
        p = R.RveProblem(geom)
        out = converge(p, H_MIXED)
        rng = np.random.default_rng(3)
        for _ in range(3):
            h_var = rng.standard_normal(4)
            u_var = rng.standard_normal(geom.n_reduced)
            u_full = R.full_displacement(p, u_hat=u_var, h=h_var)
            lhs = 0.0
            for blk in geom.blocks:
                hv = np.einsum("eqab,eb->eqa", blk["B"], u_full[blk["edofs"]])
                lo = blk["ip_offset"]
                sig = p.cached.sigma_ips[lo:lo + blk["n_ip"]].reshape(hv.shape)
                lhs += np.einsum("eq,eqa,eqa->", blk["w"], sig, hv)
            lhs /= geom.volume
            rhs = out.sigma_bar @ h_var
            assert_allclose(lhs, rhs, rtol=1e-9)

    def test_anti_periodic_boundary_forces(self):
        geom = porous_geom()
        p = R.RveProblem(geom)
        converge(p, H_MIXED)
        f = p.cached.f_full.reshape(-1, 2)
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
        p = R.RveProblem(geom)
        converge(p, H_MIXED)
        interior = np.setdiff1d(np.arange(geom.mesh.n_nodes), geom.boundary_nodes)
        f = p.cached.f_full.reshape(-1, 2)
        assert np.abs(f[interior]).max() <= 1e-9 * np.abs(f).max()


class TestStaggeredMicro:
    def test_elastic_single_iteration(self):
        p = R.RveProblem(porous_geom(mat=ELASTIC))
        out = converge(p, H_MIXED)
        assert out.micro_iterations == 1

    def test_plastic_converges_with_symmetric_tangent(self):
        p = R.RveProblem(porous_geom())
        R.begin_increment(p)
        out = R.solve_micro_staggered(p, H_SHEAR * 0.5, 5e-3, 20)
        assert out.residual_norm <= 5e-3 * R.residual_reference(p)
        assert out.micro_iterations >= 2
        c = out.c_tangent
        assert np.abs(c - c.T).max() <= 1e-8 * np.abs(c).max()

    def test_budget_overrun_signals_divergence(self):
        p = R.RveProblem(porous_geom())
        with pytest.raises(MicroDivergenceError):
            R.solve_micro_staggered(p, H_SHEAR * 0.5, 1e-10, 1)

    def test_already_converged_counts_one_recheck(self):
        p = R.RveProblem(porous_geom(mat=ELASTIC))
        converge(p, H_MIXED)
        R.commit(p)
        out = converge(p, H_MIXED)  # same target again
        assert out.micro_iterations == 1  # re-check only, no solves needed

    def test_staggered_factorization_counts(self):
        p = R.RveProblem(porous_geom())
        R.begin_increment(p)
        out = R.solve_micro_staggered(p, H_SHEAR * 0.45, 1e-9, 20)
        # plastic: one factorization per Newton solve plus the tangent one
        assert out.factorizations == out.micro_iterations + 1


class TestMonolithicMicro:
    def test_zero_rhs_zero_update(self):
        p = R.RveProblem(porous_geom())
        R.assemble(p)
        R.ensure_factorization(p)
        du = R.micro_update_monolithic(p, np.zeros(4))
        assert_array_equal(du, np.zeros(p.geom.n_reduced))

    def test_elastic_update_reaches_equilibrium(self):
        p = R.RveProblem(porous_geom(mat=ELASTIC))
        converge(p, H_MIXED)
        R.commit(p)
        R.begin_increment(p)
        R.micro_update_monolithic(p, 0.5 * H_MIXED)
        asm = R.assemble(p)
        assert asm.residual_norm <= 1e-10 * R.residual_reference(p)

    def test_agreement_with_staggered_from_same_state(self):
        geom = porous_geom()
        a = R.RveProblem(geom)
        out_a = converge(a, H_SHEAR * 0.5, tol=1e-12)

        b = R.RveProblem(geom)
        R.assemble(b)
        R.micro_update_monolithic(b, H_SHEAR * 0.5)
        for _ in range(40):
            asm = R.assemble(b)
            if asm.residual_norm <= 1e-12 * R.residual_reference(b):
                break
            R.micro_update_monolithic(b, np.zeros(4))
        sig_b = R.homogenize_stress(b)
        scale = np.abs(out_a.sigma_bar).max()
        assert_allclose(sig_b, out_a.sigma_bar, rtol=1e-8, atol=1e-8 * scale)


def shard_of(geom, count, store=True):
    """RVEs in consecutive slots of one band stack, assembled at a plastic state."""
    bands = geom.layout.empty_stack(count)
    rves = [R.RveProblem(geom, store, bands, slot) for slot in range(count)]
    for i, p in enumerate(rves):
        p.H = H_SHEAR * (0.3 + 0.05 * i)
        p.u_hat = 1e-3 * np.cos(np.arange(geom.n_reduced) + i)
        R.assemble(p)
    return rves


class TestStackedSweep:
    @pytest.mark.parametrize("store", [True, False])
    def test_batch_equals_one_rve_at_a_time_bitwise(self, store):
        geom = porous_geom()
        dh = np.outer(np.arange(1, 4), [1e-3, -2e-3, 5e-4, 1e-3])
        batch, single = shard_of(geom, 3, store), shard_of(geom, 3, store)
        du = R.micro_update_monolithic(batch, dh)
        for i, p in enumerate(single):
            assert_array_equal(du[i], R.micro_update_monolithic(p, dh[i]))
        for a, b in zip(batch, single):
            R.assemble(a)
            R.assemble(b)
        outs = R.homogenized_tangent_and_alg_stress(batch)
        for out, p, q in zip(outs, single, batch):
            ref = R.homogenized_tangent_and_alg_stress(p)
            assert_array_equal(out.sigma_alg, ref.sigma_alg)
            assert_array_equal(out.c_tangent, ref.c_tangent)
            assert out.factorizations == ref.factorizations
            assert q.counter_tuple() == p.counter_tuple()
            assert_array_equal(q.u_hat, p.u_hat)

    def test_singular_pivot_in_sweep_names_the_row(self):
        geom = porous_geom()
        rves = shard_of(geom, 2)
        asm = rves[1].cached
        dense = asm.k_t.to_dense()
        dense[5, :] = 0.0
        dense[:, 5] = 0.0
        asm.k_t = asm.k_t.with_values(dense[asm.k_t.row_of_entries(), asm.k_t.col_indices])
        with pytest.raises(SingularMatrixError) as exc:
            R.micro_update_monolithic(rves, np.zeros((2, 4)))
        assert exc.value.pivot_index == 5

    def test_batch_must_fill_consecutive_slots_of_one_stack(self):
        geom = porous_geom()
        rves = shard_of(geom, 3)
        with pytest.raises(StructuralError):
            R.micro_update_monolithic([rves[0], rves[2]], np.zeros((2, 4)))
        with pytest.raises(StructuralError):
            R.homogenized_tangent_and_alg_stress([rves[0], R.RveProblem(geom)])


class TestTangentAndAlgStress:
    def test_exactly_converged_alg_stress_equals_stress(self):
        p = R.RveProblem(porous_geom())
        R.assemble(p)  # virgin: residual exactly zero
        out = R.homogenized_tangent_and_alg_stress(p)
        assert_array_equal(out.sigma_alg, out.sigma_bar)

    def test_alg_stress_correction_against_dense_oracle(self):
        geom = porous_geom()
        p = R.RveProblem(geom)
        p.store_factorization = True
        p.H = H_SHEAR * 0.4
        p.u_hat = 1e-3 * np.cos(np.arange(geom.n_reduced))
        asm = R.assemble(p)
        assert asm.residual_norm > 0
        out = R.homogenized_tangent_and_alg_stress(p)
        kd = asm.k_t.to_dense()
        expected = asm.sigma_bar - asm.dsig_du @ np.linalg.solve(kd, asm.r_hat)
        assert_allclose(out.sigma_alg, expected, rtol=1e-9)
        x = np.linalg.solve(kd, asm.dr_dH)
        assert_allclose(out.c_tangent, asm.dsig_dh - asm.dsig_du @ x, rtol=1e-9)

    def test_homogeneous_elastic_tangent_identity(self):
        p = R.RveProblem(homogeneous_geom())
        out = converge(p, H_MIXED)
        assert_allclose(out.c_tangent, ELASTIC.stiffness(), atol=1e-9 * ELASTIC.E)

    def test_porous_elastic_voigt_bound(self):
        geom = porous_geom(mat=ELASTIC)
        p = R.RveProblem(geom)
        out = converge(p, np.zeros(4))
        solid_fraction = geom.weights_flat.sum() / geom.volume
        c_voigt = solid_fraction * ELASTIC.stiffness()
        probes3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0.5)]
        for e11, e22, gam in probes3:
            h = np.array([e11, gam / 2, gam / 2, e22])
            q_t = h @ out.c_tangent @ h
            q_v = h @ c_voigt @ h
            assert 0.0 < q_t <= q_v * (1 + 1e-9)  # Reuss bound for a void is zero

    def test_laminate_matches_closed_form(self):
        p = R.RveProblem(laminate_geom())
        out = converge(p, np.zeros(4))
        expected = laminate_closed_form((ELASTIC, STIFF), (0.5, 0.5))
        assert_allclose(out.c_tangent, expected, atol=1e-8 * np.abs(expected).max())

    def test_laminate_between_voigt_and_reuss(self):
        p = R.RveProblem(laminate_geom())
        out = converge(p, np.zeros(4))

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
            q_t = h @ out.c_tangent @ h
            assert e3 @ c_reuss @ e3 * (1 - 1e-9) <= q_t <= e3 @ c_voigt @ e3 * (1 + 1e-9)

    def test_consistent_tangent_vs_reconverged_fd(self):
        # smooth plastic state: finite differences of the re-converged stress
        geom = porous_geom()
        h_star = np.array([0.008, 0.009, 0.009, -0.006])

        def converged_sigma(h):
            p = R.RveProblem(geom)
            out = converge(p, h, tol=1e-12, max_iter=60)
            return out.sigma_bar

        p = R.RveProblem(geom)
        out = converge(p, h_star, tol=1e-12, max_iter=60)
        assert p.cached.active.any() and not p.cached.active.all()
        step = 1e-6
        fd = np.empty((4, 4))
        for c in range(4):
            hp, hm = h_star.copy(), h_star.copy()
            hp[c] += step
            hm[c] -= step
            fd[:, c] = (converged_sigma(hp) - converged_sigma(hm)) / (2 * step)
        scale = np.abs(out.c_tangent).max()
        assert np.abs(fd - out.c_tangent).max() <= 1e-4 * scale

    def test_elastic_fd_tangent(self):
        geom = porous_geom(mat=ELASTIC)
        p = R.RveProblem(geom)
        out = converge(p, H_MIXED)
        step = 1e-6
        fd = np.empty((4, 4))
        for c in range(4):
            hp, hm = H_MIXED.copy(), H_MIXED.copy()
            hp[c] += step
            hm[c] -= step
            pa, pb = R.RveProblem(geom), R.RveProblem(geom)
            fd[:, c] = (converge(pa, hp).sigma_bar - converge(pb, hm).sigma_bar) / (2 * step)
        assert np.abs(fd - out.c_tangent).max() <= 1e-4 * np.abs(out.c_tangent).max()


class TestStateDiscipline:
    def test_states_commit_only_on_commit(self):
        p = R.RveProblem(porous_geom())
        R.begin_increment(p)
        R.solve_micro_staggered(p, H_SHEAR * 0.45, 1e-9, 30)
        assert all(s.alpha_bar.max() == 0.0 for s in p.states)  # not yet committed
        assert p.cached.plastic_flow
        R.commit(p)
        assert max(s.alpha_bar.max() for s in p.states) > 0.0
        assert p.last_step_linear is False

    def test_alpha_nondecreasing_across_commits(self):
        p = R.RveProblem(porous_geom())
        prev = R.committed_alpha_bar(p)
        for k in (0.3, 0.45, 0.6):
            R.begin_increment(p)
            R.solve_micro_staggered(p, H_SHEAR * k, 1e-9, 30)
            R.commit(p)
            cur = R.committed_alpha_bar(p)
            assert np.all(cur >= prev - 1e-15)
            prev = cur

    def test_rollback_restores_converged_point(self):
        p = R.RveProblem(porous_geom())
        R.begin_increment(p)
        R.solve_micro_staggered(p, H_SHEAR * 0.4, 1e-9, 30)
        r_converged = p.cached.residual_norm
        R.commit(p)
        u_saved = p.u_hat.copy()
        R.begin_increment(p)
        with pytest.raises(MicroDivergenceError):
            R.solve_micro_staggered(p, H_SHEAR * 5.0, 1e-9, 3)
        R.rollback(p)
        assert_array_equal(p.u_hat, u_saved)
        # reassembly at the restored point reproduces the converged residual
        assert p.cached.residual_norm == r_converged

    def test_linear_flag_reuses_factorization(self):
        p = R.RveProblem(porous_geom(mat=ELASTIC))
        R.begin_increment(p)
        converge(p, H_MIXED)
        R.commit(p)
        f_before = p.factorizations
        R.begin_increment(p)
        converge(p, 2 * H_MIXED)
        assert p.factorizations == f_before  # elastic stiffness never refactorized
