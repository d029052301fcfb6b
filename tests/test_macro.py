"""Tests for the two-scale drivers: schemes, stepping, extrapolation, pools."""

import hashlib
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fescale.benchmarks import build_benchmark, rve_porous_tri, rve_single_element
from fescale import linalg
from fescale.errors import (
    MeshQualityError,
    MicroDivergenceError,
    SingularMatrixError,
    StructuralError,
)
from fescale.macro import (
    IncrementRecord,
    SolverSettings,
    TwoScaleModel,
    adapt_step,
    extrapolate_initial_guess,
    run,
)
from fescale.material import ElasticParams, PlasticParams
from fescale.mesh import QUAD4, TRI3, ElementBlock, Mesh

ELASTIC = ElasticParams(E=100.0, nu=0.3)
PLASTIC = PlasticParams(ELASTIC, sigma0=1.0, h=2.0)

TIGHT = dict(tol_macro=1e-9, tol_micro=1e-9)


def bar_model(scheme, micro=None, force=0.2):
    """Single macro quad in uniaxial strain, force driven at the top edge."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = Mesh(nodes, [ElementBlock(QUAD4, [[0, 1, 2, 3]])])
    micro = micro or rve_single_element(ELASTIC)
    dirichlet = [(2 * n, 0.0) for n in range(4)] + [(1, 0.0), (3, 0.0)]
    loads = [(5, force / 2), (7, force / 2)]
    return TwoScaleModel(
        macro_mesh=mesh, dirichlet=dirichlet, point_loads=loads,
        micro_model=micro, scheme=scheme, control_dof=5,
        reaction_dofs=np.array([5, 7]), name="bar",
    )


def stretch_model(scheme, micro, u_end=0.02):
    """Single macro triangle, fully prescribed: drives one RVE directly."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(nodes, [ElementBlock(TRI3, [[0, 1, 2]])])
    dirichlet = [(0, 0.0), (1, 0.0), (2, u_end), (3, 0.0), (4, u_end), (5, 0.0)]
    return TwoScaleModel(
        macro_mesh=mesh, dirichlet=dirichlet, point_loads=[],
        micro_model=micro, scheme=scheme, control_dof=2,
        reaction_dofs=np.array([2, 4]), name="stretch",
    )


class TestSettings:
    def test_invariants_validated(self):
        with pytest.raises(StructuralError):
            SolverSettings(cut_factor=1.5)
        with pytest.raises(StructuralError):
            SolverSettings(growth_factor=0.9)
        with pytest.raises(StructuralError):
            SolverSettings(dt_initial=0.5, dt_max=0.25)


class TestExtrapolation:
    def test_identical_history_predicts_current(self):
        u = np.array([1.0, 2.0, 3.0])
        assert_array_equal(extrapolate_initial_guess(u, u, 1.0, 5), u)

    def test_linear_ramp_exact(self):
        u_nm1 = np.array([1.0, -2.0])
        u_n = np.array([2.0, -4.0])
        assert_allclose(extrapolate_initial_guess(u_n, u_nm1, 1.0, 3), [3.0, -6.0])

    def test_needs_two_commits(self):
        u_n = np.array([2.0])
        assert_array_equal(extrapolate_initial_guess(u_n, np.array([1.0]), 1.0, 1), u_n)

    def test_elastic_ramp_converges_in_one_iteration(self):
        model = bar_model("staggered")
        settings = SolverSettings(dt_initial=0.2, dt_max=0.2, extrapolate=True, **TIGHT)
        report = run(model, settings)
        assert report.converged
        # from the third increment on, the predictor is exact
        assert all(r.macro_iterations == 1 for r in report.records[2:])


class TestAdaptStep:
    def test_cut_signal(self):
        rec = IncrementRecord(index=1, load_factor=0.1, dt=0.1, converged=False)
        settings = SolverSettings(cut_factor=0.5, dt_initial=0.05, dt_max=0.2)
        nd, retry = adapt_step(rec, settings)
        assert nd == pytest.approx(0.05) and retry

    def test_staggered_grow_on_easy_increment(self):
        rec = IncrementRecord(index=1, load_factor=0.1, dt=0.1, converged=True,
                              micro_iters_max=2, scheme="staggered")
        settings = SolverSettings(n_max=12, dt_initial=0.1, dt_max=1.0, growth_factor=1.5)
        nd, retry = adapt_step(rec, settings)
        assert nd == pytest.approx(0.15) and not retry

    def test_staggered_hold_between_thresholds(self):
        rec = IncrementRecord(index=1, load_factor=0.1, dt=0.1, converged=True,
                              micro_iters_max=8, scheme="staggered")
        settings = SolverSettings(n_max=12, dt_initial=0.1, dt_max=1.0)
        nd, retry = adapt_step(rec, settings)
        assert nd == pytest.approx(0.1) and not retry

    def test_staggered_grow_at_exact_half(self):
        rec = IncrementRecord(index=1, load_factor=0.1, dt=0.1, converged=True,
                              micro_iters_max=6, scheme="staggered")
        settings = SolverSettings(n_max=12, dt_initial=0.1, dt_max=1.0, growth_factor=1.5)
        nd, _ = adapt_step(rec, settings)
        assert nd == pytest.approx(0.15)

    def test_monolithic_grow_uses_macro_iterations(self):
        rec = IncrementRecord(index=1, load_factor=0.1, dt=0.1, converged=True,
                              macro_iterations=3, scheme="monolithic-stored")
        settings = SolverSettings(max_macro_iter=16, dt_initial=0.1, dt_max=1.0, growth_factor=1.5)
        nd, _ = adapt_step(rec, settings)
        assert nd == pytest.approx(0.15)

    def test_monolithic_hold(self):
        rec = IncrementRecord(index=1, load_factor=0.1, dt=0.1, converged=True,
                              macro_iterations=10, scheme="monolithic")
        settings = SolverSettings(max_macro_iter=16, dt_initial=0.1, dt_max=1.0)
        nd, _ = adapt_step(rec, settings)
        assert nd == pytest.approx(0.1)

    def test_growth_capped_at_dt_max(self):
        rec = IncrementRecord(index=1, load_factor=0.1, dt=0.1, converged=True,
                              micro_iters_max=1, scheme="staggered")
        settings = SolverSettings(dt_initial=0.1, dt_max=0.12, growth_factor=1.5)
        nd, _ = adapt_step(rec, settings)
        assert nd == pytest.approx(0.12)


class TestClosedFormBar:
    @pytest.mark.parametrize("scheme", ["staggered", "monolithic", "monolithic-stored"])
    def test_force_driven_uniaxial_strain(self, scheme):
        force = 0.2
        model = bar_model(scheme, force=force)
        settings = SolverSettings(dt_initial=0.25, dt_max=0.25, **TIGHT)
        report = run(model, settings)
        assert report.converged
        m_oed = ELASTIC.lam + 2 * ELASTIC.mu  # uniaxial-strain modulus
        for lam, control, reaction in report.curve[1:]:
            assert control == pytest.approx(lam * force / m_oed, rel=1e-8)
            assert reaction == pytest.approx(lam * force, rel=1e-8)


class TestSchemeBehavior:
    def test_elastic_iterates_match_across_schemes(self):
        settings = SolverSettings(dt_initial=0.25, dt_max=0.25, extrapolate=False, **TIGHT)
        reports = {}
        for scheme in ("staggered", "monolithic", "monolithic-stored"):
            model = build_benchmark("notched-shear", scheme, n_macro=3, n_micro=3,
                                    elastic_only=True)
            reports[scheme] = run(model, settings)
        iters = {s: [r.macro_iterations for r in rep.records] for s, rep in reports.items()}
        assert iters["staggered"] == iters["monolithic"] == iters["monolithic-stored"]
        u_ref = reports["staggered"].final_u
        for s in ("monolithic", "monolithic-stored"):
            assert_allclose(reports[s].final_u, u_ref, atol=1e-10 * np.abs(u_ref).max())

    def test_plastic_micro_iterations_recorded(self):
        micro = rve_porous_tri(PLASTIC, n=4)
        model = stretch_model("staggered", micro, u_end=0.025)
        settings = SolverSettings(dt_initial=0.25, dt_max=0.25, **TIGHT)
        report = run(model, settings)
        assert report.converged
        plastic_recs = [r for r in report.records if r.plastic_flow]
        assert plastic_recs
        assert all(r.micro_iters_max >= 2 for r in plastic_recs)

    def test_forced_nonconvergence_keeps_partial_curve(self):
        micro = rve_porous_tri(PLASTIC, n=4)
        model = stretch_model("staggered", micro, u_end=0.4)  # brutal step
        settings = SolverSettings(
            dt_initial=1.0, dt_max=1.0, dt_min=1.0, t_end=1.0,  # cuts impossible
            n_max=3, max_macro_iter=4, **TIGHT,
        )
        report = run(model, settings)
        assert not report.converged
        assert len(report.curve) >= 1
        assert not report.records[-1].converged

    def test_monolithic_factorization_counters_single_rve(self):
        micro = rve_porous_tri(PLASTIC, n=4)
        settings = SolverSettings(dt_initial=0.5, dt_max=0.5, extrapolate=False, **TIGHT)
        stored = run(stretch_model("monolithic-stored", micro, u_end=0.018), settings)
        plain = run(stretch_model("monolithic", micro, u_end=0.018), settings)
        for rec_s, rec_p in zip(stored.records, plain.records):
            assert rec_s.macro_iterations == rec_p.macro_iterations
            if rec_s.plastic_flow:
                # stored: one factorization per macro iteration; plain: two
                # (update refactorize + fresh assembly), minus one at the
                # increment whose first update consumed a linear-step factor
                assert rec_s.factorizations == rec_s.macro_iterations
                assert rec_s.factorizations < rec_p.factorizations <= 2 * rec_p.macro_iterations
        assert_array_equal(stored.final_u, plain.final_u)
        assert_array_equal(stored.final_alpha, plain.final_alpha)

    def test_work_monolithic_below_staggered_on_plastic_increments(self):
        # the cost claim is counted in factorizations: strictly fewer for the
        # monolithic scheme on every increment with plastic flow
        settings = SolverSettings(dt_initial=0.125, dt_max=0.125, **TIGHT)
        rep_s = run(build_benchmark("notched-shear", "staggered", n_macro=3, n_micro=4), settings)
        rep_m = run(build_benchmark("notched-shear", "monolithic-stored", n_macro=3, n_micro=4), settings)
        assert rep_s.converged and rep_m.converged
        assert len(rep_s.records) == len(rep_m.records)
        plastic_seen = False
        for rs, rm in zip(rep_s.records, rep_m.records):
            if rs.plastic_flow and rm.plastic_flow:
                plastic_seen = True
                assert rm.factorizations < rs.factorizations
                # per macro iteration the condensation update is a bounded
                # number of solves; staggered pays the inner loop on top
                assert (rm.micro_iters_total + rm.aux_solves) / rm.macro_iterations \
                    <= 3 * rep_m.n_rves
        assert plastic_seen


class TestDeterminism:
    def test_repeat_runs_bitwise_identical(self):
        settings = SolverSettings(dt_initial=0.25, dt_max=0.25, **TIGHT)

        def one_run():
            model = build_benchmark("notched-shear", "monolithic-stored", n_macro=3, n_micro=3)
            rep = run(model, settings)
            return np.array(rep.curve), rep.final_alpha, rep

        c1, a1, rep = one_run()
        c2, a2, _ = one_run()
        assert_array_equal(c1, c2)
        assert_array_equal(a1, a2)
        # report invariants: monotone load factors, totals consistent
        assert np.all(np.diff(c1[:, 0]) > 0)
        assert rep.total_factorizations == sum(r.factorizations for r in rep.records)
        assert rep.total_micro_iterations == sum(r.micro_iters_total for r in rep.records)

    def test_worker_pool_matches_serial(self):
        settings1 = SolverSettings(dt_initial=0.25, dt_max=0.25, parallel_workers=1, **TIGHT)
        settings2 = SolverSettings(dt_initial=0.25, dt_max=0.25, parallel_workers=2, **TIGHT)

        def one_run(settings):
            model = build_benchmark("notched-shear", "monolithic-stored", n_macro=3, n_micro=3)
            rep = run(model, settings)
            return np.array(rep.curve), rep.final_alpha

        c1, a1 = one_run(settings1)
        c2, a2 = one_run(settings2)
        assert_array_equal(c1, c2)
        assert_array_equal(a1, a2)


class TestQuadraticConvergence:
    @pytest.mark.parametrize("scheme", ["staggered", "monolithic-stored"])
    def test_terminal_ratio_on_smooth_increment(self, scheme):
        # single plastified RVE driven further in one smooth increment with a
        # tight tolerance; the last residuals should contract superlinearly
        micro = rve_porous_tri(PLASTIC, n=4)
        model = bar_model(scheme, micro=micro, force=0.55)
        settings = SolverSettings(
            tol_macro=1e-12, tol_micro=1e-12, dt_initial=0.5, dt_max=0.5,
            extrapolate=False, n_max=30, max_macro_iter=30,
        )
        report = run(model, settings)
        assert report.converged
        all_norms = report.records[-1].residual_norms
        # keep residuals above the machine floor of the force scale
        norms = [n for n in all_norms if n > 1e-13 * max(all_norms)]
        assert len(norms) >= 3
        drops = [norms[i + 1] / norms[i] for i in range(len(norms) - 1)]
        assert drops[-1] < 0.05  # terminal contraction far beyond linear
        order = np.log(norms[-1] / norms[-2]) / np.log(norms[-2] / norms[-3])
        assert order > 1.4


# Monolithic sweep of notched-shear (n_macro=3, n_micro=4, dt 0.125, TIGHT)
# as computed by the one-RVE-at-a-time sweep before stacked solves: the
# curve (float.hex), a SHA-256 of final_alpha's bytes, and per increment
# (factorizations, aux_solves, micro_iters_total) per scheme.
SWEEP_CURVE = [
    ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    ("0x1.0000000000000p-3", "0x1.eb851eb851eb8p-9", "0x1.5f5df80e7f9fcp-5"),
    ("0x1.0000000000000p-2", "0x1.eb851eb851eb8p-8", "0x1.5f5df80e7fa38p-4"),
    ("0x1.8000000000000p-2", "0x1.70a3d70a3d70ap-7", "0x1.07867a0adfba3p-3"),
    ("0x1.0000000000000p-1", "0x1.eb851eb851eb8p-7", "0x1.561d661b0d838p-3"),
    ("0x1.4000000000000p-1", "0x1.3333333333333p-6", "0x1.800619846b928p-3"),
    ("0x1.8000000000000p-1", "0x1.70a3d70a3d70ap-6", "0x1.8a4f78deae735p-3"),
    ("0x1.c000000000000p-1", "0x1.ae147ae147ae1p-6", "0x1.918b40bcc2d44p-3"),
    ("0x1.0000000000000p+0", "0x1.eb851eb851eb8p-6", "0x1.97a1c262d6646p-3"),
]
SWEEP_ALPHA_SHA256 = "e0598ff201ec094d11b3d790e4272e5ccc60f5cf7279c0e743f692277ed769b6"
SWEEP_COUNTERS = {
    "monolithic": [
        (16, 16, 32), (0, 0, 32), (0, 0, 16), (21, 24, 64), (57, 60, 80), (65, 64, 80),
        (48, 48, 64), (36, 36, 48),
    ],
    "monolithic-stored": [
        (0, 16, 32), (0, 0, 32), (0, 0, 16), (12, 24, 64), (30, 60, 80), (32, 64, 80),
        (24, 48, 64), (18, 36, 48),
    ],
}


class TestStackedSweep:
    @pytest.mark.parametrize("scheme", ["monolithic", "monolithic-stored"])
    def test_matches_per_rve_sweep_bitwise(self, scheme):
        settings = SolverSettings(dt_initial=0.125, dt_max=0.125, **TIGHT)
        rep = run(build_benchmark("notched-shear", scheme, n_macro=3, n_micro=4), settings)
        assert rep.converged
        assert [tuple(float(v).hex() for v in row) for row in rep.curve] == SWEEP_CURVE
        assert hashlib.sha256(rep.final_alpha.tobytes()).hexdigest() == SWEEP_ALPHA_SHA256
        counters = [(r.factorizations, r.aux_solves, r.micro_iters_total) for r in rep.records]
        assert counters == SWEEP_COUNTERS[scheme]


class TestWorkerFailures:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kernel", ["factorize", "solve"])
    def test_worker_error_keeps_its_type(self, workers, kernel, monkeypatch):
        # forked workers inherit the patch; the first micro factorization
        # (while a worker builds its shard) or the first micro solve fails
        def singular(*args, **kwargs):
            raise SingularMatrixError(3, 0.0)

        monkeypatch.setattr(linalg, kernel, singular)
        settings = SolverSettings(dt_initial=0.25, dt_max=0.25, parallel_workers=workers, **TIGHT)
        model = build_benchmark("notched-shear", "monolithic-stored", n_macro=3, n_micro=3)
        with pytest.raises(SingularMatrixError) as exc:
            run(model, settings)
        assert exc.value.pivot_index == 3

    def test_errors_survive_pickling(self):
        for exc in (SingularMatrixError(3, 1e-20), MicroDivergenceError(2, 7, 0.5),
                    MeshQualityError(4, -1.0), StructuralError("bad shape")):
            back = pickle.loads(pickle.dumps(exc))
            assert type(back) is type(exc)
            assert str(back) == str(exc)
            assert vars(back) == vars(exc)
