"""Tests for the two-scale drivers: schemes, stepping, extrapolation, pools."""

import ctypes
import functools
import glob
import hashlib
import multiprocessing.connection
import os
import pathlib
import pickle
import platform
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import fescale
from fescale.benchmarks import (
    BENCH_SIZE_DEFAULTS,
    BENCH_SOLVER_DEFAULTS,
    build_benchmark,
    rve_porous_tri,
    rve_single_element,
)
from fescale import linalg, macro, rve as rvemod
from fescale.errors import (
    MeshQualityError,
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
        reaction_dofs=np.array([5, 7]),
    )


def stretch_model(scheme, micro, u_end=0.02):
    """Single macro triangle, fully prescribed: drives one RVE directly."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(nodes, [ElementBlock(TRI3, [[0, 1, 2]])])
    dirichlet = [(0, 0.0), (1, 0.0), (2, u_end), (3, 0.0), (4, u_end), (5, 0.0)]
    return TwoScaleModel(
        macro_mesh=mesh, dirichlet=dirichlet, point_loads=[],
        micro_model=micro, scheme=scheme, control_dof=2,
        reaction_dofs=np.array([2, 4]),
    )


class TestSettings:
    def test_invariants_validated(self):
        with pytest.raises(StructuralError):
            SolverSettings(cut_factor=1.5)
        with pytest.raises(StructuralError):
            SolverSettings(growth_factor=0.9)
        with pytest.raises(StructuralError):
            SolverSettings(dt_initial=0.5, dt_max=0.25)
        with pytest.raises(StructuralError, match="predictor must be one of"):
            SolverSettings(predictor="linear")


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
        settings = SolverSettings(dt_initial=0.2, dt_max=0.2, predictor="extrapolate", **TIGHT)
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


class TestDofData:
    """Every DOF a model is given is used or refused, for benchmark and custom models alike."""

    @staticmethod
    def bar_fields(**change):
        model = bar_model("monolithic-stored")
        fields = dict(macro_mesh=model.macro_mesh, dirichlet=model.dirichlet,
                      point_loads=model.point_loads, micro_model=model.micro_model,
                      control_dof=5, reaction_dofs=[5, 7])
        return dict(fields, **change)

    @pytest.mark.parametrize("change, message", [
        ({"dirichlet": [(2 * n, 0.0) for n in range(4)] + [(1, 0.0), (3, 0.0), (2, 0.1)]},
         "dirichlet: DOF 2 is listed twice"),
        ({"reaction_dofs": [5, 7, 5]}, "reaction_dofs: DOF 5 is listed twice"),
        ({"point_loads": [(5, 0.1), (3, 1e6)]}, "point_loads: DOF 3 is prescribed by dirichlet"),
    ])
    def test_unused_dof_data_is_refused(self, change, message):
        with pytest.raises(StructuralError, match=message):
            TwoScaleModel(**self.bar_fields(**change))

    def test_point_loads_on_one_free_dof_add_up(self):
        settings = SolverSettings(dt_initial=0.25, dt_max=0.25, **TIGHT)
        split = TwoScaleModel(**self.bar_fields(point_loads=[(5, 0.05), (5, 0.05), (7, 0.1)]))
        assert run(split, settings).curve == run(bar_model("monolithic-stored"), settings).curve


class TestSchemeBehavior:
    def test_elastic_iterates_match_across_schemes(self):
        settings = SolverSettings(dt_initial=0.25, dt_max=0.25, predictor="none", **TIGHT)
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
        settings = SolverSettings(dt_initial=0.5, dt_max=0.5, predictor="none", **TIGHT)
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

    @pytest.mark.parametrize("scheme", ["staggered", "monolithic", "monolithic-stored"])
    def test_second_run_of_one_model_is_identical(self, scheme):
        settings = SolverSettings(dt_initial=0.25, dt_max=0.25, **TIGHT)
        model = build_benchmark("notched-shear", scheme, n_macro=3, n_micro=3)
        first, second = run(model, settings), run(model, settings)
        assert second.converged
        assert second.curve == first.curve
        assert_array_equal(second.final_u, first.final_u)
        assert_array_equal(second.final_alpha, first.final_alpha)

        def fields(rep):
            return [dict(vars(r), wall_ms=None) for r in rep.records]

        assert fields(second) == fields(first)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_run_builds_no_micro_geometry(self, workers, tmp_path, monkeypatch):
        # the model builds its micro geometry once, and every shard of every
        # run uses it; each build appends a line to a file, so that builds
        # in forked workers are counted too
        settings = SolverSettings(dt_initial=0.25, dt_max=0.25, parallel_workers=workers, **TIGHT)
        model = build_benchmark("notched-shear", "monolithic-stored", n_macro=3, n_micro=3)
        builds = tmp_path / "builds"
        builds.touch()
        init = rvemod.MicroGeometry.__init__

        def counted_init(self, *args, **kwargs):
            with open(builds, "a") as fh:
                fh.write("built\n")
            init(self, *args, **kwargs)

        monkeypatch.setattr(rvemod.MicroGeometry, "__init__", counted_init)
        for _ in range(2):
            assert run(model, settings).converged
        assert builds.read_text().count("built") == 0

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


class TestTangentPredictor:
    def test_elastic_ramp_is_exact_from_the_first_increment(self):
        # on the virgin tangents C0 the predictor solves a linear problem
        # exactly, so every increment converges at its first iterate
        report = run(bar_model("staggered"), SolverSettings(dt_initial=0.2, dt_max=0.2, **TIGHT))
        assert report.converged
        assert all(r.macro_iterations == 1 for r in report.records)
        assert all(r.macro_factorizations == 1 for r in report.records)

    def test_the_model_keeps_the_virgin_tangent(self):
        # C0 at every point and the free-free stiffness they assemble, byte
        # for byte as an assembly at the virgin state gives them
        model = build_benchmark("notched-shear", "monolithic-stored", n_macro=3, n_micro=3)
        c0, k0 = model.virgin_tangent
        c = np.broadcast_to(model.micro_geometry.virgin_c, (model.n_rves, 4, 4))
        assert c0.tobytes() == c.tobytes()
        assert k0.tobytes() == model.system.assemble(np.zeros((model.n_rves, 4)), c)[1].tobytes()
        assert model.with_scheme("staggered").virgin_tangent is model.virgin_tangent

    @pytest.mark.parametrize("scheme", macro.SCHEMES)
    def test_a_run_assembles_no_macro_tangent_before_its_first_sweep(self, scheme, monkeypatch):
        # the first increment's predictor starts from the model's virgin
        # tangent, so a run's first macro assembly follows a pool sweep
        model, calls = bar_model(scheme), []

        def logged(name, method):
            def call(*args):
                calls.append(name)
                return method(*args)
            return call

        monkeypatch.setattr(macro.MacroSystem, "assemble", logged("assemble", macro.MacroSystem.assemble))
        for sweep in ("staggered", "monolithic"):
            monkeypatch.setattr(macro.RvePool, sweep, logged("sweep", getattr(macro.RvePool, sweep)))
        assert run(model, SolverSettings(dt_initial=0.2, dt_max=0.2, **TIGHT)).converged
        assert calls[0] == "sweep" and "assemble" in calls


# notched-shear at builder-default sizes, dt 1.0, tolerances 1e-8: per record
# (factorizations, aux_solves, micro_iters_total, plastic_flow)
CUT_RUN_COUNTERS = {
    "staggered": [(932, 224, 894, True), (969, 271, 765, True)],
    "monolithic": [(699, 730, 544, True), (636, 660, 408, True)],
    "monolithic-stored": [(421, 730, 544, True), (330, 660, 408, True)],
}
# SHA-256 of the cut runs' final_alpha, the serial bits
CUT_RUN_ALPHA_SHA256 = {
    "staggered": "4d9c14ed8b845ed816734cfe376ca25a85403e1c32388c91f4b0975e46413508",
    "monolithic": "a5421f627b63c0f7b965fa839a464bb49a47559261cef4bcdb82cfb6b9457a27",
    "monolithic-stored": "a5421f627b63c0f7b965fa839a464bb49a47559261cef4bcdb82cfb6b9457a27",
}


class TestLargeSteps:
    # Builder-default sizes at pinned load steps of 0.25 and 0.5, tolerances
    # 1e-8. Under the linear-extrapolation predictor every one of these runs
    # cut its first increments 3-4 times, the whole boundary increment
    # landing in the first element row; the tangent predictor takes each
    # step whole, at 1 and 2 workers with the same bytes
    @pytest.mark.parametrize("scheme", macro.SCHEMES)
    @pytest.mark.parametrize("name, dt", [("notched-shear", 0.25), ("notched-shear", 0.5),
                                          ("plate-hole-tension", 0.25),
                                          ("plate-hole-tension", 0.5)])
    def test_converges_without_a_cut(self, name, dt, scheme):
        curves = []
        for workers in (1, 2):
            rep = run(build_benchmark(name, scheme),
                      SolverSettings(tol_macro=1e-8, tol_micro=1e-8, dt_initial=dt, dt_max=dt,
                                     dt_min=1e-3, parallel_workers=workers))
            assert rep.converged
            assert [r.cut_events for r in rep.records] == [0] * round(1 / dt)
            curves.append(np.array(rep.curve))
        assert curves[0].tobytes() == curves[1].tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_staggered_does_not_stall_below_the_workload_load(self, workers):
        # the perfbench plate-hole workload (n_macro 3, the first 40 % of the
        # shipped load path) at an end displacement 0.2 % lower: under the
        # extrapolation predictor the staggered macro Newton stalled just
        # above its tolerance and cut once (9 records, 562 factorizations)
        model = build_benchmark("plate-hole-tension", "staggered", n_macro=3, n_micro=8,
                                u_end=0.015 * 0.4 * 0.998)
        rep = run(model, SolverSettings(tol_macro=1e-8, tol_micro=1e-8, dt_initial=0.05,
                                        dt_max=0.05, dt_min=1e-3, t_end=0.4,
                                        parallel_workers=workers))
        assert rep.converged
        assert [r.cut_events for r in rep.records] == [0] * 8

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_diverging_attempt_is_abandoned_after_two_residual_increases(self, workers,
                                                                          monkeypatch):
        # notched-shear at dt 1.0: the first attempt fails under every scheme,
        # staggered in its first sweep on a micro failure; both monolithic
        # schemes' macro residual grows from the first iteration on, and ran
        # all 16 iterations (3003 / 1592 factorizations) before the attempt
        # was cut after its third. The retries at dt 0.5 are unchanged
        attempts = []
        newton_increment = macro.newton_increment

        def logged(model, pool, settings, lam, u_start, u_n, record):
            result = newton_increment(model, pool, settings, lam, u_start, u_n, record)
            attempts.append((record.dt, list(record.residual_norms), result is not None))
            return result

        monkeypatch.setattr(macro, "newton_increment", logged)
        for scheme, iterations, factorizations in [("staggered", 0, 1901), ("monolithic", 3, 1335),
                                                   ("monolithic-stored", 3, 751)]:
            attempts.clear()
            rep = run(build_benchmark("notched-shear", scheme),
                      SolverSettings(tol_macro=1e-8, tol_micro=1e-8, dt_initial=1.0, dt_max=1.0,
                                     dt_min=1e-3, parallel_workers=workers))
            assert rep.converged and [r.cut_events for r in rep.records] == [1, 0]
            assert rep.total_factorizations == factorizations
            dt, norms, accepted = attempts[0]
            assert (dt, len(norms), accepted) == (1.0, iterations, False)
            assert all(b > a for a, b in zip(norms, norms[1:]))
            assert [(dt, ok) for dt, _, ok in attempts[1:]] == [(0.5, True)] * 2

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_cut_run_keeps_its_per_record_counters(self, workers):
        # the case above: each scheme's first record adds up the sweeps of
        # the abandoned attempt at dt 1.0, its rollback and the accepted
        # attempt at dt 0.5, as the pool's block counts them, and final_alpha
        # keeps the serial bits, at any worker count. Three workers, more
        # than a 2-core machine has, write interleaved rows of the shared
        # block, where a lost write would move a counter or a plastic strain
        for scheme, counters in CUT_RUN_COUNTERS.items():
            rep = run(build_benchmark("notched-shear", scheme),
                      SolverSettings(tol_macro=1e-8, tol_micro=1e-8, dt_initial=1.0, dt_max=1.0,
                                     dt_min=1e-3, parallel_workers=workers))
            assert [r.cut_events for r in rep.records] == [1, 0]
            assert [(r.factorizations, r.aux_solves, r.micro_iters_total, r.plastic_flow)
                    for r in rep.records] == counters
            assert hashlib.sha256(rep.final_alpha.tobytes()).hexdigest() == CUT_RUN_ALPHA_SHA256[scheme]
            assert multiprocessing.active_children() == []

    def test_an_attempt_with_one_residual_increase_converges(self):
        # notched-bending-2d at its shipped sizes and dt 1.0: the staggered
        # macro residual grows once, in the second iteration, then falls
        # until the single increment converges with no cut
        name = "notched-bending-2d"
        rep = run(build_benchmark(name, "staggered", **BENCH_SIZE_DEFAULTS[name]),
                  SolverSettings(tol_macro=1e-8, tol_micro=1e-8, dt_initial=1.0, dt_max=1.0,
                                 dt_min=1e-3))
        assert rep.converged and [r.cut_events for r in rep.records] == [0]
        norms = rep.records[0].residual_norms
        assert [b > a for a, b in zip(norms, norms[1:])] == [True] + [False] * (len(norms) - 2)


class TestQuadraticConvergence:
    @pytest.mark.parametrize("scheme", ["staggered", "monolithic-stored"])
    def test_terminal_ratio_on_smooth_increment(self, scheme):
        # single plastified RVE driven further in one smooth increment with a
        # tight tolerance; the last residuals should contract superlinearly
        micro = rve_porous_tri(PLASTIC, n=4)
        model = bar_model(scheme, micro=micro, force=0.55)
        settings = SolverSettings(
            tol_macro=1e-12, tol_micro=1e-12, dt_initial=0.5, dt_max=0.5,
            predictor="none", n_max=30, max_macro_iter=30,
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


# Runs of notched-shear (n_macro=3, n_micro=4, dt 0.125, TIGHT). The curves
# and alpha digests are those of the element kernels as batched matrix
# products with bincount scatters, of the micro and macro Cholesky solves of
# the condensation columns and, for monolithic, of certified-elastic RVEs
# that follow their condensed linear response (each moved them in the last
# bits); the counters are those of the one-RVE-at-a-time sweep before stacked solves
# (monolithic) and of staggered's own macro Newton loop before the schemes
# shared one loop, except plain monolithic's factorizations, which fell where
# an RVE flagged linear takes the virgin columns instead of a solve, and
# aux_solves, which fell where a flagged RVE takes the virgin tangent C0
# instead of condensing again. Per scheme: the curve (float.hex), a SHA-256 of
# final_alpha's bytes, and per increment (factorizations, aux_solves,
# micro_iters_total, micro_iters_max, macro_factorizations).
MONOLITHIC_CURVE = [
    ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    ("0x1.0000000000000p-3", "0x1.eb851eb851eb8p-9", "0x1.5f5df80e7fa4ap-5"),
    ("0x1.0000000000000p-2", "0x1.eb851eb851eb8p-8", "0x1.5f5df80e7fa40p-4"),
    ("0x1.8000000000000p-2", "0x1.70a3d70a3d70ap-7", "0x1.07867a0adfba4p-3"),
    ("0x1.0000000000000p-1", "0x1.eb851eb851eb8p-7", "0x1.561d661b0d832p-3"),
    ("0x1.4000000000000p-1", "0x1.3333333333333p-6", "0x1.800619846b924p-3"),
    ("0x1.8000000000000p-1", "0x1.70a3d70a3d70ap-6", "0x1.8a4f78deae742p-3"),
    ("0x1.c000000000000p-1", "0x1.ae147ae147ae1p-6", "0x1.918b40bcc2d48p-3"),
    ("0x1.0000000000000p+0", "0x1.eb851eb851eb8p-6", "0x1.97a1c262d6642p-3"),
]
MONOLITHIC_ALPHA_SHA256 = "dd400c804827594c3edd67f1a020af7a5d34f0b6a7bd4e96cadcfad90e0012fc"
SWEEP = {
    "staggered": (
        [
            ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
            ("0x1.0000000000000p-3", "0x1.eb851eb851eb8p-9", "0x1.5f5df80e7fa25p-5"),
            ("0x1.0000000000000p-2", "0x1.eb851eb851eb8p-8", "0x1.5f5df80e7fa20p-4"),
            ("0x1.8000000000000p-2", "0x1.70a3d70a3d70ap-7", "0x1.07867a0adfb9ep-3"),
            ("0x1.0000000000000p-1", "0x1.eb851eb851eb8p-7", "0x1.561d661aae64dp-3"),
            ("0x1.4000000000000p-1", "0x1.3333333333333p-6", "0x1.800619846b594p-3"),
            ("0x1.8000000000000p-1", "0x1.70a3d70a3d70ap-6", "0x1.8a4f78deaec0bp-3"),
            ("0x1.c000000000000p-1", "0x1.ae147ae147ae1p-6", "0x1.918b40bd03837p-3"),
            ("0x1.0000000000000p+0", "0x1.eb851eb851eb8p-6", "0x1.97a1c262cb7e0p-3"),
        ],
        "8bf52ad64d3af2c71bb307a2a22c0bc1e56dcb3a8cc7fba5e608aa56445f44de",
        [
            (0, 0, 22, 1, 1), (0, 0, 22, 1, 1), (0, 0, 0, 1, 0), (36, 12, 61, 3, 3),
            (78, 24, 84, 4, 3), (81, 25, 85, 3, 3), (54, 18, 56, 3, 2), (49, 18, 51, 3, 2),
        ],
    ),
    "monolithic": (
        MONOLITHIC_CURVE, MONOLITHIC_ALPHA_SHA256,
        [
            (0, 0, 32, 0, 1), (0, 0, 32, 0, 1), (0, 0, 16, 0, 0), (21, 24, 64, 0, 3),
            (57, 60, 80, 0, 4), (64, 64, 80, 0, 4), (48, 48, 64, 0, 3), (36, 36, 48, 0, 2),
        ],
    ),
    "monolithic-stored": (
        MONOLITHIC_CURVE, MONOLITHIC_ALPHA_SHA256,
        [
            (0, 0, 32, 0, 1), (0, 0, 32, 0, 1), (0, 0, 16, 0, 0), (12, 24, 64, 0, 3),
            (30, 60, 80, 0, 4), (32, 64, 80, 0, 4), (24, 48, 64, 0, 3), (18, 36, 48, 0, 2),
        ],
    ),
}


def assert_sweep_pinned(scheme, predictor, pins):
    """The notched-shear sweep run under ``predictor`` gives ``pins[scheme]`` exactly."""
    settings = SolverSettings(dt_initial=0.125, dt_max=0.125, predictor=predictor, **TIGHT)
    rep = run(build_benchmark("notched-shear", scheme, n_macro=3, n_micro=4), settings)
    assert rep.converged
    curve, alpha_sha256, counters = pins[scheme]
    assert [tuple(float(v).hex() for v in row) for row in rep.curve] == curve
    assert hashlib.sha256(rep.final_alpha.tobytes()).hexdigest() == alpha_sha256
    assert [(r.factorizations, r.aux_solves, r.micro_iters_total, r.micro_iters_max,
             r.macro_factorizations) for r in rep.records] == counters


class TestStackedSweep:
    # the pins above were computed with the linear-extrapolation predictor
    @pytest.mark.parametrize("scheme", ["staggered", "monolithic", "monolithic-stored"])
    def test_matches_per_rve_sweep_bitwise(self, scheme):
        assert_sweep_pinned(scheme, "extrapolate", SWEEP)


# The same runs under the tangent predictor, the default: each increment
# starts from the forward-Euler step on the last converged tangents (C0 for
# the first), solved in one more macro factorization per increment.
TANGENT_MONOLITHIC_CURVE = [
    ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    ("0x1.0000000000000p-3", "0x1.eb851eb851eb8p-9", "0x1.5f5df80e7fa16p-5"),
    ("0x1.0000000000000p-2", "0x1.eb851eb851eb8p-8", "0x1.5f5df80e7fa13p-4"),
    ("0x1.8000000000000p-2", "0x1.70a3d70a3d70ap-7", "0x1.07867a0adfb94p-3"),
    ("0x1.0000000000000p-1", "0x1.eb851eb851eb8p-7", "0x1.561d661b0d833p-3"),
    ("0x1.4000000000000p-1", "0x1.3333333333333p-6", "0x1.800619846b926p-3"),
    ("0x1.8000000000000p-1", "0x1.70a3d70a3d70ap-6", "0x1.8a4f78deae740p-3"),
    ("0x1.c000000000000p-1", "0x1.ae147ae147ae1p-6", "0x1.918b40bcc2d48p-3"),
    ("0x1.0000000000000p+0", "0x1.eb851eb851eb8p-6", "0x1.97a1c262ca2e2p-3"),
]
TANGENT_MONOLITHIC_ALPHA_SHA256 = "cd2c72559331e8005d8d86d7981ad58e627e59983c42ef8e0848354ad9aca572"
TANGENT_SWEEP = {
    "staggered": (
        [
            ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
            ("0x1.0000000000000p-3", "0x1.eb851eb851eb8p-9", "0x1.5f5df80e7fa15p-5"),
            ("0x1.0000000000000p-2", "0x1.eb851eb851eb8p-8", "0x1.5f5df80e7fa1ep-4"),
            ("0x1.8000000000000p-2", "0x1.70a3d70a3d70ap-7", "0x1.07867a0adfb9ap-3"),
            ("0x1.0000000000000p-1", "0x1.eb851eb851eb8p-7", "0x1.561d661aae656p-3"),
            ("0x1.4000000000000p-1", "0x1.3333333333333p-6", "0x1.800619846b4a5p-3"),
            ("0x1.8000000000000p-1", "0x1.70a3d70a3d70ap-6", "0x1.8a4f78de5502bp-3"),
            ("0x1.c000000000000p-1", "0x1.ae147ae147ae1p-6", "0x1.918b40bcc2a6fp-3"),
            ("0x1.0000000000000p+0", "0x1.eb851eb851eb8p-6", "0x1.97a1c262b8ee7p-3"),
        ],
        "4ddbe77e7792ee3a0327c2c73c200b8fecf68e232ffe3a20d83fd4e1cbc20eb2",
        [
            (0, 0, 16, 1, 1), (0, 0, 16, 1, 1), (0, 0, 0, 1, 1), (36, 12, 61, 3, 4),
            (78, 24, 94, 4, 4), (73, 24, 89, 3, 4), (53, 18, 65, 3, 3), (49, 18, 61, 3, 3),
        ],
    ),
    "monolithic": (
        TANGENT_MONOLITHIC_CURVE, TANGENT_MONOLITHIC_ALPHA_SHA256,
        [
            (0, 0, 16, 0, 1), (0, 0, 16, 0, 1), (0, 0, 16, 0, 1), (21, 24, 64, 0, 4),
            (57, 60, 80, 0, 5), (60, 60, 80, 0, 5), (48, 48, 64, 0, 4), (36, 36, 48, 0, 3),
        ],
    ),
    "monolithic-stored": (
        TANGENT_MONOLITHIC_CURVE, TANGENT_MONOLITHIC_ALPHA_SHA256,
        [
            (0, 0, 16, 0, 1), (0, 0, 16, 0, 1), (0, 0, 16, 0, 1), (12, 24, 64, 0, 4),
            (30, 60, 80, 0, 5), (30, 60, 80, 0, 5), (24, 48, 64, 0, 4), (18, 36, 48, 0, 3),
        ],
    ),
}


class TestTangentStackedSweep:
    @pytest.mark.parametrize("scheme", ["staggered", "monolithic", "monolithic-stored"])
    def test_default_predictor_pinned_bitwise(self, scheme):
        assert_sweep_pinned(scheme, "tangent", TANGENT_SWEEP)


DATA = pathlib.Path(__file__).parent / "data"


@functools.lru_cache(maxsize=None)
def shipped_curve(name, scheme, predictor="extrapolate"):
    """Curve of a shipped benchmark at its `fescale bench` sizes, run once per session.

    The kept reference curves were computed with the linear-extrapolation
    predictor, so their cross-checks run on it by default.
    """
    rep = run(build_benchmark(name, scheme, **BENCH_SIZE_DEFAULTS[name]),
              SolverSettings(**BENCH_SOLVER_DEFAULTS[name], predictor=predictor))
    assert rep.converged
    curve = np.array(rep.curve)
    curve.flags.writeable = False  # one array serves every caller
    return curve


def assert_curve_near(name, scheme, directory, rtol, predictor="extrapolate"):
    """The curve within rtol of each column's largest magnitude in the CSV kept in ``directory``."""
    got = shipped_curve(name, scheme, predictor)
    want = np.loadtxt(DATA / directory / f"{name}_{scheme}_curve.csv", delimiter=",", skiprows=1)
    assert got.shape == want.shape
    assert_array_equal(got[:, 0], want[:, 0])
    scale = np.abs(want[:, 1:]).max(axis=0)
    assert np.all(np.abs(got[:, 1:] - want[:, 1:]) <= rtol * scale)


class TestAgainstBandedLuCurves:
    # The shipped suite as the banded LU computed it (RCM ordering, banded
    # Doolittle elimination) before the retained dense inverses replaced
    # it; monolithic equals monolithic-stored bit for bit (criterion 6)
    @pytest.mark.parametrize("scheme", ["staggered", "monolithic-stored"])
    @pytest.mark.parametrize("name", sorted(BENCH_SIZE_DEFAULTS))
    def test_shipped_curves_within_1e_8(self, name, scheme):
        assert_curve_near(name, scheme, "banded_lu_curves", 1e-8)


EINSUM_KERNEL_CURVES = sorted((DATA / "einsum_kernel_curves").glob("*_curve.csv"))


class TestAgainstEinsumKernelCurves:
    # The shipped suite as the element kernels computed it as einsum
    # contractions with np.add.at scatters, before batched matrix products
    # and bincount scatters replaced them
    @pytest.mark.parametrize("path", EINSUM_KERNEL_CURVES, ids=lambda p: p.stem)
    def test_shipped_curves_within_1e_12(self, path):
        name, scheme, _ = path.stem.rsplit("_", 2)
        assert_curve_near(name, scheme, "einsum_kernel_curves", 1e-12)


INVERSE_KERNEL_CURVES = sorted((DATA / "inverse_kernel_curves").glob("*_curve.csv"))


class TestAgainstInverseKernelCurves:
    # The shipped suite as the retained dense inverses computed it (an
    # inverse of every micro and macro stiffness, applied by matrix-vector
    # products), before LU solves of the condensation columns replaced them
    @pytest.mark.parametrize("path", INVERSE_KERNEL_CURVES, ids=lambda p: p.stem)
    def test_shipped_curves_within_1e_12(self, path):
        name, scheme, _ = path.stem.rsplit("_", 2)
        assert_curve_near(name, scheme, "inverse_kernel_curves", 1e-12)


FULL_PASS_CURVES = sorted((DATA / "full_pass_curves").glob("*_monolithic*_curve.csv"))


class TestAgainstFullPassCurves:
    # The shipped suite as `fescale bench all` computed it when every RVE of
    # a monolithic sweep was assembled, before certified-elastic RVEs took
    # their condensed linear response instead
    @pytest.mark.parametrize("path", FULL_PASS_CURVES, ids=lambda p: p.stem)
    def test_shipped_curves_within_1e_12(self, path):
        name, scheme, _ = path.stem.rsplit("_", 2)
        assert_curve_near(name, scheme, "full_pass_curves", 1e-12)


LU_KERNEL_CURVES = sorted((DATA / "lu_kernel_curves").glob("*_curve.csv"))


class TestAgainstLuKernelCurves:
    # The shipped suite as `fescale bench all` computed it when every micro
    # and macro solve was an LU solve (np.linalg.solve), before Cholesky
    # solves (LAPACK's dposv) replaced them
    @pytest.mark.parametrize("path", LU_KERNEL_CURVES, ids=lambda p: p.stem)
    def test_shipped_curves_within_1e_12(self, path):
        name, scheme, _ = path.stem.rsplit("_", 2)
        assert_curve_near(name, scheme, "lu_kernel_curves", 1e-12)


EXTRAPOLATE_PREDICTOR_CURVES = sorted((DATA / "extrapolate_predictor_curves").glob("*_curve.csv"))


class TestAgainstExtrapolatePredictorCurves:
    # The shipped suite as `fescale bench all` computed it with the linear
    # extrapolation predictor, before the tangent predictor became the
    # default. The predictor moves the iterates, so the converged states
    # move within the 1e-8 tolerances; the load steps stay the same
    @pytest.mark.parametrize("path", EXTRAPOLATE_PREDICTOR_CURVES, ids=lambda p: p.stem)
    def test_default_predictor_curves_within_1e_8(self, path):
        name, scheme, _ = path.stem.rsplit("_", 2)
        assert_curve_near(name, scheme, "extrapolate_predictor_curves", 1e-8, predictor="tangent")


class TestWorkerFailures:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kernel", ["factorize", "solve"])
    def test_worker_error_keeps_its_type(self, workers, kernel, monkeypatch):
        # A numerical failure inside a micro sweep (every micro factorize
        # fails, or every LAPACK solve under it, the kernel's entry point
        # linalg._cholesky_solve, returns NaN) cuts the load until the run
        # gives up, at any worker count. A failure while a worker builds its
        # shard raises with its type; forked workers inherit the patches.
        def singular(*args, **kwargs):
            raise SingularMatrixError(3, 0.0)

        def not_finite(a, block):
            return np.full(np.shape(block), np.nan)

        sweep = macro._Shard.monolithic

        def broken_sweep(shard, *args):
            with monkeypatch.context() as m:
                if kernel == "factorize":
                    m.setattr(linalg, kernel, singular)
                else:
                    m.setattr(linalg, "_cholesky_solve", not_finite)
                return sweep(shard, *args)

        settings = SolverSettings(dt_initial=0.25, dt_max=0.25, dt_min=0.01,
                                  parallel_workers=workers, **TIGHT)
        model = build_benchmark("notched-shear", "monolithic-stored", n_macro=3, n_micro=3)
        with monkeypatch.context() as m:
            m.setattr(macro._Shard, "monolithic", broken_sweep)
            rep = run(model, settings)
        assert not rep.converged
        assert rep.records[-1].cut_events > 0 and not rep.records[-1].converged
        if kernel == "factorize":
            monkeypatch.setattr(rvemod, "RveBatch", singular)
            with pytest.raises(SingularMatrixError) as exc:
                run(model, settings)
            assert exc.value.pivot_index == 3

    @pytest.mark.parametrize("scheme", macro.SCHEMES)
    def test_singular_macro_tangent_cuts_the_load(self, scheme, monkeypatch):
        # the first macro factorization fails as singular: the attempt is
        # rolled back and cut as one with a failed RVE is, and the retry at
        # half the increment converges. It is the tangent predictor's solve,
        # or under the extrapolation predictor the first Newton step's
        model = bar_model(scheme)
        factorize, failed = linalg.factorize, []

        def singular_once(a, rhs=None, prepared=False):
            if np.ndim(rhs) == 1 and not failed:  # micro columns come in 2-D blocks
                failed.append(len(a))
                raise SingularMatrixError(0, 0.0)
            return factorize(a, rhs, prepared)

        monkeypatch.setattr(linalg, "factorize", singular_once)
        for predictor in ("tangent", "extrapolate"):
            failed.clear()
            rep = run(model, SolverSettings(dt_initial=0.25, dt_max=0.25, predictor=predictor,
                                            **TIGHT))
            assert failed == [model.system.n_free]
            assert rep.converged
            assert (rep.records[0].cut_events, rep.records[0].dt) == (1, 0.125)

    def test_errors_survive_pickling(self):
        for exc in (SingularMatrixError(3, 1e-20), MeshQualityError(4, -1.0),
                    StructuralError("bad shape")):
            back = pickle.loads(pickle.dumps(exc))
            assert type(back) is type(exc)
            assert str(back) == str(exc)
            assert vars(back) == vars(exc)


def probe_shards(monkeypatch, probe):
    """Make each shard's ``gather_alpha`` write ``probe()`` into its rows of the block's ``alpha``."""
    def write(shard):
        values = probe()
        shard.block.alpha[shard.rows, :len(values)] = values

    monkeypatch.setattr(macro._Shard, "gather_alpha", write)


def test_workers_run_one_blas_thread(monkeypatch):
    # a forked worker sets numpy's bundled OpenBLAS to one thread, and a
    # serial shard runs each call at one thread; the caller keeps its count.
    # Each shard writes its thread count into its rows of the pool's block
    libs = sorted(glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                         "libscipy_openblas*")))
    if not libs:
        pytest.skip("numpy is not built on its bundled OpenBLAS")
    lib = ctypes.CDLL(libs[0])
    get, set_threads = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    before = get()
    probe_shards(monkeypatch, lambda: [get()])
    geom = rvemod.MicroGeometry(rve_single_element(ELASTIC))
    set_threads(2)
    try:
        assert get() == 2
        for workers in (1, 2):
            pool = macro.RvePool(geom, 2, True, workers=workers)
            try:
                assert pool.gather_alpha()[:, 0].tolist() == [1, 1]
            finally:
                pool.close()
            assert get() == 2
    finally:
        set_threads(before)


# Runs, with the caller's OpenBLAS at two threads, at 1 and 2 workers:
# the criterion-7 case (plate-hole-tension at its `fescale bench` sizes,
# monolithic-stored), then the first 40 % of its load path at n_micro 16
# (n = 436), where a Cholesky solve's bits depend on the thread count.
# Prints per run whether it converged and the SHA-256 of the curve and of
# final_alpha, then the caller's thread count.
_THREADS_SCRIPT = """
import hashlib
import numpy as np
from fescale import macro
from fescale.benchmarks import BENCH_SIZE_DEFAULTS, BENCH_SOLVER_DEFAULTS, build_benchmark
name = "plate-hole-tension"
cases = [(BENCH_SIZE_DEFAULTS[name], BENCH_SOLVER_DEFAULTS[name]),
         (dict(n_macro=3, n_micro=16, u_end=0.006),
          dict(BENCH_SOLVER_DEFAULTS[name], dt_initial=0.05, dt_max=0.05, t_end=0.4))]
macro._blas_thread_setter()(2)
for sizes, solver in cases:
    for workers in (1, 2):
        rep = macro.run(build_benchmark(name, "monolithic-stored", **sizes),
                        macro.SolverSettings(**dict(solver, parallel_workers=workers)))
        print(rep.converged, hashlib.sha256(np.array(rep.curve).tobytes()).hexdigest(),
              hashlib.sha256(rep.final_alpha.tobytes()).hexdigest())
print(macro._blas_thread_getter()())
"""


def test_worker_count_determinism_outside_the_test_session():
    # criterion 7 without the session's one-thread setting (conftest.py): a
    # fresh process with no BLAS thread variable, its OpenBLAS at two
    # threads even on a one-core machine, gives the same bytes at 1 and 2
    # workers, at the shipped RVE size and at n = 436, and keeps its two
    # threads
    if macro._blas_thread_setter() is None:
        pytest.skip("numpy is not built on its bundled OpenBLAS")
    src = os.path.dirname(os.path.dirname(fescale.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], capture_output=True, text=True,
                         env=env, check=True, timeout=300).stdout.split("\n")
    runs = [line.split() for line in out[:4]]
    assert all(run[0] == "True" for run in runs)
    assert runs[0] == runs[1] and runs[2] == runs[3]
    assert out[4] == "2"


def test_workers_inherit_the_blas_setter_lookup(monkeypatch):
    # a multi-worker pool looks the setter up once, before it forks; each
    # worker's call is a hit on the cache it inherited. Each worker writes
    # its cache's (hits, misses, maxsize is None, currsize) into its row of
    # the pool's block
    info = macro._blas_thread_setter.cache_info
    probe_shards(monkeypatch, lambda: [info().hits, info().misses, info().maxsize is None, info().currsize])
    macro._blas_thread_setter.cache_clear()
    pool = macro.RvePool(rvemod.MicroGeometry(rve_single_element(ELASTIC)), 2, True, workers=2)
    try:
        assert macro._blas_thread_setter.cache_info().misses == 1
        assert pool.gather_alpha()[:, :4].tolist() == [[1, 1, 1, 1]] * 2
    finally:
        pool.close()


@pytest.mark.parametrize("scheme", macro.SCHEMES)
def test_pool_factorizes_once_per_counted_factorization(scheme, monkeypatch):
    # the micro sweeps call linalg.factorize exactly once per factorization
    # the records count (the set-up pass and macro steps excluded), the
    # identity perfbench's traced check relies on
    factorize, call = linalg.factorize, macro.RvePool._call
    inside, calls = [False], [0]

    def counted(a, rhs=None, prepared=False):
        calls[0] += inside[0]
        return factorize(a, rhs, prepared)

    def in_pool(pool, *args):
        inside[0] = True
        try:
            return call(pool, *args)
        finally:
            inside[0] = False

    monkeypatch.setattr(linalg, "factorize", counted)
    monkeypatch.setattr(macro.RvePool, "_call", in_pool)
    rep = run(build_benchmark("notched-shear", scheme, n_macro=3, n_micro=4),
              SolverSettings(dt_initial=0.125, dt_max=0.125, **TIGHT))
    assert rep.converged and any(r.plastic_flow for r in rep.records)
    assert calls[0] == sum(r.factorizations for r in rep.records) > 0


@pytest.mark.parametrize("scheme", macro.SCHEMES)
def test_a_worker_gets_one_request_per_sweep_and_one_for_the_plastic_strain(scheme, monkeypatch):
    # begin_increment, commit and rollback ride on the next request, and
    # counters and plastic_any read what the last sweep left in the pool's
    # shared block: a 2-worker run sends each worker one request per macro
    # iteration (one sweep each) and one for final_alpha, then the stop
    sent = []
    send = multiprocessing.connection.Connection.send

    def logged(conn, obj):
        sent.append((id(conn), obj is None))  # workers log their replies in their own memory
        return send(conn, obj)

    monkeypatch.setattr(multiprocessing.connection.Connection, "send", logged)
    rep = run(build_benchmark("notched-shear", scheme, n_macro=3, n_micro=3),
              SolverSettings(dt_initial=0.25, dt_max=0.25, parallel_workers=2, **TIGHT))
    assert rep.converged and all(r.cut_events == 0 for r in rep.records)
    sweeps = sum(r.macro_iterations for r in rep.records)
    pipes = {pipe for pipe, _ in sent}
    assert len(pipes) == 2
    for pipe in pipes:
        assert [stop for p, stop in sent if p == pipe] == [False] * (sweeps + 1) + [True]


@pytest.mark.parametrize("workers", [1, 3])
def test_gather_alpha_returns_a_copy_of_the_block(workers):
    # every shard writes its rows of the committed plastic strain into the
    # pool's block, and the caller gets a copy of it, which a later sweep
    # and commit do not change
    pool = macro.RvePool(rvemod.MicroGeometry(rve_single_element(PLASTIC)), 3, True, workers=workers)
    try:
        shear = np.outer([1.0, 2.0, 3.0], [0.0, 0.05, 0.05, 0.0])
        alphas = []
        for h in (shear, 2.0 * shear):
            assert not pool.staggered(h, 1e-9, 12).failed.any()
            pool.commit()
            alphas.append(pool.gather_alpha())
            assert_array_equal(pool._block.alpha, alphas[-1])
            assert alphas[-1] is not pool._block.alpha
        first, second = alphas
        assert (first > 0).all() and (second > first).all()
        assert np.unique(first[:, 0]).size == 3  # each RVE its own row
    finally:
        pool.close()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_queued_rollback_raises_from_the_next_pool_call(workers, monkeypatch):
    # a rollback is queued and runs on every shard before the next
    # request's own call, which raises its error with its own type, at any
    # worker count; the queue is emptied, so the call after that sweeps
    def broken(rves):
        raise StructuralError("rollback failed")

    monkeypatch.setattr(rvemod, "rollback", broken)
    pool = macro.RvePool(rvemod.MicroGeometry(rve_single_element(ELASTIC)), 2, True, workers=workers)
    try:
        pool.rollback()
        with pytest.raises(StructuralError, match="rollback failed"):
            pool.monolithic(np.zeros((2, 4)))
        assert not pool.monolithic(np.zeros((2, 4))).failed.any()
    finally:
        pool.close()


# Runs the plate-hole benchmark workload (n_macro 3, n_micro 8, the first
# 40 % of the load path at the shipped increment size) serially, each scheme
# once, then prints each scheme's minor page faults in a second run.
_FAULT_SCRIPT = """
import resource
from fescale import macro
from fescale.benchmarks import build_benchmark
settings = macro.SolverSettings(tol_macro=1e-8, tol_micro=1e-8, dt_initial=0.05,
                                dt_max=0.05, dt_min=1e-3, t_end=0.4)
models = [build_benchmark("plate-hole-tension", scheme, n_macro=3, n_micro=8, u_end=0.006)
          for scheme in macro.SCHEMES]
for model in models:
    macro.run(model, settings)
for model in models:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    macro.run(model, settings)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap pin is glibc's mallopt")
def test_serial_sweeps_stop_faulting_the_heap():
    # with glibc's malloc thresholds pinned, a repeated serial run reuses
    # the heap its first run left instead of having the kernel zero-fill
    # freed pages again (4k-13k minor faults per run unpinned); a fresh
    # process, so that no earlier test's allocations shape the heap
    src = os.path.dirname(os.path.dirname(fescale.__file__))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True, timeout=300).stdout
    faults = [int(line) for line in out.split()]
    assert len(faults) == len(macro.SCHEMES)
    assert max(faults) < 500, dict(zip(macro.SCHEMES, faults))
