"""Acceptance suite: one test per shipped criterion, with a PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The benchmark runs use the shipped suite defaults (the same settings
``fescale bench`` uses), so the artifacts exercised here match the CLI path.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from fescale import rve as R
from fescale.benchmarks import (
    BENCH_SIZE_DEFAULTS,
    BENCH_SOLVER_DEFAULTS,
    build_benchmark,
    rve_laminate,
    rve_porous_tri,
)
from fescale.cli import parse_config, read_stats_csv, run_suite
from fescale.macro import IncrementRecord, SolverSettings, adapt_step, run
from fescale.material import ElasticParams, PlasticParams

SCHEMES = ["staggered", "monolithic", "monolithic-stored"]
ELASTIC = ElasticParams(E=100.0, nu=0.3)
STIFF = ElasticParams(E=1000.0, nu=0.3)
PLASTIC = PlasticParams(ELASTIC, sigma0=1.0, h=2.0)
RUNTIME_LIMIT_MS = 5 * 60 * 1000.0


def _suite(tmp_path_factory, benchmark, **extra):
    tmp = tmp_path_factory.mktemp(benchmark.replace("-", "_"))
    raw = {
        "benchmark": benchmark,
        "schemes": SCHEMES,
        "solver": dict(BENCH_SOLVER_DEFAULTS[benchmark]),
        "overrides": dict(BENCH_SIZE_DEFAULTS[benchmark]),
        "output_dir": "out",
    }
    raw.update(extra)
    cfg = parse_config(raw, base_dir=str(tmp))
    status, reports = run_suite(cfg)
    return {"status": status, "reports": reports, "out": tmp / "out", "name": benchmark}


@pytest.fixture(scope="module")
def shear_suite(tmp_path_factory):
    return _suite(tmp_path_factory, "notched-shear")


@pytest.fixture(scope="module")
def hole_suite(tmp_path_factory):
    return _suite(tmp_path_factory, "plate-hole-tension")


@pytest.fixture(scope="module")
def elastic_suite(tmp_path_factory):
    return _suite(
        tmp_path_factory, "notched-shear", elastic_only=True,
        overrides={"n_macro": 4, "n_micro": 4},
        solver={"tol_macro": 1e-8, "tol_micro": 1e-8,
                "dt_initial": 0.25, "dt_max": 0.25},
    )


def _curves_aligned(reports):
    lams = {s: [p[0] for p in rep.curve] for s, rep in reports.items()}
    ref = lams[SCHEMES[0]]
    return all(lams[s] == ref for s in SCHEMES)


class TestCriterion1SchemeEquivalence:
    @pytest.mark.parametrize("suite_name", ["shear_suite", "hole_suite"])
    def test_curves_and_states_agree(self, suite_name, request):
        suite = request.getfixturevalue(suite_name)
        reports = suite["reports"]
        assert suite["status"] == 0
        assert _curves_aligned(reports)
        base = reports["staggered"]
        reactions = np.array([p[2] for p in base.curve])
        scale = np.abs(reactions).max()
        for s in ("monolithic", "monolithic-stored"):
            other = np.array([p[2] for p in reports[s].curve])
            err = np.abs(other - reactions).max() / scale
            assert err <= 1e-6, f"{s} curve deviates by {err:.2e}"
            alpha_err = np.abs(reports[s].final_alpha - base.final_alpha).max()
            assert alpha_err <= 1e-6
        for s in SCHEMES:
            assert reports[s].total_wall_ms < RUNTIME_LIMIT_MS
        print(f"\n[acceptance] 1 scheme equivalence ({suite['name']}): PASS "
              f"(max curve dev {max(np.abs(np.array([p[2] for p in reports[s].curve]) - reactions).max() / scale for s in SCHEMES[1:]):.2e})")


class TestCriterion2LinearEquivalence:
    def test_identical_iterations_and_single_micro_solves(self, elastic_suite):
        reports = elastic_suite["reports"]
        iters = {s: [r.macro_iterations for r in rep.records] for s, rep in reports.items()}
        assert iters["staggered"] == iters["monolithic"] == iters["monolithic-stored"]
        base = np.array(reports["staggered"].curve)
        scale = np.abs(base).max()
        for s in ("monolithic", "monolithic-stored"):
            assert np.abs(np.array(reports[s].curve) - base).max() <= 1e-10 * scale
        for rec in reports["staggered"].records:
            assert rec.micro_iters_max == 1  # linear micro: one solve suffices
        for s in ("monolithic", "monolithic-stored"):
            rep = reports[s]
            for rec in rep.records:
                assert rec.micro_iters_total == rep.n_rves * rec.macro_iterations
        print(f"\n[acceptance] 2 linear equivalence: PASS (iterations {iters['staggered']})")


class TestCriterion3MicroSolveSavings:
    @pytest.mark.parametrize("suite_name", ["shear_suite", "hole_suite"])
    def test_strictly_fewer_factorizations_on_plastic_increments(self, suite_name, request):
        suite = request.getfixturevalue(suite_name)
        reports = suite["reports"]
        stag = reports["staggered"].records
        # stored-factorization mode: strictly fewer on every plastic increment
        recs = reports["monolithic-stored"].records
        assert len(recs) == len(stag)
        for rm, rs in zip(recs, stag):
            if rs.plastic_flow:
                assert rm.factorizations < rs.factorizations
        # plain monolithic refactorizes at every use; gate its run total
        plain_total = reports["monolithic"].total_factorizations
        stag_total = reports["staggered"].total_factorizations
        assert plain_total < stag_total
        print(f"\n[acceptance] 3 factorization savings ({suite['name']}): PASS "
              f"(totals staggered {stag_total}, plain {plain_total}, "
              f"stored {reports['monolithic-stored'].total_factorizations})")

    def test_summary_ratio_below_ninety_percent(self, shear_suite, hole_suite):
        best = 1.0
        for suite in (shear_suite, hole_suite):
            stats = {
                s: read_stats_csv(suite["out"] / f"{suite['name']}_{s}_stats.csv")
                for s in ("staggered", "monolithic-stored")
            }
            totals = {s: sum(int(r["factorizations"]) for r in rows)
                      for s, rows in stats.items()}
            ratio = totals["monolithic-stored"] / totals["staggered"]
            best = min(best, ratio)
            print(f"\n[acceptance] 3 summary factorization ratio "
                  f"({suite['name']}): {ratio:.3f}")
        assert best <= 0.9
        print(f"[acceptance] 3 reported ratio: PASS (best {best:.3f})")


class TestCriterion4ConsistentTangent:
    def _fd_check(self, geom, h_star, label):
        def converged_sigma(h):
            p = R.RveBatch(geom)
            R.solve_micro_staggered(p, h, 1e-12, 60)
            return p.sigma_bar

        p = R.RveBatch(geom)
        R.solve_micro_staggered(p, h_star, 1e-12, 60)
        c_tangent = R.homogenized_tangent_and_alg_stress(p, alg_stress=False)[1][0]
        fd = np.empty((4, 4))
        step = 1e-6
        for c in range(4):
            hp, hm = h_star.copy(), h_star.copy()
            hp[c] += step
            hm[c] -= step
            fd[:, c] = (converged_sigma(hp) - converged_sigma(hm)) / (2 * step)
        err = np.abs(fd - c_tangent).max() / np.abs(c_tangent).max()
        assert err <= 1e-4, f"{label}: tangent FD error {err:.2e}"
        return err

    def test_fd_tangent_elastic_and_plastic(self):
        geom_el = R.MicroGeometry(rve_porous_tri(ELASTIC, n=5))
        e1 = self._fd_check(geom_el, np.array([0.003, 0.002, 0.001, -0.002]), "elastic")
        geom_pl = R.MicroGeometry(rve_porous_tri(PLASTIC, n=5))
        e2 = self._fd_check(geom_pl, np.array([0.008, 0.009, 0.009, -0.006]), "plastic")
        print(f"\n[acceptance] 4 consistent tangent FD: PASS (elastic {e1:.1e}, plastic {e2:.1e})")

    @pytest.mark.parametrize("scheme", ["staggered", "monolithic-stored"])
    def test_quadratic_macro_convergence(self, scheme):
        from tests_support import bar_with_porous_rve

        model = bar_with_porous_rve(scheme)
        settings = SolverSettings(
            tol_macro=1e-12, tol_micro=1e-12, dt_initial=0.5, dt_max=0.5,
            predictor="none", n_max=30, max_macro_iter=30,
        )
        report = run(model, settings)
        assert report.converged
        all_norms = report.records[-1].residual_norms
        norms = [n for n in all_norms if n > 1e-13 * max(all_norms)]
        assert len(norms) >= 3
        order = np.log(norms[-1] / norms[-2]) / np.log(norms[-2] / norms[-3])
        assert norms[-1] / norms[-2] < 0.05
        assert order > 1.4
        print(f"\n[acceptance] 4 quadratic ratio ({scheme}): PASS (order {order:.2f})")


class TestCriterion5HomogenizationIdentities:
    def test_identities(self):
        h_mixed = np.array([0.004, 0.002, -0.001, -0.003])
        rng = np.random.default_rng(5)

        lam_geom = R.MicroGeometry(rve_laminate(ELASTIC, STIFF, n=4))
        p = R.RveBatch(lam_geom)
        p.H = h_mixed.copy()
        p.u_hat = 1e-3 * rng.standard_normal(lam_geom.n_reduced)
        assert np.abs(R.average_gradient(p) - h_mixed).max() <= 1e-10

        por_geom = R.MicroGeometry(rve_porous_tri(PLASTIC, n=6))
        q = R.RveBatch(por_geom)
        R.solve_micro_staggered(q, h_mixed, 1e-11, 40)
        assert np.abs(R.boundary_average_gradient(q) - h_mixed).max() <= 1e-10
        sv = R.volume_average_stress(q)
        assert np.abs(q.sigma_bar - sv).max() <= 1e-10 * np.abs(sv).max() + 1e-13

        f = q.f_full.reshape(-1, 2)
        fmax = np.abs(f).max()
        for plus, minus, _ in por_geom.pmap.pairs:
            if minus != por_geom.pmap.anchor_node:
                assert np.abs(f[plus] + f[minus]).max() <= 1e-9 * fmax

        hom_geom = R.MicroGeometry(rve_laminate(ELASTIC, ELASTIC, n=4))
        phom = R.RveBatch(hom_geom)
        R.solve_micro_staggered(phom, h_mixed, 1e-11, 10)
        c_hom = R.homogenized_tangent_and_alg_stress(phom, alg_stress=False)[1][0]
        assert np.abs(c_hom - ELASTIC.stiffness()).max() <= 1e-9 * ELASTIC.E

        plam = R.RveBatch(lam_geom)
        R.solve_micro_staggered(plam, np.zeros(4), 1e-11, 10)
        c_lam = R.homogenized_tangent_and_alg_stress(plam, alg_stress=False)[1][0]
        from tests_support import laminate_closed_form

        expected = laminate_closed_form((ELASTIC, STIFF), (0.5, 0.5))
        err = np.abs(c_lam - expected).max() / np.abs(expected).max()
        assert err <= 1e-8
        print(f"\n[acceptance] 5 homogenization identities: PASS (laminate dev {err:.1e})")


class TestCriterion6StoredFactorization:
    def test_counters_and_identical_outputs(self, shear_suite):
        from tests_support import single_ip_porous_model

        # exact per-iteration counter on a one-integration-point macro model:
        # the single RVE factorizes exactly once per macro iteration
        settings = SolverSettings(tol_macro=1e-9, tol_micro=1e-9,
                                  dt_initial=0.5, dt_max=0.5, predictor="none")
        rep = run(single_ip_porous_model("monolithic-stored"), settings)
        assert rep.converged
        plastic_recs = [r for r in rep.records if r.plastic_flow]
        assert plastic_recs
        for rec in plastic_recs:
            assert rec.factorizations == rec.macro_iterations

        reports = shear_suite["reports"]
        a, b = reports["monolithic"], reports["monolithic-stored"]
        ca = np.array([p[1:] for p in a.curve])
        cb = np.array([p[1:] for p in b.curve])
        dev = np.abs(ca - cb).max()
        assert dev <= 1e-12 * max(1.0, np.abs(ca).max())
        assert np.abs(a.final_alpha - b.final_alpha).max() <= 1e-12
        assert b.total_factorizations < a.total_factorizations
        print(f"\n[acceptance] 6 stored factorization: PASS "
              f"(plain vs stored dev {dev:.1e}, factorizations "
              f"{a.total_factorizations} -> {b.total_factorizations})")


class TestCriterion7ParallelDeterminism:
    def test_bit_identical_outputs_and_scaling_shape(self):
        name = "plate-hole-tension"
        times = {}
        curves = {}
        alphas = {}
        for workers in (1, 2, 4):
            model = build_benchmark(name, "monolithic-stored", **BENCH_SIZE_DEFAULTS[name])
            solver = dict(BENCH_SOLVER_DEFAULTS[name], parallel_workers=workers)
            report = run(model, SolverSettings(**solver))
            assert report.converged
            times[workers] = report.total_wall_ms
            curves[workers] = np.array(report.curve)
            alphas[workers] = report.final_alpha
        assert_array_equal(curves[1], curves[2])
        assert_array_equal(curves[1], curves[4])
        assert_array_equal(alphas[1], alphas[2])
        assert_array_equal(alphas[1], alphas[4])
        speedup = times[1] / times[4]
        print(f"\n[acceptance] 7 parallel determinism: PASS "
              f"(bit-identical 1/2/4 workers; wall ms {times[1]:.0f}/"
              f"{times[2]:.0f}/{times[4]:.0f}; 4-worker speedup {speedup:.2f}x, "
              f"soft target, reported not gated)")


class TestCriterion8AdaptiveStepping:
    def test_threshold_decisions(self):
        settings = SolverSettings(n_max=12, max_macro_iter=16, cut_factor=0.5,
                                  growth_factor=1.5, dt_initial=0.1, dt_max=1.0)

        cut = IncrementRecord(index=1, load_factor=0.1, dt=0.1, converged=False)
        assert adapt_step(cut, settings) == (0.05, True)

        low = IncrementRecord(index=1, load_factor=0.1, dt=0.1, converged=True,
                              micro_iters_max=2, scheme="staggered")
        nd, retry = adapt_step(low, settings)
        assert (nd, retry) == (pytest.approx(0.15), False)

        edge = IncrementRecord(index=1, load_factor=0.1, dt=0.1, converged=True,
                               micro_iters_max=6, scheme="staggered")
        assert adapt_step(edge, settings)[0] == pytest.approx(0.15)

        hold = IncrementRecord(index=1, load_factor=0.1, dt=0.1, converged=True,
                               micro_iters_max=8, scheme="staggered")
        assert adapt_step(hold, settings)[0] == pytest.approx(0.1)

        mono_grow = IncrementRecord(index=1, load_factor=0.1, dt=0.1, converged=True,
                                    macro_iterations=8, scheme="monolithic")
        assert adapt_step(mono_grow, settings)[0] == pytest.approx(0.15)

        mono_hold = IncrementRecord(index=1, load_factor=0.1, dt=0.1, converged=True,
                                    macro_iterations=9, scheme="monolithic")
        assert adapt_step(mono_hold, settings)[0] == pytest.approx(0.1)
        print("\n[acceptance] 8 adaptive stepping thresholds: PASS")
