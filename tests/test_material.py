"""Tests for the plane-strain J2 return map and its consistent tangent."""

import hashlib
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from fescale import rve as R
from fescale.benchmarks import default_materials, rve_composite
from fescale.material import (
    ElasticParams,
    Law,
    PlasticParams,
    StateBatch,
    evaluate_batch,
    tangent_check,
)
from tests_support import stress_out_of_plane, von_mises_full

ELASTIC = ElasticParams(E=100.0, nu=0.3)
PLASTIC = PlasticParams(elastic=ELASTIC, sigma0=1.0, h=2.0)


def radial_return_bisection(params, q_trial, alpha_old):
    """Scalar oracle: root of q_trial - 3*mu*dg - (s0 + h*(a+dg)) by bisection."""
    mu = params.elastic.mu

    def f(dg):
        return q_trial - 3.0 * mu * dg - params.sigma0 - params.h * (alpha_old + dg)

    lo, hi = 0.0, q_trial / (3.0 * mu)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def shear_gradient(g):
    return np.array([0.0, g, g, 0.0])


def virgin():
    return StateBatch.virgin(1)


Point = namedtuple("Point", "sigma tangent new_state plastic_active")


def evaluate(params, h, state):
    """One point through ``evaluate_batch``: its row's results, and its one-row new state."""
    sigma, tangent, new_state, active, _ = evaluate_batch(params, np.reshape(h, (1, 4)), state)
    return Point(sigma[0], tangent[0], new_state, bool(active[0]))


class TestElasticBranch:
    def test_zero_strain(self):
        res = evaluate(PLASTIC, np.zeros(4), virgin())
        assert_array_equal(res.sigma, np.zeros(4))
        assert_allclose(res.tangent, ELASTIC.stiffness(), rtol=0, atol=0)
        assert not res.plastic_active

    def test_uniaxial_below_yield(self):
        e11 = 0.002  # trial von Mises stays under sigma0
        res = evaluate(PLASTIC, np.array([e11, 0.0, 0.0, 0.0]), virgin())
        expected = ELASTIC.E * (1 - ELASTIC.nu) / ((1 + ELASTIC.nu) * (1 - 2 * ELASTIC.nu)) * e11
        assert not res.plastic_active
        assert_allclose(res.sigma[0], expected, rtol=1e-14)

    def test_elastic_params_never_plastic(self):
        res = evaluate(ELASTIC, shear_gradient(0.5), virgin())
        assert not res.plastic_active
        assert_allclose(res.tangent, ELASTIC.stiffness())

    def test_invalid_params_rejected(self):
        with pytest.raises(Exception):
            ElasticParams(E=-1.0, nu=0.3)
        with pytest.raises(Exception):
            ElasticParams(E=10.0, nu=0.5)
        with pytest.raises(Exception):
            PlasticParams(elastic=ELASTIC, sigma0=0.0, h=1.0)


class TestRadialReturn:
    def test_shear_beyond_yield_matches_bisection_oracle(self):
        g = 0.03
        state = virgin()
        res = evaluate(PLASTIC, shear_gradient(g), state)
        assert res.plastic_active
        # oracle: trial stress is pure shear, q_trial = sqrt(3) * 2*mu*g
        q_trial = np.sqrt(3.0) * 2.0 * ELASTIC.mu * g
        dg = radial_return_bisection(PLASTIC, q_trial, 0.0)
        assert_allclose(res.new_state.alpha_bar, dg, rtol=1e-10)
        s33 = stress_out_of_plane(PLASTIC, shear_gradient(g), state)
        q = von_mises_full(res.sigma[0], res.sigma[3], s33, res.sigma[1])
        assert_allclose(q, PLASTIC.sigma0 + PLASTIC.h * dg, rtol=1e-10)

    def test_monotonic_shear_path_hardening_line(self):
        # commit increasing shear steps; the equivalent stress must track
        # sigma0 + h*alpha_bar after every committed plastic update
        state = virgin()
        for g in (0.02, 0.04, 0.06):
            res = evaluate(PLASTIC, shear_gradient(g), state)
            s33 = stress_out_of_plane(PLASTIC, shear_gradient(g), state)
            q = von_mises_full(res.sigma[0], res.sigma[3], s33, res.sigma[1])
            assert res.plastic_active
            assert_allclose(q, PLASTIC.sigma0 + PLASTIC.h * res.new_state.alpha_bar, atol=1e-10)
            state = res.new_state

    @given(
        st.tuples(*(st.floats(-0.05, 0.05) for _ in range(4))),
        st.floats(0.0, 0.1),
    )
    @settings(max_examples=60, deadline=None)
    def test_yield_consistency_property(self, h_tuple, alpha0):
        h = np.array(h_tuple)
        state = StateBatch(np.zeros((1, 4)), [alpha0])
        res = evaluate(PLASTIC, h, state)
        if res.plastic_active:
            s33 = stress_out_of_plane(PLASTIC, h, state)
            q = von_mises_full(res.sigma[0], res.sigma[3], s33, res.sigma[1])
            f = q - (PLASTIC.sigma0 + PLASTIC.h * res.new_state.alpha_bar)
            assert abs(f) <= 1e-10 * PLASTIC.sigma0
        # invariants regardless of branch
        assert res.new_state.alpha_bar >= state.alpha_bar
        assert abs(res.new_state.eps_p[0, :3].sum()) <= 1e-12

    def test_elastic_unloading_restores_elastic_tangent(self):
        loaded = evaluate(PLASTIC, shear_gradient(0.05), virgin())
        assert loaded.plastic_active
        unloaded = evaluate(PLASTIC, shear_gradient(0.045), loaded.new_state)
        assert not unloaded.plastic_active
        assert_allclose(unloaded.tangent, ELASTIC.stiffness(), rtol=0, atol=0)

    def test_isotropy_quarter_turn(self):
        h = np.array([0.02, 0.015, -0.01, -0.03])
        res = evaluate(PLASTIC, h, virgin())
        q = np.array([[0.0, -1.0], [1.0, 0.0]])
        h_rot = (q @ h.reshape(2, 2) @ q.T).ravel()
        res_rot = evaluate(PLASTIC, h_rot, virgin())
        sig_rot = (q @ res.sigma.reshape(2, 2) @ q.T).ravel()
        assert_allclose(res_rot.sigma, sig_rot, atol=1e-12)
        assert res_rot.new_state.alpha_bar == pytest.approx(res.new_state.alpha_bar, rel=1e-12)

    def test_determinism_bitwise(self):
        h = np.array([0.03, 0.01, 0.02, -0.02])
        state = StateBatch([[1e-3, -2e-3, 1e-3, 5e-4]], [0.01])
        r1 = evaluate(PLASTIC, h, state)
        r2 = evaluate(PLASTIC, h, state)
        assert_array_equal(r1.sigma, r2.sigma)
        assert_array_equal(r1.tangent, r2.tangent)
        assert_array_equal(r1.new_state.eps_p, r2.new_state.eps_p)

    def test_input_state_not_mutated(self):
        state = StateBatch([[1e-3, -1e-3, 0.0, 2e-3]], [0.02])
        snapshot = state.copy()
        evaluate(PLASTIC, shear_gradient(0.05), state)
        assert_array_equal(state.eps_p, snapshot.eps_p)
        assert_array_equal(state.alpha_bar, snapshot.alpha_bar)


class TestTangentCheck:
    # the errors are pinned bit for bit (float.hex): the one batched
    # evaluation of the 9 gradients gives each row the bits it has alone
    def test_elastic_point(self):
        err = tangent_check(PLASTIC, np.array([0.001, 0.0005, 0.0, -0.0004]), virgin())
        assert err <= 1e-8
        assert err.hex() == "0x1.773b645a1cac1p-41"

    def test_plastic_point_well_inside(self):
        err = tangent_check(PLASTIC, shear_gradient(0.05), virgin())
        assert err <= 1e-5
        assert err.hex() == "0x1.d4542f2c5956dp-36"

    def test_check_command_point(self):
        # the point and law of `fescale check`'s radial-return check
        err = tangent_check(PLASTIC, shear_gradient(0.03), virgin())
        assert err <= 1e-5
        assert err.hex() == "0x1.e464956f61df9p-37"

    def test_yield_onset_flagged_not_failed(self):
        # strain placed exactly at the trial yield surface: non-smooth point;
        # record the error without asserting a tolerance
        mu = ELASTIC.mu
        g_onset = PLASTIC.sigma0 / (np.sqrt(3.0) * 2.0 * mu)
        err = tangent_check(PLASTIC, shear_gradient(g_onset), virgin())
        assert np.isfinite(err)
        assert err.hex() == "0x1.1f962b0ac515bp-3"


def outputs(result):
    sigma, tangent, new_state, active, _ = result
    return sigma, tangent, new_state.eps_p, new_state.alpha_bar, active


class TestLaw:
    """One evaluation over the points of several materials, through a per-point law."""

    @pytest.fixture(scope="class")
    def composite(self):
        """Three RVEs of the notched-bending composite RVE: J2 matrix (id 0), elastic inclusion (id 1).

        Gradients with a periodic fluctuation, and committed states from
        another gradient field, so the matrix points load and unload.
        """
        geom = R.MicroGeometry(rve_composite(default_materials("notched-bending-2d"),
                                             ElasticParams(E=1000.0, nu=0.3), n=6))
        rves = R.RveBatch(geom, 3)
        rves.H[:] = np.outer([0.6, 0.8, 1.0], [0.004, 0.008, 0.008, -0.002])
        rves.u_hat[:] = 2e-3 * np.sin(np.arange(geom.n_reduced) + np.arange(3)[:, None])
        h = geom.plan.gradients(R.full_displacement(geom, rves.u_hat, rves.H)).reshape(-1, 4)
        committed = evaluate_batch(geom.law, np.roll(h, 7, axis=0), StateBatch.virgin(len(h)))[2]
        ids = np.tile(geom.model.mat_ids[geom.plan.ip_element], 3)
        return geom, h, committed, ids

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_one_pass_equals_each_material_alone_bitwise(self, composite, scale):
        geom, h, committed, ids = composite
        together = outputs(evaluate_batch(geom.law, scale * h, committed))
        matrix = ids == 0
        assert together[4][matrix].any() and (scale > 1.0 or not together[4][matrix].all())
        for i, params in enumerate(geom.model.materials):
            pts = ids == i
            alone = outputs(evaluate_batch(params, scale * h[pts],
                                           StateBatch(committed.eps_p[pts], committed.alpha_bar[pts])))
            for got, want in zip(together, alone):
                assert got[pts].dtype == want.dtype
                assert got[pts].tobytes() == want.tobytes()

    def test_elastic_points_never_yield_and_keep_their_state(self, composite):
        geom, h, committed, ids = composite
        inclusion = ids == 1
        state = StateBatch(committed.eps_p.copy(), committed.alpha_bar.copy())
        state.eps_p[inclusion] = 1e-3 * np.arange(4)
        state.alpha_bar[inclusion] = 0.5
        sigma, tangent, new, active, _ = evaluate_batch(geom.law, 1e3 * h, state)
        assert not active[inclusion].any() and active[~inclusion].all()
        assert new.eps_p[inclusion].tobytes() == state.eps_p[inclusion].tobytes()
        assert new.alpha_bar[inclusion].tobytes() == state.alpha_bar[inclusion].tobytes()
        assert_array_equal(tangent[inclusion], np.broadcast_to(geom.model.materials[1].stiffness(),
                                                               (inclusion.sum(), 4, 4)))

    def test_one_material_holds_one_point(self, composite):
        geom, *_ = composite
        assert geom.law.points == geom.n_ip
        for law in (Law([PLASTIC]), Law(geom.model.materials, np.zeros(geom.n_ip, dtype=np.int64))):
            assert law.points == 1
        assert Law(geom.model.materials, np.ones(5, dtype=np.int64)).sigma0.tolist() == [np.inf]

    def test_yield_values_are_the_trial_von_mises_less_the_yield_stress(self, composite):
        # f_tr = q_tr - (sigma0 + h alpha) from the elastic trial stress of
        # the committed plastic strain, at a fixed input; the elastic
        # inclusion's points are -inf
        geom, h, committed, ids = composite
        f_tr = evaluate_batch(geom.law, 3.0 * h, committed)[4]
        el, mat = geom.model.materials[0].elastic, geom.model.materials[0]
        ep = committed.eps_p.T
        e = np.array([3.0 * h[:, 0], 3.0 * h[:, 3], np.zeros(len(h)), 1.5 * (h[:, 1] + h[:, 2])]) - ep
        tr = e[0] + e[1] + e[2]
        s = 2.0 * el.mu * e + el.lam * tr * np.array([1.0, 1.0, 1.0, 0.0])[:, None]
        want = von_mises_full(*s) - (mat.sigma0 + mat.h * committed.alpha_bar)
        matrix = ids == 0
        assert (f_tr[matrix] > 0).any() and (f_tr[matrix] < 0).any()
        assert_allclose(f_tr[matrix], want[matrix], rtol=1e-12, atol=1e-12 * mat.sigma0)
        assert (f_tr[~matrix] == -np.inf).all()

    def test_plastic_batch_digest(self):
        # one fixed input: random gradients about the yield strain, plastic
        # committed states, and four virgin points at zero gradients of
        # either sign, where the return's signed zeros show; the digest is
        # that of the per-material evaluation the law replaced
        rng = np.random.default_rng(16)
        h = rng.uniform(-0.015, 0.015, (64, 4))
        h[:4] = [[0.0] * 4, [-0.0] * 4, [-0.0, 0.0, 0.0, -0.0], [0.002, -0.0, -0.0, 0.001]]
        eps_p = rng.uniform(-2e-3, 2e-3, (64, 4))
        eps_p[:, 2] = -(eps_p[:, 0] + eps_p[:, 1])
        eps_p[:4] = 0.0
        alpha = rng.uniform(0.0, 0.02, 64)
        alpha[:4] = 0.0
        result = outputs(evaluate_batch(PLASTIC, h, StateBatch(eps_p, alpha)))
        assert 0 < result[4].sum() < 60
        digest = hashlib.sha256(b"".join(a.tobytes() for a in result)).hexdigest()
        assert digest == "f836fd968cab5482482523f84d1ef7530fcd3e8b1ee7feed87c4f38c8929afeb"
