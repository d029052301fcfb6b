"""Tests for the plane-strain J2 return map and its consistent tangent."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from fescale.material import (
    ElasticParams,
    MaterialState,
    PlasticParams,
    evaluate,
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


class TestElasticBranch:
    def test_zero_strain(self):
        res = evaluate(PLASTIC, np.zeros(4), MaterialState.virgin())
        assert_array_equal(res.sigma, np.zeros(4))
        assert_allclose(res.tangent, ELASTIC.stiffness(), rtol=0, atol=0)
        assert not res.plastic_active

    def test_uniaxial_below_yield(self):
        e11 = 0.002  # trial von Mises stays under sigma0
        res = evaluate(PLASTIC, np.array([e11, 0.0, 0.0, 0.0]), MaterialState.virgin())
        expected = ELASTIC.E * (1 - ELASTIC.nu) / ((1 + ELASTIC.nu) * (1 - 2 * ELASTIC.nu)) * e11
        assert not res.plastic_active
        assert_allclose(res.sigma[0], expected, rtol=1e-14)

    def test_elastic_params_never_plastic(self):
        res = evaluate(ELASTIC, shear_gradient(0.5), MaterialState.virgin())
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
        state = MaterialState.virgin()
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
        state = MaterialState.virgin()
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
        state = MaterialState(np.zeros(4), alpha0)
        res = evaluate(PLASTIC, h, state)
        if res.plastic_active:
            s33 = stress_out_of_plane(PLASTIC, h, state)
            q = von_mises_full(res.sigma[0], res.sigma[3], s33, res.sigma[1])
            f = q - (PLASTIC.sigma0 + PLASTIC.h * res.new_state.alpha_bar)
            assert abs(f) <= 1e-10 * PLASTIC.sigma0
        # invariants regardless of branch
        assert res.new_state.alpha_bar >= state.alpha_bar
        assert abs(res.new_state.eps_p[:3].sum()) <= 1e-12

    def test_elastic_unloading_restores_elastic_tangent(self):
        loaded = evaluate(PLASTIC, shear_gradient(0.05), MaterialState.virgin())
        assert loaded.plastic_active
        unloaded = evaluate(PLASTIC, shear_gradient(0.045), loaded.new_state)
        assert not unloaded.plastic_active
        assert_allclose(unloaded.tangent, ELASTIC.stiffness(), rtol=0, atol=0)

    def test_isotropy_quarter_turn(self):
        h = np.array([0.02, 0.015, -0.01, -0.03])
        res = evaluate(PLASTIC, h, MaterialState.virgin())
        q = np.array([[0.0, -1.0], [1.0, 0.0]])
        h_rot = (q @ h.reshape(2, 2) @ q.T).ravel()
        res_rot = evaluate(PLASTIC, h_rot, MaterialState.virgin())
        sig_rot = (q @ res.sigma.reshape(2, 2) @ q.T).ravel()
        assert_allclose(res_rot.sigma, sig_rot, atol=1e-12)
        assert res_rot.new_state.alpha_bar == pytest.approx(res.new_state.alpha_bar, rel=1e-12)

    def test_determinism_bitwise(self):
        h = np.array([0.03, 0.01, 0.02, -0.02])
        state = MaterialState(np.array([1e-3, -2e-3, 1e-3, 5e-4]), 0.01)
        r1 = evaluate(PLASTIC, h, state)
        r2 = evaluate(PLASTIC, h, state)
        assert_array_equal(r1.sigma, r2.sigma)
        assert_array_equal(r1.tangent, r2.tangent)
        assert_array_equal(r1.new_state.eps_p, r2.new_state.eps_p)

    def test_input_state_not_mutated(self):
        state = MaterialState(np.array([1e-3, -1e-3, 0.0, 2e-3]), 0.02)
        snapshot = state.copy()
        evaluate(PLASTIC, shear_gradient(0.05), state)
        assert_array_equal(state.eps_p, snapshot.eps_p)
        assert state.alpha_bar == snapshot.alpha_bar


class TestTangentCheck:
    def test_elastic_point(self):
        err = tangent_check(PLASTIC, np.array([0.001, 0.0005, 0.0, -0.0004]), MaterialState.virgin())
        assert err <= 1e-8

    def test_plastic_point_well_inside(self):
        err = tangent_check(PLASTIC, shear_gradient(0.05), MaterialState.virgin())
        assert err <= 1e-5

    def test_yield_onset_flagged_not_failed(self):
        # strain placed exactly at the trial yield surface: non-smooth point;
        # record the error without asserting a tolerance
        mu = ELASTIC.mu
        g_onset = PLASTIC.sigma0 / (np.sqrt(3.0) * 2.0 * mu)
        err = tangent_check(PLASTIC, shear_gradient(g_onset), MaterialState.virgin())
        assert np.isfinite(err)
