"""Micro-scale constitutive law: plane-strain elasticity and J2 plasticity.

Von Mises yield with linear isotropic hardening, integrated by the closed
form backward-Euler radial return, with the algorithmically consistent
tangent. The law consumes the full displacement gradient (4 components,
ordered H11, H12, H21, H22) but only its symmetric part enters; the
returned stress and 4x4 tangent use the same gradient-conjugate layout.

Plastic strain is tracked as a 3D deviatoric tensor stored as
(ep11, ep22, ep33, ep12); plane strain fixes the out-of-plane total strain
to zero while the out-of-plane plastic component evolves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fescale.errors import StructuralError

_SQ32 = np.sqrt(1.5)

# second-order identity and symmetrizer in the 4-component gradient layout
_I4 = np.array([1.0, 0.0, 0.0, 1.0])
_ISYM = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])


@dataclass(frozen=True)
class ElasticParams:
    """Isotropic elasticity: Young's modulus (MPa) and Poisson ratio."""

    E: float
    nu: float

    def __post_init__(self):
        if not 0.0 < self.E < np.inf:
            raise StructuralError("Young's modulus must be positive and finite")
        if not -1.0 < self.nu < 0.5:
            raise StructuralError("Poisson ratio must lie in (-1, 0.5)")

    @property
    def mu(self):
        return self.E / (2.0 * (1.0 + self.nu))

    @property
    def lam(self):
        return self.E * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))

    @property
    def bulk(self):
        return self.lam + 2.0 * self.mu / 3.0

    def stiffness(self):
        """Plane-strain elastic tangent in the 4-component gradient layout."""
        return self.bulk * np.outer(_I4, _I4) + 2.0 * self.mu * (_ISYM - np.outer(_I4, _I4) / 3.0)


@dataclass(frozen=True)
class PlasticParams:
    """J2 plasticity with linear isotropic hardening on top of elasticity."""

    elastic: ElasticParams
    sigma0: float
    h: float

    def __post_init__(self):
        if not 0.0 < self.sigma0 < np.inf:
            raise StructuralError("initial yield stress must be positive and finite")
        if not 0.0 <= self.h < np.inf:
            raise StructuralError("hardening modulus must be nonnegative and finite")


class StateBatch:
    """Internal variables of a batch of points: ``eps_p`` (n, 4) and ``alpha_bar`` (n,).

    The law's only state type; one point is a one-row batch.
    """

    __slots__ = ("eps_p", "alpha_bar")

    def __init__(self, eps_p, alpha_bar):
        self.eps_p = np.asarray(eps_p, dtype=np.float64)
        self.alpha_bar = np.asarray(alpha_bar, dtype=np.float64)

    @classmethod
    def virgin(cls, n):
        return cls(np.zeros((n, 4)), np.zeros(n))

    def copy(self):
        return StateBatch(self.eps_p.copy(), self.alpha_bar.copy())

    def __len__(self):
        return len(self.alpha_bar)


def elastic_of(params):
    return params.elastic if isinstance(params, PlasticParams) else params


def evaluate_batch(params, h_batch, states: StateBatch):
    """Radial-return update for a batch of displacement gradients.

    Parameters
    ----------
    params : ElasticParams or PlasticParams
    h_batch : (n, 4) array
        Displacement gradients (H11, H12, H21, H22); only sym(h) enters.
    states : StateBatch
        Last-committed internal variables; never mutated.

    Returns
    -------
    sigma : (n, 4) array, tangent : (n, 4, 4) array, new_states : StateBatch,
    active : (n,) bool array
    """
    h_batch = np.asarray(h_batch, dtype=np.float64)
    n = h_batch.shape[0]
    el = elastic_of(params)
    mu, lam = el.mu, el.lam

    # total strain (plane strain: e33 = 0), elastic trial from committed state
    e11 = h_batch[:, 0]
    e22 = h_batch[:, 3]
    e12 = 0.5 * (h_batch[:, 1] + h_batch[:, 2])
    ep = states.eps_p
    tr = e11 + e22 - (ep[:, 0] + ep[:, 1] + ep[:, 2])
    s11 = lam * tr + 2.0 * mu * (e11 - ep[:, 0])
    s22 = lam * tr + 2.0 * mu * (e22 - ep[:, 1])
    s33 = lam * tr + 2.0 * mu * (-ep[:, 2])
    s12 = 2.0 * mu * (e12 - ep[:, 3])

    d_el = el.stiffness()
    tangent = np.broadcast_to(d_el, (n, 4, 4)).copy()

    if not isinstance(params, PlasticParams):
        sigma = np.stack([s11, s12, s12, s22], axis=1)
        return sigma, tangent, states.copy(), np.zeros(n, dtype=bool)

    p = (s11 + s22 + s33) / 3.0
    d11, d22, d33, d12 = s11 - p, s22 - p, s33 - p, s12
    s_norm = np.sqrt(d11 * d11 + d22 * d22 + d33 * d33 + 2.0 * d12 * d12)
    q_tr = _SQ32 * s_norm
    f_tr = q_tr - (params.sigma0 + params.h * states.alpha_bar)
    active = f_tr > 0.0

    dgamma = np.where(active, f_tr / (3.0 * mu + params.h), 0.0)
    safe = np.where(s_norm > 0.0, s_norm, 1.0)
    n11, n22, n33, n12 = d11 / safe, d22 / safe, d33 / safe, d12 / safe

    scale = 2.0 * mu * dgamma * _SQ32
    s11 = s11 - scale * n11
    s22 = s22 - scale * n22
    s12 = s12 - scale * n12
    sigma = np.stack([s11, s12, s12, s22], axis=1)

    dep = dgamma * _SQ32
    new_ep = ep.copy()
    new_ep[:, 0] += dep * n11
    new_ep[:, 1] += dep * n22
    new_ep[:, 2] += dep * n33
    new_ep[:, 3] += dep * n12
    new_states = StateBatch(new_ep, states.alpha_bar + dgamma)

    if np.any(active):
        idx = np.flatnonzero(active)
        theta = 1.0 - 3.0 * mu * dgamma[idx] / q_tr[idx]
        coeff = -6.0 * mu**2 * (1.0 / (3.0 * mu + params.h) - dgamma[idx] / q_tr[idx])
        n4 = np.stack([n11[idx], n12[idx], n12[idx], n22[idx]], axis=1)
        dev = _ISYM - np.outer(_I4, _I4) / 3.0
        tangent[idx] = (
            el.bulk * np.outer(_I4, _I4)
            + 2.0 * mu * theta[:, None, None] * dev
            + coeff[:, None, None] * n4[:, :, None] * n4[:, None, :]
        )
    return sigma, tangent, new_states, active


def tangent_check(params, h_micro, state: StateBatch) -> float:
    """Max relative error of the returned tangent vs central differences.

    ``state`` is a one-row :class:`StateBatch`. The gradient and its 8
    perturbations go through one :func:`evaluate_batch` call, in which each
    row computes as it would alone. Step 1e-7 * max(1, ||h||); error is
    measured against the largest tangent entry. Near the yield onset the
    response is non-smooth and the reported error may legitimately exceed
    usual tolerances.
    """
    h = np.asarray(h_micro, dtype=np.float64).reshape(4)
    step = 1e-7 * max(1.0, float(np.linalg.norm(h)))
    rows = np.tile(h, (9, 1))
    rows[1:5][np.diag_indices(4)] += step
    rows[5:][np.diag_indices(4)] -= step
    states = StateBatch(np.repeat(state.eps_p, 9, axis=0), np.repeat(state.alpha_bar, 9))
    sigma, tangent, _, _ = evaluate_batch(params, rows, states)
    fd = (sigma[1:5] - sigma[5:]).T / (2 * step)
    scale = max(np.abs(tangent[0]).max(), 1.0)
    return float(np.abs(fd - tangent[0]).max() / scale)
