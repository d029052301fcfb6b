"""Micro-scale constitutive law: plane-strain elasticity and J2 plasticity.

Von Mises yield with linear isotropic hardening, integrated by the closed
form backward-Euler radial return, with the algorithmically consistent
tangent. The law consumes the full displacement gradient (4 components,
ordered H11, H12, H21, H22) but only its symmetric part enters; the
returned stress and 4x4 tangent use the same gradient-conjugate layout.

Plastic strain is tracked as a 3D deviatoric tensor stored as
(ep11, ep22, ep33, ep12); plane strain fixes the out-of-plane total strain
to zero while the out-of-plane plastic component evolves.

A micro model's points, of one material or several, share one
:class:`Law` of per-point constants, so one :func:`evaluate_batch` call
covers them all: the trial stress and the yield check run on every point,
the radial return only where a point yields. Each point's results are bit
for bit those of its material's scalar law.
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
_OUTER = np.outer(_I4, _I4)
# rows of a (11, 22, 33, 12) component array in the 4-component layout (11, 12, 21, 22)
_SIGMA = np.array([0, 3, 3, 1])
# the deviatoric projector
_DEV = _ISYM - _OUTER / 3.0


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
        return self.bulk * _OUTER + 2.0 * self.mu * _DEV


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


def elastic_of(params):
    return params.elastic if isinstance(params, PlasticParams) else params


class Law:
    """The material law at every point of a micro model, as per-point arrays.

    Built once per model from its materials and each point's material id
    (``ids``, by default one point). Each constant of the radial return is
    computed once per material, by the scalar expression a single material
    evaluates, and gathered per point: ``lam``, ``two_mu`` = 2 mu,
    ``three_mu`` = 3 mu, ``three_mu_h`` = 3 mu + h, ``inv`` = 1 / (3 mu + h),
    ``c6`` = -6 mu^2, ``sigma0``, ``h``, the bulk modulus ``bulk`` and the
    elastic ``stiffness``; ``elastic`` marks the points of an elastic
    material, a law that never yields (sigma0 = inf, h = 0). Points that
    all have one material hold one point's values, which broadcast over
    every batch, so a single-material RVE reads no per-point parameter.
    :func:`evaluate_batch` takes the rows of its gradients as consecutive
    groups of ``points`` (RVE-major).
    """

    __slots__ = ("lam", "two_mu", "three_mu", "three_mu_h", "inv", "c6", "sigma0", "h",
                 "bulk", "stiffness", "elastic")

    def __init__(self, materials, ids=0):
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        ids = ids[:1] if (ids == ids[0]).all() else ids
        rows = [_constants(m) for m in materials]
        for k, name in enumerate(self.__slots__):
            setattr(self, name, np.array([row[k] for row in rows])[ids])

    @property
    def points(self):
        return len(self.lam)


def _constants(params):
    """One material's constants, in the order of :attr:`Law.__slots__`."""
    el = elastic_of(params)
    plastic = isinstance(params, PlasticParams)
    sigma0, h = (params.sigma0, params.h) if plastic else (np.inf, 0.0)
    mu = el.mu
    return (el.lam, 2.0 * mu, 3.0 * mu, 3.0 * mu + h, 1.0 / (3.0 * mu + h), -6.0 * mu**2,
            sigma0, h, el.bulk, el.stiffness(), not plastic)


def evaluate_batch(law, h_batch, states: StateBatch):
    """Radial-return update for a batch of displacement gradients.

    Parameters
    ----------
    law : Law, or one material's ElasticParams or PlasticParams
    h_batch : (n, 4) array
        Displacement gradients (H11, H12, H21, H22); only sym(h) enters.
        Its rows are consecutive groups of the law's points, RVE-major, so
        n is a multiple of ``law.points``.
    states : StateBatch
        Last-committed internal variables of the n points; never mutated.

    Returns
    -------
    sigma : (n, 4) array, yielding : (n_active, 4, 4) array of the
    consistent tangents of the yielding points, in point order, new_states :
    StateBatch shaped as ``states``, active : (n,) bool array that marks
    the yielding points, f_tr : (n,) array of the trial yield-function
    values q_tr - (sigma0 + h alpha), -inf at the points of an elastic
    material

    The trial stress and the yield check run over every point on component
    arrays; the return mapping, the state update and the consistent tangent
    only where a point yields. Every other point's tangent is its elastic
    stiffness, which :func:`point_tangents` fills in for the points that
    need one. Every point computes as it would alone.
    """
    law = law if isinstance(law, Law) else Law([law])
    h = np.asarray(h_batch, dtype=np.float64)
    n = len(h)
    grid = (n // law.points, law.points)  # the rows as groups of the law's points
    ep = states.eps_p.reshape(n, 4).T
    alpha = states.alpha_bar.reshape(grid)

    # total strain components (e11, e22, e33, e12), plane strain e33 = 0
    # (-0.0 - ep33 is -ep33 bit for bit); the elastic trial from committed state
    s = np.empty((4, n))
    s[0], s[1], s[2] = h[:, 0], h[:, 3], -0.0
    s[3] = 0.5 * (h[:, 1] + h[:, 2])
    tr = s[0] + s[1] - (ep[0] + ep[1] + ep[2])
    s -= ep
    s_grid = s.reshape((4,) + grid)
    s_grid *= law.two_mu
    s_grid[:3] += law.lam * tr.reshape(grid)  # s11, s22, s33, s12

    dev = s.copy()
    dev[:3] -= (s[0] + s[1] + s[2]) / 3.0
    sq = dev[:3] * dev[:3]
    s_norm = np.sqrt(sq[0] + sq[1] + sq[2] + 2.0 * dev[3] * dev[3])
    q_tr = _SQ32 * s_norm
    f_tr = (q_tr.reshape(grid) - (law.sigma0 + law.h * alpha)).reshape(n)
    active = f_tr > 0.0
    idx = np.flatnonzero(active)
    s_active = s.take(idx, axis=1)  # the trial stress of the yielding points

    # a J2 point at rest takes the return with dgamma = 0, s - 0 * n and
    # ep + 0 * n, which carry the signs of zeros and non-finite values; s
    # becomes the returned stress
    rest = 0.0 * dev
    rest.reshape((4,) + grid)[..., law.elastic] = 0.0
    s -= rest
    new_ep = np.empty((n, 4))
    np.add(ep, rest, out=new_ep.T)
    new_ep.reshape(grid + (4,))[:, law.elastic] = states.eps_p.reshape(grid + (4,))[:, law.elastic]
    new_alpha = states.alpha_bar.reshape(n).copy()
    yielding = np.empty((0, 4, 4))

    if len(idx):
        pt = idx % law.points
        q_a = q_tr[idx]
        dgamma = f_tr[idx] / law.three_mu_h[pt]
        n_a = dev.take(idx, axis=1) / s_norm[idx]  # n11, n22, n33, n12
        two_mu = law.two_mu[pt]
        s[:, idx] = s_active - two_mu * dgamma * _SQ32 * n_a
        new_ep[idx] = (ep.take(idx, axis=1) + dgamma * _SQ32 * n_a).T
        new_alpha[idx] += dgamma
        theta = 1.0 - law.three_mu[pt] * dgamma / q_a
        coeff = law.c6[pt] * (law.inv[pt] - dgamma / q_a)
        # K I (x) I + 2 mu theta P_dev + coeff n (x) n, with the points last
        n4 = n_a.take(_SIGMA, axis=0)
        t = law.bulk[pt] * _OUTER[:, :, None]
        t += (two_mu * theta) * _DEV[:, :, None]
        t += coeff * n4[:, None] * n4[None, :]
        yielding = t.transpose(2, 0, 1)
    sigma = s.take(_SIGMA, axis=0).T.copy()
    new_states = StateBatch(new_ep.reshape(states.eps_p.shape), new_alpha.reshape(states.alpha_bar.shape))
    return sigma, yielding, new_states, active, f_tr


def point_tangents(law, active, yielding):
    """Point tangents (n, 4, 4) of ``n`` points, consecutive groups of the law's points.

    ``active`` (n,) and ``yielding`` are an :func:`evaluate_batch` call's
    (or the rows of whole groups of it that hold every yielding point): a
    yielding point takes its consistent tangent, every other point the
    elastic stiffness of its material.
    """
    law = law if isinstance(law, Law) else Law([law])
    n = len(active)
    tangent = np.empty((n, 4, 4))
    tangent.reshape((n // law.points, law.points, 4, 4))[:] = law.stiffness
    tangent[active] = yielding
    return tangent


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
    sigma, yielding, _, active, _ = evaluate_batch(params, rows, states)
    tangent = point_tangents(params, active, yielding)
    fd = (sigma[1:5] - sigma[5:]).T / (2 * step)
    scale = max(np.abs(tangent[0]).max(), 1.0)
    return float(np.abs(fd - tangent[0]).max() / scale)
