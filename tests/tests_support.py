"""Shared helpers for the test suite (models and closed-form oracles)."""

from dataclasses import dataclass, field

import numpy as np

from fescale.benchmarks import rve_porous_tri
from fescale.macro import TwoScaleModel
from fescale.material import ElasticParams, PlasticParams, elastic_of, evaluate_batch
from fescale.mesh import QUAD4, ElementBlock, Mesh, block_operators, element_dofs

ELASTIC = ElasticParams(E=100.0, nu=0.3)
PLASTIC = PlasticParams(ELASTIC, sigma0=1.0, h=2.0)


def bar_with_porous_rve(scheme, force=0.55, n_micro=4):
    """One macro quad in uniaxial strain with a porous plastic micro model."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = Mesh(nodes, [ElementBlock(QUAD4, [[0, 1, 2, 3]])])
    micro = rve_porous_tri(PLASTIC, n=n_micro)
    dirichlet = [(2 * n, 0.0) for n in range(4)] + [(1, 0.0), (3, 0.0)]
    loads = [(5, force / 2), (7, force / 2)]
    return TwoScaleModel(
        macro_mesh=mesh, dirichlet=dirichlet, point_loads=loads,
        micro_model=micro, scheme=scheme, control_dof=5,
        reaction_dofs=np.array([5, 7]),
    )


def single_ip_porous_model(scheme, u_end=0.02, n_micro=4):
    """One macro triangle (one integration point), fully prescribed shear."""
    from fescale.mesh import TRI3

    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(nodes, [ElementBlock(TRI3, [[0, 1, 2]])])
    micro = rve_porous_tri(PLASTIC, n=n_micro)
    dirichlet = [(0, 0.0), (1, 0.0), (2, u_end), (3, 0.0), (4, u_end), (5, 0.0)]
    return TwoScaleModel(
        macro_mesh=mesh, dirichlet=dirichlet, point_loads=[],
        micro_model=micro, scheme=scheme, control_dof=2,
        reaction_dofs=np.array([2, 4]),
    )


def laminate_closed_form(mats, fracs):
    """Exact laminate stiffness (layer normal = y) in the 4-component layout."""
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
    c[1:3, 1:3] = 1.0 / (f / mu).sum()
    return c


@dataclass(frozen=True)
class IntegrationPoint:
    """One quadrature point with its area-scaled weight and B-operator."""

    element: int
    local_index: int
    weight: float
    b_operator: np.ndarray
    dofs: np.ndarray = field(repr=False, default=None)


def build_integration_points(mesh):
    """All integration points of a mesh, element-major then quadrature-local.

    Point-by-point oracle for the block kernels of ``mesh.AssemblyPlan``.
    Raises :class:`MeshQualityError` naming the first element with a
    non-positive Jacobian determinant.
    """
    points = []
    first = 0
    for block in mesh.blocks:
        w, b = block_operators(mesh, block, first)
        dofs = element_dofs(block.connectivity)
        for e in range(block.n_elements):
            for q in range(block.n_quad):
                points.append(IntegrationPoint(
                    element=first + e,
                    local_index=q,
                    weight=float(w[e, q]),
                    b_operator=b[e, q],
                    dofs=dofs[e],
                ))
        first += block.n_elements
    return points


def total_area(mesh):
    """Sum of integration weights = total reference area."""
    area = 0.0
    first = 0
    for block in mesh.blocks:
        w, _ = block_operators(mesh, block, first)
        area += float(w.sum())
        first += block.n_elements
    return area


def von_mises_full(s11, s22, s33, s12):
    """Von Mises equivalent stress from the full plane-strain components."""
    p = (s11 + s22 + s33) / 3.0
    return np.sqrt(1.5) * np.sqrt((s11 - p) ** 2 + (s22 - p) ** 2 + (s33 - p) ** 2 + 2.0 * s12**2)


def stress_out_of_plane(params, h_micro, state):
    """sigma33 companion of ``material.evaluate_batch`` at one point (plane strain keeps e33 = 0)."""
    el = elastic_of(params)
    h = np.asarray(h_micro, dtype=np.float64).reshape(4)
    ep_new = evaluate_batch(params, h.reshape(1, 4), state)[2].eps_p[0]
    tr = h[0] + h[3] - (ep_new[0] + ep_new[1] + ep_new[2])
    return el.lam * tr + 2.0 * el.mu * (-ep_new[2])
