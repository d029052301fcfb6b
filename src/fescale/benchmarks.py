"""Built-in desk-scale benchmark geometries and micro structures.

The shipped geometries are desk-scale analogues of the reference problem
classes (notched plate under shear, notched beam in bending, plate with a
hole in tension), not replicas: meshes are structured at reduced density,
and curved features (pores, holes, notches) are pixelated by removing
elements whose centroid falls inside the feature. Unreferenced nodes are
dropped and elements renumbered.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import replace

import numpy as np

from fescale.errors import ConfigError, StructuralError
from fescale.macro import TwoScaleModel
from fescale.material import ElasticParams, PlasticParams, elastic_of
from fescale.mesh import QUAD4, TRI3, ElementBlock, Mesh, sorted_unique
from fescale.rve import MicroModel


def grid_quads(nx, ny, lx=1.0, ly=1.0):
    """Structured bilinear-quad grid on [0, lx] x [0, ly]."""
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    nodes = np.array([[x, y] for y in ys for x in xs])
    conn = []
    for j in range(ny):
        for i in range(nx):
            n0 = j * (nx + 1) + i
            conn.append([n0, n0 + 1, n0 + nx + 2, n0 + nx + 1])
    return nodes, np.array(conn, dtype=np.int64)


def grid_triangles(nx, ny, lx=1.0, ly=1.0):
    """Structured linear-triangle grid with alternating cell diagonals."""
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    nodes = np.array([[x, y] for y in ys for x in xs])
    conn = []
    for j in range(ny):
        for i in range(nx):
            n0 = j * (nx + 1) + i
            n1, n2, n3 = n0 + 1, n0 + nx + 2, n0 + nx + 1
            if (i + j) % 2 == 0:
                conn.append([n0, n1, n2])
                conn.append([n0, n2, n3])
            else:
                conn.append([n0, n1, n3])
                conn.append([n1, n2, n3])
    return nodes, np.array(conn, dtype=np.int64)


def drop_elements(nodes, conn, remove_mask, aux=None):
    """Remove flagged elements, drop orphan nodes, renumber the rest.

    ``aux`` is an optional per-element array filtered alongside. A mesh
    left without elements is a :class:`StructuralError`.
    """
    keep = ~np.asarray(remove_mask, dtype=bool)
    if not keep.any():
        raise StructuralError("the pixelated feature removes every element of the mesh")
    used, rank = sorted_unique(conn[keep].ravel())
    out = (nodes[used], rank.reshape(-1, conn.shape[1]))
    if aux is not None:
        return out + (np.asarray(aux)[keep],)
    return out


def centroids(nodes, conn):
    return nodes[conn].mean(axis=1)


def _in_disc(points, center, radius):
    return np.linalg.norm(points - np.asarray(center), axis=1) < radius


# ---------------------------------------------------------------------------
# micro structures


def rve_single_element(mat):
    """Unit square meshed with one bilinear quad: zero fluctuation DOFs."""
    nodes, conn = grid_quads(1, 1)
    mesh = Mesh(nodes, [ElementBlock(QUAD4, conn)])
    return MicroModel(mesh, (mat,), np.zeros(1, dtype=np.int64))


def rve_laminate(mat_bottom, mat_top, n=4):
    """Two equal horizontal strips stacked in y (layer normal = y)."""
    nodes, conn = grid_quads(n, n)
    mesh = Mesh(nodes, [ElementBlock(QUAD4, conn)])
    mat_ids = (centroids(nodes, conn)[:, 1] >= 0.5).astype(np.int64)
    return MicroModel(mesh, (mat_bottom, mat_top), mat_ids)


def rve_porous_quad(mat, n=8, pore_fraction=0.5):
    """Porous unit square, quad mesh; pore diameter = pore_fraction * edge."""
    nodes, conn = grid_quads(n, n)
    remove = _in_disc(centroids(nodes, conn), (0.5, 0.5), pore_fraction / 2.0)
    nodes, conn = drop_elements(nodes, conn, remove)
    mesh = Mesh(nodes, [ElementBlock(QUAD4, conn)])
    return MicroModel(mesh, (mat,), np.zeros(len(conn), dtype=np.int64))


def rve_porous_tri(mat, n=8, pore_fraction=0.5):
    """Porous unit square, alternating-triangle mesh."""
    nodes, conn = grid_triangles(n, n)
    remove = _in_disc(centroids(nodes, conn), (0.5, 0.5), pore_fraction / 2.0)
    nodes, conn = drop_elements(nodes, conn, remove)
    mesh = Mesh(nodes, [ElementBlock(TRI3, conn)])
    return MicroModel(mesh, (mat,), np.zeros(len(conn), dtype=np.int64))


def rve_composite(mat_matrix, mat_inclusion, n=8):
    """Elastic-plastic matrix with a central pore and two stiff inclusions."""
    nodes, conn = grid_quads(n, n)
    cent = centroids(nodes, conn)
    remove = _in_disc(cent, (0.5, 0.5), 0.14)
    lo, hi = 1.0 / n, 3.0 / n
    incl_a = (cent[:, 0] > lo) & (cent[:, 0] < hi) & (cent[:, 1] > 1 - hi) & (cent[:, 1] < 1 - lo)
    incl_b = (cent[:, 0] > 1 - hi) & (cent[:, 0] < 1 - lo) & (cent[:, 1] > lo) & (cent[:, 1] < hi)
    mat_ids = np.where(incl_a | incl_b, 1, 0)
    nodes, conn, mat_ids = drop_elements(nodes, conn, remove, mat_ids)
    mesh = Mesh(nodes, [ElementBlock(QUAD4, conn)])
    return MicroModel(mesh, (mat_matrix, mat_inclusion), mat_ids)


# ---------------------------------------------------------------------------
# macro geometries (returned as mesh + named node/edge sets for the models)


def _edge_nodes(nodes, axis, value, tol=1e-9):
    return np.flatnonzero(np.abs(nodes[:, axis] - value) <= tol)


def macro_notched_shear(n=8):
    """Square plate, edge slit at mid-height of the left side; sheared top.

    Returns (mesh, sets) with node sets 'bottom' (fully fixed) and 'top'
    (driven horizontally, held vertically).
    """
    nodes, conn = grid_triangles(n, n)
    cent = centroids(nodes, conn)
    cell = 1.0 / n
    row = (n // 2) * cell  # slit along a mesh line band
    notch = (cent[:, 0] < 0.35) & (np.abs(cent[:, 1] - row - 0.5 * cell) < 0.5 * cell)
    nodes, conn = drop_elements(nodes, conn, notch)
    mesh = Mesh(nodes, [ElementBlock(TRI3, conn)])
    sets = {"bottom": _edge_nodes(nodes, 1, 0.0), "top": _edge_nodes(nodes, 1, 1.0)}
    return mesh, sets


def macro_notched_beam(nx=12, ny=3):
    """Cantilever beam with a bottom notch at mid-span; end load applied.

    Returns (mesh, sets) with 'left' (clamped) and 'load_node' (top right
    corner, vertical point load).
    """
    lx, ly = 4.0, 1.0
    nodes, conn = grid_triangles(nx, ny, lx, ly)
    cent = centroids(nodes, conn)
    cellx, celly = lx / nx, ly / ny
    notch = (np.abs(cent[:, 0] - lx / 2) < 0.5 * cellx) & (cent[:, 1] < celly)
    nodes, conn = drop_elements(nodes, conn, notch)
    mesh = Mesh(nodes, [ElementBlock(TRI3, conn)])
    corner = np.flatnonzero(
        (np.abs(nodes[:, 0] - lx) <= 1e-9) & (np.abs(nodes[:, 1] - ly) <= 1e-9)
    )
    sets = {"left": _edge_nodes(nodes, 0, 0.0), "load_node": int(corner[0])}
    return mesh, sets


def macro_plate_hole(n=10):
    """Square plate with a central pixelated hole, stretched vertically.

    Returns (mesh, sets) with 'bottom' (held vertically, one corner pinned)
    and 'top' (driven vertically).
    """
    nodes, conn = grid_triangles(n, n)
    remove = _in_disc(centroids(nodes, conn), (0.5, 0.5), 0.25)
    nodes, conn = drop_elements(nodes, conn, remove)
    mesh = Mesh(nodes, [ElementBlock(TRI3, conn)])
    sets = {"bottom": _edge_nodes(nodes, 1, 0.0), "top": _edge_nodes(nodes, 1, 1.0)}
    return mesh, sets


# ---------------------------------------------------------------------------
# two-scale benchmark models: each builder returns the fields of its model


def _fix_nodes(dirichlet, nodes, ux=None, uy=None):
    for nd in np.atleast_1d(nodes):
        if ux is not None:
            dirichlet.append((2 * int(nd), float(ux)))
        if uy is not None:
            dirichlet.append((2 * int(nd) + 1, float(uy)))


def model_notched_shear(n_macro=6, n_micro=6, u_end=0.03):
    """Notched plate under shear-like loading, porous plastic micro structure."""
    mesh, sets = macro_notched_shear(n_macro)
    dirichlet = []
    _fix_nodes(dirichlet, sets["bottom"], ux=0.0, uy=0.0)
    _fix_nodes(dirichlet, sets["top"], ux=u_end, uy=0.0)
    return dict(
        macro_mesh=mesh, dirichlet=dirichlet, point_loads=[],
        micro_model=rve_porous_tri(default_materials("notched-shear"), n=n_micro),
        control_dof=2 * int(sets["top"][0]),
        reaction_dofs=np.array([2 * int(n) for n in sets["top"]]),
    )


def model_notched_bending(nx=10, ny=3, n_micro=6, f_end=-0.25):
    """Notched cantilever beam, force driven; composite micro structure."""
    mesh, sets = macro_notched_beam(nx, ny)
    inclusion = ElasticParams(E=1000.0, nu=0.3)
    dirichlet = []
    _fix_nodes(dirichlet, sets["left"], ux=0.0, uy=0.0)
    load_dof = 2 * sets["load_node"] + 1
    return dict(
        macro_mesh=mesh, dirichlet=dirichlet, point_loads=[(load_dof, f_end)],
        micro_model=rve_composite(default_materials("notched-bending-2d"), inclusion, n=n_micro),
        control_dof=load_dof, reaction_dofs=np.array([load_dof]),
    )


def model_plate_hole(n_macro=6, n_micro=6, u_end=0.015):
    """Plate with a hole under tension, porous quad micro structure."""
    mesh, sets = macro_plate_hole(n_macro)
    dirichlet = []
    _fix_nodes(dirichlet, sets["bottom"], uy=0.0)
    corner = sets["bottom"][np.argmin(mesh.nodes[sets["bottom"], 0])]
    _fix_nodes(dirichlet, [corner], ux=0.0)
    _fix_nodes(dirichlet, sets["top"], uy=u_end)
    return dict(
        macro_mesh=mesh, dirichlet=dirichlet, point_loads=[],
        micro_model=rve_porous_quad(default_materials("plate-hole-tension"), n=n_micro),
        control_dof=2 * int(sets["top"][0]) + 1,
        reaction_dofs=np.array([2 * int(n) + 1 for n in sets["top"]]),
    )


def two_scale_model(scheme, elastic_only=False, *, micro_model, **fields):
    """The model of a builder's ``fields`` under ``scheme``, for benchmark and custom configs alike.

    ``elastic_only`` keeps only the elastic part of every micro phase.
    """
    if elastic_only:
        micro_model = replace(micro_model, materials=tuple(map(elastic_of, micro_model.materials)))
    return TwoScaleModel(micro_model=micro_model, scheme=scheme, **fields)


BENCHMARK_BUILDERS = {
    "notched-shear": model_notched_shear,
    "notched-bending-2d": model_notched_bending,
    "plate-hole-tension": model_plate_hole,
}

# Shipped suite settings: tight tolerances keep the schemes comparable point
# by point, and a pinned increment size keeps their load steps aligned (the
# adaptive growth rule is capped by dt_max = dt_initial).
BENCH_SOLVER_DEFAULTS = {
    "notched-shear": {"tol_macro": 1e-8, "tol_micro": 1e-8,
                      "dt_initial": 0.05, "dt_max": 0.05, "dt_min": 1e-3},
    "notched-bending-2d": {"tol_macro": 1e-8, "tol_micro": 1e-8,
                           "dt_initial": 0.125, "dt_max": 0.125, "dt_min": 1e-3},
    "plate-hole-tension": {"tol_macro": 1e-8, "tol_micro": 1e-8,
                           "dt_initial": 0.05, "dt_max": 0.05, "dt_min": 1e-3},
}

BENCH_SIZE_DEFAULTS = {
    "notched-shear": {"n_macro": 5, "n_micro": 5},
    "notched-bending-2d": {"nx": 10, "ny": 3, "n_micro": 6},
    "plate-hole-tension": {"n_macro": 6, "n_micro": 8},
}


def build_benchmark(name, scheme, elastic_only=False, **overrides):
    """Instantiate a named benchmark model for one scheme."""
    if name not in BENCHMARK_BUILDERS:
        raise ConfigError(f"unknown benchmark {name!r}; options: {sorted(BENCHMARK_BUILDERS)}")
    return two_scale_model(scheme, elastic_only, **BENCHMARK_BUILDERS[name](**overrides))


# ---------------------------------------------------------------------------
# named registries used by the run configuration


# each built-in RVE's builder, its number of phases (materials) and its
# default resolution n (None: the builder takes no size)
BuiltinRve = namedtuple("BuiltinRve", "builder phases n")
BUILTIN_RVES = {
    "single-element": BuiltinRve(rve_single_element, 1, None),
    "porous-square": BuiltinRve(rve_porous_tri, 1, 6),
    "porous-square-quad": BuiltinRve(rve_porous_quad, 1, 8),
    "laminate": BuiltinRve(rve_laminate, 2, 4),
    "composite": BuiltinRve(rve_composite, 2, 8),
}


def default_materials(benchmark):
    """Reference material parameters of the shipped benchmark analogues."""
    if benchmark == "plate-hole-tension":
        return PlasticParams(ElasticParams(E=200.0, nu=0.3), sigma0=1.2, h=1.3)
    return PlasticParams(ElasticParams(E=100.0, nu=0.3), sigma0=1.0, h=2.0)
