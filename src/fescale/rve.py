"""Micro-scale boundary-value problems with periodic constraints.

One micro problem lives at each macroscopic integration point; the problems
of one shard are one :class:`RveBatch` of stacked arrays, a row per RVE.
Their fixed data is one :class:`MicroGeometry` per micro model, built with
the model and shared by every shard, forked workers included.
The micro displacement is decomposed as u = H*X + w with a periodic
fluctuation w; slave boundary DOFs are eliminated onto their masters and
one anchor corner pins the remaining rigid translation, so the reduced
unknown is the fluctuation at the retained DOFs.

A full assembly pass over a batch produces the reduced residual, the
reduced tangent stiffness values, the residual sensitivity to the applied
macroscopic gradient, the boundary-sum homogenized stress, and the stress
sensitivities needed for the condensed macroscopic tangent and the
algorithmic stress. A Newton round of the staggered micro solve assembles
only what its Newton step reads, the residual and the stiffness values; the
sensitivities and the homogenized stress of an RVE follow once, in the
round where it converges, from the element stiffnesses that round holds.
The material law is evaluated once per pass, over every point of the
selected RVEs, through the geometry's per-point :class:`material.Law`. The
sensitivities are stacked matrix products of the plan's element stiffnesses
with the affine and first-moment maps, written into one buffer per block,
and the residual and sensitivities are each summed by one
:func:`mesh.scatter_add` pass. Every row is computed as it would be alone,
so an RVE's results do not depend on its neighbours in the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fescale import linalg, material, mesh as fmesh
from fescale.errors import GeometryError, SingularMatrixError, StructuralError

# absolute floor of the residual reference force: 1e-8 * E * edge length
FLOOR_SCALE = 1e-8
# box sides and periodic partners are matched within 1e-8 of the longer box edge
PAIRING_TOL = 1e-8
# outward unit normals of the box sides, in the order of PeriodicMap.sides
_NORMALS = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])


@dataclass(frozen=True)
class PeriodicMap:
    """Periodic pairing of opposite boundary nodes plus one anchor corner.

    ``pairs`` lists (plus_node, minus_node, offset) with offset equal to the
    reference-coordinate difference X(plus) - X(minus); corner nodes chain
    to the single anchor corner so the constraints stay non-redundant.
    ``dof_map`` sends every mesh DOF to its reduced equation: slave DOFs map
    onto their master's equation and the anchor DOFs map to -1. ``sides``
    (4, n_nodes) marks the nodes on the box sides x = min, x = max,
    y = min and y = max.
    """

    pairs: tuple
    master_dofs: np.ndarray
    slave_dofs: np.ndarray
    anchor_node: int
    dof_map: np.ndarray
    n_reduced: int
    box: tuple
    sides: np.ndarray


def _match_side(plus_nodes, minus_nodes, coords, axis, tol):
    """Pair plus-side nodes with minus-side nodes by the ``axis`` coordinate."""
    pairs = []
    minus_free = list(minus_nodes)
    for p in plus_nodes:
        if not minus_free:
            raise GeometryError(f"boundary node {p}: no candidate left on opposite side")
        dists = np.abs(coords[minus_free, axis] - coords[p, axis])
        k = int(np.argmin(dists))
        if dists[k] > tol:
            raise GeometryError(
                f"boundary node {p}: nearest opposite candidate at distance "
                f"{dists[k]:.3e} exceeds tolerance {tol:.3e}"
            )
        pairs.append((p, minus_free.pop(k)))
    if minus_free:
        n = minus_free[0]
        dists = np.abs(coords[list(plus_nodes), axis] - coords[n, axis]) if len(plus_nodes) else [np.inf]
        raise GeometryError(
            f"boundary node {n}: unmatched, nearest candidate distance {np.min(dists):.3e}"
        )
    return pairs


def build_periodic_map(m: fmesh.Mesh) -> PeriodicMap:
    """Periodic DOF map of a rectangle-bounded RVE mesh.

    Nodes on the box sides, and opposite side nodes as partners, must match
    within PAIRING_TOL of the longer box edge; a mismatch raises
    :class:`GeometryError` naming the node and the nearest-candidate
    distance.
    """
    x = m.nodes
    xmin, ymin = x.min(axis=0)
    xmax, ymax = x.max(axis=0)
    tol = PAIRING_TOL * max(xmax - xmin, ymax - ymin)
    sides = np.array([np.abs(x[:, 0] - xmin), np.abs(x[:, 0] - xmax),
                      np.abs(x[:, 1] - ymin), np.abs(x[:, 1] - ymax)]) <= tol
    on_left, on_right, on_bottom, on_top = sides

    def corner(mask_a, mask_b, name):
        hits = np.flatnonzero(mask_a & mask_b)
        if len(hits) != 1:
            raise GeometryError(f"expected exactly one corner node at {name}, found {len(hits)}")
        return int(hits[0])

    c_bl = corner(on_left, on_bottom, "min/min")
    c_br = corner(on_right, on_bottom, "max/min")
    c_tl = corner(on_left, on_top, "min/max")
    c_tr = corner(on_right, on_top, "max/max")
    corners = {c_bl, c_br, c_tl, c_tr}

    left, right, bottom, top = ([int(i) for i in np.flatnonzero(side) if i not in corners]
                                for side in sides)

    pairs = (_match_side(right, left, x, axis=1, tol=tol)
             + _match_side(top, bottom, x, axis=0, tol=tol)
             + [(c, c_bl) for c in (c_br, c_tl, c_tr)])

    # masters (all but the anchor) are numbered in DOF order; a slave, whose
    # partner is always a master, shares its partner's equation
    plus, minus = np.array(pairs, dtype=np.int64).T
    slave_dofs = np.sort(np.concatenate([2 * plus, 2 * plus + 1]))
    is_slave = np.zeros(m.n_dofs, dtype=bool)
    is_slave[slave_dofs] = True
    master_dofs = np.flatnonzero(~is_slave)
    numbered = master_dofs[master_dofs // 2 != c_bl]
    dof_map = np.full(m.n_dofs, -1, dtype=np.int64)
    dof_map[numbered] = np.arange(len(numbered))
    for k in (0, 1):
        dof_map[2 * plus + k] = dof_map[2 * minus + k]

    return PeriodicMap(
        pairs=tuple((p, mn, x[p] - x[mn]) for p, mn in pairs),
        master_dofs=master_dofs,
        slave_dofs=slave_dofs,
        anchor_node=c_bl,
        dof_map=dof_map,
        n_reduced=len(numbered),
        box=(float(xmin), float(ymin), float(xmax), float(ymax)),
        sides=sides,
    )


@dataclass(frozen=True)
class MicroModel:
    """Definition of one micro structure: mesh, materials, per-element ids.

    Only the cheap checks run here; :class:`MicroGeometry` checks the
    element Jacobians and the periodic pairing.
    """

    mesh: fmesh.Mesh
    materials: tuple
    mat_ids: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "materials", tuple(self.materials))
        object.__setattr__(self, "mat_ids", np.asarray(self.mat_ids, dtype=np.int64))
        if not self.mesh.n_elements:
            raise GeometryError("the micro mesh has no element")
        if len(self.mat_ids) != self.mesh.n_elements:
            raise GeometryError("mat_ids must cover every element")


class MicroGeometry:
    """Immutable precomputed data shared by every RVE of one micro model.

    Built once per model, at model build: the periodic map, the assembly
    plan of the reduced system (which checks every element's Jacobian), the
    material law of its integration points (``law``), the affine and
    first-moment maps, and the virgin RVE.

    The virgin RVE is the state u_hat = 0, H = 0, with every point at the
    elastic tangent, where every RVE of a batch starts. Its matrices,
    ``virgin_kvals`` = K0, ``virgin_dr_dH``, ``virgin_dsig_du`` and
    ``virgin_dsig_dh``, are those an assembly with no yielding point makes,
    bit for bit. One Cholesky solve of K0 gives its tangent columns
    ``virgin_x_h`` = K0^-1 dr/dH and ``virgin_inverse`` = K0^-1, the model's
    one n x n array; their condensation is the virgin tangent ``virgin_c`` =
    C0. The certified linear maps (``response`` and ``yield_bound``, see
    :func:`certified_update`) are built from the virgin columns. A bad mesh
    raises :class:`GeometryError` or :class:`MeshQualityError` here, a mesh
    with a piece that the periodic constraints and the anchor do not hold
    (a singular K0) among them, and a micro problem over the dense size
    limit :class:`StructuralError`.
    """

    def __init__(self, model: MicroModel):
        m = model.mesh
        self.model = model
        self.mesh = m
        self.pmap = build_periodic_map(m)
        self.n_reduced = self.pmap.n_reduced

        xmin, ymin, xmax, ymax = self.pmap.box
        self.volume = (xmax - xmin) * (ymax - ymin)
        # elastic parameters of the material with the largest Young's modulus
        self.stiffest = max(map(material.elastic_of, model.materials), key=lambda p: p.E)
        self.force_floor = FLOOR_SCALE * self.stiffest.E * max(xmax - xmin, ymax - ymin)
        on_box = self.pmap.sides.any(axis=0)
        self.boundary_nodes = np.flatnonzero(on_box)

        self.plan = fmesh.AssemblyPlan(m, self.pmap.dof_map)
        self.n_ip = self.plan.n_ip
        self.weights_flat = self.plan.weights
        self.law = material.Law(model.materials, model.mat_ids[self.plan.ip_element])
        # affine map X -> H*X per DOF (rows: ux, uy; columns: H11..H22) and
        # its boundary-node part, the first moment of the boundary forces
        amap = np.zeros((m.n_nodes, 2, 4))
        amap[:, 0, :2] = amap[:, 1, 2:] = m.nodes
        amap = amap.reshape(-1, 4)
        bmap = amap * np.repeat(on_box, 2)[:, None]
        self.aff = [amap[blk.edofs] for blk in self.plan.blocks]
        self.xmom = [bmap[blk.edofs] for blk in self.plan.blocks]
        # scatter indices, an eliminated DOF sending its value to a spare
        # equation n: each DOF's equation (residual), and (equation, column)
        # of the 8 sensitivity columns (dr_dH, dsig_du) of every element DOF
        n = self.n_reduced
        self.eq_index = np.where(self.pmap.dof_map >= 0, self.pmap.dof_map, n)
        self.sens_index = np.concatenate([8 * np.where(blk.red >= 0, blk.red, n)[..., None] + np.arange(8)
                                          for blk in self.plan.blocks], axis=None)
        if n > linalg.MAX_DENSE_N:
            raise StructuralError(f"micro problem: {n} unknowns exceed the dense solver's "
                                  f"limit of {linalg.MAX_DENSE_N}")

        # the virgin RVE: its matrices, one Cholesky solve of K0 and C0
        kvals, kes = self.plan.stiffness(np.broadcast_to(self.law.stiffness, (1, self.n_ip, 4, 4)))
        self.virgin_kvals = kvals[0]
        self.virgin_dr_dH, self.virgin_dsig_du, self.virgin_dsig_dh = (a[0] for a in _sensitivities(self, kes))
        try:
            virgin = linalg.factorize(self.plan.dense(self.virgin_kvals),
                                      np.concatenate([self.virgin_dr_dH, np.eye(n)], axis=1)).columns
        except SingularMatrixError as exc:
            node = self.pmap.master_dofs[self.pmap.dof_map[self.pmap.master_dofs] == exc.pivot_index][0] // 2
            raise GeometryError(f"the elastic micro stiffness is singular at node {node} (reduced row "
                                f"{exc.pivot_index}): a piece of the mesh is not held by the periodic "
                                "constraints and the anchor") from exc
        self.virgin_x_h, self.virgin_inverse = virgin[:, :4], virgin[:, 4:]
        self.virgin_c = self.virgin_dsig_dh - self.virgin_dsig_du @ np.ascontiguousarray(self.virgin_x_h)

        # the certified linear maps: along the linear micro solution
        # u_hat = -x_h0 H the point gradients are A H, A (n_ip, 4, 4), and the
        # elastic stresses S H, S = D_el sym(A). ``response`` (4, n_dofs) is
        # the nodal force map F, per column of H the internal force of S;
        # ``yield_bound`` (n_ip,) is L = sqrt(3/2) 2 mu ||dev sym A||_F, so
        # that a point's trial q moves by at most L ||dH||_2
        a = self.plan.gradients(full_displacement(self, -self.virgin_x_h.T, np.eye(4)))  # (4, n_ip, 4)
        self.response = self.plan.internal_force(np.matmul(self.law.stiffness, a[..., None])[..., 0])
        e12 = 0.5 * (a[..., 1] + a[..., 2])
        mean = (a[..., 0] + a[..., 3]) / 3.0
        dev2 = (a[..., 0] - mean) ** 2 + (a[..., 3] - mean) ** 2 + mean**2 + 2.0 * e12**2
        self.yield_bound = np.sqrt(1.5) * self.law.two_mu * np.sqrt(dev2.sum(axis=0))


# relative margin of the certified elastic radius below the nearest yield
CERTIFY_MARGIN = 1e-6
# columns of RveBatch.counts
UPDATE_SOLVES, AUX_SOLVES, FACTORIZATIONS = range(3)


class RveBatch:
    """The micro problems of one shard as stacked arrays, one row per RVE.

    Per point a batch keeps only the material states, the committed
    ``states`` and the last assembly's ``trial`` (one
    :class:`material.StateBatch` each, of count x points rows, RVE-major);
    every other array is per RVE, a row each. The virgin factor, C0 and the
    linear maps are the geometry's. A per-point result, such as the point
    stresses, is evaluated on demand (:func:`evaluate_points`). Committed
    state: ``states``, ``u_hat_n``, ``u_hat_nm1`` and ``H_n``. The current
    iterate is ``u_hat`` (b, n) and ``H`` (b, 4). Each RVE's last assembly
    is kept in the arrays :func:`assemble` fills, its ``plastic_flow``
    among them; a Newton round leaves ``sigma_bar`` and a fresh RVE's
    sensitivities (``dr_dH``, ``dsig_du``, ``dsig_dh``) to
    :func:`solve_micro_staggered`, which writes them where the RVE
    converges. Its condensation columns, the tangent columns ``x_h`` =
    K^-1 dr/dH (b, n, 4) and the residual column ``x_r`` = K^-1 r (b, n),
    belong to that assembly while ``solved`` holds, as it always does after
    a linear-flagged one.
    ``failed`` marks the RVEs whose current sweep met a numerical failure
    or a budget overrun. ``counts`` holds per RVE the update solves,
    auxiliary solves and factorizations since the batch was built.

    Every RVE starts as a copy of the geometry's virgin RVE, as if
    assembled there: its matrices and its solved tangent columns are the
    virgin ones, every other row is zero. A linear-flagged RVE has the
    virgin matrices, K0 and the virgin sensitivities, bit for bit, so its
    columns are the virgin ones (see :func:`assemble`) and its condensed
    tangent is C0. A full assembly records each assembled RVE's certified
    elastic ``radius`` (0 unless it is linear-flagged) about ``H_ref``, the
    H it was assembled at.
    """

    def __init__(self, geom: MicroGeometry, count: int = 1):
        b, n = count, geom.n_reduced
        self.geom, self.b = geom, b
        self.states = material.StateBatch.virgin(b * geom.n_ip)
        self.trial = self.states.copy()
        self.u_hat, self.u_hat_n, self.u_hat_nm1 = np.zeros((3, b, n))
        self.H, self.H_n, self.H_ref = np.zeros((3, b, 4))
        self.radius = np.zeros(b)
        self.ref_force = np.zeros(b)
        self.r_hat = np.zeros((b, n))
        self.kvals, self.dr_dH, self.dsig_dh, self.x_h = (np.repeat(a[None], b, axis=0) for a in (
            geom.virgin_kvals, geom.virgin_dr_dH, geom.virgin_dsig_dh, geom.virgin_x_h))
        # each RVE's (4, n) block is column-major, the transpose of the
        # (n, 4) sums assemble() scatters, which fixes the BLAS kernel of its products
        self.dsig_du = np.repeat(geom.virgin_dsig_du.T[None], b, axis=0).transpose(0, 2, 1)
        self.sigma_bar = np.zeros((b, 4))
        self.f_full = np.zeros((b, geom.mesh.n_dofs))
        self.residual_norm = np.zeros(b)
        self.x_r = np.zeros((b, n))
        self.flagged, self.failed, self.plastic_flow = np.zeros((3, b), dtype=bool)
        self.solved = np.ones(b, dtype=bool)
        self.counts = np.zeros((b, 3), dtype=np.int64)


def full_displacement(geom: MicroGeometry, u_hat, h):
    """Full nodal displacements (..., n_dofs) of fluctuations ``u_hat`` (..., n) and gradients ``h``."""
    u_aff = geom.mesh.nodes @ h.reshape(h.shape[:-1] + (2, 2)).swapaxes(-1, -2)
    # an eliminated DOF's equation -1 reads the padded zero
    pad = np.zeros(u_hat.shape[:-1] + (u_hat.shape[-1] + 1,))
    pad[..., :-1] = u_hat
    return u_aff.reshape(h.shape[:-1] + (-1,)) + pad.take(geom.pmap.dof_map, axis=-1)


def assemble(rves: RveBatch, mask=None, newton=False):
    """Residual, tangent, sensitivities and homogenized stress at (u_hat, H).

    Assembles the RVEs in the boolean ``mask`` (default: all) in one pass
    with one material evaluation over all their points. Material states are
    evaluated from the last committed values; the trial states go to
    ``rves.trial`` for a possible commit. An RVE at which no point yields,
    now or at its previous assembly, keeps the matrices of that assembly
    (``flagged``). An elastic point's tangent is the elastic stiffness bit
    for bit, whatever its plastic history, so those matrices are the virgin
    ones: a flagged RVE takes the virgin sensitivities and is solved from
    the geometry's virgin factor, ``x_h`` the virgin tangent columns and
    ``x_r`` = K0^-1 r, whatever columns it held before (after a rollback,
    say). Any other RVE is fresh: it gets new stiffness values and is left
    unsolved, for a solve on demand. A non-finite residual marks the RVE
    ``failed``.

    With ``newton=True`` the pass is a Newton round of
    :func:`solve_micro_staggered`, which assembles only what a Newton step
    reads: the residual, its norm and reference force, the stiffness
    values, the trial states and the flags. A full pass also gives each
    fresh RVE its sensitivities and each assembled RVE its ``sigma_bar``,
    ``H_ref`` = H and certified radius: (1 - CERTIFY_MARGIN) times the
    least -f_tr / L over its points if it is flagged, else 0. Returns the
    ids of the fresh RVEs and their element stiffnesses, one array per block.
    """
    geom, b, n_ip = rves.geom, rves.b, rves.geom.n_ip
    ids = np.arange(b) if mask is None else mask.nonzero()[0]
    k = len(ids)
    sel = slice(None) if k == b else ids
    h = geom.plan.gradients(full_displacement(geom, rves.u_hat[sel], rves.H[sel]))
    states = material.StateBatch(rves.states.eps_p.reshape(b, n_ip, 4)[sel].reshape(-1, 4),
                                 rves.states.alpha_bar.reshape(b, n_ip)[sel].ravel())
    sigma, yielding, new, active, f_tr = material.evaluate_batch(geom.law, h.reshape(-1, 4), states)
    sigma = sigma.reshape(k, n_ip, 4)
    rves.trial.eps_p.reshape(b, n_ip, 4)[sel] = new.eps_p.reshape(k, n_ip, 4)
    rves.trial.alpha_bar.reshape(b, n_ip)[sel] = new.alpha_bar.reshape(k, n_ip)

    active = active.reshape(k, n_ip)
    plastic_flow = np.logical_or.reduce(active, axis=1)
    # matrices may only be carried over from an assembly that was itself
    # evaluated with the elastic tangent everywhere
    flagged = ~(plastic_flow | rves.plastic_flow[sel])
    at = flagged.nonzero()[0]  # the flagged RVEs' places in the pass
    n_flagged = len(at)

    f_full = geom.plan.internal_force(sigma)
    r_hat = fmesh.scatter_add(geom.eq_index, [f_full], geom.n_reduced + 1)[:, :-1]

    fresh, kes = ids[:0], ()
    if n_flagged < k:
        # the dense point tangents of the RVEs that get new matrices, which
        # hold every yielding point: a flagged RVE has none
        fresh, fresh_active = (ids, active) if not n_flagged else (ids[~flagged], active[~flagged])
        d = material.point_tangents(geom.law, fresh_active.ravel(), yielding).reshape(-1, n_ip, 4, 4)
        rves.kvals[fresh], kes = geom.plan.stiffness(d)
        rves.solved[fresh] = False
    if n_flagged:
        rows = ids[at]
        rves.x_h[rows] = geom.virgin_x_h
        rves.x_r[rows] = _matvec(geom.virgin_inverse, r_hat[at])
        rves.solved[rows] = True
        rves.dr_dH[rows], rves.dsig_du[rows], rves.dsig_dh[rows] = (
            geom.virgin_dr_dH, geom.virgin_dsig_du, geom.virgin_dsig_dh)

    rves.r_hat[sel], rves.f_full[sel] = r_hat, f_full
    rves.plastic_flow[sel], rves.flagged[sel] = plastic_flow, flagged
    # the norms of this pass's own copies, taken in place
    norm = np.maximum.reduce(np.abs(r_hat, out=r_hat), axis=1, initial=0.0)
    rves.residual_norm[sel] = norm
    force = np.maximum.reduce(np.abs(f_full, out=f_full), axis=1, initial=0.0)
    rves.ref_force[sel] = np.maximum(rves.ref_force[sel], force)
    rves.failed[sel] |= ~np.isfinite(norm)

    if not newton:
        room = (-f_tr.reshape(k, n_ip) / geom.yield_bound).min(axis=1)
        rves.radius[sel] = np.where(flagged, (1.0 - CERTIFY_MARGIN) * room, 0.0)
        rves.H_ref[sel] = rves.H[sel]
        if len(fresh):
            rves.dr_dH[fresh], rves.dsig_du[fresh], rves.dsig_dh[fresh] = _sensitivities(geom, kes)
        rves.sigma_bar[sel] = _boundary_stress(geom, rves.f_full[sel])
    return fresh, kes


def _sensitivities(geom: MicroGeometry, kes):
    """dr/dH, dsig/du and dsig/dH of the element stiffnesses ``kes``, one (r, n_el, 2n_en, 2n_en) per block.

    One row per RVE, shaped as a batch keeps it; dsig/du is (r, 4, n),
    each row's block column-major.
    """
    r, n = len(kes[0]), geom.n_reduced
    sens, dsig_dh = [], np.zeros((r, 4, 4))
    for ke, aff, xmom in zip(kes, geom.aff, geom.xmom):
        buf = np.empty(ke.shape[:3] + (8,))  # (r, e, 2n_en, 8): dr_dH | dsig_du
        np.matmul(ke, aff, out=buf[..., :4])
        me = np.matmul(np.swapaxes(ke, 2, 3), xmom, out=buf[..., 4:])
        dsig_dh += np.swapaxes(me.reshape(r, -1, 4), 1, 2) @ aff.reshape(-1, 4)
        sens.append(buf.reshape(r, -1))
    del me, buf  # a batch's temporaries are large: each is freed once used
    sens = fmesh.scatter_add(geom.sens_index, sens, 8 * (n + 1)).reshape(r, n + 1, 8)
    return sens[:, :n, :4], np.swapaxes(sens[:, :n, 4:], 1, 2) / geom.volume, dsig_dh / geom.volume


def _boundary_stress(geom: MicroGeometry, f_full):
    """Homogenized stress (k, 4) of nodal forces ``f_full`` (k, n_dofs): their boundary first moment / volume."""
    k = len(f_full)
    f2 = np.take(f_full.reshape(k, -1, 2), geom.boundary_nodes, axis=1)
    bx = geom.mesh.nodes[geom.boundary_nodes]
    return (np.swapaxes(f2, 1, 2) @ bx).reshape(k, 4) / geom.volume


def residual_reference(rves: RveBatch):
    return np.maximum(rves.ref_force, rves.geom.force_floor)


def _solve_columns(rves: RveBatch, need, tangent=True):
    """Cholesky-solve the stiffness of every RVE in ``need`` whose columns are not solved.

    One :func:`linalg.factorize` call per such RVE, its counted
    factorization, on a fixed layout: the 4 tangent columns and the
    residual column, or with ``tangent=False`` (a staggered Newton step)
    the residual column alone; the step's RVE is assembled again before a
    tangent column is read. A stiffness that is singular or not finite (a
    failed Cholesky solve or probe check) marks the RVE ``failed`` instead
    of raising.

    The RVEs are gathered once per call: their packed values, their
    right-hand sides as the rows of one block each with the probe row
    (:func:`linalg.probe_blocks`), and their ||K||_inf, from the packed
    values (:meth:`mesh.AssemblyPlan.inf_norms`). Each RVE then fills one
    shared dense matrix (:meth:`mesh.AssemblyPlan.dense` with ``out``),
    which LAPACK overwrites with its factor, and solves its block in place
    (``linalg.factorize(..., prepared=True)``); the probe check and the
    column scatter run once for the call.
    """
    todo = (need & ~(rves.solved | rves.failed)).nonzero()[0]
    if not len(todo):
        return
    geom = rves.geom
    n, m = geom.n_reduced, 5 if tangent else 1
    kvals = rves.kvals[todo]
    blocks = linalg.probe_blocks(len(todo), m, n)
    if tangent:
        blocks[:, :4] = np.swapaxes(rves.dr_dH[todo], 1, 2)
    blocks[:, m - 1] = rves.r_hat[todo]
    k = np.empty((n, n))
    ok = np.ones(len(todo), dtype=bool)
    for j in range(len(todo)):
        try:
            linalg.factorize(geom.plan.dense(kvals[j], out=k), blocks[j], prepared=True)
        except SingularMatrixError:
            ok[j] = False
    ok &= linalg.probe_passed(blocks, geom.plan.inf_norms(kvals))
    if not ok.all():
        rves.failed[todo[~ok]] = True
        todo, blocks = todo[ok], blocks[ok]
    rves.solved[todo] = True
    rves.counts[todo, FACTORIZATIONS] += 1
    rves.x_r[todo] = blocks[:, m - 1]
    if tangent:
        rves.x_h[todo] = np.swapaxes(blocks[:, :4], 1, 2)


def _matvec(a, v):
    """Per-row products a[i] @ v[i], each on the BLAS path of a single product."""
    return np.matmul(a, np.ascontiguousarray(v)[..., None])[..., 0]


def evaluate_points(rves: RveBatch):
    """Point stresses (b, n_ip, 4) and yielding flags (b, n_ip) at the batch's (u_hat, H).

    The verification route to per-point results, which a batch does not
    keep: one material evaluation from the committed states, the one an
    assembly at (u_hat, H) makes.
    """
    geom, b, n_ip = rves.geom, rves.b, rves.geom.n_ip
    h = geom.plan.gradients(full_displacement(geom, rves.u_hat, rves.H))
    sigma, _, _, active, _ = material.evaluate_batch(geom.law, h.reshape(-1, 4), rves.states)
    return sigma.reshape(b, n_ip, 4), active.reshape(b, n_ip)


def volume_average_stress(rves: RveBatch) -> np.ndarray:
    """Volume-average form of the homogenized stress (verification route), (b, 4)."""
    geom = rves.geom
    return (geom.weights_flat[:, None] * evaluate_points(rves)[0]).sum(axis=1) / geom.volume


def average_gradient(rves: RveBatch) -> np.ndarray:
    """Volume average of the displacement gradient over the meshed domain."""
    w = rves.geom.weights_flat
    return w @ rves.geom.plan.gradients(full_displacement(rves.geom, rves.u_hat, rves.H)) / w.sum()


def boundary_average_gradient(rves: RveBatch) -> np.ndarray:
    """Surface form (1/V0) * integral of u (x) n over the outer boundary, (b, 4).

    One pass over the element edges: an edge with both nodes on one box side
    is a boundary edge, on which the trapezoidal rule is exact.
    """
    geom = rves.geom
    edges = np.concatenate([np.stack([blk.connectivity, np.roll(blk.connectivity, -1, axis=1)],
                                     axis=2).reshape(-1, 2) for blk in geom.mesh.blocks])
    on = geom.pmap.sides[:, edges[:, 0]] & geom.pmap.sides[:, edges[:, 1]]  # (4, n_edges)
    keep = on.any(axis=0)
    na, nb = edges[keep].T
    half_length = 0.5 * np.linalg.norm(geom.mesh.nodes[nb] - geom.mesh.nodes[na], axis=1)
    u_full = full_displacement(geom, rves.u_hat, rves.H).reshape(rves.b, -1, 2)
    out = np.einsum("e,rei,ej->rij", half_length, u_full[:, na] + u_full[:, nb],
                    _NORMALS[on[:, keep].argmax(axis=0)])
    return out.reshape(rves.b, 4) / geom.volume


def homogenized_tangent_and_alg_stress(rves: RveBatch, alg_stress=True):
    """Condensed stress (b, 4) and macroscopic tangent (b, 4, 4) of every RVE.

    Static condensation of every freshly assembled RVE on its columns: the
    tangent is dsig/dH - dsig/du x_h and the algorithmic stress
    sigma_bar - dsig/du x_r. An RVE whose columns are not solved for its
    assembly gets one Cholesky solve of its stiffness for all five, and
    keeps them for the next update (:func:`micro_update_monolithic`) unless
    the caller drops them. A linear-flagged RVE takes the
    virgin tangent C0 (``virgin_c``) with no solve and skips the residual
    correction (its residual is zero to machine precision). With
    ``alg_stress=False`` (converged micro problems) the stress is
    sigma_bar. A ``failed`` RVE gets no solve and zero rows.
    """
    n = rves.geom.n_reduced
    fresh = ~rves.flagged
    if n:
        _solve_columns(rves, fresh)
    ok = ~rves.failed
    fresh &= ok
    correct = fresh & bool(alg_stress and n)
    if n:
        rves.counts[:, AUX_SOLVES] += fresh.astype(np.int64) + correct
    c = np.where(ok[:, None, None], rves.geom.virgin_c, 0.0)
    if fresh.any():
        c[fresh] = rves.dsig_dh[fresh] - rves.dsig_du[fresh] @ rves.x_h[fresh]
    sigma = np.where(ok[:, None], rves.sigma_bar, 0.0)
    if correct.any():
        sigma[correct] -= _matvec(rves.dsig_du[correct], rves.x_r[correct])
    return sigma, c


def _norm2(r):
    """Per-row 2-norms of r (k, n), each computed as np.linalg.norm does for one row."""
    return np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])


def solve_micro_staggered(rves: RveBatch, h_target, tol_micro, max_iter) -> np.ndarray:
    """Full micro Newton of every RVE at fixed applied gradients ``h_target`` (b, 4).

    The RVEs iterate in lockstep: each round assembles, in one pass, every
    RVE that took a Newton step or backtracks, and each RVE goes through
    exactly the iterates of a loop of its own. Every round is a Newton
    round (see :func:`assemble`): an RVE gets its sensitivities once, from
    the element stiffnesses of the round where it converges, and at the end
    every converged RVE its ``sigma_bar``, from its nodal forces, bit for
    bit what a full assembly at its converged iterate gives. An RVE has
    converged when ||r||_inf <= tol_micro * max(running force, floor); it
    is marked ``failed`` on a budget overrun, a singular stiffness or a
    non-finite residual, and the caller cuts the load increment. Returns
    the iteration counts (b,): a converged RVE counts at least one (the
    re-check) and leaves its converged assembly for
    :func:`homogenized_tangent_and_alg_stress`.
    """
    b = rves.b
    rves.H = np.array(h_target, dtype=np.float64).reshape(b, 4)
    rves.failed[:] = False
    solves = np.zeros(b, dtype=np.int64)
    step, r_prev = np.ones(b), np.zeros(b)
    du = np.zeros_like(rves.u_hat)
    live = np.ones(b, dtype=bool)
    back = go = np.zeros(b, dtype=bool)
    fresh, kes = assemble(rves, newton=True)
    while True:
        live &= ~rves.failed
        # Backtracking keeps the update inside the convergence basin. The
        # Newton direction descends the residual 2-norm (exact tangent), so
        # acceptance tests that norm; convergence stays on the inf-norm.
        # Only the rows that took a step or backtracked are tested.
        rows = ((back | go) & live).nonzero()[0]
        back = np.zeros(b, dtype=bool)
        if len(rows):
            steps = step[rows]
            turn = (_norm2(rves.r_hat[rows]) > r_prev[rows]) & (steps > 0.03125)
            if turn.any():
                back[rows] = turn
                rows, steps = rows[turn], steps[turn, None]
                du_back = du[rows]
                u = rves.u_hat[rows]
                u += steps * du_back
                steps *= 0.5
                u -= steps * du_back
                rves.u_hat[rows] = u
                step[rows] = steps[:, 0]
        check = live & ~back
        done = check & (rves.residual_norm <= tol_micro * residual_reference(rves))
        pick = done[fresh].nonzero()[0]  # the converged fresh RVEs' places in the round
        if len(pick):
            at = fresh[pick]
            rves.dr_dH[at], rves.dsig_du[at], rves.dsig_dh[at] = _sensitivities(
                rves.geom, [ke[pick] for ke in kes])
        del kes  # a round's element stiffnesses are large: freed before the next round
        live &= ~done
        rves.failed |= check & live & (solves >= max_iter)
        go = check & live & ~rves.failed
        _solve_columns(rves, go, tangent=False)
        go &= ~rves.failed
        rows = go.nonzero()[0]
        if len(rows):
            # a full step: u_hat - 1.0 * du is u_hat - du
            du[rows] = x_r = rves.x_r[rows]
            rves.counts[rows, UPDATE_SOLVES] += 1
            solves[rows] += 1
            r_prev[rows] = _norm2(rves.r_hat[rows])
            step[rows] = 1.0
            rves.u_hat[rows] -= x_r
        elif not back.any():
            ok = ~rves.failed
            if ok.any():
                ok = slice(None) if ok.all() else ok  # the whole batch, without a gather
                rves.sigma_bar[ok] = _boundary_stress(rves.geom, rves.f_full[ok])
            return np.maximum(solves, 1)
        fresh, kes = assemble(rves, back | go, newton=True)


def micro_update_monolithic(rves: RveBatch, delta_h) -> np.ndarray:
    """Condensation displacement update: du = -k^-1 (r + dr/dH * dH) = -(x_r + x_h dH).

    ``delta_h`` is shaped (b, 4) and ``du`` (b, n) is returned. No solve
    and no inner iteration when the RVE's columns are solved for its
    assembly; otherwise one Cholesky solve of the cached stiffness gives
    them. This starts a sweep:
    ``failed`` is cleared, and an RVE whose stiffness is singular is marked
    failed and not updated.
    """
    geom, b = rves.geom, rves.b
    delta_h = np.asarray(delta_h, dtype=np.float64).reshape(b, 4)
    rves.failed[:] = False
    du = np.zeros((b, geom.n_reduced))
    if geom.n_reduced:
        _solve_columns(rves, np.ones(b, dtype=bool))
        du = -(rves.x_r + _matvec(rves.x_h, delta_h))
        du[rves.failed] = 0.0
        rves.counts[~rves.failed, UPDATE_SOLVES] += 1
        rves.u_hat += du
    rves.H = rves.H + delta_h
    return du


def certified_update(rves: RveBatch, delta_h) -> np.ndarray:
    """Advance every certified-elastic RVE by its condensed linear response to ``delta_h``.

    Called after :func:`micro_update_monolithic` with the same ``delta_h``
    (b, 4), with the geometry's linear maps. An RVE is
    certified when it is linear-flagged and ||H - H_ref||_2 < ``radius``:
    no point can reach the yield surface.
    Its reference assembly is flagged, so no point yielded there or at the
    assembly whose columns gave the step to it: that step was an exact
    linear one, its residual is one of rounding, and moving u_hat by
    -x_h0 dH leaves it unchanged.
    The RVE gives back the update's residual correction -x_r and takes
    sigma_bar += C0 dH, f_full += F dH and its reference force from the
    new f_full, which is what an assembly at the new (u_hat, H) finds; it
    keeps its residual, columns, flags and trial state. That trial state
    is its committed one: the reference assembly evaluated the committed
    state, which stays elastic, and a commit since copied it. Returns the
    mask of the RVEs that still need an assembly.
    """
    geom = rves.geom
    cert = rves.flagged & (_norm2(rves.H - rves.H_ref) < rves.radius)
    if cert.any():
        sel = slice(None) if cert.all() else np.flatnonzero(cert)
        dh = np.asarray(delta_h, dtype=np.float64).reshape(rves.b, 4)[sel]
        rves.sigma_bar[sel] += _matvec(np.broadcast_to(geom.virgin_c, dh.shape + (4,)), dh)
        rves.f_full[sel] += np.matmul(dh[:, None, :], geom.response)[:, 0]  # F dH, a product per row
        rves.u_hat[sel] += rves.x_r[sel]
        rves.ref_force[sel] = np.maximum(rves.ref_force[sel], np.abs(rves.f_full[sel]).max(axis=1))
    return ~cert


def monolithic_pass(rves: RveBatch, delta_h) -> np.ndarray:
    """The RVE pass of a monolithic sweep; returns the mask of the certified RVEs.

    The condensation update of every RVE, the linear response of the
    certified ones (:func:`certified_update`) and one assembly of the rest,
    none when nothing is left.
    """
    micro_update_monolithic(rves, delta_h)
    rest = certified_update(rves, delta_h)
    if rest.any():
        assemble(rves, None if rest.all() else rest)
    return ~rest


def commit(rves: RveBatch):
    """Accept the trial states of the current assembly as converged."""
    rves.states = rves.trial.copy()
    rves.u_hat_nm1 = rves.u_hat_n
    rves.u_hat_n = rves.u_hat.copy()
    rves.H_n = rves.H.copy()


def rollback(rves: RveBatch):
    """Restore the last committed displacements and reassemble there.

    No update led to this state, so its residual is the committed one and
    not that of an exact linear step: no RVE is certified from it.
    """
    rves.u_hat = rves.u_hat_n.copy()
    rves.H = rves.H_n.copy()
    assemble(rves)
    rves.radius[:] = 0.0


def begin_increment(rves: RveBatch, extrapolate_ratio=None):
    """Reset the running reference force; with a ratio, extrapolate u_hat.

    The linear displacement predictor uses the last two committed states;
    the caller passes a ratio only once there are two.
    """
    rves.ref_force[:] = 0.0
    if extrapolate_ratio is not None:
        rves.u_hat = rves.u_hat_n + extrapolate_ratio * (rves.u_hat_n - rves.u_hat_nm1)


def committed_alpha_bar(rves: RveBatch) -> np.ndarray:
    """Accumulated plastic strain per RVE and integration point, (b, n_ip)."""
    return rves.states.alpha_bar.reshape(rves.b, rves.geom.n_ip)
