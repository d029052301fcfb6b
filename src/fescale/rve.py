"""Micro-scale boundary-value problems with periodic constraints.

One micro problem lives at each macroscopic integration point; the problems
of one shard are one :class:`RveBatch` of stacked arrays, a row per RVE.
Their fixed data is one :class:`MicroGeometry` per micro model, built with
the model and shared by every shard, forked workers included.
The micro displacement is decomposed as u = H*X + w with a periodic
fluctuation w; slave boundary DOFs are eliminated onto their masters and
one anchor corner pins the remaining rigid translation, so the reduced
unknown is the fluctuation at the retained DOFs.

A single assembly pass over a batch produces the reduced residual, the
reduced tangent stiffness values, the residual sensitivity to the applied
macroscopic gradient, the boundary-sum homogenized stress, and the stress
sensitivities needed for the condensed macroscopic tangent and the
algorithmic stress. The sensitivities are stacked matrix products of the
plan's element stiffnesses with the affine and first-moment maps, and the
residual and sensitivities are each summed by one :func:`mesh.scatter_add`
pass. Every row is computed as it would be alone, so an RVE's results do
not depend on its neighbours in the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fescale import linalg, material, mesh as fmesh
from fescale.errors import GeometryError, SingularMatrixError

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
    plan of the reduced system (which checks every element's Jacobian) and
    the affine and first-moment maps. A bad mesh raises
    :class:`GeometryError` or :class:`MeshQualityError` here.
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
        ip_mat = model.mat_ids[self.plan.ip_element]
        self.mat_groups = [np.flatnonzero(ip_mat == i) for i in range(len(model.materials))]
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


# columns of RveBatch.counts
UPDATE_SOLVES, AUX_SOLVES, FACTORIZATIONS = range(3)


class RveBatch:
    """The micro problems of one shard as stacked arrays, one row per RVE.

    Committed state: ``states`` (one :class:`material.StateBatch` per
    material over count x points, RVE-major), ``u_hat_n``, ``u_hat_nm1``,
    ``H_n``, ``active_committed`` and ``last_step_linear``. The current
    iterate is ``u_hat`` (b, n) and ``H`` (b, 4). Each RVE's last assembly
    is kept in the arrays :func:`assemble` fills. Its condensation columns,
    the tangent columns ``x_h`` = K^-1 dr/dH (b, n, 4) and the residual
    column ``x_r`` = K^-1 r (b, n), belong to that assembly while
    ``solved`` holds, and ``c_tangent`` while ``tangent_valid`` holds.
    ``failed`` marks the RVEs whose current sweep met a numerical failure
    or a budget overrun. ``counts`` holds per RVE the update solves,
    auxiliary solves and factorizations since the macro run loop last reset
    them.

    A batch starts with a set-up pass at the virgin state: every RVE is
    assembled there, at the same elastic stiffness K0. One LU solve gives
    its tangent columns, which every RVE starts with as solved, and
    ``virgin_inverse`` = K0^-1, the one retained factor of the batch: a
    linear-flagged RVE's stiffness is K0 bit for bit, so its columns are
    the virgin ones (see :func:`assemble`).
    """

    def __init__(self, geom: MicroGeometry, count: int = 1, store_factorization: bool = True):
        b, n, n_ip = count, geom.n_reduced, geom.n_ip
        self.geom, self.b, self.store_factorization = geom, b, store_factorization
        self.states = [material.StateBatch.virgin(b * len(g)) for g in geom.mat_groups]
        self.trial = [s.copy() for s in self.states]
        self.active_committed = np.zeros((b, n_ip), dtype=bool)
        self.last_step_linear = np.ones(b, dtype=bool)
        self.u_hat, self.u_hat_n, self.u_hat_nm1 = np.zeros((3, b, n))
        self.H, self.H_n = np.zeros((2, b, 4))
        self.ref_force = np.zeros(b)
        self.r_hat = np.zeros((b, n))
        self.kvals = np.zeros((b, len(geom.plan.flat)))
        self.dr_dH = np.zeros((b, n, 4))
        # each RVE's (4, n) block is column-major, the transpose of the
        # (n, 4) sums assemble() scatters, which fixes the BLAS kernel of its products
        self.dsig_du = np.zeros((b, n, 4)).transpose(0, 2, 1)
        self.dsig_dh, self.c_tangent = np.zeros((2, b, 4, 4))
        self.sigma_bar = np.zeros((b, 4))
        self.f_full = np.zeros((b, geom.mesh.n_dofs))
        self.sigma_ips = np.zeros((b, n_ip, 4))
        self.active = np.zeros((b, n_ip), dtype=bool)
        self.residual_norm = np.zeros(b)
        self.x_h = np.zeros((b, n, 4))
        self.x_r = np.zeros((b, n))
        (self.plastic_flow, self.linear_now, self.flagged, self.solved,
         self.tangent_valid, self.failed) = np.zeros((6, b), dtype=bool)
        self.counts = np.zeros((b, 3), dtype=np.int64)
        # set-up pass; the virgin residual is zero, and so is x_r
        assemble(self)
        virgin = linalg.factorize(geom.plan.dense(self.kvals[0]),
                                  np.concatenate([self.dr_dH[0], np.eye(n)], axis=1)).columns
        self.virgin_x_h, self.virgin_inverse = virgin[:, :4], virgin[:, 4:]
        self.x_h[:] = self.virgin_x_h
        self.solved[:] = True


def full_displacement(rves: RveBatch, u_hat=None, h=None):
    """Full nodal displacements (..., n_dofs) from (u_hat, H), by default the batch's."""
    geom = rves.geom
    u_hat = rves.u_hat if u_hat is None else np.asarray(u_hat)
    h = rves.H if h is None else np.asarray(h)
    u_aff = geom.mesh.nodes @ np.swapaxes(h.reshape(h.shape[:-1] + (2, 2)), -1, -2)
    red = geom.pmap.dof_map
    pad = np.concatenate([u_hat, np.zeros(u_hat.shape[:-1] + (1,))], axis=-1)
    return u_aff.reshape(h.shape[:-1] + (-1,)) + np.where(red >= 0, pad[..., red], 0.0)


def assemble(rves: RveBatch, mask=None):
    """Residual, tangent, sensitivities and homogenized stress at (u_hat, H).

    Assembles the RVEs in the boolean ``mask`` (default: all) in one pass
    with one material evaluation per material. Material states are
    evaluated from the last committed values; the trial states go to
    ``rves.trial`` for a possible commit. An RVE whose step is linear (no
    plastic flow now or in the last committed step, no activity change)
    keeps the state-independent matrices of its previous assembly and its
    condensed tangent (``flagged``). Those matrices were assembled with the
    elastic tangent everywhere, so they are the virgin ones, and the RVE's
    columns come from the batch's virgin factor: ``x_h`` the virgin tangent
    columns and ``x_r`` = K0^-1 r. A non-finite residual marks the RVE
    ``failed``.
    """
    geom, b = rves.geom, rves.b
    sel = np.arange(b) if mask is None else np.flatnonzero(mask)
    k = len(sel)
    h = geom.plan.gradients(full_displacement(rves, rves.u_hat[sel], rves.H[sel]))
    sigma = np.empty((k, geom.n_ip, 4))
    d = np.empty((k, geom.n_ip, 4, 4))
    active = np.empty((k, geom.n_ip), dtype=bool)
    for mat, idx, states, trial in zip(geom.model.materials, geom.mat_groups, rves.states, rves.trial):
        m = len(idx)
        rows = states if mask is None else material.StateBatch(
            states.eps_p.reshape(b, m, 4)[sel].reshape(-1, 4), states.alpha_bar.reshape(b, m)[sel].ravel())
        sig, tan, new, act = material.evaluate_batch(mat, h[:, idx].reshape(-1, 4), rows)
        sigma[:, idx] = sig.reshape(k, m, 4)
        d[:, idx] = tan.reshape(k, m, 4, 4)
        active[:, idx] = act.reshape(k, m)
        trial.eps_p.reshape(b, m, 4)[sel] = new.eps_p.reshape(k, m, 4)
        trial.alpha_bar.reshape(b, m)[sel] = new.alpha_bar.reshape(k, m)
        del sig, tan, new, act  # the batch's arrays are large: free them before the stiffness

    plastic_flow = active.any(axis=1)
    linear_now = ~plastic_flow & ~rves.active_committed[sel].any(axis=1)
    # matrices may only be carried over from an assembly that was itself
    # evaluated in the linear regime (elastic tangent everywhere)
    flagged = rves.last_step_linear[sel] & linear_now & rves.linear_now[sel]

    f_full = geom.plan.internal_force(sigma)
    r_hat = fmesh.scatter_add(geom.eq_index, [f_full], geom.n_reduced + 1)[:, :-1]

    fresh = sel[~flagged]
    if len(fresh):
        kvals, kes = geom.plan.stiffness(d[~flagged] if flagged.any() else d)
        del d  # a batch's temporaries are large: each is freed once used
        r, n = len(fresh), geom.n_reduced
        sens, dsig_dh = [], np.zeros((r, 4, 4))
        for ke, aff, xmom in zip(kes, geom.aff, geom.xmom):
            me = np.swapaxes(ke, 2, 3) @ xmom  # (r, e, 2n_en, 4)
            dsig_dh += np.swapaxes(me.reshape(r, -1, 4), 1, 2) @ aff.reshape(-1, 4)
            sens.append(np.concatenate([ke @ aff, me], axis=3).reshape(r, -1))  # dr_dH | dsig_du
        del kes, me
        sens = fmesh.scatter_add(geom.sens_index, sens, 8 * (n + 1)).reshape(r, n + 1, 8)
        rves.kvals[fresh] = kvals
        rves.dr_dH[fresh] = sens[:, :n, :4]
        rves.dsig_du[fresh] = np.swapaxes(sens[:, :n, 4:], 1, 2) / geom.volume
        rves.dsig_dh[fresh] = dsig_dh / geom.volume
        rves.solved[fresh] = rves.tangent_valid[fresh] = False
    reuse = flagged & rves.solved[sel]
    if reuse.any():
        rves.x_h[sel[reuse]] = rves.virgin_x_h
        rves.x_r[sel[reuse]] = _matvec(rves.virgin_inverse, r_hat[reuse])

    f2 = np.take(f_full.reshape(k, -1, 2), geom.boundary_nodes, axis=1)
    bx = geom.mesh.nodes[geom.boundary_nodes]
    rves.sigma_bar[sel] = (np.swapaxes(f2, 1, 2) @ bx).reshape(k, 4) / geom.volume
    rves.r_hat[sel], rves.f_full[sel], rves.sigma_ips[sel], rves.active[sel] = r_hat, f_full, sigma, active
    rves.plastic_flow[sel], rves.linear_now[sel], rves.flagged[sel] = plastic_flow, linear_now, flagged
    rves.residual_norm[sel] = np.abs(r_hat).max(axis=1, initial=0.0)
    rves.ref_force[sel] = np.maximum(rves.ref_force[sel], np.abs(f_full).max(axis=1, initial=0.0))
    rves.failed[sel] |= ~np.isfinite(rves.residual_norm[sel])


def residual_reference(rves: RveBatch):
    return np.maximum(rves.ref_force, rves.geom.force_floor)


def _solve_columns(rves: RveBatch, need, tangent=True):
    """LU-solve the stiffness of every RVE in ``need`` whose columns are not solved.

    One :func:`linalg.factorize` call per such RVE, its counted
    factorization, on a fixed layout: the 4 tangent columns and the
    residual column, or with ``tangent=False`` (a staggered Newton step)
    the residual column alone; the step's RVE is assembled again before a
    tangent column is read. A singular stiffness marks the RVE ``failed``
    instead of raising.

    The RVEs share one dense matrix and one column block per call: each
    writes its packed values over the pattern, off which the matrix stays
    zero, and its factorization is dropped before the next RVE writes.
    """
    todo = np.flatnonzero(need & ~rves.solved & ~rves.failed)
    if not len(todo):
        return
    n, flat = rves.geom.n_reduced, rves.geom.plan.flat
    k = np.zeros((n, n))
    k_flat = k.reshape(-1)
    block = np.empty((n, 5))
    rhs = block if tangent else block[:, 4:]
    ok = np.ones(len(todo), dtype=bool)
    for j, i in enumerate(todo):
        k_flat[flat] = rves.kvals[i]
        block[:, 4] = rves.r_hat[i]
        if tangent:
            block[:, :4] = rves.dr_dH[i]
        try:
            x = linalg.factorize(k, rhs).columns
        except SingularMatrixError:
            ok[j] = False
            continue
        rves.x_r[i] = x[:, -1]
        if tangent:
            rves.x_h[i] = x[:, :4]
    rves.failed[todo[~ok]] = True
    rves.solved[todo[ok]] = True
    rves.counts[todo[ok], FACTORIZATIONS] += 1


def _drop_unstored_columns(rves: RveBatch):
    """Plain monolithic mode: solved columns are not kept past their use.

    A linear-flagged RVE keeps the virgin columns its assembly gave it.
    """
    if not rves.store_factorization:
        rves.solved &= rves.flagged


def _matvec(a, v):
    """Per-row products a[i] @ v[i], each on the BLAS path of a single product."""
    return np.matmul(a, np.ascontiguousarray(v)[..., None])[..., 0]


def volume_average_stress(rves: RveBatch) -> np.ndarray:
    """Volume-average form of the homogenized stress (verification route), (b, 4)."""
    geom = rves.geom
    return (geom.weights_flat[:, None] * rves.sigma_ips).sum(axis=1) / geom.volume


def average_gradient(rves: RveBatch) -> np.ndarray:
    """Volume average of the displacement gradient over the meshed domain."""
    w = rves.geom.weights_flat
    return w @ rves.geom.plan.gradients(full_displacement(rves)) / w.sum()


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
    u_full = full_displacement(rves).reshape(rves.b, -1, 2)
    out = np.einsum("e,rei,ej->rij", half_length, u_full[:, na] + u_full[:, nb],
                    _NORMALS[on[:, keep].argmax(axis=0)])
    return out.reshape(rves.b, 4) / geom.volume


def homogenized_tangent_and_alg_stress(rves: RveBatch, alg_stress=True):
    """Condensed stress (b, 4) and macroscopic tangent (b, 4, 4) of every RVE.

    Static condensation on the RVE's columns: the tangent is
    dsig/dH - dsig/du x_h and the algorithmic stress sigma_bar - dsig/du x_r.
    An RVE whose columns are not solved for its assembly gets one LU solve
    of its stiffness for all five, and keeps them: a monolithic-stored
    update consumes them (:func:`micro_update_monolithic`). An RVE with a
    valid condensed tangent (a linear-flagged one) reuses it, and a flagged
    RVE skips the residual correction (its residual is zero to machine
    precision). With ``alg_stress=False`` (converged micro problems) the
    stress is sigma_bar. A ``failed`` RVE gets no solve and zero rows.
    """
    n = rves.geom.n_reduced
    tangent = ~rves.tangent_valid
    correct = ~rves.flagged & bool(alg_stress and n)
    if n:
        _solve_columns(rves, tangent | correct)
    ok = ~rves.failed
    tangent &= ok
    correct &= ok
    if n:
        rves.counts[:, AUX_SOLVES] += tangent.astype(np.int64) + correct
    if tangent.any():
        rves.c_tangent[tangent] = rves.dsig_dh[tangent] - rves.dsig_du[tangent] @ rves.x_h[tangent]
        rves.tangent_valid[tangent] = True
    sigma = np.where(ok[:, None], rves.sigma_bar, 0.0)
    if correct.any():
        sigma[correct] -= _matvec(rves.dsig_du[correct], rves.x_r[correct])
    _drop_unstored_columns(rves)
    return sigma, np.where(ok[:, None, None], rves.c_tangent, 0.0)


def _norm2(r):
    """Per-row 2-norms of r (k, n), each computed as np.linalg.norm does for one row."""
    return np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])


def solve_micro_staggered(rves: RveBatch, h_target, tol_micro, max_iter) -> np.ndarray:
    """Full micro Newton of every RVE at fixed applied gradients ``h_target`` (b, 4).

    The RVEs iterate in lockstep: each round assembles, in one pass, every
    RVE that took a Newton step or backtracks, and each RVE goes through
    exactly the iterates of a loop of its own. An RVE has converged when
    ||r||_inf <= tol_micro * max(running force, floor); it is marked
    ``failed`` on a budget overrun, a singular stiffness or a non-finite
    residual, and the caller cuts the load increment. Returns the
    iteration counts (b,): a converged RVE counts at least one (the
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
    search = np.zeros(b, dtype=bool)
    assemble(rves)
    while True:
        live &= ~rves.failed
        # Backtracking keeps the update inside the convergence basin. The
        # Newton direction descends the residual 2-norm (exact tangent), so
        # acceptance tests that norm; convergence stays on the inf-norm.
        back = search & live & (_norm2(rves.r_hat) > r_prev) & (step > 0.03125)
        rves.u_hat[back] += step[back, None] * du[back]
        step[back] *= 0.5
        rves.u_hat[back] -= step[back, None] * du[back]
        check = live & ~back
        live &= ~(check & (rves.residual_norm <= tol_micro * residual_reference(rves)))
        rves.failed |= check & live & (solves >= max_iter)
        go = check & live & ~rves.failed
        _solve_columns(rves, go, tangent=False)
        go &= ~rves.failed
        if go.any():
            du[go] = rves.x_r[go]
            rves.counts[go, UPDATE_SOLVES] += 1
            solves[go] += 1
            r_prev[go] = _norm2(rves.r_hat[go])
            step[go] = 1.0
            rves.u_hat[go] -= step[go, None] * du[go]
        search = back | go
        if not search.any():
            return np.maximum(solves, 1)
        assemble(rves, search)


def micro_update_monolithic(rves: RveBatch, delta_h) -> np.ndarray:
    """Condensation displacement update: du = -k^-1 (r + dr/dH * dH) = -(x_r + x_h dH).

    ``delta_h`` is shaped (b, 4) and ``du`` (b, n) is returned. No solve
    and no inner iteration when the RVE's columns are solved for its
    assembly (monolithic-stored); otherwise one LU solve of the cached
    stiffness gives them (plain monolithic). This starts a sweep:
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
        _drop_unstored_columns(rves)
    rves.H = rves.H + delta_h
    return du


def commit(rves: RveBatch):
    """Accept the trial states of the current assembly as converged."""
    rves.states = [s.copy() for s in rves.trial]
    rves.active_committed = rves.active.copy()
    rves.last_step_linear = rves.linear_now.copy()
    rves.u_hat_nm1 = rves.u_hat_n
    rves.u_hat_n = rves.u_hat.copy()
    rves.H_n = rves.H.copy()


def rollback(rves: RveBatch):
    """Restore the last committed displacements and reassemble there."""
    rves.u_hat = rves.u_hat_n.copy()
    rves.H = rves.H_n.copy()
    assemble(rves)


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
    out = np.zeros((rves.b, rves.geom.n_ip))
    for idx, states in zip(rves.geom.mat_groups, rves.states):
        out[:, idx] = states.alpha_bar.reshape(rves.b, len(idx))
    return out
