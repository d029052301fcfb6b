"""Micro-scale boundary-value problems with periodic constraints.

One :class:`RveProblem` instance lives at each macroscopic integration
point. The micro displacement is decomposed as u = H*X + w with a periodic
fluctuation w; slave boundary DOFs are eliminated onto their masters and
one anchor corner pins the remaining rigid translation, so the reduced
unknown is the fluctuation at the retained DOFs.

A single assembly pass produces the reduced residual, the reduced tangent
stiffness in CSR form, the residual sensitivity to the applied macroscopic
gradient, the boundary-sum homogenized stress, and the stress sensitivities
needed for the condensed macroscopic tangent and the algorithmic stress.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fescale import linalg, material, mesh as fmesh
from fescale.errors import GeometryError, MicroDivergenceError, StructuralError

# absolute floor of the residual reference force: 1e-8 * E * edge length
FLOOR_SCALE = 1e-8


@dataclass(frozen=True)
class PeriodicMap:
    """Periodic pairing of opposite boundary nodes plus one anchor corner.

    ``pairs`` lists (plus_node, minus_node, offset) with offset equal to the
    reference-coordinate difference X(plus) - X(minus); corner nodes chain
    to the single anchor corner so the constraints stay non-redundant.
    ``dof_map`` sends every mesh DOF to its reduced equation: slave DOFs map
    onto their master's equation and the anchor DOFs map to -1.
    """

    pairs: tuple
    master_dofs: np.ndarray
    slave_dofs: np.ndarray
    anchor_node: int
    dof_map: np.ndarray
    n_reduced: int
    box: tuple


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


def build_periodic_map(m: fmesh.Mesh, tol_geom: float | None = None) -> PeriodicMap:
    """Periodic DOF map of a rectangle-bounded RVE mesh.

    Opposite edge nodes must match within ``tol_geom`` (default 1e-8 of the
    longer box edge); a mismatch raises :class:`GeometryError` naming the
    node and the nearest-candidate distance.
    """
    x = m.nodes
    xmin, ymin = x.min(axis=0)
    xmax, ymax = x.max(axis=0)
    lx, ly = xmax - xmin, ymax - ymin
    if tol_geom is None:
        tol_geom = 1e-8 * max(lx, ly)

    on_left = np.abs(x[:, 0] - xmin) <= tol_geom
    on_right = np.abs(x[:, 0] - xmax) <= tol_geom
    on_bottom = np.abs(x[:, 1] - ymin) <= tol_geom
    on_top = np.abs(x[:, 1] - ymax) <= tol_geom

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

    left = sorted(int(i) for i in np.flatnonzero(on_left) if i not in corners)
    right = sorted(int(i) for i in np.flatnonzero(on_right) if i not in corners)
    bottom = sorted(int(i) for i in np.flatnonzero(on_bottom) if i not in corners)
    top = sorted(int(i) for i in np.flatnonzero(on_top) if i not in corners)

    pairs = []
    for p, mn in _match_side(right, left, x, axis=1, tol=tol_geom):
        pairs.append((p, mn, x[p] - x[mn]))
    for p, mn in _match_side(top, bottom, x, axis=0, tol=tol_geom):
        pairs.append((p, mn, x[p] - x[mn]))
    for c in (c_br, c_tl, c_tr):
        pairs.append((c, c_bl, x[c] - x[c_bl]))

    n_dofs = m.n_dofs
    slave_nodes = np.array([p for p, _, _ in pairs], dtype=np.int64)
    slave_dofs = np.sort(np.concatenate([2 * slave_nodes, 2 * slave_nodes + 1]))
    is_slave = np.zeros(n_dofs, dtype=bool)
    is_slave[slave_dofs] = True
    master_dofs = np.flatnonzero(~is_slave)

    dof_map = np.full(n_dofs, -1, dtype=np.int64)
    nxt = 0
    anchor = {2 * c_bl, 2 * c_bl + 1}
    for d in master_dofs:
        if d in anchor:
            continue
        dof_map[d] = nxt
        nxt += 1
    for p, mn, _ in pairs:
        dof_map[2 * p] = dof_map[2 * mn]
        dof_map[2 * p + 1] = dof_map[2 * mn + 1]

    return PeriodicMap(
        pairs=tuple((int(p), int(mn), off.copy()) for p, mn, off in pairs),
        master_dofs=master_dofs,
        slave_dofs=slave_dofs,
        anchor_node=c_bl,
        dof_map=dof_map,
        n_reduced=nxt,
        box=(float(xmin), float(ymin), float(xmax), float(ymax)),
    )


def build_csr_slots(pattern: linalg.SparseMatrix, red_edofs: np.ndarray) -> np.ndarray:
    """Per-element scatter positions into the CSR value array (-1 = dropped)."""
    off, ci = pattern.row_offsets, pattern.col_indices
    n_el, mloc = red_edofs.shape
    slots = np.full((n_el, mloc, mloc), -1, dtype=np.int64)
    for e in range(n_el):
        red = red_edofs[e]
        cols = np.where(red >= 0, red, 0)
        for a in range(mloc):
            ra = red[a]
            if ra < 0:
                continue
            row_cols = ci[off[ra]:off[ra + 1]]
            pos = np.searchsorted(row_cols, cols)
            slots[e, a] = np.where(red >= 0, off[ra] + pos, -1)
    return slots


@dataclass(frozen=True)
class MicroModel:
    """Definition of one micro structure: mesh, materials, per-element ids."""

    mesh: fmesh.Mesh
    materials: tuple
    mat_ids: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "materials", tuple(self.materials))
        object.__setattr__(self, "mat_ids", np.asarray(self.mat_ids, dtype=np.int64))
        if len(self.mat_ids) != self.mesh.n_elements:
            raise GeometryError("mat_ids must cover every element")


class MicroGeometry:
    """Immutable precomputed data shared by every RVE of one micro model."""

    def __init__(self, model: MicroModel, tol_geom: float | None = None):
        m = model.mesh
        self.model = model
        self.mesh = m
        self.pmap = build_periodic_map(m, tol_geom)
        self.n_reduced = self.pmap.n_reduced
        self.n_full = m.n_dofs

        xmin, ymin, xmax, ymax = self.pmap.box
        self.volume = (xmax - xmin) * (ymax - ymin)
        self.edge_length = max(xmax - xmin, ymax - ymin)
        self.e_max = max(material.elastic_of(p).E for p in model.materials)
        self.force_floor = FLOOR_SCALE * self.e_max * self.edge_length

        tol = 1e-8 * self.edge_length if tol_geom is None else tol_geom
        x = m.nodes
        on_box = (
            (np.abs(x[:, 0] - xmin) <= tol) | (np.abs(x[:, 0] - xmax) <= tol)
            | (np.abs(x[:, 1] - ymin) <= tol) | (np.abs(x[:, 1] - ymax) <= tol)
        )
        self.boundary_nodes = np.flatnonzero(on_box)
        self._boundary_edges = _collect_boundary_edges(m, self.pmap.box, tol)

        self.pattern = fmesh.structure_of_stiffness(m, self.pmap.dof_map)
        ordering = linalg.compute_ordering(self.pattern) if self.n_reduced else linalg.Permutation.identity(0)
        self.layout = linalg.BandLayout.of(self.pattern, ordering)

        # per-block stacked operators and scatter helpers
        self.blocks = []
        first_el = 0
        first_ip = 0
        ip_mat = []
        bmask_node = np.zeros(m.n_nodes, dtype=bool)
        bmask_node[self.boundary_nodes] = True
        for block in m.blocks:
            w, b, coords = fmesh.block_operators(m, block, first_el)
            edofs = fmesh.element_dofs(block.connectivity)
            red = self.pmap.dof_map[edofs]
            slots = build_csr_slots(self.pattern, red)
            n_el, n_en = block.connectivity.shape
            aff = np.zeros((n_el, 2 * n_en, 4))
            xmom = np.zeros((n_el, 4, 2 * n_en))
            xy = m.nodes[block.connectivity]  # (e, n_en, 2)
            bm = bmask_node[block.connectivity].astype(np.float64)
            for a in range(n_en):
                aff[:, 2 * a, 0] = xy[:, a, 0]
                aff[:, 2 * a, 1] = xy[:, a, 1]
                aff[:, 2 * a + 1, 2] = xy[:, a, 0]
                aff[:, 2 * a + 1, 3] = xy[:, a, 1]
                xmom[:, 0, 2 * a] = xy[:, a, 0] * bm[:, a]
                xmom[:, 1, 2 * a] = xy[:, a, 1] * bm[:, a]
                xmom[:, 2, 2 * a + 1] = xy[:, a, 0] * bm[:, a]
                xmom[:, 3, 2 * a + 1] = xy[:, a, 1] * bm[:, a]
            n_ip = n_el * block.n_quad
            ip_mat.append(np.repeat(model.mat_ids[first_el:first_el + n_el], block.n_quad))
            self.blocks.append({
                "w": w, "B": b, "edofs": edofs, "red": red, "slots": slots,
                "aff": aff, "xmom": xmom, "ip_offset": first_ip, "n_ip": n_ip,
            })
            first_el += block.n_elements
            first_ip += n_ip
        self.n_ip = first_ip
        self.ip_mat = np.concatenate(ip_mat) if ip_mat else np.zeros(0, dtype=np.int64)
        self.mat_groups = [np.flatnonzero(self.ip_mat == i) for i in range(len(model.materials))]
        self.weights_flat = np.concatenate([blk["w"].ravel() for blk in self.blocks])

    def virgin_states(self):
        return [material.StateBatch.virgin(len(g)) for g in self.mat_groups]


def _collect_boundary_edges(m: fmesh.Mesh, box, tol):
    """Outer-boundary edges with outward normals, for surface averaging."""
    xmin, ymin, xmax, ymax = box
    x = m.nodes
    sides = [
        (np.abs(x[:, 0] - xmin) <= tol, np.array([-1.0, 0.0])),
        (np.abs(x[:, 0] - xmax) <= tol, np.array([1.0, 0.0])),
        (np.abs(x[:, 1] - ymin) <= tol, np.array([0.0, -1.0])),
        (np.abs(x[:, 1] - ymax) <= tol, np.array([0.0, 1.0])),
    ]
    edges = []
    for block in m.blocks:
        conn = block.connectivity
        n_en = conn.shape[1]
        for e in range(conn.shape[0]):
            for a in range(n_en):
                na, nb = int(conn[e, a]), int(conn[e, (a + 1) % n_en])
                for mask, normal in sides:
                    if mask[na] and mask[nb]:
                        length = float(np.linalg.norm(x[nb] - x[na]))
                        edges.append((na, nb, normal, length))
                        break
    return edges


@dataclass
class Assembly:
    """Everything one residual/stiffness pass produces at a micro state."""

    r_hat: np.ndarray
    k_t: linalg.SparseMatrix
    dr_dH: np.ndarray
    sigma_bar: np.ndarray
    dsig_du: np.ndarray
    dsig_dh: np.ndarray
    f_full: np.ndarray
    sigma_ips: np.ndarray
    trial_states: list
    active: np.ndarray
    plastic_flow: bool
    linear_now: bool
    flagged: bool
    residual_norm: float
    factorization: linalg.Factorization | None = None
    c_tangent: np.ndarray | None = None


@dataclass
class HomogenizedOutput:
    """Per-RVE result consumed by the macroscopic assembly."""

    sigma_bar: np.ndarray
    sigma_alg: np.ndarray
    c_tangent: np.ndarray
    residual_norm: float
    micro_iterations: int
    factorizations: int


class RveProblem:
    """One micro problem instance: states, displacements, cached assembly.

    The stiffness is factorized into slot ``slot`` of the band stack
    ``bands`` (see :meth:`linalg.BandLayout.empty_stack`), which RVEs of one
    shard share so that their solves run as one stacked call; without a
    stack the problem gets a stack of its own. The cached assembly's
    factorization, when present, is the slot's current content: it stays
    valid until the RVE is refactorized.
    """

    def __init__(self, geom: MicroGeometry, store_factorization: bool = True,
                 bands: np.ndarray | None = None, slot: int = 0):
        self.geom = geom
        self.bands = geom.layout.empty_stack(1) if bands is None else bands
        self.slot = slot
        n = geom.n_reduced
        self.states = geom.virgin_states()
        self.active_committed = np.zeros(geom.n_ip, dtype=bool)
        self.last_step_linear = True
        self.u_hat = np.zeros(n)
        self.u_hat_n = np.zeros(n)
        self.u_hat_nm1 = np.zeros(n)
        self.H = np.zeros(4)
        self.H_n = np.zeros(4)
        self.cached: Assembly | None = None
        self.store_factorization = store_factorization
        self.ref_force = 0.0
        self.n_commits = 0
        # counters, reset by the driver at increment boundaries
        self.update_solves = 0
        self.aux_solves = 0
        self.factorizations = 0
        self.assemblies = 0

    def counter_tuple(self):
        return (self.update_solves, self.aux_solves, self.factorizations, self.assemblies)

    def reset_counters(self):
        self.update_solves = self.aux_solves = self.factorizations = self.assemblies = 0


def full_displacement(rve: RveProblem, u_hat=None, h=None):
    """Reconstruct the full nodal displacement from (u_hat, H)."""
    geom = rve.geom
    u_hat = rve.u_hat if u_hat is None else u_hat
    h = rve.H if h is None else h
    u_aff = (geom.mesh.nodes @ h.reshape(2, 2).T).ravel()
    red = geom.pmap.dof_map
    fluct = np.where(red >= 0, np.concatenate([u_hat, [0.0]])[red], 0.0)
    return u_aff + fluct


def assemble(rve: RveProblem) -> Assembly:
    """Residual, tangent, sensitivities, and homogenized stress at (u_hat, H).

    Material states are evaluated from the last committed values; the trial
    states are stored on the returned assembly for a possible commit. When
    the step is detected linear (no plastic flow now or in the last
    committed step, no activity change) the state-independent matrices and
    any retained factorization are carried over from the previous assembly.
    """
    geom = rve.geom
    u_full = full_displacement(rve)

    h_flat = np.empty((geom.n_ip, 4))
    for blk in geom.blocks:
        ue = u_full[blk["edofs"]]
        h_blk = np.einsum("eqab,eb->eqa", blk["B"], ue)
        h_flat[blk["ip_offset"]:blk["ip_offset"] + blk["n_ip"]] = h_blk.reshape(-1, 4)

    sigma_flat = np.empty((geom.n_ip, 4))
    d_flat = np.empty((geom.n_ip, 4, 4))
    active = np.zeros(geom.n_ip, dtype=bool)
    trial_states = []
    for mat, idx, states in zip(geom.model.materials, geom.mat_groups, rve.states):
        sig, tan, new_states, act = material.evaluate_batch(mat, h_flat[idx], states)
        sigma_flat[idx] = sig
        d_flat[idx] = tan
        active[idx] = act
        trial_states.append(new_states)

    plastic_flow = bool(active.any())
    linear_now = (not plastic_flow) and bool(np.array_equal(active, rve.active_committed))
    # matrices may only be carried over from an assembly that was itself
    # evaluated in the linear regime (elastic tangent everywhere)
    flagged = (
        rve.last_step_linear and linear_now
        and rve.cached is not None and rve.cached.linear_now
    )

    f_full = np.zeros(geom.n_full)
    for blk in geom.blocks:
        lo = blk["ip_offset"]
        sig = sigma_flat[lo:lo + blk["n_ip"]].reshape(blk["w"].shape + (4,))
        fe = np.einsum("eqab,eqa->eb", blk["B"], blk["w"][..., None] * sig)
        np.add.at(f_full, blk["edofs"].ravel(), fe.ravel())

    red = geom.pmap.dof_map
    r_hat = np.zeros(geom.n_reduced)
    keep = red >= 0
    np.add.at(r_hat, red[keep], f_full[keep])

    if flagged:
        prev = rve.cached
        k_t, dr_dh = prev.k_t, prev.dr_dH
        dsig_du, dsig_dh = prev.dsig_du, prev.dsig_dh
        fact, c_t = prev.factorization, prev.c_tangent
    else:
        kvals = np.zeros(len(geom.pattern.values))
        dr_dh = np.zeros((geom.n_reduced, 4))
        dsig_dut = np.zeros((geom.n_reduced, 4))
        dsig_dh = np.zeros((4, 4))
        for blk in geom.blocks:
            lo = blk["ip_offset"]
            d = d_flat[lo:lo + blk["n_ip"]].reshape(blk["w"].shape + (4, 4))
            dw = blk["w"][..., None, None] * d
            tmp = np.einsum("eqab,eqac->eqbc", blk["B"], dw)
            ke = np.einsum("eqbc,eqcd->ebd", tmp, blk["B"])
            valid = blk["slots"] >= 0
            np.add.at(kvals, blk["slots"][valid], ke[valid])
            ge = np.einsum("ebd,edc->ebc", ke, blk["aff"])
            rows = blk["red"]
            rkeep = rows >= 0
            np.add.at(dr_dh, rows[rkeep], ge[rkeep])
            me = np.einsum("ecb,ebd->edc", blk["xmom"], ke)  # (e, 2n, 4)
            np.add.at(dsig_dut, rows[rkeep], me[rkeep])
            dsig_dh += np.einsum("edc,eda->ca", me, blk["aff"])
        k_t = geom.pattern.with_values(kvals)
        dsig_du = dsig_dut.T / geom.volume
        dsig_dh = dsig_dh / geom.volume
        fact, c_t = None, None

    f2 = f_full.reshape(-1, 2)
    bx = geom.mesh.nodes[geom.boundary_nodes]
    sigma_bar = (f2[geom.boundary_nodes].T @ bx).ravel() / geom.volume

    asm = Assembly(
        r_hat=r_hat, k_t=k_t, dr_dH=dr_dh, sigma_bar=sigma_bar,
        dsig_du=dsig_du, dsig_dh=dsig_dh, f_full=f_full, sigma_ips=sigma_flat,
        trial_states=trial_states, active=active, plastic_flow=plastic_flow,
        linear_now=linear_now, flagged=flagged,
        residual_norm=float(np.abs(r_hat).max()) if len(r_hat) else 0.0,
        factorization=fact, c_tangent=c_t,
    )
    rve.cached = asm
    rve.assemblies += 1
    rve.ref_force = max(rve.ref_force, float(np.abs(f_full).max()) if len(f_full) else 0.0)
    return asm


def residual_reference(rve: RveProblem):
    return max(rve.ref_force, rve.geom.force_floor)


def ensure_factorization(rve: RveProblem):
    asm = rve.cached
    if asm.factorization is None:
        asm.factorization = linalg.factorize(asm.k_t, rve.geom.layout, out=rve.bands[rve.slot])
        rve.factorizations += 1
    return asm.factorization


def homogenize_stress(rve: RveProblem) -> np.ndarray:
    """Boundary-sum homogenized stress of the current assembly."""
    return rve.cached.sigma_bar.copy()


def volume_average_stress(rve: RveProblem) -> np.ndarray:
    """Volume-average form of the homogenized stress (verification route)."""
    geom = rve.geom
    return (geom.weights_flat[:, None] * rve.cached.sigma_ips).sum(axis=0) / geom.volume


def average_gradient(rve: RveProblem) -> np.ndarray:
    """Volume average of the displacement gradient over the meshed domain."""
    geom = rve.geom
    u_full = full_displacement(rve)
    out = np.zeros(4)
    for blk in geom.blocks:
        ue = u_full[blk["edofs"]]
        h_blk = np.einsum("eqab,eb->eqa", blk["B"], ue)
        out += np.einsum("eq,eqa->a", blk["w"], h_blk)
    return out / geom.weights_flat.sum()


def boundary_average_gradient(rve: RveProblem) -> np.ndarray:
    """Surface form (1/V0) * integral of u (x) n over the outer boundary."""
    geom = rve.geom
    u_full = full_displacement(rve).reshape(-1, 2)
    out = np.zeros((2, 2))
    for na, nb, normal, length in geom._boundary_edges:
        out += 0.5 * length * np.outer(u_full[na] + u_full[nb], normal)
    return out.ravel() / geom.volume


def _batch(rves):
    """``rves`` as a list: one RveProblem, or RVEs in consecutive slots of one band stack."""
    if isinstance(rves, RveProblem):
        return [rves]
    rves = list(rves)
    for i, p in enumerate(rves):
        if p.bands is not rves[0].bands or p.slot != rves[0].slot + i:
            raise StructuralError("a batch of RVEs must fill consecutive slots of one band stack")
    return rves


def _stacked_solve(batch, rhs):
    """One stacked solve of ``rhs`` (n, b, m), block i against RVE i's factorization."""
    lo = batch[0].slot
    return linalg.solve(batch[0].geom.layout.factors(batch[0].bands[lo:lo + len(batch)]), rhs)


def homogenized_tangent_and_alg_stress(rves):
    """Condensed macroscopic tangent and algorithmic stress of one or more RVEs.

    ``rves`` is one RveProblem (the result is one output) or RVEs that fill
    consecutive slots of one band stack (a list of outputs). The inverse of
    the micro stiffness is never formed: one stacked 5-column solve against
    the retained factorizations gives the tangent sensitivity (4 columns)
    and the residual correction (1 column); a column an RVE does not need is
    zero and its result unused. Linear-flagged problems reuse the cached
    tangent and skip the residual correction (their residual is zero to
    machine precision).
    """
    batch = _batch(rves)
    n = batch[0].geom.n_reduced if batch else 0
    f0 = [p.factorizations for p in batch]
    rhs = np.zeros((n, len(batch), 5))
    needed = False
    for i, p in enumerate(batch):
        asm = p.cached
        if n and (asm.c_tangent is None or not asm.flagged):
            ensure_factorization(p)
            needed = True
            if asm.c_tangent is None:
                rhs[:, i, :4] = asm.dr_dH
                p.aux_solves += 1
            if not asm.flagged:
                rhs[:, i, 4] = asm.r_hat
                p.aux_solves += 1
    x = _stacked_solve(batch, rhs) if needed else rhs
    outs = []
    for i, p in enumerate(batch):
        asm = p.cached
        if asm.c_tangent is None:
            # contiguous copies keep the products' BLAS path of separate solves
            sens = np.ascontiguousarray(x[:, i, :4])
            asm.c_tangent = asm.dsig_dh - asm.dsig_du @ sens if n else asm.dsig_dh.copy()
        if asm.flagged or n == 0:
            sigma_alg = asm.sigma_bar.copy()
        else:
            sigma_alg = asm.sigma_bar - asm.dsig_du @ np.ascontiguousarray(x[:, i, 4])
        if not p.store_factorization and not asm.flagged:
            asm.factorization = None
        outs.append(HomogenizedOutput(
            sigma_bar=asm.sigma_bar.copy(), sigma_alg=sigma_alg,
            c_tangent=asm.c_tangent.copy(), residual_norm=asm.residual_norm,
            micro_iterations=0, factorizations=p.factorizations - f0[i],
        ))
    return outs[0] if isinstance(rves, RveProblem) else outs


def solve_micro_staggered(rve: RveProblem, h_target, tol_micro, max_iter) -> HomogenizedOutput:
    """Full micro Newton at a fixed applied gradient, then the tangent.

    Iterates until ||r||_inf <= tol_micro * max(running force, floor); a
    budget overrun raises :class:`MicroDivergenceError` so the caller can
    cut the load increment. The converged stiffness is factorized (or the
    retained factorization reused on linear steps) for the sensitivity
    solve; the algorithmic stress equals the homogenized stress here.
    """
    rve.H = np.asarray(h_target, dtype=np.float64).copy()
    f0 = rve.factorizations
    solves = 0
    asm = assemble(rve)
    while asm.residual_norm > tol_micro * residual_reference(rve):
        if solves >= max_iter:
            raise MicroDivergenceError(-1, solves, asm.residual_norm)
        ensure_factorization(rve)
        du = linalg.solve(asm.factorization, asm.r_hat)
        rve.update_solves += 1
        solves += 1
        # Backtracking keeps the update inside the convergence basin. The
        # Newton direction descends the residual 2-norm (exact tangent), so
        # acceptance tests that norm; convergence stays on the inf-norm.
        r_prev = float(np.linalg.norm(asm.r_hat))
        step = 1.0
        while True:
            rve.u_hat -= step * du
            asm = assemble(rve)
            if float(np.linalg.norm(asm.r_hat)) <= r_prev or step <= 0.03125:
                break
            rve.u_hat += step * du
            step *= 0.5
    out = homogenized_tangent_and_alg_stress(rve)
    return HomogenizedOutput(
        sigma_bar=out.sigma_bar, sigma_alg=out.sigma_bar.copy(),
        c_tangent=out.c_tangent, residual_norm=rve.cached.residual_norm,
        micro_iterations=max(1, solves), factorizations=rve.factorizations - f0,
    )


def micro_update_monolithic(rves, delta_h) -> np.ndarray:
    """Condensation displacement update: du = -k^-1 (r + dr/dH * dH).

    ``rves`` is one RveProblem with ``delta_h`` shaped (4,), or RVEs that
    fill consecutive slots of one band stack with ``delta_h`` shaped (b, 4);
    ``du`` is returned in the matching shape. Exactly one linear solve per
    RVE, all in one stacked call; no inner iteration. Uses the retained
    factorization when present, otherwise refactorizes the cached stiffness
    (plain monolithic mode).
    """
    batch = _batch(rves)
    delta_h = np.asarray(delta_h, dtype=np.float64).reshape(len(batch), 4)
    n = batch[0].geom.n_reduced if batch else 0
    du = np.zeros((len(batch), n))
    if n:
        rhs = np.empty((n, len(batch), 1))
        for i, p in enumerate(batch):
            ensure_factorization(p)
            rhs[:, i, 0] = p.cached.r_hat + p.cached.dr_dH @ delta_h[i]
        du = -_stacked_solve(batch, rhs)[:, :, 0].T
    for i, p in enumerate(batch):
        if n:
            p.update_solves += 1
            p.u_hat += du[i]
            if not p.store_factorization and not p.cached.flagged:
                p.cached.factorization = None
        p.H = p.H + delta_h[i]
    return du[0] if isinstance(rves, RveProblem) else du


def commit(rve: RveProblem):
    """Accept the trial states of the current assembly as converged."""
    asm = rve.cached
    rve.states = [s.copy() for s in asm.trial_states]
    rve.active_committed = asm.active.copy()
    rve.last_step_linear = asm.linear_now
    rve.u_hat_nm1 = rve.u_hat_n
    rve.u_hat_n = rve.u_hat.copy()
    rve.H_n = rve.H.copy()
    rve.n_commits += 1


def rollback(rve: RveProblem):
    """Restore the last committed displacements and reassemble there."""
    rve.u_hat = rve.u_hat_n.copy()
    rve.H = rve.H_n.copy()
    assemble(rve)


def begin_increment(rve: RveProblem):
    rve.ref_force = 0.0


def extrapolate_u_hat(rve: RveProblem, dt_ratio: float):
    """Linear displacement predictor from the last two committed states."""
    if rve.n_commits >= 2:
        rve.u_hat = rve.u_hat_n + dt_ratio * (rve.u_hat_n - rve.u_hat_nm1)


def committed_alpha_bar(rve: RveProblem) -> np.ndarray:
    """Accumulated plastic strain per integration point, global ip order."""
    out = np.zeros(rve.geom.n_ip)
    for idx, states in zip(rve.geom.mat_groups, rve.states):
        out[idx] = states.alpha_bar
    return out
