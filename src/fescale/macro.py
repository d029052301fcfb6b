"""Macroscopic Newton drivers: staggered and monolithic two-scale schemes.

The staggered driver converges every micro problem inside each macro
iteration and assembles the macro system from the homogenized stress. The
monolithic driver performs a single condensation update per micro problem
per macro iteration and assembles from the algorithmic stress, so both
scales converge in one common Newton loop. A third mode retains the micro
factorizations between iterations ("monolithic-stored"); it produces
bit-identical numbers to plain monolithic while factorizing once per
iteration.

Per-RVE work is dispatched through a pool that runs in-process or on a set
of worker processes; reduction into the macro system always happens in
integration-point order, so results do not depend on the worker count.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from fescale import linalg, material, mesh as fmesh, rve as rvemod
from fescale.errors import MicroDivergenceError, StructuralError

SCHEMES = ("staggered", "monolithic", "monolithic-stored")
_SCHEME_ALIASES = {"monolithic-stored-factorization": "monolithic-stored"}


def canonical_scheme(name):
    name = _SCHEME_ALIASES.get(name, name)
    if name not in SCHEMES:
        raise StructuralError(f"unknown scheme {name!r}; options: {SCHEMES}")
    return name


@dataclass
class SolverSettings:
    """Tolerances, iteration budgets, and load-stepping controls."""

    tol_macro: float = 5e-3
    tol_micro: float = 5e-3
    max_macro_iter: int = 16
    n_max: int = 12
    t_end: float = 1.0
    dt_initial: float = 0.1
    dt_min: float = 1e-4
    dt_max: float = 0.1
    cut_factor: float = 0.5
    growth_factor: float = 1.5
    extrapolate: bool = True
    parallel_workers: int = 1

    def __post_init__(self):
        if not (0.0 < self.cut_factor < 1.0 < self.growth_factor):
            raise StructuralError("need 0 < cut_factor < 1 < growth_factor")
        if not (self.dt_min <= self.dt_initial <= self.dt_max):
            raise StructuralError("need dt_min <= dt_initial <= dt_max")
        if self.parallel_workers < 1:
            raise StructuralError("parallel_workers must be >= 1")


@dataclass
class IncrementRecord:
    """Bookkeeping of one load increment (including failed attempts)."""

    index: int
    load_factor: float
    dt: float
    macro_iterations: int = 0
    micro_iters_total: int = 0
    micro_iters_max: int = 0
    factorizations: int = 0
    aux_solves: int = 0
    macro_factorizations: int = 0
    wall_ms: float = 0.0
    cut_events: int = 0
    residual_norms: list = field(default_factory=list)
    plastic_flow: bool = False
    converged: bool = False
    scheme: str = "staggered"


@dataclass
class SolveReport:
    """Per-run statistics and the load-displacement curve."""

    scheme: str
    records: list
    curve: list
    converged: bool
    n_rves: int
    workers: int
    final_u: np.ndarray = None
    final_alpha: np.ndarray = None

    @property
    def total_micro_iterations(self):
        return sum(r.micro_iters_total for r in self.records)

    @property
    def total_factorizations(self):
        return sum(r.factorizations for r in self.records)

    @property
    def total_wall_ms(self):
        return sum(r.wall_ms for r in self.records)


# ---------------------------------------------------------------------------
# macro system: DOF handling and assembly from per-RVE stress/tangent


class MacroSystem:
    """Precomputed macro assembly plan under Dirichlet elimination."""

    def __init__(self, mesh, dirichlet, point_loads, floor_force):
        self.mesh = mesh
        n_dofs = mesh.n_dofs
        self.g_end = np.zeros(n_dofs)
        prescribed = np.zeros(n_dofs, dtype=bool)
        for dof, value in dirichlet:
            prescribed[dof] = True
            self.g_end[dof] = value
        self.p_end = np.zeros(n_dofs)
        for dof, value in point_loads:
            self.p_end[dof] += value
        self.prescribed = np.flatnonzero(prescribed)
        self.free = np.flatnonzero(~prescribed)
        dof_map = np.full(n_dofs, -1, dtype=np.int64)
        dof_map[self.free] = np.arange(len(self.free))
        self.dof_map = dof_map
        self.n_free = len(self.free)
        self.floor_force = floor_force

        self.pattern = fmesh.structure_of_stiffness(mesh, dof_map)
        self.layout = linalg.BandLayout.of(self.pattern, linalg.compute_ordering(self.pattern))
        self.blocks = []
        first_el = 0
        first_ip = 0
        for block in mesh.blocks:
            w, b, _ = fmesh.block_operators(mesh, block, first_el)
            edofs = fmesh.element_dofs(block.connectivity)
            red = dof_map[edofs]
            slots = rvemod.build_csr_slots(self.pattern, red)
            self.blocks.append({
                "w": w, "B": b, "edofs": edofs, "red": red, "slots": slots,
                "ip_offset": first_ip, "n_ip": block.n_elements * block.n_quad,
            })
            first_el += block.n_elements
            first_ip += block.n_elements * block.n_quad
        self.n_ip = first_ip

    def gradients(self, u):
        """Displacement gradient at every macro integration point."""
        out = np.empty((self.n_ip, 4))
        for blk in self.blocks:
            ue = u[blk["edofs"]]
            h = np.einsum("eqab,eb->eqa", blk["B"], ue)
            out[blk["ip_offset"]:blk["ip_offset"] + blk["n_ip"]] = h.reshape(-1, 4)
        return out

    def assemble(self, sigma_all, c_all):
        """Internal force vector and tangent stiffness from per-ip data."""
        f_int = np.zeros(self.mesh.n_dofs)
        kvals = np.zeros(len(self.pattern.values))
        for blk in self.blocks:
            lo = blk["ip_offset"]
            sig = sigma_all[lo:lo + blk["n_ip"]].reshape(blk["w"].shape + (4,))
            fe = np.einsum("eqab,eqa->eb", blk["B"], blk["w"][..., None] * sig)
            np.add.at(f_int, blk["edofs"].ravel(), fe.ravel())
            c = c_all[lo:lo + blk["n_ip"]].reshape(blk["w"].shape + (4, 4))
            cw = blk["w"][..., None, None] * c
            tmp = np.einsum("eqab,eqac->eqbc", blk["B"], cw)
            ke = np.einsum("eqbc,eqcd->ebd", tmp, blk["B"])
            valid = blk["slots"] >= 0
            np.add.at(kvals, blk["slots"][valid], ke[valid])
        return f_int, self.pattern.with_values(kvals)


# ---------------------------------------------------------------------------
# per-RVE work pool: one shard per worker, reduction in alpha order


class _Shard:
    """Owns a contiguous-by-stride subset of the RVE problems.

    The RVEs factorize into the slots of one band stack, so each solve of
    the monolithic sweep is one stacked call over the whole shard. The pool
    calls the public methods by name.
    """

    def __init__(self, geom, indices, store_factorization):
        self.indices = list(indices)
        bands = geom.layout.empty_stack(len(self.indices))
        self.rves = [rvemod.RveProblem(geom, store_factorization, bands, slot)
                     for slot in range(len(self.indices))]
        # setup pass: assemble and factorize the virgin elastic stiffness so
        # the first condensation update consumes a retained factorization
        for p in self.rves:
            rvemod.assemble(p)
            rvemod.ensure_factorization(p)

    def begin_increment(self, extrapolate_ratio):
        for p in self.rves:
            rvemod.begin_increment(p)
            if extrapolate_ratio is not None:
                rvemod.extrapolate_u_hat(p, extrapolate_ratio)

    def staggered(self, h_sub, tol_micro, n_max):
        m = len(self.rves)
        sigma = np.zeros((m, 4))
        c = np.zeros((m, 4, 4))
        rnorm = np.zeros(m)
        iters = np.zeros(m, dtype=np.int64)
        failed = []
        for i, p in enumerate(self.rves):
            try:
                out = rvemod.solve_micro_staggered(p, h_sub[i], tol_micro, n_max)
            except MicroDivergenceError:
                failed.append(self.indices[i])
                continue
            sigma[i] = out.sigma_bar
            c[i] = out.c_tangent
            rnorm[i] = out.residual_norm
            iters[i] = out.micro_iterations
        return {"sigma": sigma, "c": c, "rnorm": rnorm, "iters": iters, "failed": failed}

    def monolithic(self, dh_sub):
        m = len(self.rves)
        sigma = np.zeros((m, 4))
        c = np.zeros((m, 4, 4))
        rnorm = np.zeros(m)
        ref = np.zeros(m)
        rvemod.micro_update_monolithic(self.rves, dh_sub)
        for p in self.rves:
            rvemod.assemble(p)
        outs = rvemod.homogenized_tangent_and_alg_stress(self.rves)
        for i, (p, out) in enumerate(zip(self.rves, outs)):
            sigma[i] = out.sigma_alg
            c[i] = out.c_tangent
            rnorm[i] = out.residual_norm
            ref[i] = rvemod.residual_reference(p)
        return {"sigma": sigma, "c": c, "rnorm": rnorm, "ref": ref, "failed": []}

    def commit(self):
        for p in self.rves:
            rvemod.commit(p)

    def rollback(self):
        for p in self.rves:
            rvemod.rollback(p)

    def counters(self, reset):
        total = np.zeros(4, dtype=np.int64)
        for p in self.rves:
            total += np.array(p.counter_tuple(), dtype=np.int64)
            if reset:
                p.reset_counters()
        return total

    def plastic_any(self):
        return any(p.cached.plastic_flow for p in self.rves)

    def gather_alpha(self):
        return np.stack([rvemod.committed_alpha_bar(p) for p in self.rves])


def _worker_main(conn, model_bytes, indices, store_factorization):
    """Serve ``(method name, args)`` requests on one shard until ``(None, None)``.

    Every reply is ``(True, result)`` or ``(False, exception)``; a failure
    to build the shard is replied to every request.
    """
    try:
        shard = _Shard(rvemod.MicroGeometry(pickle.loads(model_bytes)), indices,
                       store_factorization)
    except Exception as exc:  # surfaced in the parent process
        shard, setup_error = None, exc
    while True:
        name, args = conn.recv()
        if name is None:
            conn.close()
            return
        try:
            if shard is None:
                raise setup_error
            reply = (True, getattr(shard, name)(*args))
        except Exception as exc:  # re-raised in the parent process
            reply = (False, exc)
        conn.send(reply)


class RvePool:
    """Serial or multi-process pool over all RVE problems.

    Every gather reassembles per-RVE arrays in integration-point order, so
    numerical results are independent of the worker count.
    """

    def __init__(self, micro_model, n_rves, store_factorization, workers=1):
        self.n_rves = n_rves
        self.workers = max(1, min(workers, n_rves)) if n_rves else 1
        self._shard_indices = [list(range(w, n_rves, self.workers)) for w in range(self.workers)]
        if self.workers == 1:
            geom = rvemod.MicroGeometry(micro_model)
            self._local = _Shard(geom, range(n_rves), store_factorization)
            self._pipes = None
        else:
            import multiprocessing as mp

            ctx = mp.get_context("fork")
            payload = pickle.dumps(micro_model)
            self._local = None
            self._pipes = []
            self._procs = []
            for w in range(self.workers):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child, payload, self._shard_indices[w], store_factorization),
                    daemon=True,
                )
                proc.start()
                child.close()
                self._pipes.append(parent)
                self._procs.append(proc)

    def _call(self, name, args=None):
        """Call shard method ``name`` with the tuple ``args[w]`` on every shard w.

        ``args=None`` calls without arguments. Every worker's reply is read
        before the first failure is re-raised with its own type, as in a
        serial run.
        """
        if args is None:
            args = [()] * self.workers_effective
        if self._local is not None:
            return [getattr(self._local, name)(*args[0])]
        for pipe, a in zip(self._pipes, args):
            pipe.send((name, a))
        replies = [pipe.recv() for pipe in self._pipes]
        for ok, value in replies:
            if not ok:
                raise value
        return [value for _, value in replies]

    def _scatter(self, full):
        return [full[idx] for idx in self._shard_indices]

    def _gather(self, results, keys):
        out = {}
        for key in keys:
            first = results[0][key]
            buf = np.empty((self.n_rves,) + first.shape[1:], dtype=first.dtype)
            for idx, res in zip(self._shard_indices, results):
                buf[idx] = res[key]
            out[key] = buf
        out["failed"] = sorted(i for res in results for i in res["failed"])
        return out

    def begin_increment(self, extrapolate_ratio=None):
        self._call("begin_increment", [(extrapolate_ratio,)] * self.workers_effective)

    @property
    def workers_effective(self):
        return 1 if self._local is not None else self.workers

    def staggered(self, h_all, tol_micro, n_max):
        payloads = [(sub, tol_micro, n_max) for sub in self._scatter(h_all)]
        results = self._call("staggered", payloads)
        return self._gather(results, ("sigma", "c", "rnorm", "iters"))

    def monolithic(self, dh_all):
        results = self._call("monolithic", [(sub,) for sub in self._scatter(dh_all)])
        return self._gather(results, ("sigma", "c", "rnorm", "ref"))

    def commit(self):
        self._call("commit")

    def rollback(self):
        self._call("rollback")

    def counters(self, reset=True):
        parts = self._call("counters", [(reset,)] * self.workers_effective)
        total = np.zeros(4, dtype=np.int64)
        for p in parts:
            total += p
        return {"update_solves": int(total[0]), "aux_solves": int(total[1]),
                "factorizations": int(total[2]), "assemblies": int(total[3])}

    def plastic_any(self):
        return any(self._call("plastic_any"))

    def gather_alpha(self):
        parts = self._call("gather_alpha")
        buf = np.empty((self.n_rves, parts[0].shape[1]))
        for idx, part in zip(self._shard_indices, parts):
            buf[idx] = part
        return buf

    @property
    def rves(self):
        """Direct access to the RVE problems (serial pool only)."""
        if self._local is None:
            raise StructuralError("RVE problems live in worker processes")
        return self._local.rves

    def close(self):
        if self._local is None:
            for pipe in self._pipes:
                try:
                    pipe.send((None, None))
                    pipe.close()
                except (BrokenPipeError, OSError):
                    pass
            for proc in self._procs:
                proc.join(timeout=5)


# ---------------------------------------------------------------------------
# two-scale model and the Newton drivers


@dataclass
class TwoScaleModel:
    """Macro mesh plus one micro problem per macroscopic integration point."""

    macro_mesh: fmesh.Mesh
    dirichlet: list
    point_loads: list
    micro_model: rvemod.MicroModel
    scheme: str = "monolithic-stored"
    control_dof: int = 0
    reaction_dofs: np.ndarray = None
    name: str = "model"

    def __post_init__(self):
        self.scheme = canonical_scheme(self.scheme)
        if self.reaction_dofs is None:
            self.reaction_dofs = np.array([self.control_dof], dtype=np.int64)
        self.reaction_dofs = np.asarray(self.reaction_dofs, dtype=np.int64)
        e_max = max(material.elastic_of(m).E for m in self.micro_model.materials)
        span = self.macro_mesh.nodes.max(axis=0) - self.macro_mesh.nodes.min(axis=0)
        self.system = MacroSystem(
            self.macro_mesh, self.dirichlet, self.point_loads,
            floor_force=rvemod.FLOOR_SCALE * e_max * float(span.max()),
        )
        self.u = np.zeros(self.macro_mesh.n_dofs)
        self.u_n = np.zeros(self.macro_mesh.n_dofs)
        self.u_nm1 = np.zeros(self.macro_mesh.n_dofs)
        self.n_commits = 0
        self.rves = None  # populated by run() for serial pools

    @property
    def n_rves(self):
        return self.system.n_ip


def extrapolate_initial_guess(u_n, u_nm1, dt_ratio, n_commits):
    """Linear displacement predictor: u_n + dt_ratio * (u_n - u_nm1).

    Requires two committed increments; earlier increments predict zero
    change.
    """
    if n_commits < 2:
        return u_n.copy()
    return u_n + dt_ratio * (u_n - u_nm1)


def adapt_step(record: IncrementRecord, settings: SolverSettings):
    """Next time increment and retry decision from one increment record.

    Cut attempts shrink dt by cut_factor and retry the same target. A
    successful increment grows dt by growth_factor (capped at dt_max) when
    the iteration effort stayed at or below half the budget: micro
    iterations against n_max for the staggered scheme, macro iterations
    against max_macro_iter for the monolithic ones.
    """
    if not record.converged:
        return record.dt * settings.cut_factor, True
    if record.scheme == "staggered":
        grow = record.micro_iters_max <= int(np.ceil(settings.n_max / 2))
    else:
        grow = record.macro_iterations <= int(np.ceil(settings.max_macro_iter / 2))
    if grow:
        return min(record.dt * settings.growth_factor, settings.dt_max), False
    return record.dt, False


def _macro_residual(model, f_int, lam):
    return f_int - lam * model.system.p_end


def _macro_solve(model, k_red, r_free):
    f = linalg.factorize(k_red, model.system.layout)
    return linalg.solve(f, r_free)


def newton_increment_staggered(model, pool, settings, lam, u_start, record):
    """One staggered increment attempt; returns the final U on success."""
    sysm = model.system
    u = u_start.copy()
    ref = sysm.floor_force
    for k in range(1, settings.max_macro_iter + 1):
        h_all = sysm.gradients(u)
        outs = pool.staggered(h_all, settings.tol_micro, settings.n_max)
        if outs["failed"]:
            record.macro_iterations += k
            return None
        record.micro_iters_max = max(record.micro_iters_max, int(outs["iters"].max()))
        f_int, k_t = sysm.assemble(outs["sigma"], outs["c"])
        r_full = _macro_residual(model, f_int, lam)
        ref = max(ref, float(np.abs(f_int).max()))
        rn = float(np.abs(r_full[sysm.free]).max()) if sysm.n_free else 0.0
        record.residual_norms.append(rn)
        if rn <= settings.tol_macro * ref:
            record.macro_iterations += k
            model.last_f_int = f_int
            return u
        if k == settings.max_macro_iter:
            record.macro_iterations += k
            return None
        du = _macro_solve(model, k_t, r_full[sysm.free])
        record.macro_factorizations += 1
        u[sysm.free] -= du
    return None


def newton_increment_monolithic(model, pool, settings, lam, u_start, u_prev, record):
    """One monolithic increment attempt (single coupled Newton loop)."""
    sysm = model.system
    u = u_start.copy()
    du_full = u - u_prev  # predictor difference drives the first update
    ref = sysm.floor_force
    for k in range(1, settings.max_macro_iter + 1):
        dh_all = sysm.gradients(du_full)
        outs = pool.monolithic(dh_all)
        f_int, k_t = sysm.assemble(outs["sigma"], outs["c"])
        r_full = _macro_residual(model, f_int, lam)
        ref = max(ref, float(np.abs(f_int).max()))
        rn = float(np.abs(r_full[sysm.free]).max()) if sysm.n_free else 0.0
        record.residual_norms.append(rn)
        micro_ok = bool(np.all(outs["rnorm"] <= settings.tol_micro * outs["ref"]))
        if rn <= settings.tol_macro * ref and micro_ok:
            record.macro_iterations += k
            model.last_f_int = f_int
            return u
        if k == settings.max_macro_iter:
            record.macro_iterations += k
            return None
        du = _macro_solve(model, k_t, r_full[sysm.free])
        record.macro_factorizations += 1
        du_full = np.zeros_like(u)
        du_full[sysm.free] = -du
        u += du_full
    return None


def run(model: TwoScaleModel, settings: SolverSettings) -> SolveReport:
    """March the load from zero to t_end with adaptive increments.

    Returns a full report; a dt underflow after repeated cuts ends the march
    early with ``converged=False`` and the partial curve retained.
    """
    scheme = model.scheme
    store = scheme != "monolithic"
    pool = RvePool(model.micro_model, model.n_rves, store, settings.parallel_workers)
    if pool._local is not None:
        model.rves = pool.rves
    try:
        return _run_loop(model, pool, settings, scheme)
    finally:
        pool.close()


def _run_loop(model, pool, settings, scheme):
    sysm = model.system
    records = []
    curve = [(0.0, 0.0, 0.0)]
    t = 0.0
    dt = settings.dt_initial
    dt_prev = None
    cuts_pending = 0
    wall_pending = 0.0  # time spent on cut attempts, charged to the next success
    converged_all = True
    index = 1
    pool.counters(reset=True)
    while t < settings.t_end - 1e-12 * settings.t_end:
        dt = min(dt, settings.dt_max, settings.t_end - t)
        lam = (t + dt) / settings.t_end
        record = IncrementRecord(index=index, load_factor=lam, dt=dt, scheme=scheme)
        tic = time.perf_counter()

        ratio = dt / dt_prev if dt_prev else 1.0
        if settings.extrapolate:
            u_start = extrapolate_initial_guess(model.u_n, model.u_nm1, ratio, model.n_commits)
        else:
            u_start = model.u_n.copy()
        u_start[sysm.prescribed] = lam * sysm.g_end[sysm.prescribed]
        pool.begin_increment(
            ratio if (settings.extrapolate and scheme == "staggered") else None
        )

        if scheme == "staggered":
            u_final = newton_increment_staggered(model, pool, settings, lam, u_start, record)
        else:
            u_final = newton_increment_monolithic(
                model, pool, settings, lam, u_start, model.u_n, record
            )

        if u_final is None:
            pool.rollback()
            cuts_pending += 1
            wall_pending += 1e3 * (time.perf_counter() - tic)
            next_dt, _ = adapt_step(record, settings)
            if next_dt < settings.dt_min:
                record.wall_ms = wall_pending
                record.cut_events = cuts_pending
                counters = pool.counters(reset=True)
                record.factorizations += counters["factorizations"]
                record.aux_solves += counters["aux_solves"]
                records.append(record)
                converged_all = False
                break
            dt = next_dt
            continue

        record.converged = True
        record.cut_events = cuts_pending
        record.plastic_flow = pool.plastic_any()
        counters = pool.counters(reset=True)
        record.factorizations = counters["factorizations"]
        record.aux_solves = counters["aux_solves"]
        record.micro_iters_total = counters["update_solves"]
        record.wall_ms = wall_pending + 1e3 * (time.perf_counter() - tic)
        cuts_pending = 0
        wall_pending = 0.0

        pool.commit()
        model.u_nm1 = model.u_n
        model.u_n = u_final
        model.u = u_final
        model.n_commits += 1
        t += dt
        dt_prev = record.dt
        control = float(u_final[model.control_dof])
        reaction = float(model.last_f_int[model.reaction_dofs].sum())
        curve.append((lam, control, reaction))
        records.append(record)
        index += 1
        dt, _ = adapt_step(record, settings)

    report = SolveReport(
        scheme=scheme, records=records, curve=curve, converged=converged_all,
        n_rves=pool.n_rves, workers=settings.parallel_workers,
        final_u=model.u.copy(), final_alpha=pool.gather_alpha(),
    )
    return report
