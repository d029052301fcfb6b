"""Macroscopic Newton loop of the staggered and monolithic two-scale schemes.

All schemes share one macro Newton loop and differ only in the micro sweep
it asks for. The staggered sweep converges every micro problem and returns
its homogenized stress; the monolithic sweep performs a single condensation
update per micro problem and returns the algorithmic stress, so both scales
converge in the one loop. A third mode retains what each micro
factorization solved, the condensation columns, between iterations
("monolithic-stored"); it produces bit-identical numbers to plain
monolithic while factorizing once per iteration.

Per-RVE work is dispatched through a pool that runs in-process or on a set
of worker processes; reduction into the macro system always happens in
integration-point order, so results do not depend on the worker count.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import functools
import mmap
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from fescale import linalg, mesh as fmesh, rve as rvemod
from fescale.errors import FescaleError, SingularMatrixError, StructuralError, WorkerError

SCHEMES = ("staggered", "monolithic", "monolithic-stored")
PREDICTORS = ("tangent", "extrapolate", "none")
_SCHEME_ALIASES = {"monolithic-stored-factorization": "monolithic-stored"}


def canonical_scheme(name):
    name = _SCHEME_ALIASES.get(name, name)
    if name not in SCHEMES:
        raise StructuralError(f"unknown scheme {name!r}; options: {SCHEMES}")
    return name


@dataclass
class SolverSettings:
    """Tolerances, iteration budgets, load-stepping controls and the load predictor.

    ``predictor`` picks where an increment attempt starts (see
    :func:`tangent_predictor` and :func:`extrapolate_initial_guess`):
    ``"tangent"`` solves for the increment on the last converged tangent,
    ``"extrapolate"`` extends the last two committed increments linearly,
    ``"none"`` starts from the last committed state.
    """

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
    predictor: str = "tangent"
    parallel_workers: int = 1

    def __post_init__(self):
        if not (0.0 < self.cut_factor < 1.0 < self.growth_factor):
            raise StructuralError("need 0 < cut_factor < 1 < growth_factor")
        if not (self.dt_min <= self.dt_initial <= self.dt_max):
            raise StructuralError("need dt_min <= dt_initial <= dt_max")
        for name in ("tol_macro", "tol_micro", "t_end", "dt_min"):
            if not getattr(self, name) > 0:
                raise StructuralError(f"{name} must be > 0")
        for name in ("max_macro_iter", "n_max", "parallel_workers"):
            if getattr(self, name) < 1:
                raise StructuralError(f"{name} must be >= 1")
        if self.predictor not in PREDICTORS:
            raise StructuralError(f"predictor must be one of {PREDICTORS}, got {self.predictor!r}")


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


def _check_dofs(name, dofs, n_dofs, unique=False):
    """Reject a DOF outside [0, n_dofs), or listed twice when ``unique``, naming its field."""
    for k, dof in enumerate(dofs):
        if not 0 <= dof < n_dofs:
            raise StructuralError(f"{name}: DOF {dof} outside [0, {n_dofs})")
        if unique and dof in dofs[:k]:
            raise StructuralError(f"{name}: DOF {dof} is listed twice")


class MacroSystem:
    """Precomputed macro assembly plan under Dirichlet elimination."""

    def __init__(self, mesh, dirichlet, point_loads, floor_force):
        self.mesh = mesh
        n_dofs = mesh.n_dofs
        _check_dofs("dirichlet", [dof for dof, _ in dirichlet], n_dofs, unique=True)
        _check_dofs("point_loads", [dof for dof, _ in point_loads], n_dofs)
        self.g_end = np.zeros(n_dofs)
        prescribed = np.zeros(n_dofs, dtype=bool)
        for dof, value in dirichlet:
            prescribed[dof] = True
            self.g_end[dof] = value
        self.p_end = np.zeros(n_dofs)
        for dof, value in point_loads:  # the loads on one free DOF add up
            if prescribed[dof]:
                raise StructuralError(f"point_loads: DOF {dof} is prescribed by dirichlet")
            self.p_end[dof] += value
        self.prescribed = np.flatnonzero(prescribed)
        self.free = np.flatnonzero(~prescribed)
        dof_map = np.full(n_dofs, -1, dtype=np.int64)
        dof_map[self.free] = np.arange(len(self.free))
        self.n_free = len(self.free)
        self.floor_force = floor_force

        self.plan = fmesh.AssemblyPlan(mesh, dof_map)

    def gradients(self, u):
        """Displacement gradient at every macro integration point."""
        return self.plan.gradients(u)

    def assemble(self, sigma_all, c_all):
        """Internal force vector and dense tangent stiffness from per-ip data."""
        kvals, _ = self.plan.stiffness(c_all)
        return self.plan.internal_force(sigma_all), self.plan.dense(kvals)


# ---------------------------------------------------------------------------
# per-RVE work pool: one shard per worker, reduction in alpha order


class _SweepBlock:
    """The arrays of a micro sweep, one row per RVE, laid out once in one allocation.

    The pool writes a sweep's input gradients ``h``; each shard reads its
    rows of them and writes its rows of the results: the stress ``sigma``
    (the algorithmic stress, which for a converged staggered micro problem
    is its homogenized stress), the tangent ``c`` (a ``failed`` RVE's rows
    of both are zero), the micro residual ``rnorm`` and its reference
    ``ref``, the staggered Newton iterations ``iters`` (0 in a monolithic
    sweep), the ``failed`` flags and the ``plastic`` flags of the last
    assembly; shard w writes row w of ``counts``, its update solves,
    auxiliary solves and factorizations so far. On request a shard writes
    its rows of the committed plastic strain ``alpha`` (n_ip per RVE). The
    fields sit at fixed offsets of one structured dtype. For more than one
    shard the block is an anonymous shared mapping, which the workers forked
    after it share; for one, a plain array.
    """

    def __init__(self, n_rves, n_ip, shards):
        layout = np.dtype([("h", np.float64, (n_rves, 4)), ("sigma", np.float64, (n_rves, 4)),
                           ("c", np.float64, (n_rves, 4, 4)), ("alpha", np.float64, (n_rves, n_ip)),
                           ("rnorm", np.float64, (n_rves,)),
                           ("ref", np.float64, (n_rves,)), ("iters", np.int64, (n_rves,)),
                           ("counts", np.int64, (shards, 3)), ("failed", bool, (n_rves,)),
                           ("plastic", bool, (n_rves,))])
        block = (np.ndarray((), layout, buffer=mmap.mmap(-1, layout.itemsize)) if shards > 1
                 else np.zeros((), layout))
        self.shards = shards
        for name in layout.names:
            setattr(self, name, block[name])


class _Shard:
    """The RVE problems of one worker, a contiguous-by-stride subset, as one batch.

    Every RVE starts as a copy of the geometry's virgin RVE (see
    :class:`rve.RveBatch`), solved, so the first condensation update
    consumes retained columns. Shard ``w`` of a :class:`_SweepBlock`
    ``block`` holds its RVEs w, w + shards, ...; without a block it has one
    of its own. A sweep reads the shard's rows of ``block.h`` as one
    contiguous copy and ends in one condensation call, whose results it
    writes into its rows of the block, as :meth:`gather_alpha` writes the
    committed plastic strain: no method returns a value. The pool calls the
    public methods by name, through :meth:`serve`. The process that builds
    a shard runs its sweeps, and pins its heap (:func:`_pin_heap`) first.
    """

    def __init__(self, geom, count, store_factorization, block=None, w=0):
        _pin_heap()
        self.rves = rvemod.RveBatch(geom, count, store_factorization)
        self.block = _SweepBlock(count, geom.n_ip, 1) if block is None else block
        self.w, self.rows = w, slice(w, None, self.block.shards)

    def serve(self, calls):
        """Run the ``(method name, args)`` pairs ``calls`` in order."""
        for name, args in calls:
            getattr(self, name)(*args)

    def begin_increment(self, extrapolate_ratio):
        rvemod.begin_increment(self.rves, extrapolate_ratio)

    def staggered(self, tol_micro, n_max):
        iters = rvemod.solve_micro_staggered(self.rves, self.block.h[self.rows].copy(), tol_micro, n_max)
        self._results(iters, alg_stress=False)

    def monolithic(self):
        rvemod.monolithic_pass(self.rves, self.block.h[self.rows].copy())
        self._results(0)

    def _results(self, iters, alg_stress=True):
        """The shard's rows of the block from one condensation call over the shard."""
        rves, block, rows = self.rves, self.block, self.rows
        block.sigma[rows], block.c[rows] = rvemod.homogenized_tangent_and_alg_stress(rves, alg_stress)
        block.rnorm[rows], block.ref[rows] = rves.residual_norm, rvemod.residual_reference(rves)
        block.iters[rows], block.failed[rows], block.plastic[rows] = iters, rves.failed, rves.plastic_flow
        block.counts[self.w] = rves.counts.sum(axis=0)

    def commit(self):
        rvemod.commit(self.rves)

    def rollback(self):
        rvemod.rollback(self.rves)

    def gather_alpha(self):
        self.block.alpha[self.rows] = rvemod.committed_alpha_bar(self.rves)


@functools.cache
def _blas_thread_setter():
    """The thread-count setter of the OpenBLAS bundled with numpy, or None.

    numpy has no call for it; the bundled library
    (:func:`linalg.bundled_openblas`) exports the setter that threadpoolctl
    calls. Looked up once per process: a multi-worker pool looks it up
    before it forks, and its workers inherit the cache.
    """
    return linalg.openblas_function("scipy_openblas_set_num_threads64_", (ctypes.c_int,))


@functools.cache
def _blas_thread_getter():
    """The thread-count getter of the OpenBLAS bundled with numpy, or None."""
    return linalg.openblas_function("scipy_openblas_get_num_threads64_", (), ctypes.c_int)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body at one thread of numpy's bundled OpenBLAS, then restore the caller's count.

    A forked worker runs one thread, and the bits of a LAPACK solve can
    depend on the thread count, so a serial shard runs its sweeps at one
    thread too: results are then the same at every worker count whatever
    the caller's setting. A no-op without the bundled library.
    """
    set_threads, get_threads = _blas_thread_setter(), _blas_thread_getter()
    if set_threads is None or get_threads is None:
        yield
        return
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


# mallopt(3) parameters and the thresholds pinned: glibc's dynamic mmap
# threshold stops at 32 MiB (DEFAULT_MMAP_THRESHOLD_MAX on 64-bit), where
# its rule sets the trim threshold to twice that
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20


@functools.cache
def _pin_heap():
    """Fix glibc's malloc thresholds in this process, once; a no-op without ``mallopt``.

    By default glibc raises its mmap threshold to the size of each freed
    mapped block and trims free heap beyond twice that, so the arrays a
    micro sweep frees are unmapped or trimmed and the kernel zero-fills
    their pages again on the next sweep. Setting both thresholds turns the
    dynamic rule off and keeps up to 64 MiB of free heap, for the rest of
    the process's life: glibc has no call that restores the rule. Called
    where a shard is built; a forked process inherits the setting and the
    cache.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def _worker_main(conn, geom, count, store_factorization, block, w):
    """Serve requests on shard ``w`` of ``block`` until ``None``.

    A request is a tuple of ``(method name, args)`` calls, which
    :meth:`_Shard.serve` runs in order. ``geom`` and the shared ``block``
    are inherited through fork, as is the BLAS thread setter the pool looked
    up. The worker runs one BLAS thread, so that workers do not fight over
    the cores with each other's BLAS threads. A reply is the exception a
    request raised, or ``None``: every result is in the block. A failure to
    build the shard is replied to every request.
    """
    set_threads = _blas_thread_setter()
    if set_threads is not None:
        set_threads(1)
    try:
        shard = _Shard(geom, count, store_factorization, block, w)
    except Exception as exc:  # surfaced in the parent process
        shard, setup_error = None, exc
    while True:
        calls = conn.recv()
        if calls is None:
            conn.close()
            return
        try:
            if shard is None:
                raise setup_error
            shard.serve(calls)
            reply = None
        except Exception as exc:  # re-raised in the parent process
            reply = exc
        conn.send(reply)


class RvePool:
    """Serial or multi-process pool over all RVE problems.

    Shard w holds the RVEs w, w + workers, w + 2 workers, ... (the slice
    ``slice(w, None, workers)`` of every per-RVE array). A sweep's inputs
    and results, and the final plastic strain, pass through one
    :class:`_SweepBlock` in RVE order, shared with the workers, so a request
    carries only method names and scalars and its reply only an exception,
    if any. ``begin_increment``, ``commit`` and ``rollback`` are queued and
    run on every shard, in order, before the next request's own call, which
    raises their errors; ``plastic_any`` and ``counters`` read the block the
    last sweep wrote.
    Every shard runs at one BLAS thread (a forked worker for its life, the
    serial shard inside each call, :func:`_one_blas_thread`), so numerical
    results are independent of the worker count. The shards
    share the model's micro geometry ``geom``: the serial shard uses it
    directly and forked workers inherit it. Each shard pins the malloc
    thresholds of the process it is built in (:func:`_pin_heap`): building
    a serial pool changes the calling process's thresholds for the rest of
    its life, and a multi-worker pool each worker's.
    """

    def __init__(self, geom, n_rves, store_factorization, workers=1):
        self.n_rves = n_rves
        self.workers = max(1, min(workers, n_rves)) if n_rves else 1
        self._block = _SweepBlock(n_rves, geom.n_ip, self.workers)
        self._pending = []
        self._counted = np.zeros(3, dtype=np.int64)
        if self.workers == 1:
            with _one_blas_thread():
                self._local = _Shard(geom, n_rves, store_factorization, self._block)
        else:
            import multiprocessing as mp

            ctx = mp.get_context("fork")
            _blas_thread_setter()  # found once, here; the workers inherit it
            self._local = None
            self._pipes = []
            self._procs = []
            for w in range(self.workers):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child, geom, len(range(w, n_rves, self.workers)), store_factorization,
                          self._block, w),
                    daemon=True,
                )
                proc.start()
                child.close()
                self._pipes.append(parent)
                self._procs.append(proc)

    def _call(self, name, *args):
        """Run the queued calls, then shard method ``name(*args)``, on every shard.

        Every worker's reply is read before the first failure is re-raised
        with its own type, as in a serial run. A worker whose pipe breaks
        has ended: every worker is reaped and :class:`WorkerError` raised,
        naming it.
        """
        calls = (*self._pending, (name, args))
        self._pending.clear()
        if self._local is not None:
            with _one_blas_thread():
                self._local.serve(calls)
            return
        replies = []
        for w, pipe in enumerate(self._pipes):
            try:
                pipe.send(calls)
            except ConnectionError as exc:
                raise self._lost(w, name) from exc
        for w, pipe in enumerate(self._pipes):
            try:
                replies.append(pipe.recv())
            except (EOFError, ConnectionError) as exc:
                raise self._lost(w, name) from exc
        for error in replies:
            if error is not None:
                raise error

    def _lost(self, w, name):
        """Reap every worker after worker ``w`` ended during call ``name``; the error naming it."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5)
        for pipe in self._pipes:
            pipe.close()
        proc = self._procs[w]
        if proc.exitcode is None:
            how = "stopped answering"
        elif proc.exitcode < 0:
            how = f"was killed by signal {signal.Signals(-proc.exitcode).name}"
        else:
            how = f"exited with code {proc.exitcode}"
        return WorkerError(f"worker {w} (pid {proc.pid}) {how} during the pool's {name!r} call")

    def begin_increment(self, extrapolate_ratio=None):
        self._pending.append(("begin_increment", (extrapolate_ratio,)))

    def staggered(self, h_all, tol_micro, n_max):
        """Converge every micro problem at the gradients ``h_all``; the block of results.

        The block's arrays hold until the next sweep overwrites them.
        """
        self._block.h[:] = h_all
        self._call("staggered", tol_micro, n_max)
        return self._block

    def monolithic(self, dh_all):
        """One condensation update per micro problem for ``dh_all``; the block of results, as :meth:`staggered`."""
        self._block.h[:] = dh_all
        self._call("monolithic")
        return self._block

    def commit(self):
        self._pending.append(("commit", ()))

    def rollback(self):
        self._pending.append(("rollback", ()))

    def counters(self):
        """Update solves, auxiliary solves and factorizations of the sweeps since the last call."""
        total = self._block.counts.sum(axis=0)
        new, self._counted = total - self._counted, total
        return {"update_solves": int(new[0]), "aux_solves": int(new[1]),
                "factorizations": int(new[2])}

    def plastic_any(self):
        return bool(self._block.plastic.any())

    def gather_alpha(self):
        """Committed plastic strain (n_rves, n_ip), in RVE order: a copy of the block's."""
        self._call("gather_alpha")
        return self._block.alpha.copy()

    def close(self):
        if self._local is None:
            for pipe in self._pipes:
                try:
                    pipe.send(None)
                    pipe.close()
                except (BrokenPipeError, OSError):
                    pass
            for proc in self._procs:
                proc.join(timeout=5)


# ---------------------------------------------------------------------------
# two-scale model and the Newton loop


@dataclass
class TwoScaleModel:
    """Macro mesh plus one micro problem per macroscopic integration point.

    Building it checks the inputs and builds the micro geometry, which
    every run of the model shares, at one BLAS thread as the shards run; an
    error the geometry finds in the micro mesh (a singular virgin micro
    stiffness, or too many unknowns, among them) is reported as ``rve: ...``.
    It then assembles the virgin macro tangent ``virgin_tangent`` = (C0 at
    every point, the free-free K0 they give), where every run's
    tangent predictor starts; its Cholesky solve is the check that the
    Dirichlet data leave no rigid-body mode.
    """

    macro_mesh: fmesh.Mesh
    dirichlet: list
    point_loads: list
    micro_model: rvemod.MicroModel
    control_dof: int
    reaction_dofs: np.ndarray
    scheme: str = "monolithic-stored"

    def __post_init__(self):
        try:
            with _one_blas_thread():
                self.micro_geometry = rvemod.MicroGeometry(self.micro_model)
        except FescaleError as exc:
            raise StructuralError(f"rve: {exc}") from exc
        self.scheme = canonical_scheme(self.scheme)
        self.reaction_dofs = np.asarray(self.reaction_dofs, dtype=np.int64)
        _check_dofs("control_dof", [self.control_dof], self.macro_mesh.n_dofs)
        _check_dofs("reaction_dofs", self.reaction_dofs, self.macro_mesh.n_dofs, unique=True)
        pieces = fmesh.count_pieces(self.macro_mesh)
        if pieces != 1:
            raise StructuralError(f"the macro mesh falls apart into {pieces} pieces "
                                  "that share no element edge" if pieces else
                                  "the macro mesh has no element")
        span = self.macro_mesh.nodes.max(axis=0) - self.macro_mesh.nodes.min(axis=0)
        self.system = MacroSystem(
            self.macro_mesh, self.dirichlet, self.point_loads,
            floor_force=rvemod.FLOOR_SCALE * self.micro_geometry.stiffest.E * float(span.max()),
        )
        if self.system.n_free > linalg.MAX_DENSE_N:
            raise StructuralError(f"macro system: {self.system.n_free} unknowns exceed the dense "
                                  f"solver's limit of {linalg.MAX_DENSE_N}")
        # a rigid-body mode makes the virgin tangent singular
        c0 = np.broadcast_to(self.micro_geometry.virgin_c, (self.n_rves, 4, 4))
        self.virgin_tangent = c0, self.system.assemble(np.zeros((self.n_rves, 4)), c0)[1]
        try:
            linalg.factorize(self.virgin_tangent[1])
        except SingularMatrixError as exc:
            dof = self.system.free[exc.pivot_index]
            raise StructuralError("dirichlet: the prescribed DOFs leave the macro mesh a rigid-body "
                                  f"motion (singular elastic stiffness at DOF {dof})") from exc

    @property
    def n_rves(self):
        return self.system.plan.n_ip

    def with_scheme(self, scheme):
        """This model under ``scheme``: a copy sharing the micro geometry, macro system and virgin tangent."""
        other = copy.copy(self)
        other.scheme = canonical_scheme(scheme)
        return other


def extrapolate_initial_guess(u_n, u_nm1, dt_ratio, n_commits):
    """Linear displacement predictor: u_n + dt_ratio * (u_n - u_nm1).

    Requires two committed increments; earlier increments predict zero
    change.
    """
    if n_commits < 2:
        return u_n.copy()
    return u_n + dt_ratio * (u_n - u_nm1)


def tangent_predictor(sysm, c_all, k_t, u_n, u_prescribed, dlam):
    """Forward-Euler load predictor: u_n + du with K_ff du_f = dlam p_f - K_fp dg.

    ``c_all`` (n_ip, 4, 4) are the tangents K_t = ``k_t`` (the free-free
    block) was assembled from; ``u_prescribed`` holds the prescribed DOFs'
    values at the new load, so dg is their change from ``u_n``. K_fp dg is
    formed without the matrix, as the free rows of the internal force of
    the stresses c·grad(dg). One macro factorization; a singular K_ff
    raises :class:`SingularMatrixError`.
    """
    dg = np.zeros_like(u_n)
    dg[sysm.prescribed] = u_prescribed - u_n[sysm.prescribed]
    k_dg = sysm.plan.internal_force((c_all @ sysm.gradients(dg)[..., None])[..., 0])
    u = u_n + dg
    if sysm.n_free:
        u[sysm.free] += linalg.factorize(k_t, (dlam * sysm.p_end - k_dg)[sysm.free]).columns
    return u


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


def newton_increment(model, pool, settings, lam, u_start, u_n, record):
    """One increment attempt; returns ``(U, f_int, c, K_t)`` on success, else None.

    The schemes differ only in the micro sweep: staggered converges every
    micro problem at the gradient of U, monolithic makes one condensation
    update per micro problem for the gradient of the last change of U (the
    predictor's difference to ``u_n`` on the first iteration). Both scales
    have converged when the macro residual is within tol_macro and every
    micro residual within tol_micro of its reference, which holds for
    converged staggered micro problems by construction. The attempt fails,
    to be cut by the caller, when a micro problem fails (budget overrun,
    singular stiffness, non-finite residual), the macro residual is not
    finite, the macro tangent is singular or the macro residual has grown
    in two consecutive iterations (the attempt diverges). ``c`` are the per-point
    tangents of the converged iteration and ``K_t`` the free-free macro
    tangent assembled from them, which the tangent predictor reuses.
    """
    sysm = model.system
    u = u_start.copy()
    du = u - u_n
    ref = sysm.floor_force
    result = None
    for k in range(1, settings.max_macro_iter + 1):
        if model.scheme == "staggered":
            outs = pool.staggered(sysm.gradients(u), settings.tol_micro, settings.n_max)
        else:
            outs = pool.monolithic(sysm.gradients(du))
        if outs.failed.any():
            break
        record.micro_iters_max = max(record.micro_iters_max, int(outs.iters.max()))
        f_int, k_t = sysm.assemble(outs.sigma, outs.c)
        r_free = (f_int - lam * sysm.p_end)[sysm.free]
        ref = max(ref, float(np.abs(f_int).max()))
        rn = float(np.abs(r_free).max()) if sysm.n_free else 0.0
        record.residual_norms.append(rn)
        converged = (rn <= settings.tol_macro * ref
                     and bool(np.all(outs.rnorm <= settings.tol_micro * outs.ref)))
        rs = record.residual_norms[-3:]
        diverging = len(rs) == 3 and rs[2] > rs[1] > rs[0]
        if converged or diverging or k == settings.max_macro_iter or not np.isfinite(rn):
            # the next sweep overwrites the pool's results
            result = (u, f_int, outs.c.copy(), k_t) if converged else None
            break
        try:
            step = linalg.factorize(k_t, r_free).columns
        except SingularMatrixError:
            break
        record.macro_factorizations += 1
        du = np.zeros_like(u)
        du[sysm.free] = -step
        u += du
    record.macro_iterations += k
    return result


def run(model: TwoScaleModel, settings: SolverSettings) -> SolveReport:
    """March the load from zero to t_end with adaptive increments.

    Returns a full report; a dt underflow after repeated cuts ends the march
    early with ``converged=False`` and the partial curve retained. A worker
    process that ends raises :class:`WorkerError`, whose ``report`` holds
    the increments accepted before it (``converged=False``). The model
    is not changed, so it can be run again. A serial run pins glibc's
    malloc thresholds of the calling process for the rest of its life (see
    :class:`RvePool`).
    """
    pool = RvePool(model.micro_geometry, model.n_rves, model.scheme != "monolithic",
                   settings.parallel_workers)
    report = SolveReport(scheme=model.scheme, records=[], curve=[(0.0, 0.0, 0.0)],
                         converged=False, n_rves=pool.n_rves)
    try:
        _run_loop(model, pool, settings, report)
    except WorkerError as exc:
        exc.report = report
        raise
    finally:
        pool.close()
    return report


def _run_loop(model, pool, settings, report):
    """March the load, appending to ``report``'s records and curve; see :func:`run`."""
    sysm = model.system
    u_n, u_nm1 = np.zeros(sysm.mesh.n_dofs), np.zeros(sysm.mesh.n_dofs)
    lam_n = 0.0
    # (per-point tangents, K_ff) of the last accepted state, the model's virgin ones at first
    tangent = model.virgin_tangent
    n_commits = 0
    records, curve = report.records, report.curve
    t = 0.0
    dt = settings.dt_initial
    dt_prev = None
    cuts_pending = 0
    wall_pending = 0.0  # time spent on cut attempts, charged to the next record
    while t < settings.t_end - 1e-12 * settings.t_end:
        dt = min(dt, settings.dt_max, settings.t_end - t)
        lam = (t + dt) / settings.t_end
        record = IncrementRecord(index=len(records) + 1, load_factor=lam, dt=dt,
                                 scheme=model.scheme)
        tic = time.perf_counter()

        ratio = dt / dt_prev if dt_prev else 1.0
        # the micro predictor extrapolates whenever there is a macro
        # predictor, and only for staggered: the pool commits exactly when
        # this loop does
        extrapolate = (settings.predictor != "none" and model.scheme == "staggered"
                       and n_commits >= 2)
        pool.begin_increment(ratio if extrapolate else None)
        g = lam * sysm.g_end[sysm.prescribed]
        if settings.predictor == "tangent":
            try:
                u_start = tangent_predictor(sysm, *tangent, u_n, g, lam - lam_n)
                record.macro_factorizations += int(sysm.n_free > 0)
            except SingularMatrixError:
                u_start = None
        elif settings.predictor == "extrapolate":
            u_start = extrapolate_initial_guess(u_n, u_nm1, ratio, n_commits)
        else:
            u_start = u_n.copy()
        if u_start is None:
            result = None
        else:
            u_start[sysm.prescribed] = g
            result = newton_increment(model, pool, settings, lam, u_start, u_n, record)

        if result is None:
            pool.rollback()
            cuts_pending += 1
            next_dt, _ = adapt_step(record, settings)
            if next_dt >= settings.dt_min:
                wall_pending += 1e3 * (time.perf_counter() - tic)
                dt = next_dt
                continue
        else:
            record.converged = True
            record.plastic_flow = pool.plastic_any()
        # a success or the give-up: the record takes the counters of every
        # attempt since the last success
        counters = pool.counters()
        record.factorizations = counters["factorizations"]
        record.aux_solves = counters["aux_solves"]
        record.micro_iters_total = counters["update_solves"]
        record.cut_events = cuts_pending
        record.wall_ms = wall_pending + 1e3 * (time.perf_counter() - tic)
        records.append(record)
        if result is None:
            break
        cuts_pending = 0
        wall_pending = 0.0

        pool.commit()
        u, f_int, c, k_t = result
        u_nm1, u_n, lam_n = u_n, u, lam
        tangent = c, k_t
        n_commits += 1
        t += dt
        dt_prev = dt
        curve.append((lam, float(u[model.control_dof]),
                      float(f_int[model.reaction_dofs].sum())))
        dt, _ = adapt_step(record, settings)

    report.converged = all(r.converged for r in records)
    report.final_u, report.final_alpha = u_n.copy(), pool.gather_alpha()
