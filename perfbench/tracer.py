"""Spans around fescale's public functions, installed from outside the package.

The tracer replaces module and class attributes of the imported ``fescale``
modules with timing wrappers and restores them on exit; nothing inside the
package changes. Every wrapped call is a span. A span's self time is its
duration minus the durations of the wrapped calls nested directly inside
it, so the self times of all spans under ``macro.run`` add up to the part of
its wall time the wrappers cover (``trace.coverage``).

Attribution rules:

- ``linalg.factorize`` / ``linalg.solve`` count as micro work when an
  ``RvePool`` method span is open (or inside a worker process) and as
  ``macro.linalg`` otherwise (the macro Newton solve).
- Inside a setup span (``build_benchmark``, ``MicroGeometry``,
  ``compute_ordering``, ``RvePool`` construction) only setup spans are
  recorded; the virgin assemble and factorize of every RVE stay in the
  ``RvePool`` construction's self time.
- Worker processes inherit the wrappers through ``fork``. Each worker
  writes its micro-side totals to a file when it stops, and the parent
  merges them after ``macro.run`` returns. Worker-side setup is dropped:
  it runs inside the first pool dispatch, where the parent waits for it.

With ``layers=False`` (the untraced runs) only ``macro.run``,
``build_benchmark`` and the ``RvePool`` construction are spans: they give
each solve's wall time and the set-up time inside it.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

POOL_METHODS = ("begin_increment", "staggered", "monolithic", "commit", "rollback",
                "counters", "plastic_any", "gather_alpha", "close")
WORKER_WAIT_S = 10.0


def band_sums(n, half):
    """(sum r_k, sum r_k^2) with r_k = min(half, n - 1 - k), k = 0..n-1."""
    if n <= 0:
        return 0, 0
    h = min(half, n - 1)
    tail = n - 1 - h
    return h * (h + 1) // 2 + tail * h, h * (h + 1) * (2 * h + 1) // 6 + tail * h * h


def factorize_flops(f):
    """Banded Doolittle: r_k divisions plus r_k^2 multiply-subtracts per pivot."""
    s1, s2 = band_sums(f.n, f.half_bandwidth)
    return s1 + 2 * s2


def solve_flops(f, cols):
    """Forward and backward substitution: 2 r_k per sweep and one division per row."""
    s1, _ = band_sums(f.n, f.half_bandwidth)
    return cols * (4 * s1 + f.n)


@dataclass
class Solve:
    """One ``macro.run`` call as seen from outside."""

    scheme: str
    wall_s: float
    pool_init_s: float  # RvePool construction inside the call (counted as setup)
    covered_s: float  # time inside wrapped calls nested in it
    report: object

    @property
    def solve_s(self):
        return self.wall_s - self.pool_init_s


class Tracer:
    """Installs the wrappers on enter, restores the originals on exit."""

    def __init__(self, fescale, layers, work_dir):
        self.fs = fescale  # namespace with linalg, material, rve, macro, benchmarks
        self.layers = layers
        self.work_dir = work_dir
        # (key, scheme) -> [calls, self_s, flops, rhs_cols]
        self.stats = defaultdict(lambda: [0, 0.0, 0, 0])
        self.solves = []
        self.setup_s = 0.0  # outermost setup spans, parent process only
        self.scheme = None
        self._stack = []  # child-time accumulator of every open span
        self._setup_depth = 0
        self._micro_depth = 0
        self._workers = 0
        self._saved = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        fs = self.fs
        self._patch(fs.macro, "run", self._run_wrapper)
        self._patch(fs.benchmarks, "build_benchmark", self._span("setup.build_benchmark", "setup"))
        self._patch(fs.macro.RvePool, "__init__", self._span("setup.RvePool", "pool_init"))
        if self.layers:
            self._patch(fs.linalg, "factorize", self._span("linalg.factorize", "linalg"))
            self._patch(fs.linalg, "solve", self._span("linalg.solve", "linalg"))
            self._patch(fs.linalg, "compute_ordering", self._span("setup.compute_ordering", "setup"))
            self._patch(fs.material, "evaluate_batch", self._span("material.evaluate_batch"))
            for name in ("assemble", "homogenized_tangent_and_alg_stress",
                         "micro_update_monolithic", "solve_micro_staggered"):
                self._patch(fs.rve, name, self._span(f"rve.{name}"))
            for name in ("commit", "rollback"):
                self._patch(fs.rve, name, self._span("rve.commit_rollback"))
            self._patch(fs.rve.MicroGeometry, "__init__", self._span("setup.MicroGeometry", "setup"))
            for name in ("gradients", "assemble"):
                self._patch(fs.macro.MacroSystem, name, self._span("macro.system"))
            for name in POOL_METHODS:
                self._patch(fs.macro.RvePool, name, self._span("macro.pool", "pool"))
            self._patch(fs.macro._Shard, "__init__", self._span("setup.RvePool", "setup"))
            self._patch(fs.macro, "_worker_main", self._worker_wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False

    def _patch(self, owner, name, make):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make(original)))

    # -- spans -------------------------------------------------------------

    def _span(self, key, kind="plain"):
        perf = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                if self._setup_depth and kind not in ("setup", "pool_init"):
                    return fn(*args, **kwargs)
                span_key = key
                if kind == "linalg" and not self._micro_depth:
                    span_key = "macro.linalg"
                outermost_setup = kind in ("setup", "pool_init") and not self._setup_depth
                if kind in ("setup", "pool_init"):
                    self._setup_depth += 1
                elif kind == "pool":
                    self._micro_depth += 1
                child = [0.0]
                self._stack.append(child)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    self._stack.pop()
                    if self._stack:
                        self._stack[-1][0] += dur
                    if kind in ("setup", "pool_init"):
                        self._setup_depth -= 1
                    elif kind == "pool":
                        self._micro_depth -= 1
                    stat = self.stats[(span_key, self.scheme)]
                    stat[0] += 1
                    stat[1] += dur - child[0]
                    if outermost_setup:
                        self.setup_s += dur
                if span_key == "linalg.factorize":
                    stat[2] += factorize_flops(result)
                elif span_key == "linalg.solve":
                    cols = 1 if np.ndim(args[1]) == 1 else np.shape(args[1])[1]
                    stat[2] += solve_flops(args[0], cols)
                    stat[3] += cols
                elif kind == "pool_init" and args[0].workers > 1:
                    self._workers = args[0].workers
                return result
            return wrapper
        return make

    def _run_wrapper(self, fn):
        perf = time.perf_counter

        def run(model, settings):
            self.scheme = model.scheme
            self._workers = 0
            setup_before = self.setup_s
            child = [0.0]
            self._stack.append(child)
            t0 = perf()
            try:
                report = fn(model, settings)
            finally:
                wall = perf() - t0
                self._stack.pop()
            if self.layers and self._workers:
                self._collect_workers(self._workers)
            solve = Solve(model.scheme, wall, self.setup_s - setup_before, child[0], report)
            self.solves.append(solve)
            return report
        return run

    # -- worker processes --------------------------------------------------

    def _worker_wrapper(self, fn):
        def worker_main(*args, **kwargs):
            # forked from inside RvePool construction: start from a clean slate
            self.stats.clear()
            self._stack.clear()
            self._setup_depth = 0
            self._micro_depth = 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._dump_worker()
        return worker_main

    def _dump_worker(self):
        rows = [[key, scheme] + list(stat) for (key, scheme), stat in self.stats.items()
                if not key.startswith("setup.")]
        path = os.path.join(self.work_dir, f"worker-{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(rows, fh)
        os.replace(path + ".tmp", path)

    def _collect_workers(self, expected):
        pattern = os.path.join(self.work_dir, "worker-*.json")
        deadline = time.monotonic() + WORKER_WAIT_S
        paths = glob.glob(pattern)
        while len(paths) < expected and time.monotonic() < deadline:
            time.sleep(0.01)
            paths = glob.glob(pattern)
        if len(paths) != expected:
            raise RuntimeError(f"expected {expected} worker trace files, found {len(paths)}")
        for path in paths:
            with open(path) as fh:
                rows = json.load(fh)
            os.remove(path)
            for key, scheme, calls, self_s, flops, cols in rows:
                stat = self.stats[(key, scheme)]
                stat[0] += calls
                stat[1] += self_s
                stat[2] += flops
                stat[3] += cols
