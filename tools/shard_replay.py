"""Replay one shard's micro sweeps in two source trees, alternated in one process.

Usage: python tools/shard_replay.py PARENT_TREE CHANGE_TREE --workload W --scheme S
                                    [--rves K] [--pairs N]

Both trees' ``fescale`` packages are imported into this process, one after
the other, each from its tree's ``src``; each tree's modules keep the
siblings they were imported with. In each tree one serial ``macro.run`` of
the perfbench workload W's config, with scheme S alone, records the
requests its shard serves and the sweep gradients it reads. The parent's
requests are then replayed, on a fresh shard of K RVEs in each tree: RVEs
0, s, 2s, ... of the model's n, at the stride s = n // K. The default K
is half of n, rounded up, which gives RVEs 0, 2, 4, ..., the shard of worker
0 in a 2-worker pool; K = n replays the whole model, the serial shard. A
replay is timed with ``time.process_time``,
which counts this process's CPU time and not the time the host gives
other processes. The trees alternate, the parent first in even pairs and
the change first in odd ones.

It prints the median of the paired ratios change / parent, their
quartiles and the pairs the change won, and after every pair checks that
the two trees left bit-identical batch arrays (every array of the shard's
``rve.RveBatch``) and block results (every field of its sweep block).
Exits 1 when they differ or a run's requests differ, else 0.

Run as a script, it pins the BLAS and OpenMP pools at one thread before
numpy is imported, as perfbench does.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

MODULES = ("benchmarks", "cli", "linalg", "macro", "material", "rve")


def _own_modules():
    return [k for k in sys.modules if k == "fescale" or k.startswith("fescale.")]


def load_tree(tree):
    """The ``fescale`` modules of ``tree``'s ``src``, as a namespace.

    The package is imported fresh and then taken out of ``sys.modules``
    again, so a second tree imports its own; whatever ``fescale`` this
    process had imported before is put back.
    """
    saved = {k: sys.modules.pop(k) for k in _own_modules()}
    sys.path.insert(0, str(Path(tree) / "src"))
    try:
        return SimpleNamespace(**{name: importlib.import_module(f"fescale.{name}") for name in MODULES})
    finally:
        sys.path.pop(0)
        for k in _own_modules():
            del sys.modules[k]
        sys.modules.update(saved)


def load_workload(tree, name):
    path = Path(tree) / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_replay_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS[name]


def record(fs, workload, scheme, out_dir):
    """(geometry, store_factorization, requests) of one serial run of ``workload``'s config.

    A request is the ``(method name, args)`` calls the shard served and a
    copy of the sweep gradients of every RVE when it served them.
    """
    config = fs.cli.parse_config(workload.config(out_dir, workers=1, schemes=[scheme]))
    model = config.build_model(scheme)
    shard_cls = fs.macro._Shard
    seen, requests = {}, []
    init, serve = shard_cls.__init__, shard_cls.serve

    def recording_init(self, geom, count, store_factorization, block=None, w=0):
        seen.update(geom=geom, store=store_factorization)
        init(self, geom, count, store_factorization, block, w)

    def recording_serve(self, calls):
        requests.append((tuple(calls), self.block.h.copy()))
        serve(self, calls)

    shard_cls.__init__, shard_cls.serve = recording_init, recording_serve
    try:
        report = fs.macro.run(model, config.settings)
    finally:
        shard_cls.__init__, shard_cls.serve = init, serve
    if not report.converged:
        raise SystemExit(f"the serial {scheme} run of {workload.name} did not converge")
    return seen["geom"], seen["store"], requests


def replay(fs, geom, store, requests, rows):
    """A fresh shard of the RVEs ``rows`` after serving ``requests``, and the CPU seconds it took."""
    shard = fs.macro._Shard(geom, len(rows), store)
    h = shard.block.h
    with fs.macro._one_blas_thread():
        t0 = time.process_time()
        for calls, h_all in requests:
            h[:] = h_all[rows]
            shard.serve(calls)
        spent = time.process_time() - t0
    return shard, spent


def arrays(shard):
    """Every array a shard keeps, by name: its batch's and its block's."""
    rves = shard.rves
    out = {f"rves.{k}": v for k, v in vars(rves).items() if isinstance(v, np.ndarray)}
    for kind in ("states", "trial"):
        out[f"rves.{kind}.eps_p"] = getattr(rves, kind).eps_p
        out[f"rves.{kind}.alpha_bar"] = getattr(rves, kind).alpha_bar
    out.update({f"block.{k}": v for k, v in vars(shard.block).items() if isinstance(v, np.ndarray)})
    return out


def same_bits(a, b):
    """Whether two arrays hold the same values bit for bit (signed zeros and NaN payloads included)."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def differences(parent, change):
    """The names of the arrays of two shards that are not bit-identical."""
    a, b = arrays(parent), arrays(change)
    return sorted(k for k in a.keys() | b.keys() if k not in a or k not in b or not same_bits(a[k], b[k]))


def same_requests(a, b):
    return len(a) == len(b) and all(ca == cb and same_bits(ha, hb) for (ca, ha), (cb, hb) in zip(a, b))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scheme", required=True)
    parser.add_argument("--rves", type=int, default=None)
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    workload = load_workload(args.change_tree, args.workload)
    trees = {"parent": load_tree(args.parent_tree), "change": load_tree(args.change_tree)}
    with tempfile.TemporaryDirectory() as out:
        recorded = {side: record(fs, workload, args.scheme, os.path.join(out, side))
                    for side, fs in trees.items()}
    requests = recorded["parent"][2]
    ok = same_requests(requests, recorded["change"][2])
    if not ok:
        print("the two trees' serial runs served different requests")
    n = len(requests[0][1])
    k = (n + 1) // 2 if args.rves is None else args.rves
    if not 0 < k <= n:
        parser.error(f"--rves must lie in 1..{n}")
    rows = np.arange(0, n, n // k)[:k]
    print(f"{args.workload} {args.scheme}: {len(requests)} requests replayed on {k} RVEs, "
          f"{args.pairs} pairs")
    times = {"parent": [], "change": []}
    for i in range(args.pairs):
        shards = {}
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            geom, store, _ = recorded[side]
            shards[side], spent = replay(trees[side], geom, store, requests, rows)
            times[side].append(spent)
        differ = differences(shards["parent"], shards["change"])
        if differ:
            print(f"pair {i + 1}: not bit-identical: {', '.join(differ)}")
            ok = False
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"parent median {1e3 * statistics.median(times['parent']):.3f} ms, "
          f"change median {1e3 * statistics.median(times['change']):.3f} ms (CPU time per replay)")
    print(f"ratio change/parent: median {med:.4f} ({100 * (med - 1):+.1f} %), quartiles {q1:.4f} "
          f"and {q3:.4f}, change won {wins}/{args.pairs}")
    print("bit-identical" if ok else "NOT bit-identical")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
