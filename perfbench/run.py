"""FE² benchmark: time to solution per scheme, with a traced per-module split.

Usage (from the repository root):

    python3 perfbench/run.py --workload plate-hole --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Each run drives a named workload through the package's public entry points
(``cli.parse_config`` -> ``cli.run_suite`` -> ``macro.run``) in rounds. A
round runs every scheme once, one ``run_suite`` call each, and times the
reference task of ``reference.py`` before and after each call. A run makes
a fixed number of rounds for a given ``--seconds`` (see ``rounds_for``).

``--trace 0`` reports the end-to-end metrics: each scheme's time to
solution (the wall time of one ``macro.run`` call less the ``RvePool``
construction inside it), the set-up time of a round (model build plus
``RvePool`` construction, summed over the schemes), both divided by how
much slower than nominal the reference task ran around the call and taken
as the median over the rounds, and the peak resident memory of this
process or its largest worker.

``--trace 1`` reports the per-layer metrics. It runs untraced rounds first,
then alternates monolithic-stored solves at one and two workers (for
``speedup.2w``), then runs one round with every layer wrapped (see
``tracer.py``).

Every round checks the outputs: each solve converges; the monolithic curves
lie within 1e-8 relative of the staggered curve; monolithic-stored is
bit-identical to monolithic with fewer factorizations; curve files repeat
byte for byte across rounds, across worker counts and with tracing on; in
the traced round, ``trace.coverage`` is at least 0.9 and the traced micro
factorizations equal the program's count. A breach counts the solve as
failed and the run goes on. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys

# pin BLAS and OpenMP pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import reference  # noqa: E402
from workloads import SCHEMES, WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

CURVE_RTOL = 1e-8  # the paper's claim: monolithic reproduces staggered to 1e-8 relative
COVERAGE_MIN = 0.9
UNTRACED_SHARE = 0.4  # of --seconds, for the untraced rounds of a traced run
SPEEDUP_PAIRS = 3  # one- and two-worker solves alternated in a traced run
OVERRUN = 1.3  # no new round starts after OVERRUN * --seconds

# spans reported per scheme, with the statistics each one carries
LAYER_SPANS = {
    "linalg.factorize": ("calls", "self_s", "mflop_per_s"),
    "linalg.solve": ("calls", "self_s", "rhs_cols", "mflop_per_s"),
    "material.evaluate_batch": ("calls", "self_s"),
    "rve.assemble": ("calls", "self_s"),
    "rve.homogenized_tangent_and_alg_stress": ("calls", "self_s"),
    "rve.micro_update_monolithic": ("calls", "self_s"),
    "rve.solve_micro_staggered": ("calls", "self_s"),
    "rve.commit_rollback": ("calls", "self_s"),
    "macro.system": ("self_s",),
    "macro.linalg": ("self_s",),
    "macro.pool": ("calls", "self_s"),
}
SETUP_SPANS = ("setup.build_benchmark", "setup.MicroGeometry",
               "setup.compute_ordering", "setup.RvePool")
COUNTS = {  # count.<name> -> IncrementRecord field summed over the run
    "increments": None, "cut_events": "cut_events", "macro_iterations": "macro_iterations",
    "micro_solves": "micro_iters_total", "factorizations": "factorizations",
    "aux_solves": "aux_solves", "macro_factorizations": "macro_factorizations",
}


@dataclass
class Round:
    """Every scheme once, one ``run_suite`` call each."""

    schemes: list
    solves: dict = field(default_factory=dict)  # scheme -> tracer.Solve
    curves: dict = field(default_factory=dict)  # scheme -> curve CSV bytes
    setup_s: dict = field(default_factory=dict)  # scheme -> build + RvePool seconds
    slowdown: dict = field(default_factory=dict)  # scheme -> reference time around it / REF_S
    failures: dict = field(default_factory=lambda: defaultdict(list))

    def solve_s(self, scheme):
        return self.solves[scheme].solve_s / self.slowdown[scheme]

    @property
    def total_setup_s(self):
        return sum(t / self.slowdown[s] for s, t in self.setup_s.items())

    @property
    def wall_s(self):
        return sum(x.wall_s / self.slowdown[s] for s, x in self.solves.items())


class Tally:
    """Solves attempted and failed; each failure is printed when counted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, rnd, label):
        self.attempted += len(rnd.schemes)
        self.failed += len(rnd.failures)
        for scheme, msgs in sorted(rnd.failures.items()):
            print(f"FAILED {label} {scheme}: {'; '.join(msgs)}", file=sys.stderr)


def load_fescale():
    sys.path.insert(0, SRC)
    from fescale import benchmarks, cli, linalg, macro, material, rve

    return SimpleNamespace(benchmarks=benchmarks, cli=cli, linalg=linalg, macro=macro,
                           material=material, rve=rve)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# rounds and checks


def run_round(fs, tracer, raw, out_dir):
    """One ``run_suite`` call per scheme, with a reference sample before and after each."""
    rnd = Round(list(raw["schemes"]))
    workers = raw["solver"]["parallel_workers"]
    before = reference.sample(workers)
    for scheme in rnd.schemes:
        config = fs.cli.parse_config(dict(raw, schemes=[scheme]), base_dir=out_dir)
        tracer.solves.clear()
        setup_before = tracer.setup_s
        try:
            fs.cli.run_suite(config)
        except Exception:  # a solve that raises is a failed attempt, not the end of the run
            traceback.print_exc(file=sys.stderr)
        after = reference.sample(workers)
        rnd.slowdown[scheme] = (before + after) / (2.0 * reference.REF_S)
        before = after
        rnd.setup_s[scheme] = tracer.setup_s - setup_before
        if tracer.solves:
            rnd.solves[scheme] = tracer.solves[-1]
            path = os.path.join(config.output_dir, f"{config.name}_{scheme}_curve.csv")
            with open(path, "rb") as fh:
                rnd.curves[scheme] = fh.read()
    check_round(rnd)
    return rnd


def curve_deviation(base, other):
    """Largest column-relative difference of two curves; inf if steps differ."""
    import numpy as np

    a, b = np.array(base), np.array(other)
    if a.shape != b.shape or not np.array_equal(a[:, 0], b[:, 0]):
        return float("inf")
    scale = np.abs(a[:, 1:]).max(axis=0)
    scale[scale == 0.0] = 1.0
    return float((np.abs(a[:, 1:] - b[:, 1:]).max(axis=0) / scale).max())


def check_round(rnd):
    import numpy as np

    fail = rnd.failures
    for scheme in rnd.schemes:
        solve = rnd.solves.get(scheme)
        if solve is None:
            fail[scheme].append("raised")
        elif not solve.report.converged:
            fail[scheme].append("did not converge")
    stag = rnd.solves.get("staggered")
    mono = rnd.solves.get("monolithic")
    stored = rnd.solves.get("monolithic-stored")
    for solve in (mono, stored):
        if stag is not None and solve is not None:
            dev = curve_deviation(stag.report.curve, solve.report.curve)
            if dev > CURVE_RTOL:
                fail[solve.scheme].append(f"curve deviates from staggered by {dev:.3e}")
    if mono is not None and stored is not None:
        same = (stored.report.curve == mono.report.curve
                and np.array_equal(stored.report.final_alpha, mono.report.final_alpha)
                and np.array_equal(stored.report.final_u, mono.report.final_u))
        if not same:
            fail[stored.scheme].append("not bit-identical to monolithic")
        n_stored = stored.report.total_factorizations
        n_mono = mono.report.total_factorizations
        if not n_stored < n_mono:
            fail[stored.scheme].append(f"{n_stored} factorizations, monolithic made {n_mono}")


def expect_same_curves(rnd, reference, what):
    """Curve files of ``rnd`` must equal ``reference`` byte for byte."""
    for scheme, data in rnd.curves.items():
        if scheme in reference and data != reference[scheme]:
            rnd.failures[scheme].append(f"curve file differs {what}")


def rounds_for(wl, seconds):
    """Rounds in ``seconds``, from the workload's nominal round time.

    The count depends on ``--seconds`` only, not on how fast the program
    runs, so two commits measured with the same ``--seconds`` take the
    median over the same number of rounds.
    """
    return max(1, round(seconds / wl.round_s))


def measure(fs, raw, out_dir, rounds, deadline, tally, seed):
    """``rounds`` untraced rounds, or fewer once ``deadline`` has passed; at least one.

    Round k runs the schemes rotated by ``seed + k`` places, so that no
    scheme always runs first.
    """
    from tracer import Tracer

    schemes = list(raw["schemes"])
    done = []
    with Tracer(fs, layers=False, work_dir=WORK) as tracer:
        while len(done) < rounds and (not done or time.perf_counter() < deadline):
            k = (seed + len(done)) % len(schemes)
            rnd = run_round(fs, tracer, dict(raw, schemes=schemes[k:] + schemes[:k]), out_dir)
            if done:
                expect_same_curves(rnd, done[0].curves, "from the first round")
            tally.add(rnd, f"round {len(done) + 1}")
            done.append(rnd)
            print(f"round {len(done)}: solve " + ", ".join(
                f"{s} {x.solve_s:.3f} s (slowdown {rnd.slowdown[s]:.2f})"
                for s, x in rnd.solves.items())
                + f", setup {sum(rnd.setup_s.values()):.3f} s", file=sys.stderr)
    return done


def median_solve_s(rounds, scheme):
    times = [r.solve_s(scheme) for r in rounds if scheme in r.solves]
    return statistics.median(times) if times else 0.0


def median_slowdown(rounds):
    return statistics.median(x for r in rounds for x in r.slowdown.values())


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(fs, wl, seed, seconds, deadline):
    tally = Tally()
    rounds = measure(fs, wl.config("out"), os.path.join(WORK, "e2e"), rounds_for(wl, seconds),
                     deadline, tally, seed)
    values = {f"solve_s.{s}": median_solve_s(rounds, s) for s in SCHEMES}
    values["setup_s"] = statistics.median(r.total_setup_s for r in rounds)
    values["peak_rss_mb"] = peak_rss_mb()
    raw = {s: statistics.median(r.solves[s].solve_s for r in rounds if s in r.solves)
           for s in SCHEMES if any(s in r.solves for r in rounds)}
    notes = [f"{len(rounds)} rounds; times are medians over the rounds of wall seconds "
             f"divided by the reference task's slowdown (median {median_slowdown(rounds):.2f})",
             "unscaled median solve seconds: "
             + ", ".join(f"{s} {t:.3f}" for s, t in raw.items())]
    return values, tally, notes


def speedup_2w(fs, wl, seed, deadline, tally, reference_curves):
    """Monolithic-stored at one and two workers, alternated; ratio of the medians.

    Returns the ratio of the rescaled medians and that of the unscaled ones.
    """
    from tracer import Tracer

    times = {1: [], 2: []}
    raw = {1: [], 2: []}
    with Tracer(fs, layers=False, work_dir=WORK) as tracer:
        for k in range(SPEEDUP_PAIRS):
            order = (1, 2) if (seed + k) % 2 == 0 else (2, 1)
            for workers in order:
                rnd = run_round(fs, tracer,
                                wl.config("out", workers=workers, schemes=["monolithic-stored"]),
                                os.path.join(WORK, "workers"))
                expect_same_curves(rnd, reference_curves, f"with {workers} worker(s)")
                tally.add(rnd, f"{workers}-worker solve")
                if "monolithic-stored" in rnd.solves:
                    times[workers].append(rnd.solve_s("monolithic-stored"))
                    raw[workers].append(rnd.solves["monolithic-stored"].solve_s)
            if time.perf_counter() > deadline:
                break
    if not times[1] or not times[2]:
        return 0.0, 0.0
    return (statistics.median(times[1]) / statistics.median(times[2]),
            statistics.median(raw[1]) / statistics.median(raw[2]))


def traced(fs, wl, seed, seconds, deadline):
    from tracer import Tracer

    tally = Tally()
    raw = wl.config("out")
    rounds = measure(fs, raw, os.path.join(WORK, "untraced"),
                     rounds_for(wl, UNTRACED_SHARE * seconds), deadline, tally, seed)
    curves = rounds[0].curves
    speedup, raw_speedup = speedup_2w(fs, wl, seed, deadline, tally, curves)
    with Tracer(fs, layers=True, work_dir=WORK) as tracer:
        rnd = run_round(fs, tracer, raw, os.path.join(WORK, "traced"))
        stats = dict(tracer.stats)
    expect_same_curves(rnd, curves, "with tracing on")

    def stat(key, scheme):
        return stats.get((key, scheme), [0, 0.0, 0, 0])

    values = {}
    for s in SCHEMES:
        for key, names in LAYER_SPANS.items():
            calls, self_s, flops, cols = stat(key, s)
            row = {"calls": calls, "self_s": self_s, "rhs_cols": cols,
                   "mflop_per_s": flops / self_s / 1e6 if self_s > 0 else 0.0}
            for name in names:
                values[f"{key}.{name}.{s}"] = row[name]
        records = rnd.solves[s].report.records if s in rnd.solves else []
        for name, attr in COUNTS.items():
            values[f"count.{name}.{s}"] = (len(records) if attr is None
                                           else sum(getattr(r, attr) for r in records))
        factorizations = values[f"linalg.factorize.calls.{s}"]
        if factorizations != values[f"count.factorizations.{s}"]:
            rnd.failures[s].append(f"traced micro factorizations {factorizations} "
                                   f"!= counted {values[f'count.factorizations.{s}']}")
        values[f"linalg.solves_per_factorization.{s}"] = (
            values[f"linalg.solve.calls.{s}"] / factorizations if factorizations else 0.0)
        solve = rnd.solves.get(s)
        if solve is not None and solve.covered_s < COVERAGE_MIN * solve.wall_s:
            rnd.failures[s].append(
                f"trace coverage {solve.covered_s / solve.wall_s:.3f} < {COVERAGE_MIN}")
    tally.add(rnd, "traced round")
    stag_f = values["count.factorizations.staggered"]
    stag_s = median_solve_s(rounds, "staggered")
    for s in SCHEMES[1:]:
        values[f"ratio.factorizations.{s}_vs_staggered"] = (
            values[f"count.factorizations.{s}"] / stag_f if stag_f else 0.0)
        values[f"ratio.solve_s.{s}_vs_staggered"] = (
            median_solve_s(rounds, s) / stag_s if stag_s else 0.0)
    updates = values["count.micro_solves.staggered"]
    values["rve.assemblies_per_update.staggered"] = (
        values["rve.assemble.calls.staggered"] / updates if updates else 0.0)
    for key in SETUP_SPANS:  # set-up is summed over the schemes
        values[f"{key}.self_s"] = sum(v[1] for (k, _), v in stats.items() if k == key)
    values["speedup.2w"] = speedup
    wall = sum(x.wall_s for x in rnd.solves.values())
    values["trace.coverage"] = (sum(x.covered_s for x in rnd.solves.values()) / wall
                                if wall else 0.0)
    values["trace.overhead"] = rnd.wall_s / statistics.median(r.wall_s for r in rounds)
    values["machine.slowdown"] = median_slowdown(rounds + [rnd])

    notes = [f"{len(rounds)} untraced rounds, {SPEEDUP_PAIRS} pairs of one- and two-worker "
             "solves, 1 traced round",
             "self times are seconds of the traced round, not rescaled; ratio.solve_s, "
             "speedup.2w and trace.overhead come from rescaled times (see --trace 0)",
             f"speedup.2w from unscaled times: {raw_speedup:.3f}"]
    if wl.workers > 1:
        notes.append("micro layers (linalg, material, rve) ran inside the worker processes and "
                     "are summed over them; macro.* and trace.coverage are parent-side")
    return values, tally, notes


# ---------------------------------------------------------------------------
# command line


def run_all(args):
    """Every workload in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fescale", "__init__.py")):
        print(f"error: fescale sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    with open(SPEC) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    fs = load_fescale()
    wl = WORKLOADS[args.workload]
    deadline = time.perf_counter() + OVERRUN * args.seconds
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        values, tally, notes = (traced if args.trace else end_to_end)(
            fs, wl, args.seed, args.seconds, deadline)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"declared metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"workload {wl.name} (seed {args.seed}, trace {args.trace}): "
          f"{tally.attempted - tally.failed}/{tally.attempted} solves passed")
    for note in notes:
        print(f"  note: {note}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
