"""The benchmark's named workloads and the run configurations they produce.

Every workload runs all three schemes, so every end-to-end metric exists on
every workload and the monolithic/monolithic-stored identity is checked
everywhere. Micro meshes are the shipped ones (they fix the kernel sizes);
load paths are cut short, and the plate-hole macro mesh made coarser, so
that a round of three solves fits several times into one run. A shortened
path keeps the shipped increment size: ``t_end`` and ``u_end`` are scaled
together, so the increments run are exactly the first ones of the shipped
run.

The models are deterministic and take no random input. The seed does not
perturb the loads: at an end displacement 0.2 % below the shipped one, the
staggered macro Newton of ``plate-hole`` stalls just above its tolerance and
cuts the last increment, after which its load steps no longer match the
monolithic ones and the curves cannot be compared point by point. The seed
only sets the order in which the schemes take turns (see ``run.measure``).

``round_s`` is the time one untraced round (three solves and four samples
of the reference task) takes on the machine the benchmark was sized on,
with that machine's usual slowdown (see ``reference.py``). It is a constant
so that the number of rounds in a run does not depend on the program's
speed.
"""

from __future__ import annotations

from dataclasses import dataclass

SCHEMES = ("staggered", "monolithic", "monolithic-stored")

# shipped suite tolerances and a pinned increment size (dt_initial = dt_max)
_SOLVER = {"tol_macro": 1e-8, "tol_micro": 1e-8,
           "dt_initial": 0.05, "dt_max": 0.05, "dt_min": 1e-3}


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str
    why: str
    sizes: dict
    u_end_full: float  # the benchmark's shipped end displacement
    t_end: float  # share of the shipped load path that is run
    round_s: float  # nominal seconds of one round; sets how many rounds a run makes
    workers: int = 1

    def config(self, output_dir, workers=None, schemes=SCHEMES):
        """Raw run configuration for ``cli.parse_config``."""
        solver = dict(_SOLVER, t_end=self.t_end,
                      parallel_workers=self.workers if workers is None else workers)
        return {
            "benchmark": self.benchmark,
            "schemes": list(schemes),
            "solver": solver,
            "overrides": dict(self.sizes, u_end=self.u_end_full * self.t_end),
            "output_dir": output_dir,
        }


WORKLOADS = {w.name: w for w in (
    Workload(
        name="plate-hole",
        benchmark="plate-hole-tension",
        why="largest micro kernels (quad RVE, n=116, half-bandwidth 49), mostly plastic: "
            "linalg factorize/solve dominate, so linalg changes and the paper's ratio show here",
        sizes={"n_macro": 3, "n_micro": 8},
        u_end_full=0.015, t_end=0.4, round_s=6.5,
    ),
    Workload(
        name="notched-shear-2w",
        benchmark="notched-shear",
        why="small triangle RVE kernels (n=44) on 2 worker processes: per-call overhead, "
            "rve.assemble and material weigh most, and fork-and-pipe dispatch and waiting show",
        sizes={"n_macro": 5, "n_micro": 5},
        u_end_full=0.03, t_end=0.45, round_s=4.0, workers=2,
    ),
)}
