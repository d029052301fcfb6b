"""Kernel microbenchmarks at the plate-hole micro size (n = 116, half-bandwidth 49).

Marked ``kernelbench`` and deselected by default (see pyproject.toml); run
them with ``pytest -m kernelbench tests/test_kernelbench.py``.
"""

import numpy as np
import pytest

from fescale import linalg
from fescale import rve as R
from fescale.benchmarks import default_materials, rve_porous_quad

pytestmark = pytest.mark.kernelbench


@pytest.fixture(scope="module")
def plate_hole_rve():
    geom = R.MicroGeometry(rve_porous_quad(default_materials("plate-hole-tension"), n=8))
    assert (geom.layout.n, geom.layout.half_bandwidth) == (116, 49)
    p = R.RveProblem(geom)
    p.H = np.array([0.0, 0.01, 0.01, 0.004])
    return geom, R.assemble(p).k_t


def test_factorize(benchmark, plate_hole_rve):
    geom, k_t = plate_hole_rve
    slot = geom.layout.empty_stack(1)[0]
    benchmark(linalg.factorize, k_t, geom.layout, out=slot)


@pytest.mark.parametrize("count", [1, 16])
def test_stacked_solve_five_columns(benchmark, plate_hole_rve, count):
    geom, k_t = plate_hole_rve
    bands = geom.layout.empty_stack(count)
    for slot in range(count):
        linalg.factorize(k_t, geom.layout, out=bands[slot])
    rhs = np.random.default_rng(0).standard_normal((geom.n_reduced, count, 5))
    benchmark(linalg.solve, geom.layout.factors(bands), rhs)
