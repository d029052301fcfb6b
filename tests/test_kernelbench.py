"""Kernel microbenchmarks at the plate-hole sizes.

The micro kernels run at the shipped RVE (``n_micro`` 8, n = 116) and at
``n_micro`` 16 (n = 436), where a dense Cholesky solve costs most; the assembly
kernels, the material pass, a shard's construction and a shard's
monolithic and staggered sweeps also run on a 16-RVE shard, the plate-hole shard size,
and a shard's Cholesky solves and a 2-worker pool's monolithic sweep (23 RVEs
per worker) also at the notched-shear RVE (n = 44). Those cases time
all-plastic or whole sweeps; one staggered Newton round of a 23-RVE
notched-shear shard with two plastic RVEs times the fixed cost a round pays
beside its per-RVE kernels. The
build of the shipped micro geometry, which carries the virgin RVE's
factorization, and of the perfbench plate-hole model are timed too. Marked
``kernelbench`` and deselected by default (see pyproject.toml); run them
with ``pytest -m kernelbench tests/test_kernelbench.py``.

The module pins glibc's malloc thresholds (``macro._pin_heap``) before its
first kernel, as the process that runs the micro sweeps does, so the
kernels are timed on the heap the solver runs on and not under glibc's
dynamic threshold rule, which re-faults the pages of large freed arrays.
"""

import numpy as np
import pytest

from fescale import linalg, macro, material
from fescale import rve as R
from fescale.benchmarks import build_benchmark, default_materials, rve_porous_quad, rve_porous_tri

pytestmark = pytest.mark.kernelbench


@pytest.fixture(scope="module", autouse=True)
def pinned_heap():
    macro._pin_heap()


@pytest.fixture(scope="module", params=[(8, 116), (16, 436)], ids=["n116", "n436"])
def plate_hole_rve(request):
    n_micro, n = request.param
    geom = R.MicroGeometry(rve_porous_quad(default_materials("plate-hole-tension"), n=n_micro))
    assert geom.plan.n == n
    p = R.RveBatch(geom)
    p.H[0] = [0.0, 0.01, 0.01, 0.004]
    R.assemble(p)
    return geom, geom.plan.dense(p.kvals[0])


@pytest.fixture(scope="module")
def shipped_geom():
    return R.MicroGeometry(rve_porous_quad(default_materials("plate-hole-tension"), n=8))


@pytest.mark.parametrize("count", [1, 16])
def test_rve_assemble_plastic(benchmark, shipped_geom, count):
    # plastic trial state: every call evaluates the material and assembles
    # the stiffness and sensitivities (nothing is carried over); 16 RVEs
    # are a plate-hole shard
    p = R.RveBatch(shipped_geom, count)
    p.H[:] = [0.0, 0.01, 0.01, 0.004]
    R.assemble(p)
    assert p.plastic_flow.all()
    benchmark(R.assemble, p)


def test_micro_geometry_build(benchmark):
    # the shipped plate-hole micro model's geometry, built once per model:
    # the periodic map and assembly plan, then the virgin RVE (K0 and its
    # sensitivities, one Cholesky solve for its columns and K0^-1, C0) and
    # the certified linear maps
    micro = rve_porous_quad(default_materials("plate-hole-tension"), n=8)
    geom = benchmark(R.MicroGeometry, micro)
    assert geom.n_reduced == 116 and geom.virgin_inverse.shape == (116, 116)


def test_build_perfbench_plate_hole_model(benchmark):
    # the perfbench plate-hole model's build: both assembly plans, the
    # micro geometry with its virgin RVE, and the macro system with its
    # virgin tangent and the rigid-body check's Cholesky solve
    model = benchmark(build_benchmark, "plate-hole-tension", "monolithic-stored", n_macro=3, n_micro=8)
    assert model.n_rves == 16 and model.micro_geometry.n_reduced == 116


@pytest.mark.parametrize("count", [1, 16])
def test_rve_batch_setup(benchmark, shipped_geom, count):
    # a plate-hole shard's construction: copies of the geometry's virgin
    # rows, with no solve; 16 RVEs are a plate-hole shard
    rves = benchmark(R.RveBatch, shipped_geom, count)
    assert rves.solved.all()


def test_plan_stiffness_shard(benchmark, shipped_geom):
    # the element stiffnesses and packed values of a 16-RVE shard
    plan = shipped_geom.plan
    d = np.random.default_rng(0).standard_normal((16, plan.n_ip, 4, 4))
    benchmark(plan.stiffness, d)


@pytest.mark.parametrize("count", [1, 16])
def test_material_evaluate_batch_plastic(benchmark, shipped_geom, count):
    # the material pass of an assembly over 1 or 16 RVEs (208 or 3328
    # points) through the geometry's law, every RVE in a plastic trial state
    p = R.RveBatch(shipped_geom, count)
    p.H[:] = [0.0, 0.01, 0.01, 0.004]
    h = shipped_geom.plan.gradients(R.full_displacement(shipped_geom, p.u_hat, p.H)).reshape(-1, 4)
    assert len(h) == 208 * count
    assert material.evaluate_batch(shipped_geom.law, h, p.states)[3].any()
    benchmark(material.evaluate_batch, shipped_geom.law, h, p.states)


def test_monolithic_sweep_shard(benchmark, shipped_geom):
    # a 16-RVE plate-hole shard's monolithic sweep at a mostly elastic
    # state, as the solver's sweeps mostly are: 12 linear-flagged RVEs well
    # below yield and 4 in plastic flow, each call moving H back or forth
    # by a small step
    shard = macro._Shard(shipped_geom, 16, True)
    scale = np.where(np.arange(16) < 12, 0.1, 1.0)
    shard.block.h[:] = np.outer(scale, [0.0, 0.01, 0.01, 0.004])
    shard.monolithic()
    dh = np.outer(scale, [1e-6, 2e-6, -1e-6, 1e-6])
    sign = [1.0]

    def sweep():
        sign[0] = -sign[0]
        shard.block.h[:] = sign[0] * dh
        shard.monolithic()

    sweep()
    assert shard.rves.plastic_flow.sum() == 4 and shard.rves.flagged.sum() == 12
    benchmark(sweep)


def test_staggered_sweep_shard(benchmark, shipped_geom):
    # a 16-RVE plate-hole shard's staggered sweep in plastic flow, the
    # sweep of the scheme the monolithic ones are measured against: every
    # call converges all 16 micro problems (tolerance 1e-8) at an H that
    # alternates between two plastic states, from the last call's solution
    shard = macro._Shard(shipped_geom, 16, True)
    h = np.outer(np.linspace(1.0, 2.0, 16), [0.0, 0.01, 0.01, 0.004])
    dh = np.outer(np.ones(16), [1e-5, 2e-5, -1e-5, 1e-5])
    step = [0]

    def sweep():
        step[0] ^= 1
        shard.block.h[:] = h + step[0] * dh
        shard.staggered(1e-8, 12)

    sweep()
    assert not shard.block.failed.any() and shard.rves.plastic_flow.all()
    assert (shard.block.iters >= 2).all()
    benchmark(sweep)


def test_staggered_newton_round_small_shard(benchmark):
    # one Newton round of rve.solve_micro_staggered on the 23-RVE
    # notched-shear shard (n = 44) of a notched-shear-2w worker, 2 RVEs in
    # plastic flow and 21 linear-flagged: the round's assembly of all 23, as
    # a sweep's first rounds make it, and the residual-column Cholesky solves
    # of the 2 plastic ones; most of what it costs does not grow with the
    # RVE count
    geom = R.MicroGeometry(rve_porous_tri(default_materials("notched-shear"), n=5))
    shard = macro._Shard(geom, 23, True)
    scale = np.where(np.arange(23) % 12 == 0, 1.0, 0.1)[:, None]
    shard.block.h[:] = scale * [0.0, 0.01, 0.01, 0.004]
    shard.staggered(1e-8, 12)
    rves = shard.rves
    rves.H += scale * [1e-5, 2e-5, -1e-5, 1e-5]
    mask = np.ones(23, dtype=bool)
    plastic = rves.plastic_flow.copy()

    def newton_round():
        R.assemble(rves, mask, newton=True)
        R._solve_columns(rves, plastic, tangent=False)

    newton_round()
    assert plastic.sum() == 2 and rves.flagged.sum() == 21
    assert not rves.failed.any()
    benchmark(newton_round)


def test_monolithic_sweep_two_worker_pool(benchmark):
    # the dispatch layer: one monolithic sweep of a 2-worker pool of the
    # perfbench notched-shear-2w size, 46 notched-shear RVEs (n = 44), 23 per
    # worker, at a mostly elastic state as in test_monolithic_sweep_shard: the
    # gradients written into the pool's shared block, one request per worker,
    # and the results read back from the block
    geom = R.MicroGeometry(rve_porous_tri(default_materials("notched-shear"), n=5))
    assert geom.n_reduced == 44
    pool = macro.RvePool(geom, 46, True, workers=2)
    try:
        scale = np.where(np.arange(46) % 4 < 3, 0.1, 1.0)[:, None]
        out = pool.monolithic(scale * [0.0, 0.01, 0.01, 0.004])
        dh = scale * [1e-6, 2e-6, -1e-6, 1e-6]
        sign = [1.0]

        def sweep():
            sign[0] = -sign[0]
            return pool.monolithic(sign[0] * dh)

        sweep()
        assert not out.failed.any() and 0 < out.plastic.sum() < 46
        benchmark(sweep)
    finally:
        pool.close()


def test_macro_assemble(benchmark):
    # shipped plate-hole-tension macro mesh, one stress and tangent per point
    system = build_benchmark("plate-hole-tension", "monolithic-stored", n_macro=6, n_micro=8).system
    rng = np.random.default_rng(0)
    sigma = rng.standard_normal((system.plan.n_ip, 4))
    c = rng.standard_normal((system.plan.n_ip, 4, 4))
    benchmark(system.assemble, sigma, c)


def test_factorize(benchmark, plate_hole_rve):
    # one RVE's condensation layout: 4 tangent columns and the residual
    # column in one Cholesky solve (the kernel adds its probe column)
    geom, k_t = plate_hole_rve
    rhs = np.random.default_rng(0).standard_normal((geom.n_reduced, 5))
    benchmark(linalg.factorize, k_t, rhs)


@pytest.mark.parametrize("count", [1, 16])
def test_shard_five_column_solves(benchmark, plate_hole_rve, count):
    # a shard's condensation solves: one five-column Cholesky solve per RVE
    geom, k_t = plate_hole_rve
    rhs = np.random.default_rng(0).standard_normal((count, geom.n_reduced, 5))
    benchmark(lambda: [linalg.factorize(k_t, b) for b in rhs])


@pytest.mark.parametrize("name", ["n116", "n44"])
def test_solve_columns_shard(benchmark, shipped_geom, name):
    # a 16-RVE shard's counted factorizations, each RVE at a plastic state
    # of its own: one five-column Cholesky solve per RVE through rve._solve_columns
    geom = shipped_geom if name == "n116" else R.MicroGeometry(
        rve_porous_tri(default_materials("notched-shear"), n=5))
    assert geom.n_reduced == int(name[1:])
    p = R.RveBatch(geom, 16)
    p.H[:] = np.outer(np.linspace(1.0, 2.0, 16), [0.0, 0.01, 0.01, 0.004])
    R.assemble(p)
    assert p.plastic_flow.all()
    need = np.ones(16, dtype=bool)

    def solve_shard():
        p.solved[:] = False
        R._solve_columns(p, need)

    benchmark(solve_shard)
