"""Run configuration, benchmark orchestration, and results emission.

Configs are JSON files (documented in the README); meshes use a plain-text
node/element format. Every run writes one curve CSV and one per-increment
stats CSV per scheme plus a cross-scheme summary whose ratios are recomputed
from the stats files themselves. Numeric text is written with 17 significant
digits so repeated runs produce byte-identical curve files.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from fescale import benchmarks, linalg, macro, material, rve as rvemod
from fescale.errors import ConfigError, FescaleError, StructuralError, WorkerError
from fescale.mesh import QUAD4, TRI3, AssemblyPlan, ElementBlock, Mesh

_KINDS = {TRI3: 3, QUAD4: 4}
# plain ASCII decimal numbers, as the mesh format and FESCALE_WORKERS take
# them: Python's int() and float() also read "1_0" and non-ASCII digits
_DECIMAL = {int: re.compile(r"[+-]?[0-9]+"),
            float: re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")}


def _decimal(text, kind=int):
    """``text`` read as ``kind`` (int or float) if it is a plain ASCII decimal number, else None."""
    try:
        return kind(text) if _DECIMAL[kind].fullmatch(text) else None
    except ValueError:  # an integer beyond Python's digit limit
        return None


# ---------------------------------------------------------------------------
# mesh exchange format


def write_mesh(mesh: Mesh, path):
    """Write the plain-text mesh format (header, counts, then rows)."""
    with open(path, "w") as fh:
        fh.write("fescale-mesh 2\n")
        fh.write(f"nodes {mesh.n_nodes}\n")
        for i, (x, y) in enumerate(mesh.nodes):
            fh.write(f"{i} {x:.17g} {y:.17g}\n")
        fh.write(f"elements {mesh.n_elements}\n")
        eid = 0
        for block in mesh.blocks:
            for row in block.connectivity:
                fh.write(f"{eid} {block.kind} " + " ".join(str(n) for n in row) + "\n")
                eid += 1


def read_mesh(path) -> Mesh:
    """Parse the plain-text mesh format; errors carry the offending line."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read mesh file {path}: {exc}") from exc

    def fail(lineno, msg):
        raise ConfigError(f"{path}:{lineno + 1}: {msg}")

    def tokens(lineno):
        if lineno >= len(lines):
            fail(lineno, "unexpected end of file")
        return lines[lineno].split()

    def number(lineno, token, kind=int):
        value = _decimal(token, kind)
        if value is None or (kind is float and not np.isfinite(value)):
            fail(lineno, f"expected {'an integer' if kind is int else 'a finite number'}, got {token!r}")
        return value

    def count(lineno, key):
        parts = tokens(lineno)
        if len(parts) != 2 or parts[0] != key:
            fail(lineno, f"expected '{key} <count>'")
        n = number(lineno, parts[1])
        if n < 0:
            fail(lineno, f"negative {key} count {n}")
        return n

    def ident(lineno, token, k, what):
        if number(lineno, token) != k:
            fail(lineno, f"{what} ids must be consecutive, got {token}")

    if not lines or lines[0].split() != ["fescale-mesh", "2"]:
        fail(0, "expected the header 'fescale-mesh 2'")
    n_nodes = count(1, "nodes")
    nodes = []  # grown line by line: a count beyond the file's end fails there
    for k in range(n_nodes):
        i = 2 + k
        parts = tokens(i)
        if len(parts) != 3:
            fail(i, "expected '<id> <x> <y>'")
        ident(i, parts[0], k, "node")
        nodes.append([number(i, t, float) for t in parts[1:]])
    i = 2 + n_nodes
    n_el = count(i, "elements")
    rows = {TRI3: [], QUAD4: []}
    for k in range(n_el):
        i += 1
        parts = tokens(i)
        if len(parts) < 3 or parts[1] not in _KINDS:
            fail(i, "expected '<id> <tri3|quad4> <n...>'")
        ident(i, parts[0], k, "element")
        kind = parts[1]
        conn = [number(i, t) for t in parts[2:]]
        if len(conn) != _KINDS[kind]:
            fail(i, f"{kind} needs {_KINDS[kind]} nodes, got {len(conn)}")
        if not all(0 <= n < n_nodes for n in conn):
            fail(i, f"node index outside [0, {n_nodes})")
        rows[kind].append(conn)
    for k in range(i + 1, len(lines)):
        if lines[k].strip():
            fail(k, f"unexpected line after the {n_el} declared elements")
    blocks = [ElementBlock(kind, np.array(rows[kind], dtype=np.int64))
              for kind in (TRI3, QUAD4) if rows[kind]]
    return Mesh(np.reshape(nodes, (n_nodes, 2)), blocks)


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    """Validated description of one suite run, every default resolved.

    A benchmark run's ``overrides`` hold every parameter of its builder,
    the shipped value where the config gives none, and its ``settings``
    take the shipped solver values (``BENCH_SOLVER_DEFAULTS``) the config
    does not override; it leaves the custom-model fields (``macro_mesh`` to
    ``reaction_dofs``) None. A custom run leaves ``benchmark`` None, and
    ``rve`` or ``rve_mesh``.
    """

    name: str
    schemes: list
    settings: macro.SolverSettings
    output_dir: str
    benchmark: str | None = None
    overrides: dict = field(default_factory=dict)
    elastic_only: bool = False
    macro_mesh: str | None = None
    rve_mesh: str | None = None
    rve: str | None = None
    materials: list | None = None
    dirichlet: list | None = None
    point_loads: list | None = None
    control_dof: int | None = None
    reaction_dofs: list | None = None

    def build_model(self, scheme):
        if self.benchmark is not None:
            try:
                return benchmarks.build_benchmark(
                    self.benchmark, scheme, elastic_only=self.elastic_only, **self.overrides
                )
            except FescaleError as exc:
                raise ConfigError(f"overrides {self.overrides}: {exc}") from exc
        fields = {key: getattr(self, key)
                  for key in ("dirichlet", "point_loads", "control_dof", "reaction_dofs")}
        fields["macro_mesh"] = read_mesh(self.macro_mesh)
        try:
            fields["micro_model"] = self._build_micro()
        except FescaleError as exc:
            raise ConfigError(f"rve: {exc}") from exc
        try:
            return benchmarks.two_scale_model(scheme, self.elastic_only, **fields)
        except FescaleError as exc:
            raise ConfigError(str(exc)) from exc

    def _build_micro(self):
        if self.rve_mesh is None:
            return benchmarks.BUILTIN_RVES[self.rve].builder(*self.materials, **self.overrides)
        mesh = read_mesh(self.rve_mesh)
        return rvemod.MicroModel(mesh, tuple(self.materials), np.zeros(mesh.n_elements, dtype=np.int64))


def load_config(path) -> RunConfig:
    """Read and validate a JSON run configuration.

    Parse errors carry the line/column; validation errors name the failing
    field or constraint. Defaults are filled for everything optional.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def _typed(name, value, kind, finite=True):
    """``value`` if it is a JSON ``kind`` (bool, int, float or str), else a ConfigError.

    A bool is not a number, an int field takes no float, and a float field
    takes no NaN, infinity (both of which Python's json reads) or integer
    beyond the float range unless ``finite`` is False.
    """
    numeric = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, numeric):
        raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}")
    if kind is float and finite and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name}: expected a finite number, got {value!r}")
    return value


def _dofs(name, value, pairs=False):
    """A JSON list of integer DOFs, or of [dof, number] pairs when ``pairs``."""
    if not isinstance(value, list):
        raise ConfigError(f"{name}: expected a list, got {value!r}")
    for entry in value:
        if not pairs:
            _typed(name, entry, int)
        elif isinstance(entry, list) and len(entry) == 2:
            _typed(name, entry[0], int)
            _typed(name, entry[1], float)
        else:
            raise ConfigError(f"{name}: expected [dof, value] pairs, got {entry!r}")
    return value


def _materials(value):
    """Material parameters from a JSON list of {E, nu[, sigma0[, h]]} objects.

    Every entry takes numbers only and no other key; a spec with ``sigma0``
    is J2-plastic (``h`` defaults to 0), and ``h`` without ``sigma0`` is an
    error. Errors name ``materials[i]``.
    """
    if not isinstance(value, list):
        raise ConfigError(f"materials: expected a list, got {value!r}")
    mats = []
    for i, spec in enumerate(value):
        name = f"materials[{i}]"
        if not isinstance(spec, dict):
            raise ConfigError(f"{name}: expected an object, got {spec!r}")
        unknown = set(spec) - {"E", "nu", "sigma0", "h"}
        if unknown:
            raise ConfigError(f"{name}: unknown fields {sorted(unknown)}")
        for key in ("E", "nu"):
            if key not in spec:
                raise ConfigError(f"{name}.{key}: missing")
        for key, number in spec.items():  # the material model checks the range
            _typed(f"{name}.{key}", number, float, finite=False)
        if "h" in spec and "sigma0" not in spec:
            raise ConfigError(f"{name}.h: a hardening modulus needs sigma0 (without it the material is elastic)")
        try:
            elastic = material.ElasticParams(E=float(spec["E"]), nu=float(spec["nu"]))
            mats.append(elastic if "sigma0" not in spec else material.PlasticParams(
                elastic, sigma0=float(spec["sigma0"]), h=float(spec.get("h", 0.0))))
        except (StructuralError, OverflowError) as exc:  # float() of an int beyond the range
            raise ConfigError(f"{name}: {exc}") from exc
    return mats


def _env_workers():
    """Worker count from ``FESCALE_WORKERS``: 1 when unset, else an integer >= 1."""
    text = os.environ.get("FESCALE_WORKERS", "1")
    workers = _decimal(text)
    if workers is None or workers < 1:
        raise ConfigError(f"FESCALE_WORKERS: expected an integer >= 1, got {text!r}")
    return workers


# the fields of a custom model, of which a benchmark config takes none
CUSTOM_FIELDS = ("macro_mesh", "rve_mesh", "rve", "materials", "dirichlet", "point_loads",
                 "control_dof", "reaction_dofs")


def _override_defaults(benchmark):
    """Each ``overrides`` key a run accepts, with its default (which gives the type).

    A benchmark's are every parameter of its builder, at the shipped value
    (:func:`benchmarks.builder_defaults`); a custom model's is the
    resolution ``n`` of a built-in RVE, whose default
    :func:`_resolve_custom_model` finds.
    """
    return {"n": 0} if benchmark is None else benchmarks.builder_defaults(benchmark)


def _canonical_schemes(names):
    """The canonical names of the schemes ``names``; a scheme listed twice, under any alias, raises."""
    schemes = [macro.canonical_scheme(name) for name in names]
    for i, scheme in enumerate(schemes):
        first = schemes.index(scheme)
        if first < i:
            raise StructuralError(f"scheme {scheme!r} is listed twice: as {names[first]!r} and as {names[i]!r}")
    return schemes


def parse_config(raw, base_dir=".") -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"name", "benchmark", "schemes", "solver", "output_dir", "overrides", "elastic_only",
             *CUSTOM_FIELDS}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for key in ("name", "benchmark", "output_dir", "macro_mesh", "rve_mesh", "rve"):
        if raw.get(key) is not None:
            _typed(key, raw[key], str)
    if any(sep in (raw.get("name") or "") for sep in ("/", os.sep)):
        raise ConfigError(f"name: {raw['name']!r} must not contain a path separator")

    schemes = raw.get("schemes", ["staggered", "monolithic-stored"])
    if not isinstance(schemes, list):
        raise ConfigError(f"schemes: expected a list, got {schemes!r}")
    if not schemes:
        raise ConfigError("schemes: at least one scheme must be selected")
    try:
        schemes = _canonical_schemes([_typed("schemes", s, str) for s in schemes])
    except StructuralError as exc:
        raise ConfigError(f"schemes: {exc}") from exc

    solver_raw = raw.get("solver", {})
    if not isinstance(solver_raw, dict):
        raise ConfigError("solver: must be an object")
    valid = {f for f in macro.SolverSettings.__dataclass_fields__}
    bad = set(solver_raw) - valid
    if bad:
        raise ConfigError(f"solver: unknown fields {sorted(bad)}")
    for key, value in solver_raw.items():
        _typed(f"solver.{key}", value, type(getattr(macro.SolverSettings, key)))
    benchmark = raw.get("benchmark")
    solver_raw = {**benchmarks.BENCH_SOLVER_DEFAULTS.get(benchmark, {}), **solver_raw}
    if solver_raw.get("predictor", macro.PREDICTORS[0]) not in macro.PREDICTORS:
        raise ConfigError(f"solver.predictor: unknown value {solver_raw['predictor']!r}; "
                          f"options: {list(macro.PREDICTORS)}")
    if "parallel_workers" not in solver_raw:
        solver_raw = dict(solver_raw, parallel_workers=_env_workers())
    try:
        settings = macro.SolverSettings(**solver_raw)
    except StructuralError as exc:
        raise ConfigError(f"solver: {exc}") from exc

    if benchmark is None and raw.get("macro_mesh") is None:
        raise ConfigError("either 'benchmark' or 'macro_mesh' is required")
    if benchmark is not None and benchmark not in benchmarks.BENCHMARK_BUILDERS:
        raise ConfigError(
            f"benchmark: unknown name {benchmark!r}; options: "
            f"{sorted(benchmarks.BENCHMARK_BUILDERS)}"
        )
    overrides = raw.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError("overrides: must be an object")
    defaults = _override_defaults(benchmark)
    for key, value in overrides.items():
        if key not in defaults:
            raise ConfigError(f"overrides: unknown field {key!r}; options: {sorted(defaults)}")
        _typed(f"overrides.{key}", value, type(defaults[key]))
        if type(defaults[key]) is int and value < 1:  # every integer override is a mesh size
            raise ConfigError(f"overrides.{key}: must be >= 1, got {value}")
    if benchmark is not None:
        overrides = {**defaults, **overrides}
    config = RunConfig(  # type errors come before the refusals below
        name=raw.get("name") or benchmark or "custom",
        schemes=schemes,
        settings=settings,
        output_dir=os.path.join(base_dir, raw.get("output_dir", "out")),
        benchmark=benchmark,
        overrides=overrides,
        elastic_only=_typed("elastic_only", raw.get("elastic_only", False), bool),
        materials=_materials(raw.get("materials", [])),
        dirichlet=_dofs("dirichlet", raw.get("dirichlet", []), pairs=True),
        point_loads=_dofs("point_loads", raw.get("point_loads", []), pairs=True),
        control_dof=_typed("control_dof", raw.get("control_dof", 0), int),
        reaction_dofs=_dofs("reaction_dofs", raw.get("reaction_dofs", [])),
    )
    if benchmark is None:
        return _resolve_custom_model(config, raw, base_dir)
    given = [key for key in CUSTOM_FIELDS if raw.get(key) is not None]
    if given:
        raise ConfigError(f"{given[0]}: a benchmark config takes no custom-model field")
    return replace(config, **dict.fromkeys(CUSTOM_FIELDS))


def _resolve_custom_model(config, raw, base_dir):
    """``config`` with its custom-model fields resolved: the mesh paths, the built-in RVE, its defaults.

    A built-in ``rve`` (default ``porous-square``) takes its default
    ``overrides.n`` unless it takes no size; its materials, and an
    ``rve_mesh``'s one, default to :func:`benchmarks.default_materials`
    when the micro model has one phase. ``control_dof`` has no default:
    DOF 0 is prescribed to zero in the usual corner-fixed mesh.
    """
    for key in ("macro_mesh", "rve_mesh"):
        if raw.get(key) is not None:
            path = os.path.abspath(os.path.join(base_dir, raw[key]))
            if not os.path.exists(path):
                raise ConfigError(f"{key}: file not found: {path}")
            setattr(config, key, path)
    if config.rve_mesh is not None:
        if raw.get("rve") is not None:
            raise ConfigError("rve: names a built-in RVE, and 'rve_mesh' is given")
        phases, n, unsized = 1, None, "'rve_mesh' is given"
    else:
        config.rve = "porous-square" if raw.get("rve") is None else raw["rve"]
        if config.rve not in benchmarks.BUILTIN_RVES:
            raise ConfigError(f"rve: unknown built-in RVE {config.rve!r}; "
                              f"options: {sorted(benchmarks.BUILTIN_RVES)}")
        _, phases, n = benchmarks.BUILTIN_RVES[config.rve]
        unsized = f"{config.rve!r} takes no size"
    if n is not None:
        config.overrides = {"n": n, **config.overrides}
    elif "n" in config.overrides:
        raise ConfigError(f"overrides.n: sizes a built-in 'rve' only, and {unsized}")
    if not config.materials and phases == 1:
        config.materials = [benchmarks.default_materials("")]
    if len(config.materials) != phases:
        raise ConfigError(f"materials: the micro model takes {phases} material(s), "
                          f"got {len(config.materials)}")
    if "control_dof" not in raw:
        raise ConfigError("control_dof: required for a custom model")
    config.reaction_dofs = config.reaction_dofs or [config.control_dof]
    return config


# ---------------------------------------------------------------------------
# artifacts


def _fmt(x):
    return f"{float(x):.17g}"


def write_curve_csv(path, curve):
    with open(path, "w") as fh:
        fh.write("load_factor,control_value,reaction\n")
        for lam, control, reaction in curve:
            fh.write(f"{_fmt(lam)},{_fmt(control)},{_fmt(reaction)}\n")


def write_stats_csv(path, records):
    with open(path, "w") as fh:
        fh.write("increment,dt,macro_iters,micro_iters_total,factorizations,wall_ms,cut_events,"
                 "aux_solves,macro_factorizations,micro_iters_max,plastic_flow\n")
        for r in records:
            fh.write(
                f"{r.index},{_fmt(r.dt)},{r.macro_iterations},{r.micro_iters_total},"
                f"{r.factorizations},{_fmt(r.wall_ms)},{r.cut_events},{r.aux_solves},"
                f"{r.macro_factorizations},{r.micro_iters_max},{int(r.plastic_flow)}\n"
            )


def read_stats_csv(path):
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            rows.append(dict(zip(header, line.strip().split(","))))
    return rows


def write_summary(path, name, scheme_files):
    """Cross-scheme totals and ratios, recomputed from the stats CSVs."""
    totals = {}
    for scheme, stats_path in scheme_files.items():
        rows = read_stats_csv(stats_path)
        totals[scheme] = {
            "increments": len(rows),
            "wall_ms": sum(float(r["wall_ms"]) for r in rows),
            "factorizations": sum(int(r["factorizations"]) for r in rows),
            "micro_iters": sum(int(r["micro_iters_total"]) for r in rows),
        }
    base = totals.get("staggered")
    with open(path, "w") as fh:
        fh.write("benchmark,scheme,increments,wall_ms_total,factorizations_total,"
                 "micro_solves_total,wall_ratio_vs_staggered,"
                 "factorization_ratio_vs_staggered,micro_solve_ratio_vs_staggered\n")
        for scheme, tot in totals.items():
            if base is not None and base["wall_ms"] > 0:
                ratios = (
                    _fmt(tot["wall_ms"] / base["wall_ms"]),
                    _fmt(tot["factorizations"] / base["factorizations"]) if base["factorizations"] else "",
                    _fmt(tot["micro_iters"] / base["micro_iters"]) if base["micro_iters"] else "",
                )
            else:
                ratios = ("", "", "")
            fh.write(
                f"{name},{scheme},{tot['increments']},{_fmt(tot['wall_ms'])},"
                f"{tot['factorizations']},{tot['micro_iters']},"
                f"{ratios[0]},{ratios[1]},{ratios[2]}\n"
            )
    return totals


def _material_spec(params):
    """A material's ``{E, nu[, sigma0, h]}`` config object."""
    spec = asdict(params)
    return {**spec.pop("elastic", {}), **spec}


def _echo_config(config):
    """Write ``config`` next to the results as the config that ``parse_config`` resolves to it.

    The echo leaves out ``output_dir``, so a run of it writes under its own
    directory.
    """
    payload = {key: value for key, value in vars(config).items()
               if value is not None and key not in ("settings", "output_dir")}
    payload["solver"] = asdict(config.settings)
    if config.materials is not None:
        payload["materials"] = [_material_spec(m) for m in config.materials]
    with open(os.path.join(config.output_dir, f"{config.name}_config_echo.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def run_suite(config: RunConfig):
    """Run every selected scheme and write curves, stats, and the summary.

    Returns (exit_status, reports): 0 when every scheme converged, 1
    otherwise; artifacts are written either way. The model is built once,
    before the output directory is created, so a configuration error leaves
    no file behind; the schemes' models share its micro geometry and macro
    system. A worker process that ends stops the suite: the curve and stats
    of the increments its scheme accepted, and the summary so far, are
    written before its :class:`WorkerError` is raised again.
    """
    model = config.build_model(config.schemes[0])
    models = {scheme: model.with_scheme(scheme) for scheme in config.schemes}
    os.makedirs(config.output_dir, exist_ok=True)
    _echo_config(config)
    reports = {}
    scheme_stats = {}
    status = 0
    lost = None
    for scheme, model in models.items():
        try:
            report = macro.run(model, config.settings)
        except WorkerError as exc:
            report, lost = exc.report, exc
        reports[scheme] = report
        prefix = os.path.join(config.output_dir, f"{config.name}_{scheme}")
        write_curve_csv(prefix + "_curve.csv", report.curve)
        write_stats_csv(prefix + "_stats.csv", report.records)
        scheme_stats[scheme] = prefix + "_stats.csv"
        if not report.converged:
            status = 1
        if lost is not None:
            break
    write_summary(
        os.path.join(config.output_dir, f"{config.name}_summary.csv"),
        config.name, scheme_stats,
    )
    if lost is not None:
        raise lost
    return status, reports


# ---------------------------------------------------------------------------
# built-in self checks (fescale check)


def _check_patch_test():
    nodes = np.array([[0.0, 0.0], [1.1, 0.1], [0.9, 1.2], [-0.1, 0.9]])
    mesh = Mesh(nodes, [ElementBlock(QUAD4, [[0, 1, 2, 3]])])
    g = np.array([[0.3, -0.2], [0.1, 0.4]])
    u = (nodes @ g.T).ravel()
    plan = AssemblyPlan(mesh, np.arange(mesh.n_dofs))
    return np.allclose(plan.gradients(u), g.ravel(), atol=1e-12)


def _check_material_consistency():
    params = material.PlasticParams(material.ElasticParams(100.0, 0.3), 1.0, 2.0)
    err = material.tangent_check(params, np.array([0.0, 0.03, 0.03, 0.0]),
                                 material.StateBatch.virgin(1))
    return err <= 1e-5


def _check_linear_solver():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((25, 25))
    a = m @ m.T + 25 * np.eye(25)
    b = rng.standard_normal(25)
    x = linalg.factorize(a, b).columns
    res = np.abs(a @ x - b).max()
    return res <= 1e-10 * (np.abs(a).max() * np.abs(x).max() + np.abs(b).max())


def _check_periodic_averaging():
    el = material.ElasticParams(100.0, 0.3)
    geom = rvemod.MicroGeometry(benchmarks.rve_laminate(el, el, n=3))
    p = rvemod.RveBatch(geom)
    p.H[0] = [0.01, 0.004, -0.002, -0.006]
    p.u_hat[0] = 1e-3 * np.sin(np.arange(geom.n_reduced))
    return np.allclose(rvemod.average_gradient(p), p.H, atol=1e-10)


def _check_homogenized_tangent():
    el = material.ElasticParams(100.0, 0.3)
    geom = rvemod.MicroGeometry(benchmarks.rve_laminate(el, el, n=3))
    p = rvemod.RveBatch(geom)
    rvemod.solve_micro_staggered(p, np.zeros(4), 1e-10, 5)
    _, c = rvemod.homogenized_tangent_and_alg_stress(p, alg_stress=False)
    return np.allclose(c[0], el.stiffness(), atol=1e-9 * el.E)


def _check_elastic_certificate():
    params = material.PlasticParams(material.ElasticParams(100.0, 0.3), 1.0, 2.0)
    p = rvemod.RveBatch(rvemod.MicroGeometry(benchmarks.rve_porous_tri(params, n=4)))
    shear = np.array([[0.0, 1.0, 1.0, 0.0]]) / np.sqrt(2.0)

    def certified(delta_h):  # one pass of a monolithic sweep, as a shard makes it
        cert = rvemod.monolithic_pass(p, delta_h)[0]
        rvemod.homogenized_tangent_and_alg_stress(p)
        return cert

    at_rest = certified(0.0 * shear)  # an assembly at rest records the radius
    rho = p.radius[0]
    below = certified(0.5 * rho * shear) and not p.plastic_flow[0]
    past = not certified(50.0 * rho * shear) and p.plastic_flow[0]
    return not at_rest and 0.0 < rho < np.inf and below and past


CHECKS = [
    ("element patch test", _check_patch_test),
    ("radial-return consistent tangent", _check_material_consistency),
    ("Cholesky solve residual bound", _check_linear_solver),
    ("periodic averaging identity", _check_periodic_averaging),
    ("homogenized elastic tangent identity", _check_homogenized_tangent),
    ("certified elastic radius", _check_elastic_certificate),
]


def run_checks():
    failures = 0
    for label, fn in CHECKS:
        ok = False
        try:
            ok = fn()
        except Exception as exc:  # a crash is a failure with context
            print(f"FAIL {label}: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        print(f"{'PASS' if ok else 'FAIL'} {label}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# command line


def _apply_cli_overrides(config, args):
    if args.out:
        config.output_dir = args.out
    try:
        if args.schemes is not None:
            config.schemes = _canonical_schemes(args.schemes.split(","))
        if args.workers is not None:
            config.settings = replace(config.settings, parallel_workers=args.workers)
    except StructuralError as exc:
        raise ConfigError(f"command line: {exc}") from exc
    return config


def main(argv=None):
    parser = argparse.ArgumentParser(prog="fescale", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--schemes", default=None, help="comma-separated scheme list")
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--out", default=None)

    p_bench = sub.add_parser("bench", help="run a named benchmark's shipped model and solver")
    p_bench.add_argument("suite", help="benchmark name or 'all'")
    p_bench.add_argument("--schemes", default="staggered,monolithic,monolithic-stored")
    p_bench.add_argument("--workers", type=int, default=None)
    p_bench.add_argument("--out", default="out")

    sub.add_parser("check", help="run built-in invariant self-tests")

    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return run_checks()
        if args.command == "run":
            config = load_config(args.config)
            config = _apply_cli_overrides(config, args)
            status, _ = run_suite(config)
            return status
        if args.command == "bench":
            names = sorted(benchmarks.BENCHMARK_BUILDERS) if args.suite == "all" else [args.suite]
            status = 0
            for name in names:
                config = _apply_cli_overrides(parse_config({"benchmark": name, "output_dir": args.out}), args)
                s, reports = run_suite(config)
                status = max(status, s)
                for scheme, rep in reports.items():
                    print(f"{name} [{scheme}]: converged={rep.converged} "
                          f"increments={len(rep.records)} "
                          f"factorizations={rep.total_factorizations} "
                          f"wall={rep.total_wall_ms:.0f} ms")
            return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FescaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
