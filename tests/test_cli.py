"""Tests for configuration loading, artifacts, and the command line."""

import contextlib
import io
import json
import multiprocessing
import os
import pathlib
import re
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fescale import benchmarks, macro
from fescale.benchmarks import grid_quads
from fescale.cli import (
    load_config,
    main,
    parse_config,
    read_mesh,
    read_stats_csv,
    run_suite,
    write_mesh,
)
from fescale.errors import ConfigError
from fescale.linalg import MAX_DENSE_N
from fescale.mesh import QUAD4, ElementBlock, Mesh

TINY = {
    "benchmark": "notched-shear",
    "schemes": ["staggered", "monolithic-stored"],
    "overrides": {"n_macro": 3, "n_micro": 3},
    "solver": {"tol_macro": 1e-8, "tol_micro": 1e-8,
               "dt_initial": 0.25, "dt_max": 0.25},
}


def write_tiny_config(tmp_path, **extra):
    raw = dict(TINY)
    raw.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    return path


class TestLoadConfig:
    def test_minimal_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"benchmark": "notched-shear",
                                    "schemes": ["monolithic"]}))
        cfg = load_config(path)
        assert cfg.benchmark == "notched-shear"
        assert cfg.schemes == ["monolithic"]
        # a benchmark config takes its shipped sizes and solver
        assert cfg.overrides == {"n_macro": 5, "n_micro": 5, "u_end": 0.03}
        assert cfg.settings.tol_macro == 1e-8 and cfg.settings.dt_max == 0.05

    def test_invalid_cut_factor(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"benchmark": "notched-shear",
                                    "solver": {"cut_factor": 1.5}}))
        with pytest.raises(ConfigError, match="cut_factor"):
            load_config(path)

    def test_missing_mesh_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"macro_mesh": "nope.mesh"}))
        with pytest.raises(ConfigError, match="not found"):
            load_config(path)

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"benchmark": "notched-shear",\n  broken\n}')
        with pytest.raises(ConfigError, match=":2:"):
            load_config(path)

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigError, match="unknown name"):
            parse_config({"benchmark": "bogus"})

    def test_empty_scheme_list(self):
        with pytest.raises(ConfigError, match="at least one"):
            parse_config({"benchmark": "notched-shear", "schemes": []})

    def test_scheme_alias_accepted(self):
        cfg = parse_config({"benchmark": "notched-shear",
                            "schemes": ["monolithic-stored-factorization"]})
        assert cfg.schemes == ["monolithic-stored"]


SMALL_MESH = [
    "fescale-mesh 2",
    "nodes 3",
    "0 0.0 0.0",
    "1 1.0 0.0",
    "2 1.0 1.0",
    "elements 1",
    "0 tri3 0 1 2",
]
# (line, column) of every count, id, coordinate and node index
NUMERIC_FIELDS = [(i, j) for i, row in enumerate(SMALL_MESH) for j, token in enumerate(row.split())
                  if i > 0 and token not in ("nodes", "elements", "tri3")]


class TestMeshFile:
    def test_round_trip(self, tmp_path):
        nodes, conn = grid_quads(2, 2)
        mesh = Mesh(nodes, [ElementBlock(QUAD4, conn)])
        path = tmp_path / "m.mesh"
        write_mesh(mesh, path)
        back = read_mesh(path)
        np.testing.assert_allclose(back.nodes, mesh.nodes)
        np.testing.assert_array_equal(back.blocks[0].connectivity, conn)

    def test_malformed_reports_line(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("fescale-mesh 2\nnodes 1\n0 0.0 0.0\nelements 1\n0 tri3 0 0\n")
        with pytest.raises(ConfigError, match="bad.mesh:5"):
            read_mesh(path)

    @pytest.mark.parametrize("keep", range(1, len(SMALL_MESH)))
    def test_truncation_reports_line(self, tmp_path, keep):
        path = tmp_path / "bad.mesh"
        path.write_text("".join(line + "\n" for line in SMALL_MESH[:keep]))
        with pytest.raises(ConfigError, match=f"bad.mesh:{keep + 1}: unexpected end of file"):
            read_mesh(path)

    @pytest.mark.parametrize("line, column, token", [
        (line, column, "x") for line, column in NUMERIC_FIELDS
    ] + [
        (1, 1, "1.5"), (2, 0, "1.5"), (5, 1, "1.5"), (6, 0, "1.5"), (6, 3, "1.5"),
        (2, 1, "1e400"), (3, 2, "nan"),
        # int() and float() read these; the mesh format's plain ASCII decimals do not
        (2, 1, "1_0.0"), (3, 2, "1_0"), (1, 1, "1_0"), (6, 4, "\u0662"), (2, 0, "\u0660"),
        (4, 1, "\u0661.0"),
    ])
    def test_non_numeric_token_reports_line(self, tmp_path, line, column, token):
        rows = [row.split() for row in SMALL_MESH]
        rows[line][column] = token
        path = tmp_path / "bad.mesh"
        path.write_text("".join(" ".join(row) + "\n" for row in rows))
        with pytest.raises(ConfigError, match=f"bad.mesh:{line + 1}: expected an? "):
            read_mesh(path)

    def test_count_beyond_the_end_reports_the_end(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("fescale-mesh 2\nnodes 99999999999\n0 0.0 0.0\n")
        with pytest.raises(ConfigError, match="bad.mesh:4: unexpected end of file"):
            read_mesh(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("nodes 0\nelements 0\n")
        with pytest.raises(ConfigError, match="header"):
            read_mesh(path)

    @pytest.mark.parametrize("header", ["fescale-mesh 7", "fescale-mesh", "fescale-mesh 2 3",
                                        "fescale-meshes 2"])
    def test_header_names_the_one_version(self, tmp_path, header):
        path = tmp_path / "bad.mesh"
        path.write_text("".join(line + "\n" for line in [header] + SMALL_MESH[1:]))
        with pytest.raises(ConfigError, match="bad.mesh:1: expected the header 'fescale-mesh 2'"):
            read_mesh(path)

    @pytest.mark.parametrize("extra", ["1 tri3 0 1 2", "  x", "\t1"])
    def test_line_after_the_declared_elements_reports_line(self, tmp_path, extra):
        path = tmp_path / "bad.mesh"
        path.write_text("".join(line + "\n" for line in SMALL_MESH + ["", extra]))
        with pytest.raises(ConfigError, match="bad.mesh:9: unexpected line after the 1 declared elements"):
            read_mesh(path)

    def test_trailing_blank_lines_are_allowed(self, tmp_path):
        path = tmp_path / "m.mesh"
        path.write_text("".join(line + "\n" for line in SMALL_MESH + ["", "  ", "\t"]))
        assert read_mesh(path).n_elements == 1


@pytest.fixture(scope="module")
def suite_out(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("suite")
    cfg = parse_config(dict(TINY, output_dir="art"), base_dir=str(tmp_path))
    status, reports = run_suite(cfg)
    return tmp_path / "art", status, reports


class TestRunSuite:
    def test_exit_status_zero_and_artifacts(self, suite_out):
        out, status, reports = suite_out
        assert status == 0
        for scheme in ("staggered", "monolithic-stored"):
            assert (out / f"notched-shear_{scheme}_curve.csv").exists()
            assert (out / f"notched-shear_{scheme}_stats.csv").exists()
        assert (out / "notched-shear_summary.csv").exists()

    def test_final_reactions_agree(self, suite_out):
        out, _, reports = suite_out
        r1 = np.array([p[2] for p in reports["staggered"].curve])
        r2 = np.array([p[2] for p in reports["monolithic-stored"].curve])
        assert np.abs(r1 - r2).max() <= 1e-6 * np.abs(r1).max()

    def test_summary_matches_recomputed_ratios(self, suite_out):
        out, _, _ = suite_out
        with open(out / "notched-shear_summary.csv") as fh:
            header = fh.readline().strip().split(",")
            rows = [dict(zip(header, line.strip().split(","))) for line in fh]
        stats = {
            s: read_stats_csv(out / f"notched-shear_{s}_stats.csv")
            for s in ("staggered", "monolithic-stored")
        }
        base_f = sum(int(r["factorizations"]) for r in stats["staggered"])
        mono_f = sum(int(r["factorizations"]) for r in stats["monolithic-stored"])
        summary_row = next(r for r in rows if r["scheme"] == "monolithic-stored")
        assert float(summary_row["factorization_ratio_vs_staggered"]) == mono_f / base_f

    def test_stats_csv_reads_back_every_counter(self, suite_out):
        out, _, reports = suite_out
        for scheme, report in reports.items():
            rows = read_stats_csv(out / f"notched-shear_{scheme}_stats.csv")
            assert len(rows) == len(report.records)
            for row, r in zip(rows, report.records):
                assert {k: int(v) for k, v in row.items() if k not in ("dt", "wall_ms")} == {
                    "increment": r.index, "macro_iters": r.macro_iterations,
                    "micro_iters_total": r.micro_iters_total, "factorizations": r.factorizations,
                    "cut_events": r.cut_events, "aux_solves": r.aux_solves,
                    "macro_factorizations": r.macro_factorizations,
                    "micro_iters_max": r.micro_iters_max, "plastic_flow": int(r.plastic_flow)}
                assert (float(row["dt"]), float(row["wall_ms"])) == (r.dt, r.wall_ms)

    def test_curve_bytes_reproducible(self, suite_out, tmp_path):
        out, _, _ = suite_out
        cfg = parse_config(dict(TINY, output_dir="rerun"), base_dir=str(tmp_path))
        run_suite(cfg)
        for scheme in ("staggered", "monolithic-stored"):
            a = (out / f"notched-shear_{scheme}_curve.csv").read_bytes()
            b = (tmp_path / "rerun" / f"notched-shear_{scheme}_curve.csv").read_bytes()
            assert a == b


    def test_schemes_share_one_model_build(self, tmp_path, monkeypatch):
        # the model is built once; each scheme runs a copy of it that shares
        # its micro geometry and macro system
        built, models, run = [], [], macro.run
        build = benchmarks.build_benchmark
        monkeypatch.setattr(benchmarks, "build_benchmark",
                            lambda *a, **k: built.append(a) or build(*a, **k))
        monkeypatch.setattr(macro, "run", lambda model, settings: models.append(model) or run(model, settings))
        raw = dict(TINY, output_dir="one", schemes=["staggered", "monolithic", "monolithic-stored"])
        status, _ = run_suite(parse_config(raw, base_dir=str(tmp_path)))
        assert status == 0
        assert len(built) == 1
        assert [m.scheme for m in models] == raw["schemes"]
        assert all(m.micro_geometry is models[0].micro_geometry for m in models)
        assert all(m.system is models[0].system for m in models)


class TestElasticSuite:
    def test_identical_iteration_counts_across_schemes(self, tmp_path):
        raw = dict(TINY, elastic_only=True, output_dir="el",
                   schemes=["staggered", "monolithic", "monolithic-stored"])
        cfg = parse_config(raw, base_dir=str(tmp_path))
        status, reports = run_suite(cfg)
        assert status == 0
        stats = {
            s: read_stats_csv(tmp_path / "el" / f"notched-shear_{s}_stats.csv")
            for s in raw["schemes"]
        }
        iters = {s: [r["macro_iters"] for r in rows] for s, rows in stats.items()}
        assert iters["staggered"] == iters["monolithic"] == iters["monolithic-stored"]


class TestParallelSuite:
    def test_workers_do_not_change_outputs(self, tmp_path):
        curves = {}
        for workers in (1, 2):
            raw = dict(TINY, output_dir=f"w{workers}")
            raw["solver"] = dict(TINY["solver"], parallel_workers=workers)
            raw["schemes"] = ["monolithic-stored"]
            cfg = parse_config(raw, base_dir=str(tmp_path))
            status, _ = run_suite(cfg)
            assert status == 0
            curves[workers] = (
                tmp_path / f"w{workers}" / "notched-shear_monolithic-stored_curve.csv"
            ).read_bytes()
        assert curves[1] == curves[2]


def write_bar_config(tmp_path, **extra):
    """One-quad macro mesh (8 DOFs) over a one-quad homogeneous micro mesh."""
    nodes, conn = grid_quads(1, 1)
    write_mesh(Mesh(nodes, [ElementBlock(QUAD4, conn)]), tmp_path / "macro.mesh")
    write_mesh(Mesh(nodes, [ElementBlock(QUAD4, conn)]), tmp_path / "micro.mesh")
    raw = {
        "name": "bar",
        "macro_mesh": "macro.mesh",
        "rve_mesh": "micro.mesh",
        "materials": [{"E": 100.0, "nu": 0.3}],
        "dirichlet": [[0, 0.0], [2, 0.0], [4, 0.0], [6, 0.0],
                      [1, 0.0], [3, 0.0], [5, 0.01], [7, 0.01]],
        "control_dof": 5,
        "reaction_dofs": [5, 7],
        "schemes": ["monolithic-stored"],
        "solver": {"dt_initial": 0.5, "dt_max": 0.5,
                   "tol_macro": 1e-9, "tol_micro": 1e-9},
        "output_dir": "out",
    }
    raw.update(extra)
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    return tmp_path / "cfg.json"


class TestCustomMeshRun:
    def test_custom_bar_model(self, tmp_path):
        cfg = load_config(write_bar_config(tmp_path))
        status, reports = run_suite(cfg)
        assert status == 0
        rep = reports["monolithic-stored"]
        # uniaxial strain: reaction = (lam+2mu) * prescribed strain
        e, nu = 100.0, 0.3
        m_oed = e * (1 - nu) / ((1 + nu) * (1 - 2 * nu))
        assert rep.curve[-1][2] == pytest.approx(m_oed * 0.01, rel=1e-8)

    @pytest.mark.parametrize("field, value, dof", [
        ("dirichlet", [[0, 0.0], [-1, 0.0]], -1),
        ("dirichlet", [[0, 0.0], [8, 0.0]], 8),
        ("point_loads", [[8, 1.0]], 8),
        ("control_dof", -1, -1),
        ("reaction_dofs", [5, 8], 8),
    ])
    def test_out_of_range_dof_is_a_config_error(self, tmp_path, capsys, field, value, dof):
        assert main(["run", str(write_bar_config(tmp_path, **{field: value}))]) == 2
        assert f"{field}: DOF {dof} outside [0, 8)" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, shown", [
        ("dirichlet", [[0, 0.0], [1.0, 0.0]], "1.0"),
        ("dirichlet", [[0, 0.0], ["x", 0.0]], "'x'"),
        ("point_loads", [[True, 1.0]], "True"),
        ("control_dof", 5.7, "5.7"),
        ("control_dof", "x", "'x'"),
        ("reaction_dofs", [5.5, 7], "5.5"),
    ])
    def test_non_integer_dof_is_a_config_error(self, tmp_path, capsys, field, value, shown):
        assert main(["run", str(write_bar_config(tmp_path, **{field: value}))]) == 2
        assert f"{field}: expected int, got {shown}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_builtin_rve_is_a_config_error(self, tmp_path, capsys):
        path = write_bar_config(tmp_path, rve_mesh=None, rve="porous-square", overrides={"n": 1})
        assert main(["run", str(path)]) == 2
        assert "rve: the pixelated feature removes every element" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        pytest.param({"E": "x", "nu": 0.3}, "materials[0].E: expected float, got 'x'", id="spec0"),
        pytest.param({"E": None, "nu": 0.3}, "materials[0].E: expected float, got None", id="spec1"),
        pytest.param([100.0, 0.3], "materials[0]: expected an object, got [100.0, 0.3]", id="spec2"),
        pytest.param({"E": True, "nu": 0.3}, "materials[0].E: expected float, got True", id="spec3"),
        pytest.param({"E": "2e5", "nu": "0.3"}, "materials[0].E: expected float, got '2e5'",
                     id="spec4"),
        pytest.param({"E": 100.0, "nu": 0.3, "sigma0": "1e2"},
                     "materials[0].sigma0: expected float, got '1e2'", id="spec5"),
        pytest.param({"E": 100.0}, "materials[0].nu: missing", id="spec6"),
        pytest.param({"E": 100.0, "nu": 0.3, "G": 38.0}, "materials[0]: unknown fields ['G']",
                     id="spec7"),
        pytest.param({"E": -1.0, "nu": 0.3}, "materials[0]: Young's modulus must be positive",
                     id="spec8"),
        pytest.param({"E": 100.0, "nu": 0.3, "sigma0": float("inf")},
                     "materials[0]: initial yield stress must be positive and finite", id="spec9"),
        pytest.param({"E": 10**400, "nu": 0.3}, "materials[0]: int too large to convert to float",
                     id="spec10"),
        pytest.param({"E": 100.0, "nu": 0.3, "h": 2.0}, "materials[0].h: a hardening modulus needs sigma0",
                     id="spec11"),
    ])
    def test_malformed_material_is_a_config_error(self, tmp_path, capsys, spec, message):
        assert main(["run", str(write_bar_config(tmp_path, materials=[spec]))]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFieldTypes:
    @pytest.mark.parametrize("extra, message", [
        ({"solver": {"tol_macro": "tight"}}, "solver.tol_macro: expected float, got 'tight'"),
        ({"solver": {"cut_factor": "half"}}, "solver.cut_factor: expected float, got 'half'"),
        ({"solver": {"tol_micro": True}}, "solver.tol_micro: expected float, got True"),
        ({"solver": {"max_macro_iter": 16.0}}, "solver.max_macro_iter: expected int, got 16.0"),
        ({"solver": {"predictor": 1}}, "solver.predictor: expected str, got 1"),
        ({"solver": {"extrapolate": True}}, "solver: unknown fields ['extrapolate']"),
        ({"overrides": {"bogus": 1}}, "overrides: unknown field 'bogus'"),
        ({"overrides": {"n_macro": 3.0}}, "overrides.n_macro: expected int, got 3.0"),
        ({"elastic_only": "yes"}, "elastic_only: expected bool, got 'yes'"),
        ({"schemes": 5}, "schemes: expected a list, got 5"),
        ({"schemes": [[]]}, "schemes: expected str, got []"),
        ({"benchmark": []}, "benchmark: expected str, got []"),
        ({"name": "a/b"}, "name: 'a/b' must not contain a path separator"),
    ])
    def test_wrong_type_is_a_config_error_before_any_solve(self, tmp_path, capsys, extra, message):
        path = write_tiny_config(tmp_path, output_dir="typed", **extra)
        assert main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "typed").exists()

    @pytest.mark.parametrize("extra, message", [
        ({"overrides": {"n_macro": 0}}, "overrides.n_macro: must be >= 1, got 0"),
        ({"overrides": {"n_micro": -1}}, "overrides.n_micro: must be >= 1, got -1"),
        ({"overrides": {"n_micro": 0}}, "overrides.n_micro: must be >= 1, got 0"),
        ({"overrides": {"n_micro": 1}},
         "overrides {'n_macro': 5, 'n_micro': 1, 'u_end': 0.03}: the pixelated feature removes "
         "every element"),
        ({"benchmark": "plate-hole-tension", "overrides": {"n_macro": 1}},
         "overrides {'n_macro': 1, 'n_micro': 8, 'u_end': 0.015}: the pixelated feature removes "
         "every element"),
        ({"benchmark": "notched-bending-2d", "overrides": {"nx": 0}},
         "overrides.nx: must be >= 1, got 0"),
        ({"solver": {"max_macro_iter": 0}}, "solver: max_macro_iter must be >= 1"),
        ({"solver": {"n_max": -1}}, "solver: n_max must be >= 1"),
        ({"solver": {"tol_macro": -1.0}}, "solver: tol_macro must be > 0"),
        ({"solver": {"tol_micro": 0.0}}, "solver: tol_micro must be > 0"),
        ({"solver": {"t_end": -1.0}}, "solver: t_end must be > 0"),
        ({"solver": {"dt_min": 0.0}}, "solver: dt_min must be > 0"),
        ({"solver": {"predictor": "linear"}},
         "solver.predictor: unknown value 'linear'; options: ['tangent', 'extrapolate', 'none']"),
        # Python's json reads NaN and Infinity
        ({"overrides": {"u_end": float("nan")}}, "overrides.u_end: expected a finite number, got nan"),
        ({"overrides": {"u_end": float("inf")}}, "overrides.u_end: expected a finite number, got inf"),
        ({"solver": {"tol_macro": float("inf")}},
         "solver.tol_macro: expected a finite number, got inf"),
        ({"dirichlet": [[0, float("nan")]]}, "dirichlet: expected a finite number, got nan"),
        ({"point_loads": [[0, -float("inf")]]}, "point_loads: expected a finite number, got -inf"),
        ({"solver": {"tol_micro": 10**400}}, "solver.tol_micro: expected a finite number, got 1000"),
    ])
    def test_out_of_range_is_a_config_error(self, tmp_path, capsys, extra, message):
        path = write_tiny_config(tmp_path, output_dir="ranged", **extra)
        assert main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "ranged").exists()

    def test_custom_model_takes_only_the_rve_resolution(self, tmp_path, capsys):
        assert main(["run", str(write_bar_config(tmp_path, overrides={"n_macro": 3}))]) == 2
        assert "overrides: unknown field 'n_macro'; options: ['n']" in capsys.readouterr().err

    def test_rve_resolution_with_an_rve_mesh_is_a_config_error(self, tmp_path, capsys):
        # the mesh file fixes the micro mesh, so a resolution would be ignored
        assert main(["run", str(write_bar_config(tmp_path, overrides={"n": 3}))]) == 2
        assert "overrides.n: sizes a built-in 'rve' only" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestUsedOrRefused:
    """A given field that the model would not use is a config error that names it."""

    @staticmethod
    def refused(tmp_path, capsys, path, field):
        """The message of a run of ``path`` that ends in exit 2, naming ``field``, and writes nothing."""
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field}: " in err
        assert not (tmp_path / "out").exists()
        return err

    @pytest.mark.parametrize("field, value", [
        ("macro_mesh", "macro.mesh"),
        ("rve_mesh", "micro.mesh"),
        ("rve", "porous-square"),
        ("materials", [{"E": 100.0, "nu": 0.3}]),
        ("dirichlet", [[0, 0.0]]),
        ("point_loads", [[0, 1.0]]),
        ("control_dof", 5),
        ("reaction_dofs", [5]),
    ])
    def test_custom_model_field_beside_a_benchmark(self, tmp_path, capsys, field, value):
        write_bar_config(tmp_path)  # the mesh files the paths name
        path = write_tiny_config(tmp_path, output_dir="out", **{field: value})
        self.refused(tmp_path, capsys, path, field)

    def test_rve_beside_an_rve_mesh(self, tmp_path, capsys):
        self.refused(tmp_path, capsys, write_bar_config(tmp_path, rve="porous-square"), "rve")

    @pytest.mark.parametrize("rve, count", [
        ("laminate", 1), ("laminate", 3), ("composite", 0), ("composite", 1),
        ("porous-square", 2), ("single-element", 2), (None, 2),  # None: the bar's rve_mesh
    ])
    def test_materials_other_than_the_phase_count(self, tmp_path, capsys, rve, count):
        materials = [{"E": 100.0, "nu": 0.3}] * count
        edits = {} if rve is None else {"rve_mesh": None, "rve": rve}
        self.refused(tmp_path, capsys, write_bar_config(tmp_path, materials=materials, **edits),
                     "materials")

    def test_size_of_the_single_element_rve(self, tmp_path, capsys):
        path = write_bar_config(tmp_path, rve_mesh=None, rve="single-element", overrides={"n": 2})
        self.refused(tmp_path, capsys, path, "overrides.n")

    @pytest.mark.parametrize("field, value, dof", [
        ("dirichlet", [[0, 0.0], [2, 0.0], [4, 0.0], [6, 0.0], [1, 0.0], [3, 0.0],
                       [5, 0.01], [7, 0.01], [5, 0.02]], 5),
        ("reaction_dofs", [5, 7, 7], 7),
        ("point_loads", [[5, 1e6]], 5),
        ("control_dof", 1, 1),  # prescribed to zero: its curve would read 0 throughout
    ])
    def test_dof_data_the_model_would_not_use(self, tmp_path, capsys, field, value, dof):
        err = self.refused(tmp_path, capsys, write_bar_config(tmp_path, **{field: value}), field)
        assert f"{field}: DOF {dof} " in err

    def test_custom_model_without_a_control_dof(self, tmp_path, capsys):
        # DOF 0, the old default, is fixed in the corner-fixed bar
        path = write_bar_config(tmp_path)
        raw = json.loads(path.read_text())
        del raw["control_dof"]
        path.write_text(json.dumps(raw))
        err = self.refused(tmp_path, capsys, path, "control_dof")
        assert "control_dof: required for a custom model" in err

    def test_custom_elastic_only_runs_elastic_phases(self, tmp_path):
        plastic = {"materials": [{"E": 100.0, "nu": 0.3, "sigma0": 0.5, "h": 1.0}]}
        flows = {}
        for elastic_only in (False, True):
            path = write_bar_config(tmp_path, elastic_only=elastic_only,
                                    output_dir=f"el{int(elastic_only)}", **plastic)
            assert main(["run", str(path)]) == 0
            rows = read_stats_csv(tmp_path / f"el{int(elastic_only)}" / "bar_monolithic-stored_stats.csv")
            flows[elastic_only] = [row["plastic_flow"] for row in rows]
        assert "1" in flows[False]
        assert set(flows[True]) == {"0"}


class TestConfigEcho:
    """The echo is the resolved config: it parses back to the run's config and reruns its curves."""

    @pytest.mark.parametrize("kind", ["benchmark", "bare-benchmark", "rve_mesh", "builtin-rve"])
    def test_echo_round_trip(self, tmp_path, monkeypatch, kind):
        monkeypatch.delenv("FESCALE_WORKERS", raising=False)
        if kind == "benchmark":
            path = write_tiny_config(tmp_path, output_dir="out", schemes=["monolithic-stored"])
        elif kind == "bare-benchmark":
            path = tmp_path / "bare.json"
            path.write_text(json.dumps({"benchmark": "notched-shear", "schemes": ["monolithic-stored"]}))
        else:
            laminate = {"rve_mesh": None, "rve": "laminate", "reaction_dofs": [],
                        "materials": [{"E": 100.0, "nu": 0.3, "sigma0": 0.5},
                                      {"E": 300.0, "nu": 0.25}]}
            path = write_bar_config(tmp_path, **(laminate if kind == "builtin-rve" else {}))
        config = load_config(path)
        assert main(["run", str(path)]) == 0
        echo = tmp_path / "out" / f"{config.name}_config_echo.json"
        again = load_config(echo)
        assert again.output_dir != config.output_dir
        assert again == replace(config, output_dir=again.output_dir)
        assert main(["run", str(echo), "--out", str(tmp_path / "again")]) == 0
        curves = sorted((tmp_path / "out").glob("*_curve.csv"))
        assert curves
        for curve in curves:
            assert curve.read_bytes() == (tmp_path / "again" / curve.name).read_bytes()
        if kind == "bare-benchmark":  # the echo names the shipped model and solver that ran
            echo = json.loads(echo.read_text())
            assert echo["overrides"] == {"n_macro": 5, "n_micro": 5, "u_end": 0.03}
            assert echo["solver"]["tol_macro"] == echo["solver"]["tol_micro"] == 1e-8

    def test_echo_holds_the_resolved_custom_model(self, tmp_path):
        path = write_bar_config(tmp_path, rve_mesh=None, materials=[], reaction_dofs=[])
        assert main(["run", str(path)]) == 0
        echo = json.loads((tmp_path / "out" / "bar_config_echo.json").read_text())
        assert echo["rve"] == "porous-square" and echo["overrides"] == {"n": 6}
        assert echo["materials"] == [{"E": 100.0, "nu": 0.3, "sigma0": 1.0, "h": 2.0}]
        assert echo["reaction_dofs"] == [5] and echo["control_dof"] == 5
        assert echo["macro_mesh"] == str(tmp_path / "macro.mesh")
        assert "rve_mesh" not in echo and "output_dir" not in echo


class TestModelErrorsBeforeAnyFile:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", ["pixelated-empty", "out-of-range-dof"])
    def test_config_error_leaves_no_file(self, tmp_path, capsys, case, workers):
        # every scheme's model is built before the output directory exists
        if case == "pixelated-empty":
            path = write_tiny_config(tmp_path, output_dir="out", overrides={"n_micro": 1})
        else:
            path = write_bar_config(tmp_path, dirichlet=[[0, 0.0], [8, 0.0]],
                                    schemes=["staggered", "monolithic-stored"])
        assert main(["run", str(path), "--workers", str(workers)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("out/*"))

    def test_macro_mesh_cut_in_two_is_a_config_error(self, tmp_path, capsys):
        # one row of elements: the mid-span notch leaves the two halves of
        # the beam joined at a single node
        path = write_tiny_config(tmp_path, output_dir="out", benchmark="notched-bending-2d",
                                 overrides={"ny": 1})
        assert main(["run", str(path)]) == 2
        assert ("overrides {'nx': 10, 'ny': 1, 'n_micro': 6, 'f_end': -0.25}: the macro mesh "
                "falls apart into 2 pieces that share no element edge") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rigid_body_mode_is_a_config_error(self, tmp_path, capsys):
        # one fixed DOF leaves the quad free to move rigidly: the elastic
        # macro stiffness is factorized once when the model is built
        path = write_bar_config(tmp_path, dirichlet=[[0, 0.0]], point_loads=[[5, 1.0]])
        assert main(["run", str(path)]) == 2
        assert ("config error: dirichlet: the prescribed DOFs leave the macro mesh a "
                "rigid-body motion (singular elastic stiffness at DOF ") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_floating_micro_piece_is_a_config_error(self, tmp_path, capsys, workers):
        # a 6 x 6 quad RVE without the ring of elements around its centre
        # 2 x 2 block: the block floats, held by neither the periodic
        # constraints nor the anchor, so the virgin micro stiffness, factorized
        # once when the model is built, is singular at one of its nodes
        nodes, conn = grid_quads(6, 6)
        i, j = np.divmod(np.arange(36), 6)
        ring = np.maximum(np.abs(i - 2.5), np.abs(j - 2.5))
        nodes, conn, ring = benchmarks.drop_elements(nodes, conn, ring == 1.5, aux=ring)
        write_mesh(Mesh(nodes, [ElementBlock(QUAD4, conn)]), tmp_path / "island.mesh")
        path = write_bar_config(tmp_path, rve_mesh="island.mesh",
                                schemes=["staggered", "monolithic-stored"])
        assert main(["run", str(path), "--workers", str(workers)]) == 2
        err = capsys.readouterr().err
        prefix = "config error: rve: the elastic micro stiffness is singular at node "
        assert prefix in err
        assert ("): a piece of the mesh is not held by the periodic constraints and the "
                "anchor") in err
        node = int(err.split(prefix)[1].split()[0])
        assert node in np.unique(conn[ring == 0.5])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mesh, line, text, message", [
        pytest.param("macro.mesh", 6, "elements 0", "the macro mesh has no element", id="macro"),
        pytest.param("micro.mesh", 6, "elements 0", "rve: the micro mesh has no element",
                     id="micro"),
        pytest.param("macro.mesh", 7, "0 quad4 0 2 3 1", "element 0: non-positive Jacobian",
                     id="inverted"),
        pytest.param("micro.mesh", 7, "0 quad4 0 2 3 1", "rve: element 0: non-positive Jacobian",
                     id="inverted-micro"),
    ])
    def test_bad_mesh_is_a_config_error(self, tmp_path, capsys, mesh, line, text, message):
        path = write_bar_config(tmp_path)
        lines = (tmp_path / mesh).read_text().splitlines()
        lines[line:] = [text]  # the rows after it go: a mesh file lists no undeclared row
        (tmp_path / mesh).write_text("\n".join(lines) + "\n")
        assert main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, overrides, message", [
        pytest.param("plate-hole-tension", {"n_macro": 3, "n_micro": 20},
                     "rve: micro problem: 676 unknowns", id="micro"),
        pytest.param("notched-bending-2d", {"nx": 48, "ny": 6},
                     "macro system: 672 unknowns", id="macro"),
    ])
    def test_dense_size_limit_is_a_config_error(self, tmp_path, capsys, name, overrides, message):
        path = write_tiny_config(tmp_path, output_dir="out", benchmark=name,
                                 overrides=overrides)
        assert main(["run", str(path)]) == 2
        resolved = {**benchmarks.builder_defaults(name), **overrides}
        assert (f"overrides {resolved}: {message} exceed the dense solver's limit of "
                f"{MAX_DENSE_N}") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestMainEntry:
    def test_exit_code_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_check_command(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6

    def test_run_command(self, tmp_path):
        path = write_tiny_config(tmp_path, output_dir="cli_out",
                                 schemes=["monolithic-stored"])
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "cli_out" / "notched-shear_monolithic-stored_curve.csv").exists()

    def test_a_dead_worker_is_named_and_the_accepted_increments_kept(self, tmp_path, capsys,
                                                                     monkeypatch):
        # worker 1 of 2 (14 of the 29 RVEs) ends at its third monolithic
        # sweep, as a process the OOM killer or a signal ends would: exit 1
        # with a message that names it, no traceback, every worker reaped,
        # and the curve and stats of the increments accepted before it
        sweep, calls = macro._Shard.monolithic, [0]

        def dies_at_third_sweep(shard, *args):
            calls[0] += 1  # each forked worker counts its own calls
            if shard.rves.b == 14 and calls[0] == 3:
                os._exit(9)
            return sweep(shard, *args)

        monkeypatch.setattr(macro._Shard, "monolithic", dies_at_third_sweep)
        path = write_tiny_config(tmp_path, output_dir="dead", schemes=["monolithic-stored"],
                                 overrides={"n_macro": 4, "n_micro": 3})
        assert main(["run", str(path), "--workers", "2"]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: worker 1 \(pid \d+\) exited with code 9 during the pool's "
                            r"'monolithic' call\n", err)
        assert multiprocessing.active_children() == []
        out = tmp_path / "dead"
        curve = (out / "notched-shear_monolithic-stored_curve.csv").read_text().splitlines()
        stats = read_stats_csv(out / "notched-shear_monolithic-stored_stats.csv")
        assert curve[:2] == ["load_factor,control_value,reaction", "0,0,0"]
        assert len(curve) == 3 and [r["increment"] for r in stats] == ["1"]
        assert (out / "notched-shear_summary.csv").exists()

    def test_bench_is_a_run_of_the_bare_benchmark_config(self, tmp_path, monkeypatch):
        # one benchmark name, one model and solver: the shipped ones
        monkeypatch.delenv("FESCALE_WORKERS", raising=False)
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"benchmark": "notched-shear", "schemes": ["monolithic-stored"]}))
        assert main(["run", str(path)]) == 0
        assert main(["bench", "notched-shear", "--schemes", "monolithic-stored",
                     "--out", str(tmp_path / "bench")]) == 0
        name = "notched-shear_monolithic-stored_curve.csv"
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "bench" / name).read_bytes()

    def test_scheme_flag_overrides_config(self, tmp_path):
        path = write_tiny_config(tmp_path, output_dir="cli_out2")
        assert main(["run", str(path), "--schemes", "staggered"]) == 0
        out = tmp_path / "cli_out2"
        assert (out / "notched-shear_staggered_curve.csv").exists()
        assert not (out / "notched-shear_monolithic-stored_curve.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--schemes", "bogus"], "unknown scheme 'bogus'"),
        (["--workers", "-3"], "parallel_workers must be >= 1"),
    ])
    def test_bad_flag_is_a_config_error(self, tmp_path, capsys, flags, message):
        path = write_tiny_config(tmp_path, output_dir="cli_out3")
        assert main(["run", str(path)] + flags) == 2
        assert f"command line: {message}" in capsys.readouterr().err
        assert not (tmp_path / "cli_out3").exists()

    @pytest.mark.parametrize("config, env, flag, expected", [
        (2, None, None, 2),
        (2, "1", None, 2),
        (None, "2", None, 2),
        (2, "2", "1", 1),
        (None, None, None, 1),
    ])
    def test_worker_count_precedence(self, tmp_path, monkeypatch, config, env, flag, expected):
        # the --workers flag, then solver.parallel_workers, then FESCALE_WORKERS, then 1
        solver = dict(TINY["solver"], **({} if config is None else {"parallel_workers": config}))
        path = write_tiny_config(tmp_path, output_dir="wk", schemes=["monolithic-stored"],
                                 solver=solver)
        if env is None:
            monkeypatch.delenv("FESCALE_WORKERS", raising=False)
        else:
            monkeypatch.setenv("FESCALE_WORKERS", env)
        assert main(["run", str(path)] + ([] if flag is None else ["--workers", flag])) == 0
        echo = json.loads((tmp_path / "wk" / "notched-shear_config_echo.json").read_text())
        assert echo["solver"]["parallel_workers"] == expected

    @pytest.mark.parametrize("env", ["abc", "0", "-2", "1.5", ""])
    def test_bad_worker_variable_is_a_config_error(self, tmp_path, monkeypatch, capsys, env):
        monkeypatch.setenv("FESCALE_WORKERS", env)
        path = write_tiny_config(tmp_path, output_dir="wk_bad")
        assert main(["run", str(path)]) == 2
        assert f"FESCALE_WORKERS: expected an integer >= 1, got {env!r}" in capsys.readouterr().err
        assert not (tmp_path / "wk_bad").exists()

    @pytest.mark.parametrize("env", ["1_0", "\u0662", "+\u0662", " 2"])
    def test_worker_variable_takes_plain_ascii_digits(self, monkeypatch, env):
        # parsed only: a run that took the value would start its workers
        monkeypatch.setenv("FESCALE_WORKERS", env)
        with pytest.raises(ConfigError) as info:
            parse_config(TINY)
        assert str(info.value) == f"FESCALE_WORKERS: expected an integer >= 1, got {env!r}"


# Fuzzing through the command line: a malformed config or mesh file ends
# with exit 2 (a configuration error) or a clean run (exit 0, or 1 when a
# scheme does not converge), never with an exception. Examples are drawn
# from a fixed seed and every run is serial, so the tests are deterministic.
FUZZ = settings(derandomize=True, max_examples=100, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 9) | st.floats(-1e3, 1e3)
                | st.sampled_from([float("nan"), float("inf"), 0.5, 1e300])
                | st.text("abx-/ .", max_size=4))
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["E", "nu", "sigma0", "h", "n", "x"]), inner, max_size=3),
    max_leaves=6)
CONFIG_FIELDS = ["name", "benchmark", "schemes", "overrides", "elastic_only", "rve", "rve_mesh",
                 "materials", "dirichlet", "point_loads", "control_dof", "reaction_dofs"]
MESH_TOKENS = st.sampled_from(["0", "1", "2", "3", "4", "-1", "9", "0.5", "1e400", "nan",
                               "99999999999", "tri3", "quad4", "nodes", "elements", "x"])


def run_cli(config_path):
    """Exit code and stderr of ``fescale run``; an exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", str(config_path)])
    assert code in (0, 1, 2), err.getvalue()
    assert (code == 2) == ("error:" in err.getvalue()), err.getvalue()
    return code


class TestFuzz:
    @FUZZ
    @given(edits=st.dictionaries(st.sampled_from(CONFIG_FIELDS), JSON_VALUES
                                 | st.sampled_from(["laminate", "composite", "porous-square"]),
                                 min_size=1, max_size=3))
    @example(edits={"rve_mesh": None, "rve": "laminate"})  # a built-in RVE short of materials
    def test_malformed_config_exits_2_or_runs(self, edits, monkeypatch):
        monkeypatch.delenv("FESCALE_WORKERS", raising=False)
        with tempfile.TemporaryDirectory() as tmp:
            run_cli(write_bar_config(pathlib.Path(tmp), **edits))

    @FUZZ
    @given(which=st.sampled_from(["macro.mesh", "micro.mesh"]), data=st.data())
    def test_malformed_mesh_exits_2_or_runs(self, which, data, monkeypatch):
        monkeypatch.delenv("FESCALE_WORKERS", raising=False)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_bar_config(pathlib.Path(tmp))
            lines = (pathlib.Path(tmp) / which).read_text().splitlines()
            k = data.draw(st.integers(0, len(lines)))
            edit = data.draw(st.sampled_from(["token", "replace", "insert", "truncate"]))
            if edit == "token" and k < len(lines):
                tokens = lines[k].split()
                tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(MESH_TOKENS)
                lines[k] = " ".join(tokens)
            elif edit == "truncate":
                lines = lines[:k]
            else:
                lines[k:k + (edit == "replace")] = [" ".join(data.draw(st.lists(MESH_TOKENS, max_size=5)))]
            (pathlib.Path(tmp) / which).write_text("\n".join(lines) + "\n")
            run_cli(cfg)
