"""Tests for the repository tools under tools/."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string that is not a docstring

    keeps its non-blank lines"""
    return (x +
            1)


class C:
    """Class docstring."""

    y = 1
'''


def test_code_lines_skips_comments_docstrings_and_blanks(tmp_path):
    code_lines = load("code_lines")
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, def, text (2 non-blank lines), return (2 lines), class, y
    assert code_lines.code_lines(path) == 8


def test_code_lines_totals_a_directory(tmp_path, capsys):
    code_lines = load("code_lines")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["8", "1", "9"]
    assert out[-1].split()[1] == "total"


CURVE = "load_factor,control_value,reaction\n0,0,0\n0.5,0.0015,0.018031598736147073\n"
STATS = ("increment,dt,macro_iters,micro_iters_total,factorizations,wall_ms\n"
         "1,0.5,2,56,0,3.9705359959043562\n2,0.5,3,60,12,3.6224209907231852\n")


def results_dir(path, curve=CURVE, stats=STATS):
    path.mkdir()
    (path / "bench_staggered_curve.csv").write_text(curve)
    (path / "bench_staggered_stats.csv").write_text(stats)
    (path / "bench_summary.csv").write_text("benchmark,wall_ms_total\nbench,7.59\n")
    return path


def test_same_results_passes_identical_directories(tmp_path, capsys):
    same_results = load("same_results")
    a, b = results_dir(tmp_path / "a"), results_dir(tmp_path / "b")
    assert same_results.main([str(a), str(b)]) == 0
    assert "same results" in capsys.readouterr().out


def test_same_results_fails_on_a_changed_reaction_digit(tmp_path, capsys):
    same_results = load("same_results")
    a = results_dir(tmp_path / "a")
    b = results_dir(tmp_path / "b", curve=CURVE.replace("0.018031598736147073", "0.018031598736147074"))
    assert same_results.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "bench_staggered_curve.csv: row 2, column reaction" in out


def test_same_results_ignores_a_wall_time_change(tmp_path):
    same_results = load("same_results")
    a = results_dir(tmp_path / "a")
    b = results_dir(tmp_path / "b", stats=STATS.replace("3.9705359959043562", "4.1"))
    c = results_dir(tmp_path / "c", stats=STATS.replace(",12,", ",13,"))
    (b / "bench_summary.csv").write_text("benchmark,wall_ms_total\nbench,8.01\n")
    assert same_results.main([str(a), str(b)]) == 0
    assert same_results.difference(a, c) == "bench_staggered_stats.csv: row 2, column factorizations: 12 != 13"


def test_same_results_lists_every_differing_stats_column(tmp_path, capsys):
    same_results = load("same_results")
    a = results_dir(tmp_path / "a")
    b = results_dir(tmp_path / "b", stats=STATS.replace(",12,", ",13,").replace(",56,", ",50,")
                    .replace(",60,", ",61,").replace("3.9705359959043562", "4.1"))
    assert same_results.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "differ: bench_staggered_stats.csv: row 1, column micro_iters_total: 56 != 50",
        "bench_staggered_stats.csv: column micro_iters_total: total 116 in A, 111 in B; differs in 2 of 2 rows",
        "bench_staggered_stats.csv: column factorizations: total 12 in A, 13 in B; differs in 1 of 2 rows",
    ]


def canned_run(parent, change, failed=0, change_failed=None, change_drops=()):
    """A stand-in for one perfbench run: per tree, the next of its canned solve_s.staggered values.

    Each run fails ``failed`` solves, a change run ``change_failed`` if given;
    a change run leaves out the metrics ``change_drops``.
    """
    values = {"parent": iter(parent), "change": iter(change)}
    failures = {"parent": failed, "change": failed if change_failed is None else change_failed}

    def run(tree, workload):
        side = "parent" if tree.endswith("parent") else "change"
        metrics = {"solve_s.staggered": {"value": next(values[side]), "unit": "s"},
                   "peak_rss_mb": {"value": 60.0, "unit": "MiB"}}
        for name in change_drops if side == "change" else ():
            del metrics[name]
        result = {"correct": not failures[side], "attempted": 3, "failed": failures[side], "metrics": metrics}
        return "round 1 ok\n" + json.dumps(result) + "\n"

    return run


def ab_trees(tmp_path):
    spec = {"end_to_end": [{"name": "solve_s.staggered", "unit": "s", "better": "lower", "bound": 0.25},
                           {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1}]}
    for name in ("parent", "change"):
        (tmp_path / name).mkdir(exist_ok=True)
        (tmp_path / name / "BENCHMARK.json").write_text(json.dumps(spec))
    return [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "plate-hole", "--pairs", "10"]


def test_ab_pairs_judges_a_claim_and_the_bounds_from_canned_runs(tmp_path, capsys):
    ab_pairs = load("ab_pairs")
    parent = [0.085, 0.086, 0.084, 0.087, 0.085, 0.086, 0.085, 0.084, 0.088, 0.085]
    change = [0.081, 0.082, 0.080, 0.083, 0.090, 0.081, 0.082, 0.080, 0.083, 0.081]
    assert ab_pairs.main(ab_trees(tmp_path), run=canned_run(parent, change)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["parent: 0 of 30 solves failed", "change: 0 of 30 solves failed"]
    assert out[2].startswith("solve_s.staggered (s): parent 0.085 (IQR 0.001), change 0.0815 (-4.1 %)")
    assert out[2].endswith("wins 9/10, claim holds, bound holds")
    assert out[3] == "  pairs parent/change: " + ", ".join(f"{p:g}/{c:g}" for p, c in zip(parent, change))
    # equal values win no pair and claim nothing, but stay within the bound
    assert out[4].endswith("wins 0/10, claim fails, bound holds")


def test_ab_pairs_fails_a_broken_bound_and_a_failed_solve(tmp_path, capsys):
    ab_pairs = load("ab_pairs")
    parent, change = [0.08] * 10, [0.11] * 10
    assert ab_pairs.main(ab_trees(tmp_path), run=canned_run(parent, change)) == 1
    assert "wins 0/10, claim fails, bound fails" in capsys.readouterr().out
    assert ab_pairs.main(ab_trees(tmp_path), run=canned_run(parent, parent, failed=1)) == 1
    assert "parent: 10 of 30 solves failed" in capsys.readouterr().out


def test_ab_pairs_fails_a_metric_missing_from_some_runs(tmp_path, capsys):
    ab_pairs = load("ab_pairs")
    parent = [0.085] * 10
    run = canned_run(parent, parent, change_drops=["solve_s.staggered"])
    assert ab_pairs.main(ab_trees(tmp_path), run=run) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "solve_s.staggered: missing from some runs"
    assert out[3].startswith("peak_rss_mb (MiB): parent 60") and out[3].endswith("bound holds")


@pytest.mark.parametrize("parent_failed, change_failed, claim", [(0, 1, "fails"), (1, 0, "holds")])
def test_ab_pairs_claims_no_gain_for_a_change_that_fails_more_solves(tmp_path, capsys, parent_failed,
                                                                      change_failed, claim):
    # the timings alone make the claim; a failed solve still fails the set
    ab_pairs = load("ab_pairs")
    parent = [0.085, 0.086, 0.084, 0.087, 0.085, 0.086, 0.085, 0.084, 0.088, 0.085]
    change = [0.081, 0.082, 0.080, 0.083, 0.090, 0.081, 0.082, 0.080, 0.083, 0.081]
    run = canned_run(parent, change, failed=parent_failed, change_failed=change_failed)
    assert ab_pairs.main(ab_trees(tmp_path), run=run) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [f"parent: {10 * parent_failed} of 30 solves failed",
                       f"change: {10 * change_failed} of 30 solves failed"]
    assert out[2].endswith(f"wins 9/10, claim {claim}, bound holds")


def test_ab_pairs_judges_the_pairs_left_when_a_run_fails(tmp_path, capsys):
    # pair 2's second run (the parent's, as odd pairs run the change first)
    # exits non-zero: it is reported and counted, its pair is left out, and
    # the nine complete pairs, each printed as it completed, are judged
    ab_pairs = load("ab_pairs")
    parent = [0.085, 0.086, 0.084, 0.087, 0.085, 0.086, 0.085, 0.084, 0.088, 0.085]
    change = [0.081, 0.082, 0.080, 0.083, 0.090, 0.081, 0.082, 0.080, 0.083, 0.081]
    canned = canned_run(parent, change)
    runs = []

    def run(tree, workload):
        runs.append(tree)
        stdout = canned(tree, workload)
        if len(runs) == 4:
            raise subprocess.CalledProcessError(1, ["perfbench/run.py"], stdout, "Traceback\nMemoryError\n")
        return stdout

    assert ab_pairs.main(ab_trees(tmp_path), run=run) == 1
    assert len(runs) == 20
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert err[0] == "pair 1/10 parent/change: solve_s.staggered 0.085/0.081, peak_rss_mb 60/60"
    assert err[1] == "pair 2/10: the parent run failed: exit status 1: MemoryError"
    assert err[2].startswith("pair 3/10 parent/change: solve_s.staggered 0.084/0.08,")
    assert len(err) == 10
    out = captured.out.splitlines()
    assert out[:3] == ["1 of 20 runs failed; 9 of 10 pairs completed",
                       "parent: 0 of 27 solves failed", "change: 0 of 27 solves failed"]
    assert out[3].endswith("wins 8/9, claim fails, bound holds")
    kept = [0] + list(range(2, 10))
    assert out[4] == "  pairs parent/change: " + ", ".join(f"{parent[i]:g}/{change[i]:g}" for i in kept)


def test_ab_pairs_judges_nothing_without_two_complete_pairs(tmp_path, capsys):
    ab_pairs = load("ab_pairs")

    def run(tree, workload):
        raise subprocess.CalledProcessError(2, ["perfbench/run.py"], "", "")

    assert ab_pairs.main(ab_trees(tmp_path)[:-1] + ["2"], run=run) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["4 of 4 runs failed; 0 of 2 pairs completed",
                   "fewer than two pairs completed: nothing is judged"]


def test_shard_replay_finds_a_tree_identical_to_itself(capsys):
    # both trees are this repository: every replay leaves the same arrays
    shard_replay = load("shard_replay")
    root = str(TOOLS.parent)
    assert shard_replay.main([root, root, "--workload", "notched-shear-2w", "--scheme", "staggered",
                              "--pairs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "notched-shear-2w staggered: 21 requests replayed on 23 RVEs, 2 pairs"
    assert out[2].startswith("ratio change/parent: median ")
    assert out[-1] == "bit-identical"
