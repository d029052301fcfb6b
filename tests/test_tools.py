"""Tests for the repository tools under tools/."""

import importlib.util
from pathlib import Path

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
