"""Count the code lines of Python modules: non-blank lines outside comments and docstrings.

Usage: python tools/code_lines.py [PATH ...]   (default: src/fescale)

A path is a module or a directory, searched for ``*.py`` recursively. A
line counts when a token other than a comment starts, ends or continues on
it, and it is not part of a module, class or function docstring (found
with ``ast``). Prints one line per module and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path) -> int:
    """The number of code lines of the module at ``path``."""
    source = Path(path).read_text()
    text = source.splitlines()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    lines -= docstring_lines(ast.parse(source))
    return sum(1 for k in lines if text[k - 1].strip())


def modules(paths):
    for p in map(Path, paths):
        yield from sorted(p.rglob("*.py")) if p.is_dir() else [p]


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or ["src/fescale"]
    total = 0
    for path in modules(paths):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
