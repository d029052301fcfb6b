"""Check that two output directories of fescale hold the same results.

Usage: python tools/same_results.py DIR_A DIR_B

Both directories must hold the same file names. Every ``*_curve.csv`` must
be byte-identical, and every ``*_stats.csv`` equal in every column but
``wall_ms``, the one column that measures time rather than the solve.
Other files are only checked for presence. Exits 0 when the results are
the same; otherwise prints the first difference (file, row, column), then
one line per differing column of every stats file, with the column's total
in A and in B and the number of rows that differ, and exits 1.
"""

from __future__ import annotations

import csv
import sys
from itertools import zip_longest
from pathlib import Path

TIME_COLUMNS = {"wall_ms"}


def field_difference(a: Path, b: Path, skip=()):
    """The first differing field of two CSVs outside the ``skip`` columns, or None.

    Rows are numbered from 0, the header row; columns are named by ``a``'s header.
    """
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    header = rows_a[0] if rows_a else []
    for k, (ra, rb) in enumerate(zip_longest(rows_a, rows_b, fillvalue=[])):
        for j, (va, vb) in enumerate(zip_longest(ra, rb, fillvalue="")):
            name = header[j] if j < len(header) else str(j)
            if va != vb and name not in skip:
                return f"{b.name}: row {k}, column {name}: {va} != {vb}"
    return None


def _number(text):
    try:
        return int(text)
    except ValueError:
        return float(text)


def column_changes(a: Path, b: Path, skip=()):
    """One line per column of two CSVs that differs outside ``skip``: totals in A and B, rows differing.

    Columns are named by ``a``'s header; a blank or missing field counts 0.
    """
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    header = rows_a[0] if rows_a else []
    for j, name in enumerate(header):
        if name in skip:
            continue
        col_a, col_b = ([r[j] if j < len(r) else "" for r in rows[1:]] for rows in (rows_a, rows_b))
        rows = sum(va != vb for va, vb in zip_longest(col_a, col_b, fillvalue=""))
        if rows:
            total_a, total_b = (sum(_number(v) for v in col if v) for col in (col_a, col_b))
            yield (f"{b.name}: column {name}: total {total_a} in A, {total_b} in B; "
                   f"differs in {rows} of {max(len(col_a), len(col_b))} rows")


def stats_changes(dir_a, dir_b):
    """:func:`column_changes` of every stats file the two directories share."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    for a in sorted(dir_a.glob("*_stats.csv")):
        if (dir_b / a.name).is_file():
            yield from column_changes(a, dir_b / a.name, TIME_COLUMNS)


def difference(dir_a, dir_b):
    """The first difference between the results of two directories, or None."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names_a = sorted(p.name for p in dir_a.iterdir() if p.is_file())
    names_b = sorted(p.name for p in dir_b.iterdir() if p.is_file())
    if names_a != names_b:
        only = sorted(set(names_a) ^ set(names_b))
        return f"file sets differ: {only[0]} is in one directory only"
    for name in names_a:
        a, b = dir_a / name, dir_b / name
        if name.endswith("_curve.csv") and a.read_bytes() != b.read_bytes():
            return field_difference(a, b) or f"{name}: bytes differ outside the CSV fields"
        if name.endswith("_stats.csv"):
            found = field_difference(a, b, TIME_COLUMNS)
            if found:
                return found
    return None


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    found = difference(*args)
    if found:
        print(f"differ: {found}")
        for line in stats_changes(*args):
            print(line)
        return 1
    print(f"same results: {args[0]} and {args[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
