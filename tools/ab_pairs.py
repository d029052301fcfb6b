"""Alternate perfbench runs of two source trees and judge each end-to-end metric.

Usage: python tools/ab_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N

Each pair runs ``perfbench/run.py --workload W --trace 0`` once in each
tree, from that tree's own directory, the parent first in even pairs and the
change first in odd ones, and reads the JSON object on each run's last
line, whose ``metrics`` map each name to its ``value``. The end-to-end
metrics, their direction and bound come from CHANGE_TREE's
``BENCHMARK.json``. As each pair completes, its values go to standard
error, so a set that is stopped keeps what it measured. A run that exits
non-zero or prints no result is reported there and counted as failed, and
its pair is left out; the set goes on. Then, over the complete pairs, it
prints per metric the parent's median and interquartile range (IQR), the
change's median and its relative gap, the pairs the change won, and two
verdicts, then every pair's values:

- claim: the change won at least 9 of every 10 pairs, its median beats
  the parent's by more than the parent's IQR, and it failed no more solves
  than the parent;
- bound: the change's median is not worse than the parent's by more than
  the metric's bound, a fraction of the parent's median.

Exits 1 when a bound does not hold, a metric is missing from a run, a run
failed or failed a solve, or fewer than two pairs completed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CLAIM_WINS = 0.9  # share of pairs a claimed gain must win


def last_json(stdout: str) -> dict:
    """The JSON object on the last non-blank line of a perfbench run's standard output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def run_perfbench(tree, workload) -> str:
    """Standard output of one untraced perfbench run in ``tree``, run from that directory.

    A run that exits non-zero raises :class:`subprocess.CalledProcessError`.
    """
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=True)
    return done.stdout


def failure(exc):
    """One line on a failed run: its exit status and the last line it wrote to standard error."""
    if isinstance(exc, subprocess.CalledProcessError):
        lines = [line for line in (exc.stderr or "").splitlines() if line.strip()]
        return f"exit status {exc.returncode}" + (f": {lines[-1]}" if lines else "")
    return str(exc)


def pair_value(result, name):
    metric = result["metrics"].get(name)
    return "missing" if metric is None else f"{metric['value']:.6g}"


def iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def judge(metric, parent, change, claimable=True):
    """The verdict on one end-to-end ``metric`` (a BENCHMARK.json entry) from paired values.

    With ``claimable`` false (the change failed more solves) no gain is claimed.
    """
    sign = 1.0 if metric["better"] == "lower" else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    spread = iqr(parent)
    gain = sign * (med_p - med_c)  # > 0: the change is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    return {
        "name": metric["name"], "unit": metric["unit"], "parent": med_p, "change": med_c,
        "iqr": spread, "rel": (med_c - med_p) / med_p if med_p else 0.0,
        "wins": wins, "pairs": len(parent),
        "claim": claimable and wins >= CLAIM_WINS * len(parent) and gain > spread,
        "bound": -gain <= metric["bound"] * abs(med_p),
    }


def report_line(v):
    return (f"{v['name']} ({v['unit']}): parent {v['parent']:.6g} (IQR {v['iqr']:.3g}), "
            f"change {v['change']:.6g} ({100 * v['rel']:+.1f} %), wins {v['wins']}/{v['pairs']}, "
            f"claim {'holds' if v['claim'] else 'fails'}, bound {'holds' if v['bound'] else 'fails'}")


def main(argv=None, run=run_perfbench):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent_tree, "change": args.change_tree}
    spec = json.loads((Path(args.change_tree) / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec["end_to_end"]]
    results = {"parent": [], "change": []}
    crashed = 0
    for i in range(args.pairs):
        pair = {}
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            try:
                pair[side] = last_json(run(trees[side], args.workload))
            except (subprocess.CalledProcessError, ValueError) as exc:
                crashed += 1
                print(f"pair {i + 1}/{args.pairs}: the {side} run failed: {failure(exc)}", file=sys.stderr)
        if len(pair) < 2:
            continue
        for side, result in pair.items():
            results[side].append(result)
        print(f"pair {i + 1}/{args.pairs} parent/change: " + ", ".join(
            f"{name} {pair_value(pair['parent'], name)}/{pair_value(pair['change'], name)}" for name in names),
            file=sys.stderr)
    ok = crashed == 0
    if crashed:
        print(f"{crashed} of {2 * args.pairs} runs failed; "
              f"{len(results['parent'])} of {args.pairs} pairs completed")
    if len(results["parent"]) < 2:
        print("fewer than two pairs completed: nothing is judged")
        return 1
    failed = {side: sum(r["failed"] for r in runs) for side, runs in results.items()}
    for side, runs in results.items():
        print(f"{side}: {failed[side]} of {sum(r['attempted'] for r in runs)} solves failed")
    ok &= not any(failed.values())
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if not all(name in r["metrics"] for runs in results.values() for r in runs):
            print(f"{name}: missing from some runs")
            ok = False
            continue
        parent, change = ([r["metrics"][name]["value"] for r in results[s]] for s in ("parent", "change"))
        verdict = judge(metric, parent, change, claimable=failed["change"] <= failed["parent"])
        print(report_line(verdict))
        print("  pairs parent/change: " + ", ".join(f"{p:.6g}/{c:.6g}" for p, c in zip(parent, change)))
        ok &= verdict["bound"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
