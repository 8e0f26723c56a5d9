"""Alternating parent/change pairs of one benchmark workload.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload logistic_sweep \
        [--pairs 10] [--seconds 8] [--report BENCH_<pr>.json]

Each directory is a checkout holding ``src/``, ``perfbench/`` and
``BENCHMARK.json``.  Pair i (1, 2, ...) runs ``perfbench/run.py --workload W
--seed i --seconds S`` in both; the parent runs first in odd pairs and the
change first in even ones, so a drift of the machine's speed falls on both
sides alike.  For each end-to-end metric of the parent's ``BENCHMARK.json``
it prints both medians, the parent's quartiles, the move of the median
against the metric's bound, in how many pairs the change read better
(ties count for neither) and a verdict, ``worse``, ``better``,
``unresolved`` or ``ok`` (see ``verdict``).  With ``--report``
it also writes these figures as the workload's entry of the ``end_to_end``
section of that JSON file, and the Python, numpy and scipy versions the runs
use as its ``versions`` key, keeping what else the file holds.  Exits 1 when
a run fails or reports itself incorrect.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one ``perfbench/run.py`` run, as parsed JSON."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """In how many pairs the change read better; ties count for neither."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    """``worse`` when the change's median moved the wrong way by more than
    ``bound`` of the parent's; ``better`` when the change won at least 9 in 10
    of the pairs and its median beats the parent's by more than the parent's
    quartile spread, the rule for claiming a gain; ``unresolved`` when the
    parent's quartile spread is wider than ``bound`` of its median and not
    every change run reads better than every parent run; ``ok`` otherwise."""
    sign = 1 if better == "lower" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse"
    q1, q3 = quartiles(parent)
    if 10 * wins(parent, change, better) >= 9 * len(parent) and sign * (p_med - c_med) > q3 - q1:
        return "better"
    beats_all = max(sign * c for c in change) < min(sign * p for p in parent)
    if q3 - q1 > bound * abs(p_med) and not beats_all:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--report", type=Path, help="JSON file to write the figures into")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    runs = {"parent": [], "change": []}
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            try:
                result = run_once(getattr(args, side), args.workload, seed, args.seconds)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            runs[side].append(result)
            print(f"pair {seed} {side}: correct={result['correct']} failed={result['failed']}",
                  flush=True)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    print(f"{args.workload}, {args.pairs} pairs of {args.seconds:g} s runs "
          "(medians; parent quartiles; move against bound; change wins; verdict)")
    entry = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        move = (c_med - p_med) / p_med if p_med else 0.0
        won = wins(parent, change, metric["better"])
        said = verdict(parent, change, metric["bound"], metric["better"])
        print(f"  {name}: {p_med:.6g} -> {c_med:.6g} {metric['unit']} "
              f"[parent {q1:.6g}-{q3:.6g}] {move:+.1%} (bound {metric['bound']:.0%}) "
              f"wins {won}/{args.pairs} {said}")
        entry[name] = {"parent_median": p_med, "change_median": c_med,
                       "parent_quartiles": [q1, q3], "relative_change": round(move, 4),
                       "change_wins": won, "unit": metric["unit"], "verdict": said}
    ok = all(r["correct"] and r["failed"] == 0 for side in runs.values() for r in side)
    print("every run correct with 0 failed" if ok else "some runs incorrect or failed")
    if args.report:
        entry["correct"] = all(r["correct"] for side in runs.values() for r in side)
        entry["failed"] = sum(r["failed"] for side in runs.values() for r in side)
        report = json.loads(args.report.read_text()) if args.report.exists() else {}
        report.setdefault("end_to_end", {})[args.workload] = entry
        report["versions"] = {"python": platform.python_version(), "numpy": version("numpy"),
                              "scipy": version("scipy")}
        args.report.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
