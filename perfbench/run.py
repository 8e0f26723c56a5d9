"""Benchmark of auxopt: one command per workload, end-to-end or traced.

    python3 perfbench/run.py --workload toy_algorithms --seed 1 --seconds 32 --trace 0

Generates the workload's inputs from ``--seed``, then runs ``WORKERS``
worker processes one after another, with BLAS pinned to one thread.  Each
worker sets auxopt up once (timed) and runs whole rounds of the workload for
its share of ``--seconds``, checking every round's outputs.  Medians over
workers (set-up, memory) and over all rounds (wall time) damp the
process-to-process spread of a small shared machine.

With ``--trace 1`` the first worker runs untraced and the others traced;
their outputs must be byte-identical, and the per-layer metrics come from the
traced ones.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Run outputs go under
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import params

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 6
DEADLINE_S = 170.0
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer metrics that are counts at the oracle boundary; the others are
# span fields, ``<span>.<calls|s|self_s>``.  Figures are per one set-up plus
# one round; a layer that does not run on a workload reads 0.
COUNTS = {"problems.draws_f": "draws_f", "problems.draws_h": "draws_h",
          "problems.draws_fmh": "draws_fmh", "problems.exact_f_steps": "exact_f_steps",
          "optimizers.rows": "rows"}
SPAN_FIELDS = {"calls": 0, "s": 1, "self_s": 2}


def per_setup_and_round(workers: list[dict], pick) -> float:
    """Mean over workers of the set-up share plus mean over rounds of the rest."""
    n_rounds = sum(len(w["rounds"]) for w in workers)
    setup = sum(pick(w["after_setup"]) for w in workers) / len(workers)
    rest = sum(pick(w["at_end"]) - pick(w["after_setup"]) for w in workers) / n_rounds
    return setup + rest


def layer_metrics(traced: list[dict], names: list[str]) -> tuple[dict, float]:
    def span_field(span, col):
        return lambda snap: snap["stats"].get(span, [0, 0.0, 0.0])[col]

    metrics = {}
    for name in names:
        if name in COUNTS:
            pick = lambda snap, key=COUNTS[name]: snap["counts"].get(key, 0)
            metrics[name] = per_setup_and_round(traced, pick)
        elif name == "harness.csv_bytes":
            metrics[name] = statistics.fmean(r["csv_bytes"] for w in traced for r in w["rounds"])
        elif name == "decentralized.billed_fmh_per_draw":
            billed = per_setup_and_round(traced, lambda s: s["counts"].get("billed_fmh", 0))
            drawn = per_setup_and_round(traced, lambda s: s["counts"].get("draws_fmh", 0))
            metrics[name] = billed / drawn if billed else 0.0
        else:
            span, field = name.rsplit(".", 1)
            metrics[name] = per_setup_and_round(traced, span_field(span, SPAN_FIELDS[field]))
    self_sum = per_setup_and_round(
        traced, lambda snap: sum(s[2] for s in snap["stats"].values()))
    return metrics, self_sum


def run_workers(args, inputs: Path, work: Path, start: float) -> list[dict]:
    results, used = [], 0.0
    for i in range(WORKERS):
        result = work / f"worker{i}.json"
        wdir = work / f"w{i}"
        wdir.mkdir()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--inputs", str(inputs), "--work", str(wdir),
               "--seconds", str(max(0.0, args.seconds - used) / (WORKERS - i)),
               "--trace", str(int(args.trace and i > 0)), "--result", str(result)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {i} exited {proc.returncode}:\n{proc.stderr}")
        results.append(json.loads(result.read_text()))
        used += results[-1]["measured_s"]
    return results


def summarise(args, workers: list[dict], units: dict) -> tuple[dict, dict]:
    rounds = [r for w in workers for r in w["rounds"]]
    issues = [i for r in rounds for i in r["issues"]]
    if len({r["digest"] for r in rounds}) != 1:
        issues.append("round outputs differ between rounds or between traced and untraced")
    if len({r["target_grad_calls"] for r in rounds}) != 1:
        issues.append("target-gradient draws differ between rounds")
    report = {"workers": [{"setup_s": w["setup_s"], "peak_rss_mb": w["peak_rss_mb"],
                           "wall_s": [r["wall_s"] for r in w["rounds"]]} for w in workers]}
    if args.trace:
        traced = workers[1:]
        metrics, self_sum = layer_metrics(traced, list(units))
        setup = statistics.fmean(w["setup_s"] for w in traced)
        wall = statistics.fmean(r["wall_s"] for w in traced for r in w["rounds"])
        if self_sum > setup + wall:
            issues.append(f"span self times {self_sum:.6g} s exceed set-up + wall "
                          f"{setup + wall:.6g} s")
        report.update({"untraced_wall_s": statistics.fmean(
                           r["wall_s"] for r in workers[0]["rounds"]),
                       "traced_wall_s": wall, "traced_setup_s": setup,
                       "span_self_sum_s": self_sum})
    else:
        metrics = {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
            "target_grad_calls": rounds[0]["target_grad_calls"],
        }
    result = {
        "correct": not issues,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report.update(result, issues=issues, rounds=len(rounds))
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=params.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    if not (ROOT / "src" / "auxopt" / "__init__.py").is_file():
        print(f"no auxopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREADS:
        os.environ[var] = "1"  # inherited by the workers

    import inputs  # imports numpy, which reads the BLAS settings

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    out = HERE / "out"
    work = out / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs.make(args.workload, args.seed, work / "inputs")
        workers = run_workers(args, work / "inputs", work, start)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result, report = summarise(args, workers, units)
    (out / f"{args.workload}_trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    for issue in report["issues"]:
        print(f"check failed: {issue}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
