"""One benchmark process: set up auxopt, then run whole rounds of a workload.

Set-up is timed from before ``import auxopt`` to the end of the first oracle
build.  Each round is timed from its start until its last output is written;
its outputs are then checked and deleted.  The process writes a JSON result
file for ``run.py``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from params import ALGORITHMS, LOGISTIC, TOY
from probe import Probe

ROOT = Path(__file__).resolve().parent.parent
LN2 = math.log(2.0)


def read_csv(path: Path) -> list[list]:
    """Rows of an auxopt trajectory CSV, cells as floats (None when empty)."""
    lines = path.read_text().splitlines()
    return [[None if c == "" else float(c) for c in line.split(",")] for line in lines[1:]]


T_, F, G, CF, CFMH = 0, 2, 3, 6, 8  # CSV columns t, f_value, grad_norm_sq, calls_f, calls_fmh


def digest_dir(out: Path, h) -> None:
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out)).encode())
            h.update(path.read_bytes())


def check_calls(issues: list, name: str, rows: list, record: dict) -> None:
    """The CSV's call columns must equal the draws counted at the oracle."""
    drawn = record["draws"]
    counted = (drawn["draws_f"] + drawn["exact_f_steps"], drawn["draws_h"], drawn["draws_fmh"])
    billed = tuple(int(v) for v in rows[-1][CF:])
    if billed != counted:
        issues.append(f"{name}: CSV calls f/h/fmh {billed}, drawn {counted}")


class ToyAlgorithms:
    """All eight algorithms via ``auxopt run`` on the 1-D toy pair."""

    def __init__(self, auxopt, probe: Probe, inputs: Path):
        self.auxopt, self.probe = auxopt, probe
        self.configs = [inputs / f"{alg}.json" for alg in ALGORITHMS]

    def setup(self) -> None:
        harness = self.auxopt.harness
        harness.build_oracle(harness.load_config_file(str(self.configs[0])))

    def round(self, out: Path) -> list[int]:
        main = self.auxopt.cli.main
        return [main(["run", "--config", str(c), "--out", str(out)]) for c in self.configs]

    def check(self, out: Path, runs: list[dict], issues: list) -> int:
        if len(runs) != len(ALGORITHMS) * TOY["repeats"]:
            issues.append(f"{len(runs)} optimisation runs, want one per algorithm and repeat")
            return 0
        for i, (alg, config) in enumerate(zip(ALGORITHMS, self.configs)):
            x0 = json.loads(config.read_text())["x0"][0]
            for r in range(TOY["repeats"]):
                name = f"{alg}_rep{r}.csv"
                rows = read_csv(out / name)
                check_calls(issues, name, rows, runs[TOY["repeats"] * i + r])
                # f = x^2/2 and grad f = x.  auxopt squares f's x with libm pow,
                # which misses x*x by one ulp on about one row in a thousand.
                if any(abs(row[F] - row[G] / 2) > math.ulp(row[G] / 2) for row in rows):
                    issues.append(f"{name}: f_value != grad_norm_sq / 2")
                if alg == "GD":
                    for row in rows:
                        want = (1.0 - TOY["eta"]) ** (2 * int(row[T_])) * x0**2
                        if abs(row[G] - want) > 1e-12 * want:
                            issues.append(f"{name}: t={row[T_]:g} ||grad||^2 {row[G]!r}, "
                                          f"closed form {want!r}")
                            break
        return 0


class LogisticSweep:
    """``auxopt sweep`` over algorithm.K on a generated LIBSVM file."""

    def __init__(self, auxopt, probe: Probe, inputs: Path):
        self.auxopt, self.probe = auxopt, probe
        self.config = inputs / "sweep.json"

    def setup(self) -> None:
        harness = self.auxopt.harness
        harness.build_oracle(harness.load_config_file(str(self.config)))

    def round(self, out: Path) -> list[int]:
        values = ",".join(str(k) for k in LOGISTIC["K_values"])
        return [self.auxopt.cli.main(["sweep", "--config", str(self.config),
                                      "--axis", "algorithm.K", "--values", values,
                                      "--out", str(out)])]

    def check(self, out: Path, runs: list[dict], issues: list) -> int:
        reps, T = LOGISTIC["repeats"], LOGISTIC["T"]
        if len(runs) != len(LOGISTIC["K_values"]) * reps:
            issues.append(f"{len(runs)} optimisation runs, want one per K and repeat")
            return 0
        for j, K in enumerate(LOGISTIC["K_values"]):
            sub = out / f"algorithm_K_{K}"
            per_rep = []
            for r in range(reps):
                name = f"K={K} rep{r}"
                rows = read_csv(sub / f"logistic_rep{r}.csv")
                per_rep.append(rows)
                record = runs[reps * j + r]
                check_calls(issues, name, rows, record)
                if record["draws"]["draws_h"] != K * T:
                    issues.append(f"{name}: {record['draws']['draws_h']} h draws, want K*T")
                if abs(rows[0][F] - LN2) > 1e-12:
                    issues.append(f"{name}: f(x0) = {rows[0][F]!r}, want ln 2")
                if not rows[-1][F] < LN2:
                    issues.append(f"{name}: final f = {rows[-1][F]!r} is not below ln 2")
            agg = read_csv(sub / "logistic_aggregate.csv")
            if len(agg) != len(per_rep[0]):
                issues.append(f"K={K}: aggregate has {len(agg)} rows")
                continue
            for i, row in enumerate(agg):
                for col in range(F, CFMH + 1):
                    vals = [rows[i][col] for rows in per_rep]
                    want = None if None in vals else sum(vals) / len(vals)
                    got = row[col]
                    if (want is None) != (got is None) or (
                            want is not None and not math.isclose(got, want, rel_tol=1e-15)):
                        issues.append(f"K={K} aggregate row {i} col {col}: {got!r} != {want!r}")
                        break
        return 0


class MultiHelper:
    """``run_decentralized`` on N noise-free quadratic helpers, AuxMOM and AuxMVR."""

    VARIANTS = ("AuxMOM", "AuxMVR")

    def __init__(self, auxopt, probe: Probe, inputs: Path):
        self.auxopt, self.probe = auxopt, probe
        self.inputs = inputs

    def setup(self) -> None:
        import numpy as np

        ax = self.auxopt
        spec = json.loads((self.inputs / "multi.json").read_text())
        with np.load(self.inputs / "helpers.npz") as m:
            a_f, a_h, b_h, self.x0 = m["a_f"], m["a_h"], m["b_h"], m["x0"]
        self.spec = spec
        self.oracles = [self.probe.wrap_pair(ax.make_quadratic_nd(a_f, a_h[i], b_h[i]))
                        for i in range(spec["N"])]
        self.configs = {v: ax.OptimizerConfig(algorithm=v, eta=spec["eta"], a=spec["a"],
                                              K=spec["K"], T=spec["T"])
                        for v in self.VARIANTS}
        self.results = []

    def round(self, out: Path) -> list[int]:
        ax, counts, spec = self.auxopt, self.probe.counts, self.spec
        self.results = []
        for variant in self.VARIANTS:
            helpers = ax.HelperSet(self.oracles, s=spec["S"])
            before = Counter(counts)
            traj = ax.run_decentralized(self.x0, helpers, self.configs[variant],
                                        ax.RandomToken(spec["seed"]), variant=variant)
            drawn = Counter(counts)
            drawn.subtract(before)
            self.results.append((variant, traj, helpers.calls_fmh, drawn))
        return [0] * len(self.VARIANTS)

    def check(self, out: Path, runs: list[dict], issues: list) -> int:
        import numpy as np

        spec, failed = self.spec, 0
        out.mkdir()
        x0_sq = float(self.x0 @ self.x0)
        for variant, traj, billed_fmh, drawn in self.results:
            x_T = traj.snapshots[-1]
            if not float(x_T @ x_T) <= 1e-20 * x0_sq:
                issues.append(f"{variant}: ||x_T||^2 = {float(x_T @ x_T)!r} > 1e-20 ||x0||^2")
            if drawn["draws_h"] != spec["S"] * spec["K"] * spec["T"]:
                issues.append(f"{variant}: {drawn['draws_h']} h draws, want S*K*T")
            self.probe.counts["billed_fmh"] += billed_fmh
            failed += billed_fmh != drawn["draws_fmh"]
            (out / f"{variant}_snapshots.bin").write_bytes(np.stack(traj.snapshots).tobytes())
        return failed


WORKLOADS = {"toy_algorithms": ToyAlgorithms, "logistic_sweep": LogisticSweep,
             "multi_helper": MultiHelper}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import auxopt
    import auxopt.cli

    if not Path(auxopt.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"auxopt imported from {auxopt.__file__}, not from the checkout")
    probe = Probe(timed=bool(args.trace))
    probe.install(auxopt)
    workload = WORKLOADS[args.workload](auxopt, probe, args.inputs)
    workload.setup()
    setup_s = perf_counter() - t0
    after_setup = probe.snapshot()

    rounds = []
    start = perf_counter()
    # Whole rounds only: start one more while it should end inside the budget.
    while not rounds or (perf_counter() - start) * (1 + 1 / len(rounds)) <= args.seconds:
        out = args.work / f"round{len(rounds)}"
        probe.runs.clear()
        before = Counter(probe.counts)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t = perf_counter()
            codes = workload.round(out)
            wall_s = perf_counter() - t
        issues = [f"exit code {c}" for c in codes if c != 0]
        failed = workload.check(out, probe.runs, issues) if not issues else len(codes)
        drawn = Counter(probe.counts)
        drawn.subtract(before)
        h = hashlib.sha256()
        digest_dir(out, h)
        for record in probe.runs:
            h.update(repr(record["final_x"]).encode())
        rounds.append({
            "wall_s": wall_s,
            "attempted": len(codes),
            "failed": failed,
            "issues": issues,
            "digest": h.hexdigest(),
            "target_grad_calls": drawn["draws_f"] + drawn["draws_fmh"] + drawn["exact_f_steps"],
            "csv_bytes": sum(p.stat().st_size for p in out.rglob("*.csv")),
        })
        shutil.rmtree(out, ignore_errors=True)

    args.result.write_text(json.dumps({
        "setup_s": setup_s,
        "measured_s": perf_counter() - start,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "after_setup": after_setup,
        "at_end": probe.snapshot(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
