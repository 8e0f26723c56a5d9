"""Smoke runs of the scripts under scripts/ with tiny sizes."""
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

ROOT = Path(__file__).resolve().parent.parent


def script_env() -> dict:
    """The environment with the source tree first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                     env.get("PYTHONPATH")]))
    return env


def test_make_dataset_writes_file(tmp_path):
    out = tmp_path / "sub" / "data.libsvm"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "make_dataset.py"),
                           "--rows", "6", "--features", "20", "--out", str(out)],
                          capture_output=True, text=True, env=script_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote 6 x 20 dataset to {out}\n"
    assert len(out.read_text().splitlines()) == 6


def test_make_dataset_rejects_fewer_features_than_groups(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "make_dataset.py"),
                           "--features", "10", "--out", str(tmp_path / "data.libsvm")],
                          capture_output=True, text=True, env=script_env(), timeout=120)
    assert proc.returncode == 2
    assert "n_features = 10 is below n_groups = 16" in proc.stderr
    assert "Traceback" not in proc.stderr


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("parent,change,better,want", [
    # the median moved the wrong way by more than the bound
    ([1.0, 1.0, 1.0, 1.0], [1.2, 1.2, 1.2, 1.2], "lower", "worse"),
    ([10.0, 10.0, 10.0, 10.0], [8.0, 8.0, 8.0, 8.0], "higher", "worse"),
    # parent quartiles 1.5-2.5 around a median of 2: wider than the bound
    ([1.0, 2.0, 3.0, 2.0, 1.5, 2.5], [2.0, 2.0, 2.0, 2.0], "lower", "unresolved"),
    ([1.0, 2.0, 3.0, 2.0, 1.5, 2.5], [2.5, 2.5, 2.5, 2.5], "higher", "unresolved"),
    # every change run reads better than every parent run
    ([1.0, 2.0, 3.0, 2.0, 1.5, 2.5], [0.5, 0.9, 0.5, 0.5], "lower", "ok"),
    ([1.0, 1.05, 1.0, 1.05], [1.05, 1.0, 1.05, 1.1], "lower", "ok"),
])
def test_bench_pairs_verdict(parent, change, better, want):
    assert _bench_pairs().verdict(parent, change, 0.1, better) == want


PARENT_10 = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # quartiles 0.985-1.015


@pytest.mark.parametrize("change,better,want", [
    # 10 wins in 10, the median 0.2 below the parent's, the spread 0.03
    ([p - 0.2 for p in PARENT_10], "lower", "better"),
    ([p + 0.2 for p in PARENT_10], "higher", "better"),
    # 8 wins in 10: pairs 9 and 10 tie or read worse
    ([p - 0.2 for p in PARENT_10[:8]] + [1.02, 0.99], "lower", "ok"),
    # 10 wins in 10, but the median gain of 0.01 is inside the parent's spread
    ([p - 0.01 for p in PARENT_10], "lower", "ok"),
])
def test_bench_pairs_better_verdict(change, better, want):
    # ``better`` asks for 9 wins in 10 pairs and a median gain wider than the
    # parent's quartile spread
    assert _bench_pairs().verdict(PARENT_10, change, 0.1, better) == want


def test_bench_pairs_runs_one_pair(copy_checkout, tmp_path):
    parent, change = copy_checkout("parent"), copy_checkout("change")
    report = tmp_path / "BENCH.json"
    report.write_text(json.dumps({"pr": 0, "end_to_end": {"toy_algorithms": {"kept": True}}}))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
                           str(parent), str(change), "--workload", "multi_helper",
                           "--pairs", "1", "--seconds", "0.5", "--report", str(report)],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["pair 1 parent: correct=True failed=0",
                         "pair 1 change: correct=True failed=0"]
    assert lines[-1] == "every run correct with 0 failed"
    rows = {line.split(":")[0].strip(): line for line in lines[3:-1]}
    assert sorted(rows) == ["peak_rss_mb", "setup_s", "target_grad_calls", "wall_s"]
    assert rows["target_grad_calls"].startswith(
        "  target_grad_calls: 1200 -> 1200 count [parent 1200-1200] +0.0% (bound 1%) wins 0/1")
    written = json.loads(report.read_text())
    assert written["pr"] == 0 and written["end_to_end"]["toy_algorithms"] == {"kept": True}
    assert written["versions"] == {"python": platform.python_version(),
                                   "numpy": np.__version__, "scipy": scipy.__version__}
    entry = written["end_to_end"]["multi_helper"]
    assert sorted(entry) == ["correct", "failed", "peak_rss_mb", "setup_s",
                             "target_grad_calls", "wall_s"]
    assert (entry["correct"], entry["failed"]) == (True, 0)
    assert entry["target_grad_calls"] == {
        "parent_median": 1200, "change_median": 1200, "parent_quartiles": [1200, 1200],
        "relative_change": 0.0, "change_wins": 0, "unit": "count", "verdict": "ok"}
    for name in ("setup_s", "wall_s", "peak_rss_mb"):
        figures = entry[name]
        assert rows[name].startswith(f"  {name}: {figures['parent_median']:.6g} -> "
                                     f"{figures['change_median']:.6g} {figures['unit']} ")
        assert rows[name].endswith(f"wins {figures['change_wins']}/1 {figures['verdict']}")
