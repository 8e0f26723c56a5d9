"""Smoke runs of the scripts with tiny budgets and sizes."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def script_env() -> dict:
    """The environment with the source tree first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                     env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("script,args,first_line", [
    ("toy_bias_sweep.py", ["--T", "3", "--zetas", "1.0"], "delta=0.1, K=10, T=3, eta=0.5"),
    ("semisupervised_experiment.py", ["--T", "2", "--K", "2"], "AuxMOM : f-budget=   3  "),
])
def test_script_runs(script, args, first_line):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=script_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith(first_line)


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
