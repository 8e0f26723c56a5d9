"""Smoke runs of the example scripts with tiny budgets."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args,first_line", [
    ("toy_bias_sweep.py", ["--T", "3", "--zetas", "1.0"], "delta=0.1, K=10, T=3, eta=0.5"),
    ("semisupervised_experiment.py", ["--T", "2", "--K", "2"], "AuxMOM : f-budget=   3  "),
])
def test_script_runs(script, args, first_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                     env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith(first_line)
