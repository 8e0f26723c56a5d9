"""The benchmark's probe still finds every name it wraps and still sees the calls it counts.

The probe replaces names inside the auxopt modules and tells observation
from optimisation steps by the caller's frame name, so a rename in the
package can silently empty a benchmark metric.  It runs in a subprocess,
because installing it rebinds names in the imported package.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from auxopt.core import RandomToken
from auxopt.problems import make_synthetic_classification, write_libsvm

ROOT = Path(__file__).resolve().parent.parent

RUN_UNDER_PROBE = """
import json, sys
import auxopt, auxopt.cli
from probe import TRACED, Probe
probe = Probe(timed=True)
probe.install(auxopt)
code = auxopt.cli.main(["run", "--config", sys.argv[1]])
traced = [f"{module}.{name}" for module, names in TRACED.items() for name in names]
print(json.dumps({"code": code, "traced": traced, "counts": probe.counts, "stats": probe.stats}))
"""


def _run_under_probe(tmp_path, config: dict) -> dict:
    """``auxopt run`` on ``config`` with the timed probe installed; the probe's
    report, after checking that the run succeeded and every traced name was wrapped."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"),
                                                     env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", RUN_UNDER_PROBE, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 0
    assert set(out["traced"]) <= set(out["stats"])
    return out


def test_probe_wraps_and_counts_a_diagnostics_run(tmp_path):
    out = _run_under_probe(tmp_path, {
        "problem": {"toy": {"delta": 0.5, "zeta": 1.0}},
        "algorithm": {"name": "AuxMOM", "eta": 0.1, "a": 0.5, "K": 3, "T": 5},
        "noise": {"sigma_f": 1.0, "sigma_h": 1.0, "rho": 0.5},
        "seed": 1,
        "diagnostics": True,
    })
    assert out["counts"].get("exact_f_steps", 0) == 0
    assert out["stats"]["optimizers.observe"][0] > 0
    assert out["stats"]["optimizers.diagnostics"][0] > 0


def test_probe_sees_the_spans_of_a_logistic_run(tmp_path):
    # the spans the logistic_sweep workload reports, on a small minibatch run
    features, labels = make_synthetic_classification(90, 8, RandomToken(3), n_groups=4)
    data = tmp_path / "data.libsvm"
    data.write_text(write_libsvm(features, labels))
    out = _run_under_probe(tmp_path, {
        "problem": {"logistic": {"path": str(data), "helper": {"kind": "coreset"},
                                 "batch_size": 8}},
        "algorithm": {"name": "AuxMOM", "eta": 0.5, "a": 0.1, "K": 2, "T": 3},
        "seed": 5,
    })
    for name in ("problems.parse_libsvm", "problems.grad_minibatch", "problems.draw",
                 "harness.build_oracle"):
        assert out["stats"][name][0] > 0, name
