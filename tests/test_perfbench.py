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


def test_probe_wraps_and_counts_a_diagnostics_run(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "problem": {"toy": {"delta": 0.5, "zeta": 1.0}},
        "algorithm": {"name": "AuxMOM", "eta": 0.1, "a": 0.5, "K": 3, "T": 5},
        "noise": {"sigma_f": 1.0, "sigma_h": 1.0, "rho": 0.5},
        "seed": 1,
        "diagnostics": True,
    }))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"),
                                                     env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", RUN_UNDER_PROBE, str(config)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 0
    assert set(out["traced"]) <= set(out["stats"])
    assert out["counts"].get("exact_f_steps", 0) == 0
    assert out["stats"]["optimizers.observe"][0] > 0
    assert out["stats"]["optimizers.diagnostics"][0] > 0
