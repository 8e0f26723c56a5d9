"""Only the LIBSVM and logistic paths load scipy.

pytest itself imports scipy (its warning filters name
``scipy.sparse.SparseEfficiencyWarning``), so the check runs in a fresh
interpreter.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path

import numpy as np

import auxopt, auxopt.cli

tmp = Path(sys.argv[1])


def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


def main(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return auxopt.cli.main(list(argv))


def config(name, problem, **extra):
    path = tmp / f"{name}.json"
    path.write_text(json.dumps({"problem": problem, "seed": 3, **extra, "algorithm": {
        "name": "AuxMOM", "eta": 0.1, "a": 0.5, "K": 2, "T": 4}}))
    return str(path)


toy = config("toy", {"toy": {"delta": 0.5, "zeta": 1.0}},
             noise={"sigma_f": 1.0, "sigma_h": 1.0, "rho": 0.5}, diagnostics=True)
quad = config("quad", {"quadratic_nd": {"a_f": [[2, 0], [0, 1]], "a_h": [[1.5, 0], [0, 1]],
                                        "b_h": [0.1, 0.2]}})
codes = [main("run", "--config", toy, "--out", str(tmp / "toy")),
         main("sweep", "--config", toy, "--axis", "algorithm.eta", "--values", "0.1,0.2"),
         main("params", "--config", toy), main("check", "--config", toy),
         main("run", "--config", quad)]
a_f = np.diag([2.0, 1.0])
helpers = auxopt.HelperSet([auxopt.make_quadratic_nd(a_f, a_f * s, [0.0, 0.1]) for s in
                            (0.9, 1.0, 1.1)], s=2)
traj = auxopt.run_decentralized(np.ones(2), helpers, auxopt.OptimizerConfig(
    "AuxMOM", eta=0.1, K=2, T=3), auxopt.RandomToken(1))
before = scipy_loaded()

features, labels = auxopt.parse_libsvm("1 1:1 3:2\\n2 2:0.5\\n")
data = tmp / "data.libsvm"
data.write_text("".join(f"{1 + i % 2} {1 + i % 3}:1 {4 + i % 5}:0.5\\n" for i in range(30)))
logistic = config("logistic", {"logistic": {"path": str(data), "helper": {"kind": "coreset"},
                                            "batch_size": 4}})
print(json.dumps({"codes": codes, "snapshots": len(traj.snapshots), "before": before,
                  "shape": list(features.shape), "labels": labels.tolist(),
                  "logistic": main("run", "--config", logistic), "after": scipy_loaded()}))
"""


def test_only_the_logistic_path_loads_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0] * 5
    assert out["snapshots"] == 4
    assert out["before"] == []
    assert out["shape"] == [2, 3] and out["labels"] == [1.0, 2.0]
    assert out["logistic"] == 0
    assert "scipy.sparse" in out["after"]
