"""Seeded inputs of the benchmark workloads: config files, a LIBSVM file, matrices.

Everything is generated here with numpy from the workload seed, so auxopt
receives only the files written below.  The same seed gives the same files.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from params import ALGORITHMS, LOGISTIC, MULTI, TOY, WORKLOADS


def make(workload: str, seed: int, out: Path) -> None:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out.mkdir(parents=True, exist_ok=True)
    {"toy_algorithms": _toy, "logistic_sweep": _logistic,
     "multi_helper": _multi}[workload](rng, out)


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1))


def _toy(rng, out: Path) -> None:
    """The 1-D pair f = x^2/2, h = (1+delta)/2 (x - zeta/(1+delta))^2, one
    config per algorithm, sharing x0 and the root seed."""
    x0 = float(rng.uniform(1.0, 4.0))
    seed = _seed(rng)
    for alg in ALGORITHMS:
        _write_json(out / f"{alg}.json", {
            "version": 1,
            "problem": {"toy": {"delta": TOY["delta"], "zeta": TOY["zeta"]}},
            "algorithm": {"name": alg, "eta": TOY["eta"], "a": TOY["a"],
                          "K": TOY["K"], "T": TOY["T"]},
            "noise": {"sigma_f": TOY["sigma"], "sigma_h": TOY["sigma"], "rho": TOY["rho"]},
            "seed": seed,
            "repeats": TOY["repeats"],
            "x0": [x0],
            "diagnostics": True,
            "output_path": alg,
        })


def _logistic(rng, out: Path) -> None:
    """A mushrooms-shaped one-hot set: ``groups`` categorical features, one
    active column per group and row, labels {1, 2} from a planted noisy
    linear rule."""
    n, d, groups = LOGISTIC["n"], LOGISTIC["d"], LOGISTIC["groups"]
    sizes = np.full(groups, d // groups)
    sizes[: d % groups] += 1
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    cols = offsets + (rng.random((n, groups)) * sizes).astype(np.int64)
    w = rng.standard_normal(d)
    logits = w[cols].sum(axis=1)
    logits -= np.median(logits)
    labels = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-4.0 * logits)), 2, 1)
    lines = [f"{y} " + " ".join(f"{c + 1}:1" for c in row)
             for y, row in zip(labels, cols)]
    (out / "data.libsvm").write_text("\n".join(lines) + "\n")
    _write_json(out / "sweep.json", {
        "version": 1,
        "problem": {"logistic": {"path": str(out / "data.libsvm"),
                                 "helper": {"kind": "random_labels"},
                                 "batch_size": LOGISTIC["batch_size"]}},
        "algorithm": {"name": "AuxMOM", "eta": LOGISTIC["eta"], "a": LOGISTIC["a"],
                      "K": 1, "T": LOGISTIC["T"]},
        "seed": _seed(rng),
        "repeats": LOGISTIC["repeats"],
        "x0": [0.0] * d,
        "diagnostics": True,
        "output_path": "logistic",
    })


def _sym_unit(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d))
    e = (g + g.T) / 2.0
    return e / np.linalg.norm(e, 2)


def _multi(rng, out: Path) -> None:
    """Noise-free quadratic helpers around f = x'A_f x/2, spec(A_f) in [1, 2];
    helper i has A_i = A_f + E_i with ||E_i||_2 = curvature_gap and a
    gradient bias b_i, so f's minimiser stays at 0."""
    d, n = MULTI["d"], MULTI["N"]
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = np.concatenate([[1.0, 2.0], rng.uniform(1.0, 2.0, d - 2)])
    a_f = (q * lam) @ q.T
    a_f = (a_f + a_f.T) / 2.0
    a_h = np.stack([a_f + MULTI["curvature_gap"] * _sym_unit(rng, d) for _ in range(n)])
    b_h = rng.standard_normal((n, d))
    x0 = rng.standard_normal(d)
    np.savez(out / "helpers.npz", a_f=a_f, a_h=a_h, b_h=b_h, x0=x0)
    _write_json(out / "multi.json", {k: MULTI[k] for k in ("N", "S", "K", "T", "eta", "a")}
                | {"seed": _seed(rng)})
