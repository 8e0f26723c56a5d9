"""The committed experiment configs under ``configs/``, run as README runs them:
``auxopt sweep`` over ``problem.toy.zeta`` for the toy pair, and over ``seed``
for the semi-supervised logistic comparison."""
import csv
import json
import time
from pathlib import Path

import pytest

from auxopt import cli, harness
from auxopt.core import RandomToken
from auxopt.problems import make_synthetic_classification, write_libsvm

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ZETAS = ("0.1", "1.0", "10.0")
SEEDS = range(5)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """The file of ``scripts/make_dataset.py --rows 2000 --seed 123``."""
    features, labels = make_synthetic_classification(2000, 112, RandomToken(123))
    path = tmp_path_factory.mktemp("data") / "semisupervised.libsvm"
    path.write_text(write_libsvm(features, labels))
    return path


def config_at(tmp_path, name: str, dataset=None) -> str:
    """``configs/<name>.json``, with a logistic data path pointed at ``dataset``."""
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    if "logistic" in raw["problem"]:
        raw["problem"]["logistic"]["path"] = str(dataset)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return str(path)


def sweep(tmp_path, name: str, axis: str, values, dataset=None) -> Path:
    out = tmp_path / name
    args = ["sweep", "--config", config_at(tmp_path, name, dataset), "--axis", axis,
            "--values", ",".join(map(str, values)), "--out", str(out)]
    assert cli.main(args) == 0
    return out


def summary(out: Path) -> list[dict]:
    with open(out / "sweep_summary.csv", newline="") as f:
        return list(csv.DictReader(f))


def last_row(out: Path, sub: str, stem: str):
    text = (out / sub / f"{stem}_rep0.csv").read_text()
    return harness.trajectory_from_csv(text).rows[-1]


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_committed_config_loads_and_builds(tmp_path, path, dataset):
    harness.load_config_file(str(path))  # as committed; the data file is read at the build
    cfg = harness.load_config_file(config_at(tmp_path, path.stem, dataset))
    oracle = harness.build_oracle(cfg)
    assert len(harness.initial_point(cfg, oracle)) == oracle.dim


def test_toy_naive_stalls_at_its_cycle_fixed_point(tmp_path):
    """Naive's cycle is one f step, x -> (1 - eta) x, then K - 1 helper steps,
    y -> c y + eta zeta with c = 1 - eta (1 + delta); its fixed point x* is
    zeta/(1+delta) (1 - c^(K-1)) / (1 - (1-eta) c^(K-1)), and the last row's
    ||grad f||^2 is x*^2.  Its final G grows as zeta^2 and never reaches the
    threshold; AuxMOM's reaches it at every zeta."""
    start = time.perf_counter()
    naive = sweep(tmp_path, "toy_naive", "problem.toy.zeta", ZETAS)
    auxmom = sweep(tmp_path, "toy_auxmom", "problem.toy.zeta", ZETAS)

    raw = json.loads((CONFIGS / "toy_naive.json").read_text())
    delta, eta, K = raw["problem"]["toy"]["delta"], raw["algorithm"]["eta"], raw["algorithm"]["K"]
    c = 1 - eta * (1 + delta)
    for zeta in ZETAS:
        x_star = (float(zeta) / (1 + delta) * (1 - c ** (K - 1))
                  / (1 - (1 - eta) * c ** (K - 1)))
        got = last_row(naive, f"problem_toy_zeta_{zeta}", "toy_naive").grad_norm_sq
        assert got == pytest.approx(x_star ** 2, rel=1e-12, abs=0), zeta

    rows = summary(naive)
    final_g = [float(row["final_G"]) for row in rows]
    for low, high in zip(final_g, final_g[1:]):
        assert high / low == pytest.approx(100.0, rel=1e-9)
    assert all(row["iters_to_threshold"] == "" for row in rows)
    assert all(row["iters_to_threshold"] != "" for row in summary(auxmom))
    assert time.perf_counter() - start < 30.0


def test_semisupervised_helper_beats_sgdm_at_matched_f_budget(tmp_path, dataset):
    """AuxMOM with a random-label helper ends at a lower train f than SGDm on
    at least 4 of 5 seeds, each spending the same f-side calls."""
    start = time.perf_counter()
    runs = {name: sweep(tmp_path, f"semisupervised_{name}", "seed", SEEDS, dataset)
            for name in ("auxmom", "sgdm")}
    wins = 0
    for seed in SEEDS:
        aux, sgd = (last_row(out, f"seed_{seed}", f"semisupervised_{name}")
                    for name, out in runs.items())
        assert aux.calls_f + aux.calls_fmh == sgd.calls_f + sgd.calls_fmh
        wins += aux.f_value < sgd.f_value
    assert wins >= 4
    assert time.perf_counter() - start < 30.0
