"""Byte-level pins of the program's outputs.

Each digest is the SHA-256 of files or arrays the program writes for a fixed
input.  Only 1-D problems and raw noise arrays are used, so no BLAS
reduction order enters a digest: a digest moves only when the arithmetic or
the random streams do.
A change that alters output bytes on purpose must update the digests here
and say so in CHANGES.md.
"""
import hashlib
import json

import numpy as np
import pytest

from auxopt import cli
from auxopt.core import NoiseSpec, RandomToken, draw_gaussian_noise, stream_fork
from auxopt.decentralized import VARIANTS, HelperSet, run_decentralized
from auxopt.harness import load_config, run_experiment, run_sweep
from auxopt.optimizers import ALGORITHMS, DivergenceError, OptimizerConfig
from auxopt.problems import make_toy_pair

M0_MODES = ("single_sample", "zero", "big_batch")
NOISY = {"sigma_f": 1.0, "sigma_h": 0.8, "rho": 0.5}


def toy_config(algorithm: str, m0_mode: str, noise: dict) -> dict:
    return {
        "version": 1,
        "problem": {"toy": {"delta": 0.5, "zeta": 2.0}},
        "algorithm": {"name": algorithm, "eta": 0.05, "a": 0.3, "K": 4, "T": 12,
                      "m0_mode": m0_mode},
        "noise": noise,
        "seed": 7,
        "repeats": 2,
        "x0": [1.5],
        "diagnostics": True,
        "output_path": "golden",
    }


def tree_digest(out_dir) -> str:
    """SHA-256 over the relative names and bytes of every file under ``out_dir``."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def csv_digest(raw: dict, out_dir) -> str:
    """SHA-256 over the names and bytes of every file ``run_experiment`` writes."""
    run_experiment(load_config(json.dumps(raw)), str(out_dir))
    return tree_digest(out_dir)


SWEEP_K = (1, 3, 17)  # K = 17 puts more than 8 steps into each per-cycle mean


def sweep_config(noisy: bool = True) -> dict:
    """Three repeats of AuxMOM; noise-free with a larger step, some K reach the
    sweep threshold, so ``iters_to_threshold`` has both empty and set cells."""
    raw = toy_config("AuxMOM", "single_sample", NOISY if noisy else {})
    raw["repeats"] = 3
    if not noisy:
        raw["algorithm"].update(eta=0.4, a=1.0)
    return raw


def diverging_config() -> dict:
    raw = toy_config("GD", "single_sample", {})
    raw["algorithm"]["eta"] = 50.0
    return raw


def cli_stdout_digest(args: list, raw: dict, tmp_path, capsys) -> str:
    """SHA-256 of ``cli.main`` stdout on ``raw``, with the output directory masked."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main([args[0], "--config", str(config), *args[1:], "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    return hashlib.sha256(stdout.encode()).hexdigest()


def decentralized_digest(variant: str) -> str:
    """SHA-256 over the snapshots, sampled sets and final momenta of a run."""
    noise = NoiseSpec(**NOISY)
    helpers = HelperSet([make_toy_pair(0.3, z, noise) for z in (0.5, 1.0, 2.0, 4.0)], s=2)
    cfg = OptimizerConfig(variant, eta=0.05, a=0.3, K=3, T=10)
    traj = run_decentralized(np.array([1.5]), helpers, cfg, RandomToken(9), variant=variant)
    h = hashlib.sha256()
    h.update(np.stack(traj.snapshots).tobytes())
    h.update(repr(traj.sampled).encode())
    h.update(np.stack(helpers.momenta).tobytes())
    return h.hexdigest()


FORK_BITS = (0, 1, 31, 32, 33, 64, 96, 127, 128)
FORK_DRAWS = (0, 1, 2**32, 2**64 - 1)
FORK_LABELS = (0, 1, 10, 2**32, 2**64 - 1, -1)
PATTERN = 0x9E3779B97F4A7C15F39CC0605CEDC834  # fills the bits below the top one


def stream_id_of_bits(bits: int) -> int:
    """A stream id whose bit length is exactly ``bits``."""
    if bits == 0:
        return 0
    return (1 << (bits - 1)) | (PATTERN & ((1 << (bits - 1)) - 1))


def fork_parents() -> list:
    """Parents of 0-128 bits with draw indices up to 2**64 - 1."""
    return [RandomToken(stream_id_of_bits(bits), draw) for bits in FORK_BITS for draw in FORK_DRAWS]


def fork_digest() -> str:
    """SHA-256 over the child stream ids of every parent under every label of the grid."""
    h = hashlib.sha256()
    for child in (stream_fork(p, label) for p in fork_parents() for label in FORK_LABELS):
        h.update(child.stream_id.to_bytes(16, "little"))
        h.update(child.draw_index.to_bytes(8, "little"))
    return h.hexdigest()


def noise_digest() -> str:
    """SHA-256 over raw ``draw_gaussian_noise`` pairs across shapes, rho and tokens."""
    h = hashlib.sha256()
    for dim in (1, 2, 7, 64):
        for n in (None, 5):
            for rho in (0.0, 0.5, -1.0):
                for draw in (0, 3):
                    spec = NoiseSpec(sigma_f=1.0, sigma_h=0.8, rho=rho)
                    token = RandomToken(stream_id_of_bits(128), draw)
                    nf, nh = draw_gaussian_noise(spec, token, dim, n)
                    h.update(nf.tobytes())
                    h.update(nh.tobytes())
    return h.hexdigest()


FORKS = "61dad9ff430891cc18feecdfa3cac58da52a00e5a5a9a4dff05762898cd63675"
NOISE = "0f1c3bf20b2e309323a5b4bb9a076ebf486530bf9ad17353d02dd06e15c10b1d"

NOISY_CSV = {
    ("Naive", "single_sample"):
        "0c2a8b4e7823d92ca752bd964b35d438d071bb714f3b3b71ae628127c381e259",
    ("Naive", "zero"):
        "0c2a8b4e7823d92ca752bd964b35d438d071bb714f3b3b71ae628127c381e259",
    ("Naive", "big_batch"):
        "0c2a8b4e7823d92ca752bd964b35d438d071bb714f3b3b71ae628127c381e259",
    ("AuxMOM", "single_sample"):
        "5cbde22136b0649b619a0e572eeaef86645104857d421b4ce528995a1afd98d8",
    ("AuxMOM", "zero"):
        "e09aa749d7eac35bb194560242fb03e380a1c0c0081334b8c73a3daefc000abb",
    ("AuxMOM", "big_batch"):
        "a75aa2fb1d2cb76aa4f24540f23ee1a04dd10b1239689fc951f3c4f3421214e8",
    ("AuxMOM_V0", "single_sample"):
        "b638f18636e7b32552753cf43114f5782345e00a00658f21266623210906ddcd",
    ("AuxMOM_V0", "zero"):
        "9ea9ce9bb046ddd9f11618cd1c5abd7a980b20ff92cd8b90506e397c976ccc28",
    ("AuxMOM_V0", "big_batch"):
        "46aa1be69646eb2d6e83a5da3ad67ee0a84440817b88243d031028655869fe77",
    ("AuxMVR", "single_sample"):
        "0ce8f8bc0d975deb98bdb623d1e7b991b3873c0ac5c8601d0eab970aa6e2b9fe",
    ("AuxMVR", "zero"):
        "8b391a65acb0f7040eefc63c475dd2cb9b91720e481088425775a8d4617a1152",
    ("AuxMVR", "big_batch"):
        "f290df557f0b6b99d57a0faf532eec156a30663eb21d9cab5f90e02166510a2a",
    ("SGDm", "single_sample"):
        "3fd2e1a9dccad346f2fe329eea1e5c1ebb649329e29b375dcd1bc4eb141abe81",
    ("SGDm", "zero"):
        "a7a67751943d31f3f6cfda3dde9718f8a3653b19c9366ed030ed5dd7b338791f",
    ("SGDm", "big_batch"):
        "b7f6b15906a515e52e34053051c0db0005e2fe29392ba439496d571f0cee62f5",
    ("MVR", "single_sample"):
        "4c6421270845e5c06cb5e1aaa43eeee5590dba83d00ffb4e582bc202604f2600",
    ("MVR", "zero"):
        "231c45e0399d2d448e8f83723bd8d9ff8d5ac2cb886ac1af3e56e4d10a7cbd37",
    ("MVR", "big_batch"):
        "adfc14fb545d19ee2f9556b0ad8c9ff546a2fc1c9dabaa8b1f0556e5d9fb272a",
    ("GD", "single_sample"):
        "4e33af7042c1d59c18c31494ea79cc6bacfd11f0ba8ca8d6d805eaecbf8d69c8",
    ("GD", "zero"):
        "4e33af7042c1d59c18c31494ea79cc6bacfd11f0ba8ca8d6d805eaecbf8d69c8",
    ("GD", "big_batch"):
        "4e33af7042c1d59c18c31494ea79cc6bacfd11f0ba8ca8d6d805eaecbf8d69c8",
    ("FineTune", "single_sample"):
        "496dfc9ce39f3551f5d250db605f77931b1f5955fff5288e60e7494ea3d1b82a",
    ("FineTune", "zero"):
        "496dfc9ce39f3551f5d250db605f77931b1f5955fff5288e60e7494ea3d1b82a",
    ("FineTune", "big_batch"):
        "496dfc9ce39f3551f5d250db605f77931b1f5955fff5288e60e7494ea3d1b82a",
}

EXACT_CSV = {
    "Naive": "d48c748da16a8e403b406f7fcf1548a68ce968df3a8664e8070fe71a399add74",
    "AuxMOM": "8a5bcb4e92d35e8c795b09fb5a9541188ce2d98a13dd93f076ebd14086b4d244",
    "AuxMOM_V0": "ed03452063bd43b574d2f0fea9ccbd091b280ae24cdb31b5606f7891939a5831",
    "AuxMVR": "8a9f7b1085015694b83abee4f6bf0ad6dde68822c0e5e616a3852887b30032c0",
    "SGDm": "0901f66995ebf716e3fb3720689c71594acaa6eb88dd3a3cc7084a9e185ff9bc",
    "MVR": "30c87e2291b94d2905b17e557a030ce2924c8b60bc6e832706fe342807d30a8b",
    "GD": "4e33af7042c1d59c18c31494ea79cc6bacfd11f0ba8ca8d6d805eaecbf8d69c8",
    "FineTune": "54c4acaa2595c17cdc275f69d04ab7c8cebb59dc9793f8f76e1eec4290e54273",
}

SWEEP_FILES = {
    True: "6e7257ff0c179adae3a762200c5904b1b710c1c8e13e29e48f75a25d6f3f0d06",
    False: "18c51e3e9b576735e1b575b185174bc278ebe6f6fb5f9a32af7b9c17ca1ffd53",
}
DIVERGING_PARTIAL = "d94890bd3324a4e97091ad86cab2de9a7c5d3955750dc27e111a47ae4781c2d5"
CLI_RUN = "6095c4818efe9d35c61ed68b0431ad6c0802179d21c15d4c600e13920f37518b"
CLI_SWEEP = {
    True: "c8e2826f1cf2ba185261daf0854e71b402febf2a9a5906a1589f2d50dab9a80d",
    False: "69ab59f0ce076c8f940d3f731433f08ad43f581e36234e0ad0360bdc8289db27",
}

DECENTRALIZED = {
    "AuxMOM": "4046b14ba0b20494479438ea1a2f5907cbe7b0089dceb70f4fa1ea51a6015f5f",
    "AuxMVR": "6273627f2b4468c5bc132e1a27af00dce45593c8a18408a4ce4f8cfedf993208",
}


@pytest.mark.parametrize("m0_mode", M0_MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_noisy_toy_csvs(algorithm, m0_mode, tmp_path):
    raw = toy_config(algorithm, m0_mode, NOISY)
    assert csv_digest(raw, tmp_path) == NOISY_CSV[algorithm, m0_mode]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_noise_free_toy_csvs(algorithm, tmp_path):
    raw = toy_config(algorithm, "single_sample", {})
    assert csv_digest(raw, tmp_path) == EXACT_CSV[algorithm]


@pytest.mark.parametrize("variant", VARIANTS)
def test_decentralized_snapshots(variant):
    assert decentralized_digest(variant) == DECENTRALIZED[variant]


@pytest.mark.parametrize("noisy", [True, False])
def test_sweep_files(noisy, tmp_path):
    cfg = load_config(json.dumps(sweep_config(noisy)))
    run_sweep(cfg, "algorithm.K", SWEEP_K, str(tmp_path))
    assert (tmp_path / "sweep_summary.csv").exists()
    assert tree_digest(tmp_path) == SWEEP_FILES[noisy]


def test_diverging_partial_csv(tmp_path):
    with pytest.raises(DivergenceError):
        run_experiment(load_config(json.dumps(diverging_config())), str(tmp_path))
    partial = tmp_path / "golden_rep0_partial.csv"
    assert hashlib.sha256(partial.read_bytes()).hexdigest() == DIVERGING_PARTIAL


def test_cli_run_stdout(tmp_path, capsys):
    assert cli_stdout_digest(["run"], sweep_config(), tmp_path, capsys) == CLI_RUN


@pytest.mark.parametrize("noisy", [True, False])
def test_cli_sweep_stdout(noisy, tmp_path, capsys):
    args = ["sweep", "--axis", "algorithm.K", "--values", ",".join(map(str, SWEEP_K))]
    assert cli_stdout_digest(args, sweep_config(noisy), tmp_path, capsys) == CLI_SWEEP[noisy]


def test_stream_fork_children():
    assert fork_digest() == FORKS


def test_draw_gaussian_noise_arrays():
    assert noise_digest() == NOISE
