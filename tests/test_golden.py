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
from auxopt.core import NoiseSpec, RandomToken, draw_gaussian_noise, stream_fork, stream_forks
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


def fork_digest(children=None) -> str:
    """SHA-256 over the child stream ids of every parent under every label
    of the grid, forked one by one unless ``children`` gives them."""
    if children is None:
        children = [stream_fork(p, label) for p in fork_parents() for label in FORK_LABELS]
    h = hashlib.sha256()
    for child in children:
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
        "570b15c3758ab91eff0d004bf5a5f9f9b286d4d12e6846b25aed69114870db32",
    ("Naive", "zero"):
        "570b15c3758ab91eff0d004bf5a5f9f9b286d4d12e6846b25aed69114870db32",
    ("Naive", "big_batch"):
        "570b15c3758ab91eff0d004bf5a5f9f9b286d4d12e6846b25aed69114870db32",
    ("AuxMOM", "single_sample"):
        "52f0000ab3fcee0ec6d2e9a5537f79596135775aaed85877139e7c602380667d",
    ("AuxMOM", "zero"):
        "24d6c2d47ec875bebf4055261f55d26203371ac2af0b5a8d3d34cbbce68fa440",
    ("AuxMOM", "big_batch"):
        "003033d7d0656d8d273ba2b421a39c0f699bc73325dc42c5c0e8716310ce49c8",
    ("AuxMOM_V0", "single_sample"):
        "a30c01ffe555e1ee6058b6d2c221e986afecac05e25f2684fb10bb4a3049d9fc",
    ("AuxMOM_V0", "zero"):
        "e081cb23b7bc4c7d48e04dc494a2bcbd39e5e70f1dbf175a60e84e67bfa36557",
    ("AuxMOM_V0", "big_batch"):
        "51fa8151d17f00732e181e3fa29e89ff1fa18997cf15570786e8910117c1379c",
    ("AuxMVR", "single_sample"):
        "9cd077dbdea39833e32e2cb227410eb6a7f86796c1c015071438445ba3a5038b",
    ("AuxMVR", "zero"):
        "df514003dec6b40acffd5ef75fa68718056f783d80211fd1a96673cc721a47fd",
    ("AuxMVR", "big_batch"):
        "6da212335264657f2ac6f7f78b993fa05a1e0cdedd0bf40387ecb4c061fee5ae",
    ("SGDm", "single_sample"):
        "c302a5220e864b8e155553aa7cfba82c20a627baeb0c833c63603d8eb832408b",
    ("SGDm", "zero"):
        "b5845df788324314eecf0c37781c39d04e1a9c17f258c387951d86dba5bec421",
    ("SGDm", "big_batch"):
        "3154845b2e1daa35504e712a1a2f2ecb5365a3b422aa8f8a7004ecafa9120e47",
    ("MVR", "single_sample"):
        "bbf4d0a85ef5caad56f27bf2b8ec6453dd3cba357d17915b22de6c6a0a4510ff",
    ("MVR", "zero"):
        "cff00baec9dd5651001857f46efc7ff46c0778af67e8ae8782c8c833fd290840",
    ("MVR", "big_batch"):
        "d6f488b6223e9cace50c1e83ab7692aaa2d895eaef2f8916e74d037974cd911c",
    ("GD", "single_sample"):
        "4e33af7042c1d59c18c31494ea79cc6bacfd11f0ba8ca8d6d805eaecbf8d69c8",
    ("GD", "zero"):
        "4e33af7042c1d59c18c31494ea79cc6bacfd11f0ba8ca8d6d805eaecbf8d69c8",
    ("GD", "big_batch"):
        "4e33af7042c1d59c18c31494ea79cc6bacfd11f0ba8ca8d6d805eaecbf8d69c8",
    ("FineTune", "single_sample"):
        "1be9c44cdd6db80fc5740cae79c853abe111d48c0c5a20302c1f7c9395682a8e",
    ("FineTune", "zero"):
        "1be9c44cdd6db80fc5740cae79c853abe111d48c0c5a20302c1f7c9395682a8e",
    ("FineTune", "big_batch"):
        "1be9c44cdd6db80fc5740cae79c853abe111d48c0c5a20302c1f7c9395682a8e",
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
    True: "58bbdeabcd8567c90b1370c27a6d5b6794f292af2b23c73a5b5978c36f4ceed2",
    False: "18c51e3e9b576735e1b575b185174bc278ebe6f6fb5f9a32af7b9c17ca1ffd53",
}
DIVERGING_PARTIAL = "d94890bd3324a4e97091ad86cab2de9a7c5d3955750dc27e111a47ae4781c2d5"
CLI_RUN = "09cb8725414cbccac90dccefbb2f91833b18bad01ffe42412c09650d33212d7d"
CLI_SWEEP = {
    True: "4f0576bef3486657a0ba250c6d3c1b5aef9a59fd2866cfbec25fcb0c8a8737f9",
    False: "69ab59f0ce076c8f940d3f731433f08ad43f581e36234e0ad0360bdc8289db27",
}

DECENTRALIZED = {
    "AuxMOM": "a7042cbdd122a89f5c53bd11d099fe8b33833afc8366d8c765350bc6bca34ccb",
    "AuxMVR": "2f18217c23b41427d870482fe390565e87adca4a35df53e3ff029222f4289ca4",
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


def test_bulk_fork_children():
    # one call over every entropy word count from 3 to 8
    rows = stream_forks(fork_parents(), FORK_LABELS)
    assert fork_digest([child for row in rows for child in row]) == FORKS


def test_draw_gaussian_noise_arrays():
    assert noise_digest() == NOISE
