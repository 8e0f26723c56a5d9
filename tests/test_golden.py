"""Byte-level pins of the program's outputs.

Each digest is the SHA-256 of files or arrays the program writes for a fixed
input.  Apart from the logistic sweep and coreset run, only 1-D problems and
raw noise arrays are used, so no BLAS reduction order enters a digest: a
digest moves only when the arithmetic or the random streams do.  The logistic
rows also pass through scipy's CSR products and a float64 dot of two
vectors, so their digests can move with the BLAS build as well.  ``auxopt check`` is pinned by
its exact stdout, which prints six significant digits.
A change that alters output bytes on purpose must update the digests here
and say so in CHANGES.md.
"""
import hashlib
import json

import numpy as np
import pytest

from auxopt import cli, optimizers
from auxopt.core import NoiseSpec, RandomToken, draw_gaussian_noise, stream_fork
from auxopt.decentralized import VARIANTS, HelperSet, run_decentralized
from auxopt.harness import load_config, run_experiment, run_sweep
from auxopt.optimizers import ALGORITHMS, DivergenceError, OptimizerConfig
from auxopt.problems import make_synthetic_classification, make_toy_pair, write_libsvm

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


def write_dataset(tmp_path) -> str:
    """A 60-row, 5-feature synthetic LIBSVM file under ``tmp_path``; its path."""
    features, labels = make_synthetic_classification(60, 5, RandomToken(3), n_groups=3)
    path = tmp_path / "data.libsvm"
    path.write_text(write_libsvm(features, labels))
    return str(path)


def logistic_config(data: str) -> dict:
    """Minibatch AuxMOM with a random-label helper, two repeats, diagnostics on."""
    return {
        "version": 1,
        "problem": {"logistic": {"path": data, "helper": {"kind": "random_labels"},
                                 "batch_size": 8}},
        "algorithm": {"name": "AuxMOM", "eta": 0.5, "a": 0.3, "K": 2, "T": 6},
        "seed": 5,
        "repeats": 2,
        "x0": [0.0] * 5,
        "diagnostics": True,
        "output_path": "golden",
    }


def coreset_config(data: str) -> dict:
    """``logistic_config`` with a coreset helper of half the train rows."""
    raw = logistic_config(data)
    raw["problem"]["logistic"]["helper"] = {"kind": "coreset", "fraction": 0.5}
    return raw


def check_configs(tmp_path) -> dict:
    """The configs whose ``auxopt check`` stdout is pinned, by name."""
    quadratic = {"a_f": [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.5]],
                 "a_h": [[1.5, 0.5, 0.0], [0.5, 1.25, 0.0], [0.0, 0.0, 0.5]],
                 "b_h": [0.25, -0.5, 1.0]}
    manual = {"name": "AuxMOM", "eta": 0.05, "K": 4, "T": 12}
    return {
        "toy": {"version": 1, "problem": {"toy": {"delta": 0.5, "zeta": 2.0}},
                "algorithm": manual, "seed": 7},
        "quadratic_nd": {"version": 1, "problem": {"quadratic_nd": quadratic},
                         "algorithm": manual, "seed": 11},
        "logistic": logistic_config(write_dataset(tmp_path)),
    }


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
        "2b43c404601e339660aa8ffccebcffd45b9bc68e65f4fdb97550f834bdd7bd36",
    ("Naive", "zero"):
        "2b43c404601e339660aa8ffccebcffd45b9bc68e65f4fdb97550f834bdd7bd36",
    ("Naive", "big_batch"):
        "2b43c404601e339660aa8ffccebcffd45b9bc68e65f4fdb97550f834bdd7bd36",
    ("AuxMOM", "single_sample"):
        "0fd7204659e8ccb49d18bf1ef18ed47d4556a0d77e4cc54d43a2a5fb316ef9f0",
    ("AuxMOM", "zero"):
        "7e7a5fb7880ba6a130b3e0eaa368bf09166e66420725d993ec892aa755f30532",
    ("AuxMOM", "big_batch"):
        "23868c304ed1f1366ab10a4897260bb5ada98622cd3ccc8afac44bf02db2104b",
    ("AuxMOM_V0", "single_sample"):
        "741ce367cca4f1aecda3093c7c654b04d416d977061dd1b60ed4a9ade27eaf8b",
    ("AuxMOM_V0", "zero"):
        "f61f3cb74f6bddb097f845f3c352b145316ad1f735c926bfa9d63442fb257cb9",
    ("AuxMOM_V0", "big_batch"):
        "bc0027ab58ba78d19d65cdb248565274abfefbe2e6f90924390f47fd95d41592",
    ("AuxMVR", "single_sample"):
        "0babbe54ea697854fc629774b02d4539c26be9e94a2fb5bef9516169ebc00bfb",
    ("AuxMVR", "zero"):
        "03e63c1b6888d67b42728b39c7c2cc02a3a397cd29e1853d2a0886246ff693b6",
    ("AuxMVR", "big_batch"):
        "5b095518e719e636568c21a3cdcc2e394134cea50888175aa226d56428e2e090",
    ("SGDm", "single_sample"):
        "234ec90f150f37b308ef167b9de8a894b916174422a91e250508f03d12f73b28",
    ("SGDm", "zero"):
        "79007eea20dcadaf7e023fe779d64d197073b912cad4c6aae1b6d3f6ca79fdb6",
    ("SGDm", "big_batch"):
        "12ffa94ea5e97d2cdfd58ba70b8289e74fe7c1827366bfdc1f80d5e8c159d700",
    ("MVR", "single_sample"):
        "340dfb1bb1e5cb3376e68be35ff7bcdffc91c3bb7829b5628bc45093f9f0dd76",
    ("MVR", "zero"):
        "b1a3e2310400efa960c6c68e467ffb4d39d71ac41837e0ff6ab449ea3d3dc072",
    ("MVR", "big_batch"):
        "9d908952dccf9b014b84c40ea66907fdca1e163ba4e1a3f3630ed613bdf11dd8",
    ("GD", "single_sample"):
        "4e33af7042c1d59c18c31494ea79cc6bacfd11f0ba8ca8d6d805eaecbf8d69c8",
    ("GD", "zero"):
        "4e33af7042c1d59c18c31494ea79cc6bacfd11f0ba8ca8d6d805eaecbf8d69c8",
    ("GD", "big_batch"):
        "4e33af7042c1d59c18c31494ea79cc6bacfd11f0ba8ca8d6d805eaecbf8d69c8",
    ("FineTune", "single_sample"):
        "f1635a55217a420c829d854f93bbf5c7adc0d97b18fc29657939e519d5070d8e",
    ("FineTune", "zero"):
        "f1635a55217a420c829d854f93bbf5c7adc0d97b18fc29657939e519d5070d8e",
    ("FineTune", "big_batch"):
        "f1635a55217a420c829d854f93bbf5c7adc0d97b18fc29657939e519d5070d8e",
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
    True: "240a4f5777c6d738134f3f0430d8e28ba1d66a80ac1419a65bd869af6232697b",
    False: "18c51e3e9b576735e1b575b185174bc278ebe6f6fb5f9a32af7b9c17ca1ffd53",
}
DIVERGING_PARTIAL = "d94890bd3324a4e97091ad86cab2de9a7c5d3955750dc27e111a47ae4781c2d5"
CLI_RUN = "bdd3dc3fdf74c916b2151ce7fbe48089432ae2ed902a3da4657b3cfb5704d83a"
CLI_SWEEP = {
    True: "836154049e88fab0232c2bacfe5f35776a2666a6e42c3e3b0e1e958aa8638681",
    False: "69ab59f0ce076c8f940d3f731433f08ad43f581e36234e0ad0360bdc8289db27",
}

LOGISTIC_SWEEP_K = (1, 3)
LOGISTIC_SWEEP = "5d31ef23cf917a5a277bc1fabdd6ec4adce744e2d5cbbf4f7cbbd70cd3c4d024"
LOGISTIC_CORESET = "476afe8069e1b7f4a9035985e66e6cd18c999846658f7fe89ab7114bdd6cc3e7"

CHECK_STDOUT = {
    "toy": """\
estimated Hessian-gap delta = 0.5
analytic delta            = 0.5
estimated bias fit: m = 1.26921, zeta^2 = 4.9184
""",
    "quadratic_nd": """\
estimated Hessian-gap delta = 0.5
analytic delta            = 0.5
estimated bias fit: m = 0.102381, zeta^2 = 1.39215
""",
    "logistic": """\
estimated Hessian-gap delta = 0.0686019
estimated bias fit: m = 0, zeta^2 = 0.0449546
""",
}

DECENTRALIZED = {
    "AuxMOM": "be826dc95fce673b2135188985bf34657bce81ea6f58ca353ed8e75fae938f9b",
    "AuxMVR": "0d65ef25d555281af3acfb2656d7fa653896ecc487f38017d2a301c6506ae60e",
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


def test_logistic_sweep_files(tmp_path):
    cfg = load_config(json.dumps(logistic_config(write_dataset(tmp_path))))
    out = tmp_path / "out"
    run_sweep(cfg, "algorithm.K", LOGISTIC_SWEEP_K, str(out))
    assert tree_digest(out) == LOGISTIC_SWEEP


def test_logistic_coreset_csvs(tmp_path):
    raw = coreset_config(write_dataset(tmp_path))
    assert csv_digest(raw, tmp_path / "out") == LOGISTIC_CORESET


@pytest.mark.parametrize("name", sorted(CHECK_STDOUT))
def test_cli_check_stdout(name, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(check_configs(tmp_path)[name]))
    assert cli.main(["check", "--config", str(config)]) == 0
    assert capsys.readouterr().out == CHECK_STDOUT[name]


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


@pytest.mark.parametrize("rows", [1, 3])
def test_window_size_moves_no_byte(rows, monkeypatch, tmp_path):
    # run books its rows a window of cycles at a time; a bound of one row
    # books each cycle alone, one of three rows a few cycles at a time, and
    # every digest of a run's CSVs holds as it does at the default bound
    got, want = [], []

    def out_dir(dim: int):
        """A fresh output directory, with the window bound at ``rows`` rows of ``dim``."""
        monkeypatch.setattr(optimizers, "WINDOW_FLOATS", rows * dim)
        return tmp_path / f"out{len(got)}"

    for algorithm in ALGORITHMS:
        for m0_mode in M0_MODES:
            got.append(csv_digest(toy_config(algorithm, m0_mode, NOISY), out_dir(1)))
            want.append(NOISY_CSV[algorithm, m0_mode])
        got.append(csv_digest(toy_config(algorithm, "single_sample", {}), out_dir(1)))
        want.append(EXACT_CSV[algorithm])
    for noisy in (True, False):
        out = out_dir(1)
        run_sweep(load_config(json.dumps(sweep_config(noisy))), "algorithm.K", SWEEP_K, str(out))
        got.append(tree_digest(out))
        want.append(SWEEP_FILES[noisy])
    out = out_dir(1)
    with pytest.raises(DivergenceError):
        run_experiment(load_config(json.dumps(diverging_config())), str(out))
    got.append(hashlib.sha256((out / "golden_rep0_partial.csv").read_bytes()).hexdigest())
    want.append(DIVERGING_PARTIAL)
    data = write_dataset(tmp_path)
    out = out_dir(5)
    run_sweep(load_config(json.dumps(logistic_config(data))), "algorithm.K", LOGISTIC_SWEEP_K,
              str(out))
    got.append(tree_digest(out))
    want.append(LOGISTIC_SWEEP)
    got.append(csv_digest(coreset_config(data), out_dir(5)))
    want.append(LOGISTIC_CORESET)
    assert got == want


def test_stream_fork_children():
    assert fork_digest() == FORKS


def test_draw_gaussian_noise_arrays():
    assert noise_digest() == NOISE
