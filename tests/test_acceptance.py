"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each."""
import json
import math
import time

import numpy as np
import pytest

from auxopt import cli
from auxopt.core import NoiseSpec, RandomToken, draw_gaussian_noise, rng_from_token
from auxopt.decentralized import HelperSet, run_decentralized
from auxopt.optimizers import OptimizerConfig, run
from auxopt.problems import (
    LibsvmParseError,
    LogisticTask,
    build_semisupervised,
    logistic_oracle,
    make_quadratic_nd,
    make_synthetic_classification,
    make_toy_pair,
    map_labels_to_pm1,
    parse_libsvm,
    write_libsvm,
)
from auxopt.theory import (
    TheoryParams,
    auxmom_params,
    auxmvr_params,
    default_probe_points,
    estimate_delta,
)
from auxopt.core import gaussian_oracle

TOK = RandomToken(0)


def _report(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {desc}")
        raise
    print(f"criterion {num:2d}: PASS - {desc}")


def test_criterion_01_naive_bias_floor():
    def check():
        start = time.perf_counter()
        oracle = make_toy_pair(0.0, 1.0)
        cfg = OptimizerConfig("Naive", eta=0.5, K=10, T=200)
        traj = run(oracle, cfg, TOK, x0=np.array([1.0]))
        final = traj.final_grad_norm_sq()
        assert final >= 0.1
        # closed-form limit cycle of x' = (1-eta)^K x + zeta (1-(1-eta)^(K-1))
        c = 0.5
        x_star = (1 - c**9) / (1 - c**10)
        assert abs(math.sqrt(final) - x_star) < 1e-8
        assert time.perf_counter() - start < 1.0

    _report(1, "uncorrected helper reuse stalls at the zeta^2 floor", check)


def test_criterion_02_auxmom_bias_correction():
    def check():
        start = time.perf_counter()
        for zeta in (0.1, 1.0, 10.0, 100.0):
            oracle = make_toy_pair(1.0, zeta)
            cfg = OptimizerConfig("AuxMOM", eta=min(0.5, 1.0 / 10.0), a=1.0, K=10, T=200)
            traj = run(oracle, cfg, TOK, x0=np.array([1.0]))
            assert traj.final_grad_norm_sq() < 1e-8, zeta
        assert time.perf_counter() - start < 1.0

    _report(2, "momentum correction converges for every bias magnitude", check)


def test_criterion_03_equivalence_oracles():
    def check():
        # (a) a=1, zero noise: all momentum variants equal iterated local steps
        rng = rng_from_token(RandomToken(41))
        g = rng.standard_normal((3, 3))
        a_h = g @ g.T / 3.0
        oracle = make_quadratic_nd(a_h + 0.2 * np.eye(3), a_h, rng.standard_normal(3))
        x_ref = np.ones(3)
        refs = []
        for _ in range(8):
            y = x_ref.copy()
            for _ in range(5):  # the bias-corrected local step, from exact gradients
                y = y - 0.1 * (oracle.exact_grad_h(y) - oracle.exact_grad_h(x_ref)
                               + oracle.exact_grad_f(x_ref))
            x_ref = y
            refs.append(x_ref.copy())
        for alg in ("AuxMOM", "AuxMOM_V0", "AuxMVR"):
            cfg = OptimizerConfig(alg, eta=0.1, a=1.0, K=5, T=8)
            traj = run(oracle, cfg, TOK, x0=np.ones(3))
            ends = [r.grad_norm_sq for r in traj.cycle_ends()]
            want = [float(np.sum(oracle.exact_grad_f(x) ** 2)) for x in refs]
            assert np.max(np.abs(np.asarray(ends) - np.asarray(want))) < 1e-12
            assert np.max(np.abs(np.asarray(traj.metadata["final_x"]) - refs[-1])) < 1e-12

        # (b) h=f, zero noise, m0=0: AuxMOM equals GD over T*K steps
        same = make_toy_pair(0.0, 0.0)
        aux = run(same, OptimizerConfig("AuxMOM", eta=0.25, a=0.4, K=4, T=5,
                                        m0_mode="zero"), TOK, x0=np.array([2.0]))
        gd = run(same, OptimizerConfig("GD", eta=0.25, T=20), TOK, x0=np.array([2.0]))
        assert abs(aux.metadata["final_x"][0] - gd.metadata["final_x"][0]) < 1e-12

        # (c) decentralized with h_i = f_i, S=1, a=1 equals an independent SVRG
        mats = []
        rng = rng_from_token(RandomToken(42))
        for _ in range(10):
            m = rng.standard_normal((4, 4))
            m = m @ m.T
            mats.append(m / np.linalg.norm(m, 2))
        a_mean = np.mean(mats, axis=0)
        oracles = [
            gaussian_oracle(lambda x, a_mean=a_mean: a_mean @ x,
                            lambda x, m=m: m @ x, NoiseSpec(), dim=4)
            for m in mats
        ]
        cfg = OptimizerConfig("AuxMOM", eta=0.1, a=1.0, K=5, T=100)
        traj = run_decentralized(np.ones(4), HelperSet(oracles=oracles, s=1), cfg,
                                 RandomToken(2))
        x = np.ones(4)
        for t, chosen in enumerate(traj.sampled):
            i = chosen[0]
            full = a_mean @ x
            y = x.copy()
            for _ in range(cfg.K):
                y = y - cfg.eta * (mats[i] @ y - mats[i] @ x + full)
            x = y
            assert np.max(np.abs(traj.snapshots[t + 1] - x)) < 1e-10

    _report(3, "momentum variants reduce to local steps, GD, and SVRG", check)


def test_criterion_04_toy_contraction_factor():
    def check():
        for delta in (0.1, 0.5, 1.0):
            for K in (2, 5, 10):
                eta = 0.5 / (1.0 + delta)
                oracle = make_toy_pair(delta, 1.0)
                cfg = OptimizerConfig("AuxMOM", eta=eta, a=1.0, K=K, T=30)
                traj = run(oracle, cfg, TOK, x0=np.array([1.0]))
                rho = 1.0 - (1.0 - (1.0 - (1.0 + delta) * eta) ** K) / (1.0 + delta)
                gs = [traj.rows[0].grad_norm_sq] + [r.grad_norm_sq
                                                    for r in traj.cycle_ends()]
                for g_prev, g_next in zip(gs, gs[1:]):
                    if g_next < 1e-8:  # cancellation noise floor
                        break
                    assert abs(math.sqrt(g_next / g_prev) - rho) < 1e-10, (delta, K)

    _report(4, "per-cycle contraction matches the closed-form factor", check)


def test_criterion_05_k_benefit():
    def check():
        iters = []
        for K in (1, 2, 5, 10):
            oracle = make_toy_pair(0.1, 1.0)
            cfg = OptimizerConfig("AuxMOM", eta=0.5 / 1.1, a=1.0, K=K, T=80)
            traj = run(oracle, cfg, TOK, x0=np.array([1.0]))
            hit = next(r.t for r in traj.cycle_ends() if r.grad_norm_sq < 1e-6)
            iters.append(hit)
        assert iters == sorted(iters, reverse=True)

    _report(5, "more inner steps never needs more cycles to converge", check)


def test_criterion_06_correlated_noise_variance():
    def check():
        spec = NoiseSpec(sigma_f=1.0, sigma_h=1.0, rho=0.9)
        nf, nh = draw_gaussian_noise(spec, RandomToken(6), 1, n=1_000_000)
        var = float(np.var(nf - nh))
        assert abs(var - 0.2) <= 0.05 * 0.2

    _report(6, "correlated sampling shrinks the difference variance to 0.2", check)


def test_criterion_07_delta_estimator():
    def check():
        rng = rng_from_token(RandomToken(70))
        for trial in range(20):
            dim = int(rng.integers(2, 6))
            g = rng.standard_normal((dim, dim))
            a_h = g @ g.T / dim
            d = rng.standard_normal((dim, dim))
            d = d + d.T
            d = float(rng.random() + 0.5) * d / np.linalg.norm(d, 2)
            a_f = a_h + d + (2.0 + 2.0 * np.linalg.norm(d, 2)) * np.eye(dim)
            oracle = make_quadratic_nd(a_f, a_h, np.zeros(dim))
            probes = default_probe_points(dim, RandomToken(700 + trial))
            got = estimate_delta(oracle.exact_grad_f, oracle.exact_grad_h, probes)
            assert abs(got - oracle.hessian_gap) <= 1e-4 * oracle.hessian_gap, trial

        features, labels = make_synthetic_classification(300, 20, RandomToken(71))
        task = LogisticTask(features, map_labels_to_pm1(labels))
        _, h_task, _ = build_semisupervised(
            task, (1 / 3, 1 / 3, 1 / 3), "random_labels", RandomToken(72)
        )
        true_labels = LogisticTask(h_task.features, np.ones(h_task.n_samples))
        probes = default_probe_points(20, RandomToken(73))
        got = estimate_delta(true_labels.grad, h_task.grad, probes)
        assert got < 1e-6

    _report(7, "curvature-gap estimator is accurate and label-blind", check)


def test_criterion_08_parser():
    def check():
        features, labels = make_synthetic_classification(8124, 112, RandomToken(8))
        parsed, got_labels = parse_libsvm(write_libsvm(features, labels))
        assert parsed.shape == (8124, 112)
        assert len(got_labels) == 8124

        malformed = [
            ("x 1:1\n", 1),
            ("1 1:1\n2 foo\n", 2),
            ("1 0:1\n", 1),
            ("1 -2:1\n", 1),
            ("1 2:1 1:1\n", 1),
            ("1 1:1\n1 3:1 3:2\n", 2),
            ("1 1:abc\n", 1),
            ("1 :5\n", 1),
            ("1 1:1\n1 1:1\nz 1:1\n", 3),
            ("1 1.5:2\n", 1),
        ]
        assert len(malformed) == 10
        for text, lineno in malformed:
            with pytest.raises(LibsvmParseError, match=f"line {lineno}"):
                parse_libsvm(text)

    _report(8, "dataset parser accepts the full-size format, rejects with line numbers", check)


def test_criterion_09_theorem_parameters():
    def check():
        p = TheoryParams(L=1.0, delta=0.1, sigma_f=1.0, sigma_h=1.0, sigma_fmh=1.0,
                         F0=1.0, K=10, T=100)
        # independent arithmetic on the stated formulas
        beta_ref = 0.1 * (1.0 + 1.0 / 180.0) + 1.0 / 2880.0
        eta_ref = min(1.0, 1.0 / 192.0,
                      math.sqrt(1.0 / (144.0 * beta_ref * 100 * 100)))
        a_ref = max(0.01, 36.0 * eta_ref)
        eta, a, beta = auxmom_params(p)
        assert abs(beta - beta_ref) < 1e-12
        assert abs(eta - eta_ref) < 1e-12
        assert abs(a - a_ref) < 1e-12

        eta_ref2 = min(1.0, 1.0 / 192.0,
                       0.1 * (1.0 / 18432.0 / 1.0) ** (1.0 / 3.0),
                       math.sqrt(1.0 / (1000.0 * 8.5)))
        a_ref2 = max(0.01, 1156.0 * eta_ref2**2)
        eta2, a2 = auxmvr_params(p)
        assert abs(eta2 - eta_ref2) < 1e-12
        assert abs(a2 - a_ref2) < 1e-12

        # monotonicity: eta nonincreasing in delta, K, and T
        def eta_of(d, K, T):
            return auxmom_params(TheoryParams(
                L=1.0, delta=d, sigma_f=1.0, sigma_h=1.0, sigma_fmh=1.0,
                F0=1.0, K=K, T=T))[0]

        grid_d, grid_k, grid_t = (0.05, 0.1, 0.5), (5, 10, 20), (50, 100, 200)
        for K in grid_k:
            for T in grid_t:
                vals = [eta_of(d, K, T) for d in grid_d]
                assert vals == sorted(vals, reverse=True)
        for d in grid_d:
            for T in grid_t:
                vals = [eta_of(d, K, T) for K in grid_k]
                assert vals == sorted(vals, reverse=True)
            for K in grid_k:
                vals = [eta_of(d, K, T) for T in grid_t]
                assert vals == sorted(vals, reverse=True)

    _report(9, "prescribed step sizes match hand-derived values and monotonicity", check)


def test_criterion_10_semisupervised_logistic():
    def check():
        start = time.perf_counter()
        features, labels = make_synthetic_classification(2000, 112, RandomToken(123))
        task = LogisticTask(features, map_labels_to_pm1(labels))
        wins = 0
        for seed in range(5):
            f_task, h_task, _ = build_semisupervised(
                task, (1 / 3, 1 / 3, 1 / 3), "random_labels",
                RandomToken(seed),
            )
            oracle = logistic_oracle(f_task, h_task, batch_size=128)
            x0 = np.zeros(oracle.dim)
            aux = run(oracle, OptimizerConfig("AuxMOM", eta=0.5, a=0.1, K=10, T=40),
                      RandomToken(seed), x0=x0)
            sgd = run(oracle, OptimizerConfig("SGDm", eta=0.5, a=0.1, K=1, T=40),
                      RandomToken(seed), x0=x0)
            # matched f-gradient budget: one momentum draw per cycle either way
            ra, rs = aux.rows[-1], sgd.rows[-1]
            assert ra.calls_f + ra.calls_fmh == rs.calls_f + rs.calls_fmh
            loss_aux = f_task.loss(np.asarray(aux.metadata["final_x"]))
            loss_sgd = f_task.loss(np.asarray(sgd.metadata["final_x"]))
            wins += loss_aux < loss_sgd
        assert wins >= 4
        assert time.perf_counter() - start < 60.0

    _report(10, "random-label helper beats the same-budget baseline on 4/5 seeds", check)


def test_criterion_11_determinism(tmp_path):
    def check():
        raw = {
            "version": 1,
            "problem": {"toy": {"delta": 0.5, "zeta": 2.0}},
            "algorithm": {"name": "AuxMVR", "eta": 0.05, "a": 0.2, "K": 5, "T": 50},
            "noise": {"sigma_f": 1.0, "sigma_h": 1.0, "rho": 0.5},
            "seed": 13,
            "repeats": 2,
            "diagnostics": True,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg_path), "--out",
                         str(tmp_path / "a")]) == 0
        assert cli.main(["run", "--config", str(cfg_path), "--out",
                         str(tmp_path / "b")]) == 0
        names = ["experiment_rep0.csv", "experiment_rep1.csv", "experiment_aggregate.csv"]
        for name in names:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name
            assert len(a) > 0

    _report(11, "repeated runs emit byte-identical CSVs", check)
