import dataclasses
import itertools

import numpy as np
import pytest

from auxopt.core import (
    NoiseSpec,
    OraclePair,
    RandomToken,
    gaussian_oracle,
    rng_from_token,
    stream_fork,
)
from auxopt.decentralized import (
    HelperSet,
    decentralized_cycle,
    run_decentralized,
    sample_helpers,
)
from auxopt.optimizers import OptimizerConfig, cycle, init_momentum
from auxopt.problems import make_toy_pair

TOK = RandomToken(0)


def one_cycle(x, helpers, cfg, token):
    """``decentralized_cycle`` sampling its helpers under ``token`` and running
    helper i under label i of it: (x', sampled set)."""
    sampled = sample_helpers(token, helpers.n, helpers.s)
    tokens = [stream_fork(token, i) for i in sampled]
    return decentralized_cycle(x, helpers, cfg, sampled, tokens, x_prev=x), sampled


def quad_oracle(a, noise=NoiseSpec(), grad_f_matrix=None):
    a = np.asarray(a, dtype=np.float64)
    af = a if grad_f_matrix is None else np.asarray(grad_f_matrix)
    return gaussian_oracle(
        lambda x: af @ x,
        lambda x: a @ x,
        noise,
        dim=a.shape[0],
        f_value=lambda x: 0.5 * float(x @ (af @ x)),
    )


class TestHelperSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            HelperSet(oracles=[], s=1)

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            HelperSet(oracles=[quad_oracle(np.eye(2))], s=2)

    def test_momenta_default_zero(self):
        hs = HelperSet(oracles=[quad_oracle(np.eye(2))] * 3, s=2)
        assert all(np.all(m == 0) for m in hs.momenta)


class TestSampling:
    def test_deterministic(self):
        assert sample_helpers(TOK, 10, 3) == sample_helpers(TOK, 10, 3)

    def test_without_replacement(self):
        for label in range(20):
            s = sample_helpers(RandomToken(label), 10, 5)
            assert len(set(s)) == 5
            assert all(0 <= i < 10 for i in s)

    def test_uniform_coverage(self):
        counts = np.zeros(5)
        for label in range(2000):
            for i in sample_helpers(RandomToken(label), 5, 2):
                counts[i] += 1
        freq = counts / counts.sum()
        assert np.all(np.abs(freq - 0.2) < 0.02)

    def test_draws_what_a_fresh_generator_draws(self):
        # sampling borrows the thread's generator; the set must be the one
        # rng_from_token draws on the same token
        for label in range(300):
            token = stream_fork(RandomToken(label), 0)
            n = 2 + label % 30
            s = 1 + label % n
            fresh = rng_from_token(token).choice(n, size=s, replace=False)
            assert sample_helpers(token, n, s) == sorted(int(i) for i in fresh)


class TestDecentralizedCycle:
    def test_n1_s1_matches_single_helper_deterministic(self):
        oracle = make_toy_pair(0.5, 2.0)
        cfg = OptimizerConfig("AuxMOM", eta=0.2, a=0.7, K=4, T=1, m0_mode="zero")
        hs = HelperSet(oracles=[oracle], s=1)
        x = np.array([1.5])
        x_dec, sampled = one_cycle(x, hs, cfg, TOK)
        assert sampled == [0]
        m_single, ys = cycle(x, x, init_momentum(x, oracle, cfg, TOK), oracle, cfg, TOK)
        assert np.allclose(x_dec, ys[-1], atol=1e-15)
        assert np.allclose(hs.momenta[0], m_single)

    def test_averaging(self):
        # two deterministic helpers whose inner loops end at different points:
        # the next snapshot is the mean of the finals
        o1 = quad_oracle(np.zeros((1, 1)), grad_f_matrix=np.zeros((1, 1)))
        o2 = quad_oracle(np.zeros((1, 1)), grad_f_matrix=np.zeros((1, 1)))
        # replace h-gradients with constants: h1 pulls down by 1, h2 up by 1
        o1 = OraclePair(dim=1, grad_f=o1.grad_f, grad_h=lambda x, t: np.array([1.0]),
                       grad_f_minus_h=lambda x, t: np.array([-1.0]),
                       exact_grad_f=o1.exact_grad_f,
                       exact_grad_h=lambda x: np.array([1.0]), f_value=o1.f_value)
        o2 = OraclePair(dim=1, grad_f=o2.grad_f, grad_h=lambda x, t: np.array([-1.0]),
                       grad_f_minus_h=lambda x, t: np.array([1.0]),
                       exact_grad_f=o2.exact_grad_f,
                       exact_grad_h=lambda x: np.array([-1.0]), f_value=o2.f_value)
        cfg = OptimizerConfig("AuxMOM", eta=1.0, a=1.0, K=1, T=1)
        hs = HelperSet(oracles=[o1, o2], s=2)
        x_new, sampled = one_cycle(np.array([0.0]), hs, cfg, TOK)
        # each helper's step direction is grad_h + m = grad_f = 0, so both stay;
        # instead check with zero momentum by a=1: m_i = -grad_h_i, step = 0
        assert sampled == [0, 1]
        assert x_new[0] == pytest.approx(0.0)

    def test_unsampled_momentum_unchanged(self):
        oracles = [make_toy_pair(0.3, float(z)) for z in range(5)]
        cfg = OptimizerConfig("AuxMOM", eta=0.1, a=0.5, K=3, T=1)
        hs = HelperSet(oracles=oracles, s=2)
        before = [m.copy() for m in hs.momenta]
        _, sampled = one_cycle(np.array([1.0]), hs, cfg, RandomToken(4))
        for i in range(5):
            if i not in sampled:
                assert np.array_equal(hs.momenta[i], before[i])
            else:
                assert not np.array_equal(hs.momenta[i], before[i])

    def test_budget_one_fmh_per_sampled_helper(self):
        oracles = [make_toy_pair(0.3, 1.0) for _ in range(4)]
        cfg = OptimizerConfig("AuxMOM", eta=0.1, a=0.5, K=3, T=1)
        hs = HelperSet(oracles=oracles, s=3)
        one_cycle(np.array([1.0]), hs, cfg, TOK)
        assert hs.calls_fmh == 3
        assert hs.calls_h == 9
        hs_mvr = HelperSet(oracles=oracles, s=3)
        one_cycle(np.array([1.0]), hs_mvr, dataclasses.replace(cfg, algorithm="AuxMVR"), TOK)
        assert hs_mvr.calls_fmh == 6

    @pytest.mark.parametrize("algorithm,variant", [("SGDm", "AuxMOM"), ("AuxMOM", "AuxMVR")])
    def test_run_rejects_an_algorithm_other_than_its_variant(self, algorithm, variant):
        # the config is run as given or not at all, never as another method
        hs = HelperSet(oracles=[make_toy_pair(0.3, 1.0)], s=1)
        cfg = OptimizerConfig(algorithm, eta=0.1, a=0.5, K=2, T=3)
        with pytest.raises(ValueError, match=f"'{algorithm}' is not the variant '{variant}'"):
            run_decentralized(np.array([1.0]), hs, cfg, TOK, variant=variant)
        assert hs.calls == {}

    def test_merged_helpers_match_single_run(self):
        # S = N identical helpers that draw matched noise == one helper
        def keyed(oracle):
            """Copy of ``oracle`` whose j-th block of samples is drawn at
            RandomToken(j), whatever token it is given."""
            draws = itertools.count()
            return dataclasses.replace(
                oracle, draw=lambda token, n: oracle.draw(RandomToken(next(draws)), n))

        pair = make_toy_pair(0.3, 1.0, NoiseSpec(sigma_f=0.5, sigma_h=0.5, rho=0.2))
        cfg = OptimizerConfig("AuxMOM", eta=0.05, a=0.5, K=3, T=10)
        x0 = np.array([1.0])
        single = run_decentralized(x0, HelperSet(oracles=[keyed(pair)], s=1),
                                   cfg, RandomToken(9))
        merged = run_decentralized(x0, HelperSet(oracles=[keyed(pair) for _ in range(3)], s=3),
                                   cfg, RandomToken(9))
        for a, b in zip(single.snapshots, merged.snapshots):
            assert np.allclose(a, b, atol=1e-14)


class TestSvrgRecovery:
    def test_matches_independent_svrg(self):
        # f = (1/n) sum f_i over 10 quadratic components, h_i = f_i, S=1, a=1:
        # inner direction is grad f_i(y) - grad f_i(x) + grad f(x)
        rng = rng_from_token(RandomToken(21))
        n, dim = 10, 4
        mats = []
        for _ in range(n):
            g = rng.standard_normal((dim, dim))
            m = g @ g.T
            mats.append(m / np.linalg.norm(m, 2))
        a_mean = np.mean(mats, axis=0)
        oracles = [quad_oracle(m, grad_f_matrix=a_mean) for m in mats]
        cfg = OptimizerConfig("AuxMOM", eta=0.1, a=1.0, K=5, T=100)
        x0 = np.ones(dim)
        traj = run_decentralized(x0, HelperSet(oracles=oracles, s=1), cfg, RandomToken(2))

        # independent SVRG reference replaying the same component choices
        x = x0.copy()
        for chosen in traj.sampled:
            i = chosen[0]
            full = a_mean @ x
            y = x.copy()
            for _ in range(cfg.K):
                y = y - cfg.eta * (mats[i] @ y - mats[i] @ x + full)
            x = y
        assert np.max(np.abs(traj.snapshots[-1] - x)) < 1e-10


class TestAveragingLemma:
    def test_convex_quadratic_potential(self):
        # f(mean) + alpha ||mean - x||^2 <= mean_i [f(x_i) + alpha ||x_i - x||^2]
        rng = rng_from_token(RandomToken(33))
        for _ in range(1000):
            dim = int(rng.integers(1, 5))
            n = int(rng.integers(2, 6))
            g = rng.standard_normal((dim, dim))
            a = g @ g.T
            f = lambda z: 0.5 * float(z @ (a @ z))
            x = rng.standard_normal(dim)
            pts = rng.standard_normal((n, dim))
            alpha = float(rng.random()) * 2.0
            mean = pts.mean(axis=0)
            lhs = f(mean) + alpha * float((mean - x) @ (mean - x))
            rhs = np.mean([f(p) + alpha * float((p - x) @ (p - x)) for p in pts])
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))
