import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auxopt.core import RandomToken, rng_from_token
from auxopt.optimizers import OptimizerConfig, run
from auxopt.problems import (
    LogisticTask,
    build_coreset_helper,
    build_semisupervised,
    make_quadratic_nd,
    make_toy_pair,
)
from auxopt.theory import (
    TheoryParams,
    auxmom_beta,
    auxmom_params,
    auxmvr_params,
    default_probe_points,
    estimate_bias,
    estimate_delta,
)

# Golden inputs: L=1, delta=0.1, K=10, T=100, all noise levels 1, F0=1.
GOLD = TheoryParams(L=1.0, delta=0.1, sigma_f=1.0, sigma_h=1.0, sigma_fmh=1.0,
                    F0=1.0, K=10, T=100)

# Frozen golden outputs, recomputed here by independent direct arithmetic.
GOLD_BETA = 0.1 * (1.0 + 1.0 / 180.0) + 1.0 / 2880.0
GOLD_MOM_ETA = min(1.0, 1.0 / 192.0,
                   math.sqrt(1.0 / (144.0 * GOLD_BETA * 100 * 100)))
GOLD_MOM_A = max(0.01, 36.0 * 0.1 * 10.0 * GOLD_MOM_ETA)
GOLD_MVR_ETA = min(
    1.0,
    1.0 / 192.0,
    0.1 * (1.0 / (18432.0 * 0.01 * 100.0)) ** (1.0 / 3.0),
    math.sqrt(1.0 / (10.0 * 100.0 * (0.5 + 8.0))),
)
GOLD_MVR_A = max(0.01, 1156.0 * 0.01 * 100.0 * GOLD_MVR_ETA**2)


class TestTheoryParams:
    def test_rejects_delta_above_2l(self):
        with pytest.raises(ValueError):
            TheoryParams(L=1.0, delta=2.5)

    def test_rejects_nonpositive_l(self):
        with pytest.raises(ValueError):
            TheoryParams(L=0.0, delta=0.0)


class TestAuxmomParams:
    def test_golden_beta(self):
        assert auxmom_beta(GOLD) == pytest.approx(GOLD_BETA, abs=1e-12)

    def test_golden_eta_a(self):
        eta, a, beta = auxmom_params(GOLD)
        assert eta == pytest.approx(GOLD_MOM_ETA, abs=1e-12)
        assert a == pytest.approx(GOLD_MOM_A, abs=1e-12)
        assert beta == pytest.approx(GOLD_BETA, abs=1e-12)

    def test_degenerate_deterministic(self):
        p = TheoryParams(L=2.0, delta=0.0, T=50, K=10)
        eta, a, beta = auxmom_params(p)
        assert eta == 0.5 and a == 0.02 and beta == 0.0

    def test_eta_monotone_in_delta_k_t(self):
        grid = [0.05, 0.1, 0.5]
        for K in (5, 10, 20):
            for T in (50, 100, 200):
                etas = [auxmom_params(TheoryParams(
                    L=1.0, delta=d, sigma_f=1.0, sigma_h=1.0, sigma_fmh=1.0,
                    F0=1.0, K=K, T=T))[0] for d in grid]
                assert etas == sorted(etas, reverse=True)
        for d in grid:
            for T in (50, 100, 200):
                etas = [auxmom_params(TheoryParams(
                    L=1.0, delta=d, sigma_f=1.0, sigma_h=1.0, sigma_fmh=1.0,
                    F0=1.0, K=K, T=T))[0] for K in (5, 10, 20)]
                assert etas == sorted(etas, reverse=True)
            for K in (5, 10, 20):
                etas = [auxmom_params(TheoryParams(
                    L=1.0, delta=d, sigma_f=1.0, sigma_h=1.0, sigma_fmh=1.0,
                    F0=1.0, K=K, T=T))[0] for T in (50, 100, 200)]
                assert etas == sorted(etas, reverse=True)

    @given(
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=0.0, max_value=0.2),
        st.floats(min_value=0.0, max_value=5),
        st.floats(min_value=0.0, max_value=5),
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_parameter_safety(self, L, delta_frac, sigma, F0, K, T):
        delta = delta_frac * 2 * L
        p = TheoryParams(L=L, delta=delta, sigma_f=sigma, sigma_h=sigma,
                         sigma_fmh=sigma, F0=F0, K=K, T=T)
        eta, a, _ = auxmom_params(p)
        assert 0 < eta <= 1.0 / L + 1e-15
        assert 0 < a <= 1.0


class TestAuxmvrParams:
    def test_golden(self):
        eta, a = auxmvr_params(GOLD)
        assert eta == pytest.approx(GOLD_MVR_ETA, abs=1e-12)
        assert a == pytest.approx(GOLD_MVR_A, abs=1e-12)

    def test_delta_zero_branches(self):
        p = TheoryParams(L=1.0, delta=0.0, sigma_fmh=1.0, F0=1.0, K=4, T=25)
        eta, a = auxmvr_params(p)
        assert eta == pytest.approx(min(1.0, math.sqrt(1.0 / (4 * 25 * 0.5))), abs=1e-15)
        assert a == 0.04

    def test_a_at_least_inverse_t(self):
        for T in (1, 10, 1000):
            p = TheoryParams(L=1.0, delta=0.01, sigma_fmh=1.0, F0=1.0, K=2, T=T)
            _, a = auxmvr_params(p)
            assert a >= 1.0 / T


class TestEstimateDelta:
    def test_toy_pair(self):
        oracle = make_toy_pair(0.3, 5.0)
        probes = default_probe_points(1, RandomToken(1))
        got = estimate_delta(oracle.exact_grad_f, oracle.exact_grad_h, probes)
        assert got == pytest.approx(0.3, abs=1e-4)

    def test_h_equals_f_gives_zero(self):
        oracle = make_toy_pair(0.0, 0.0)
        probes = default_probe_points(1, RandomToken(1))
        got = estimate_delta(oracle.exact_grad_f, oracle.exact_grad_h, probes)
        assert got < 1e-6

    def test_quadratic_gap(self):
        rng = rng_from_token(RandomToken(2))
        g = rng.standard_normal((5, 5))
        a_h = g @ g.T / 5.0
        d = rng.standard_normal((5, 5))
        d = d + d.T
        d = 0.4 * d / np.linalg.norm(d, 2)
        a_f = a_h + d + 2.0 * np.eye(5)
        oracle = make_quadratic_nd(a_f, a_h, np.zeros(5))
        probes = default_probe_points(5, RandomToken(3))
        got = estimate_delta(oracle.exact_grad_f, oracle.exact_grad_h, probes)
        assert got == pytest.approx(oracle.hessian_gap, rel=1e-4)

    def test_coreset_fraction_one_gives_zero(self):
        rng = rng_from_token(RandomToken(4))
        features = rng.standard_normal((40, 3))
        labels = np.sign(rng.standard_normal(40))
        labels[labels == 0] = 1.0
        task = LogisticTask(features, labels)
        helper = build_coreset_helper(task, 1.0, RandomToken(5))
        probes = default_probe_points(3, RandomToken(6))
        got = estimate_delta(task.grad, helper.grad, probes)
        assert got < 1e-6

    def test_random_label_helper_gives_zero(self):
        rng = rng_from_token(RandomToken(7))
        features = rng.standard_normal((120, 4))
        labels = np.sign(rng.standard_normal(120))
        labels[labels == 0] = 1.0
        task = LogisticTask(features, labels)
        _, h_task, _ = build_semisupervised(
            task, (1 / 3, 1 / 3, 1 / 3), "random_labels", RandomToken(8)
        )
        same_features = LogisticTask(h_task.features, h_task.labels)
        probes = default_probe_points(4, RandomToken(9))
        got = estimate_delta(
            LogisticTask(h_task.features, np.ones(h_task.n_samples)).grad,
            same_features.grad,
            probes,
        )
        assert got < 1e-6


class TestEstimateBias:
    def _probes(self, dim, n=30):
        return default_probe_points(dim, RandomToken(10), n_points=n, radius=3.0)

    def test_constant_bias_toy(self):
        oracle = make_toy_pair(0.0, 1.0)
        est = estimate_bias(oracle.exact_grad_f, oracle.exact_grad_h, self._probes(1))
        # rounding of (x - (x - 1)) leaves O(eps) slack in the least-slack fit
        assert est.m == pytest.approx(0.0, abs=1e-9)
        assert est.zeta_sq == pytest.approx(1.0, abs=1e-9)

    def test_h_equals_f(self):
        oracle = make_toy_pair(0.0, 0.0)
        est = estimate_bias(oracle.exact_grad_f, oracle.exact_grad_h, self._probes(1))
        assert est.m == 0.0 and est.zeta_sq == 0.0

    def test_constant_bias_quadratic(self):
        a = np.diag([1.0, 2.0])
        oracle = make_quadratic_nd(a, a, np.array([0.0, 5.0]))
        est = estimate_bias(oracle.exact_grad_f, oracle.exact_grad_h, self._probes(2))
        assert est.m == pytest.approx(0.0, abs=1e-12)
        assert est.zeta_sq == pytest.approx(25.0, abs=1e-9)

    def test_fit_holds_on_probes(self):
        oracle = make_toy_pair(0.6, 2.0)
        probes = self._probes(1)
        est = estimate_bias(oracle.exact_grad_f, oracle.exact_grad_h, probes)
        for x in probes:
            b = float(np.sum(oracle.exact_grad_f_minus_h(x) ** 2))
            g = float(np.sum(oracle.exact_grad_f(x) ** 2))
            assert b <= est.m * g + est.zeta_sq + 1e-9

    def test_rejects_empty_probes(self):
        oracle = make_toy_pair(0.0, 0.0)
        with pytest.raises(ValueError):
            estimate_bias(oracle.exact_grad_f, oracle.exact_grad_h, [])


class TestDiagnostics:
    """E^t, Delta^t and G^t as ``run`` records them with diagnostics on."""

    def test_e_zero_for_exact_momentum(self):
        # AuxMVR from m0 = (grad f - grad h)(x0) with x_prev = x0 keeps m1 = m0
        # exactly when a = 1/2, so the first cycle's momentum error is zero.
        oracle = make_toy_pair(0.5, 2.0)
        cfg = OptimizerConfig("AuxMVR", eta=0.1, a=0.5, K=3, T=2)
        traj = run(oracle, cfg, RandomToken(0), diagnostics_on=True, x0=np.array([1.0]))
        first = [row.E_t for row in traj.rows if row.t == 1]
        assert first == [0.0] * 3

    def test_no_movement(self):
        # x0 = 0 is the fixed point of f = x^2/2 with h = (x - 1)^2/2
        oracle = make_toy_pair(0.0, 1.0)
        cfg = OptimizerConfig("AuxMOM", eta=0.5, a=1.0, K=2, T=3)
        traj = run(oracle, cfg, RandomToken(0), diagnostics_on=True, x0=np.array([0.0]))
        assert all(row.Delta_t == 0.0 for row in traj.rows if row.t > 0)
        assert traj.cycle_grad_means() == [0.0] * 3

    def test_g_averages_inner_iterates(self):
        # h == f: Naive halves x on every step, 1 -> 0.5 -> 0.25 in cycle one
        oracle = make_toy_pair(0.0, 0.0)
        cfg = OptimizerConfig("Naive", eta=0.5, K=2, T=1)
        traj = run(oracle, cfg, RandomToken(0), diagnostics_on=True, x0=np.array([1.0]))
        assert traj.cycle_grad_means() == [pytest.approx((0.25 + 0.0625) / 2)]
        assert [row.Delta_t for row in traj.rows[1:]] == [0.25, 0.5625]


class TestTheoremGuidedRun:
    def test_cycle_grad_means_nonincreasing(self):
        # deterministic toy pair, theorem step size: descent after cycle one
        oracle = make_toy_pair(0.1, 1.0)
        p = TheoryParams(L=oracle.lipschitz, delta=0.1, F0=0.5, K=10, T=50)
        eta, a, _ = auxmom_params(p)
        cfg = OptimizerConfig("AuxMOM", eta=eta, a=a, K=10, T=50)
        traj = run(oracle, cfg, RandomToken(0), x0=np.array([1.0]))
        g = traj.cycle_grad_means()
        for prev, cur in zip(g[1:], g[2:]):
            assert cur <= prev + 1e-15
