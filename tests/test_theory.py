import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auxopt import optimizers
from auxopt.core import (
    ConfigError,
    NoiseSpec,
    RandomToken,
    gaussian_oracle,
    rng_from_token,
    stream_fork,
)
from auxopt.optimizers import OptimizerConfig, run
from auxopt.problems import (
    LogisticTask,
    build_semisupervised,
    make_quadratic_nd,
    make_toy_pair,
)
from auxopt.theory import (
    DELTA_FD_SCALE,
    DELTA_ITERS,
    DELTA_RESTARTS,
    DELTA_TOL,
    TheoryParams,
    auxmom_beta,
    auxmom_params,
    auxmvr_params,
    check_report,
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

    def test_rejects_l_whose_inverse_squared_overflows(self):
        # eta can reach 1/L, and auxmvr_params squares eta
        with pytest.raises(ConfigError) as err:
            TheoryParams(L=1e-160, delta=0.0)
        assert err.value.path == "L"


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

    def test_cubic_branch_dropped_when_its_denominator_underflows(self):
        # delta**2 underflows to 0; the branch is +inf, so it cannot bind
        p = TheoryParams(L=1.0, delta=1e-200, sigma_fmh=1.0, F0=1.0, K=1, T=1)
        assert auxmvr_params(p) == (1.0, 1.0)

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
        f_task, helper = build_semisupervised(
            LogisticTask(features, labels), (1 / 3, 1 / 3, 1 / 3), "coreset", RandomToken(5)
        )
        probes = default_probe_points(3, RandomToken(6))
        got = estimate_delta(f_task.grad, helper.grad, probes)
        assert got < 1e-6

    def test_random_label_helper_gives_zero(self):
        rng = rng_from_token(RandomToken(7))
        features = rng.standard_normal((120, 4))
        labels = np.sign(rng.standard_normal(120))
        labels[labels == 0] = 1.0
        task = LogisticTask(features, labels)
        _, h_task = build_semisupervised(
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


def _one_restart_at_a_time(grad_f, grad_h, probes, token=RandomToken(0)):
    """``estimate_delta`` as it ran before it stacked its restarts: each probe's
    restarts, one after another, each a power iteration on one point."""
    rng = rng_from_token(stream_fork(token, 777))
    best = 0.0
    for x in probes:
        x = np.asarray(x, dtype=np.float64)
        eps = DELTA_FD_SCALE * (1.0 + float(np.linalg.norm(x)))

        def hv(v):
            gp = grad_f(x + eps * v) - grad_h(x + eps * v)
            gm = grad_f(x - eps * v) - grad_h(x - eps * v)
            g = (gp - gm) / (2.0 * eps)
            if not np.all(np.isfinite(g)):
                raise ValueError("non-finite gradient evaluation in delta estimator")
            return g

        for _ in range(DELTA_RESTARTS):
            v = rng.standard_normal(len(x))
            v /= np.linalg.norm(v)
            est = 0.0
            for _ in range(DELTA_ITERS):
                w = hv(v)
                norm_w = float(np.linalg.norm(w))
                stop = norm_w < DELTA_TOL or abs(norm_w - est) <= DELTA_TOL * max(1.0, norm_w)
                est = norm_w
                if stop:
                    break
                v = w / norm_w
            best = max(best, est)
    return best


@functools.cache
def _delta_case(name):
    """(grad_f, grad_h, probes, delta one restart at a time) of a named pair."""
    if name.startswith("toy"):
        oracle = make_toy_pair(0.3 if name == "toy_0.3" else 0.0, 5.0)
        grads, probes = (oracle.exact_grad_f, oracle.exact_grad_h), default_probe_points(
            1, RandomToken(1))
    elif name == "quadratic_nd_slow":  # gap eigenvalues 1 and 0.99: no restart stops early
        oracle = make_quadratic_nd(np.diag([2.0, 1.99, 1.0]), np.eye(3), np.zeros(3))
        grads, probes = (oracle.exact_grad_f, oracle.exact_grad_h), default_probe_points(
            3, RandomToken(3))
    elif name == "quadratic_nd":
        g, d = rng_from_token(RandomToken(2)).standard_normal((2, 5, 5))
        a_h = g @ g.T / 5.0
        oracle = make_quadratic_nd(a_h + 0.2 * (d + d.T) + 2.0 * np.eye(5), a_h, np.zeros(5))
        grads, probes = (oracle.exact_grad_f, oracle.exact_grad_h), default_probe_points(
            5, RandomToken(3))
    else:  # a logistic pair: a coreset of every train row, or random-label rows
        rng = rng_from_token(RandomToken(4))
        task = LogisticTask(rng.standard_normal((120, 4)),
                            np.where(rng.random(120) < 0.5, -1.0, 1.0))
        kind = name.removeprefix("logistic_")
        f_task, h_task = build_semisupervised(task, (1 / 3, 1 / 3, 1 / 3), kind, RandomToken(5),
                                              fraction=1.0 if kind == "coreset" else None)
        grads, probes = (f_task.grad, h_task.grad), default_probe_points(4, RandomToken(6))
    return *grads, probes, _one_restart_at_a_time(*grads, probes, token=RandomToken(8))


class TestStackedEstimateDelta:
    """``estimate_delta`` runs its restarts as the rows of a stack, a block of
    rows at a time, with the bits of running them one at a time."""

    @pytest.mark.parametrize("rows", [1, 3, None], ids=["1row", "3rows", "default"])
    @pytest.mark.parametrize("name", ["toy_0.3", "toy_0", "quadratic_nd", "quadratic_nd_slow",
                                      "logistic_coreset", "logistic_random_labels"])
    def test_bits_of_one_restart_at_a_time(self, name, rows, monkeypatch):
        grad_f, grad_h, probes, want = _delta_case(name)
        if rows is not None:  # a block's x +- eps v points: 2 x rows x d floats
            monkeypatch.setattr(optimizers, "WINDOW_FLOATS", 2 * rows * probes.shape[1])
        got = estimate_delta(grad_f, grad_h, probes, token=RandomToken(8))
        assert got == want
        assert (want == 0.0) == (name in ("toy_0", "logistic_coreset"))

    def test_one_evaluation_of_each_side_per_step(self, monkeypatch):
        # 100 restarts of a d = 5 pair in blocks of 40, 40 and 20 rows
        grad_f, grad_h, probes, _ = _delta_case("quadratic_nd")
        monkeypatch.setattr(optimizers, "WINDOW_FLOATS", 2 * 40 * 5)
        calls = []
        estimate_delta(lambda x: calls.append(len(x)) or grad_f(x), grad_h, probes,
                       token=RandomToken(8))
        assert calls[0] == 80 and max(calls) == 80 and calls[-1] <= 40
        assert len(calls) <= 3 * DELTA_ITERS

    def test_no_probes_give_zero(self):
        assert estimate_delta(np.zeros_like, np.zeros_like, []) == 0.0

    @pytest.mark.parametrize("dim", [1, 5, 112])
    def test_probes_are_the_points_drawn_one_at_a_time(self, dim):
        rng = rng_from_token(RandomToken(3))
        want = [2.5 * rng.standard_normal(dim) for _ in range(20)]
        assert np.array_equal(default_probe_points(dim, RandomToken(3), radius=2.5), want)

    def test_non_finite_difference_raises(self):
        # 1e308 x overflows at every probe entry above 1.8 in size
        probes = default_probe_points(2, RandomToken(1), radius=10.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match="^non-finite gradient evaluation in delta estimator$"):
            estimate_delta(lambda x: 1e308 * x, np.zeros_like, probes)

    def test_memory_peak_at_most_three_times_one_restart_at_a_time(self):
        # at d = 2**16 a block is one row; the probes' (20, d) array is read in place
        dim = 2**16
        oracle = gaussian_oracle(lambda x: 2.0 * x, lambda x: 1.5 * x, NoiseSpec(), dim,
                                 f_value=lambda x: 0.0)
        probes = default_probe_points(dim, RandomToken(1))
        peaks = []
        for estimator in (estimate_delta, _one_restart_at_a_time):
            tracemalloc.start()
            assert estimator(oracle.exact_grad_f, oracle.exact_grad_h, probes) == (
                pytest.approx(0.5))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[0] <= 3 * peaks[1], peaks


class TestEstimateBias:
    def _probes(self, dim, n=30):
        return default_probe_points(dim, RandomToken(10), n_points=n, radius=3.0)

    def test_constant_bias_toy(self):
        oracle = make_toy_pair(0.0, 1.0)
        m, zeta_sq = estimate_bias(oracle.exact_grad_f, oracle.exact_grad_h, self._probes(1))
        # rounding of (x - (x - 1)) leaves O(eps) slack in the least-slack fit
        assert m == pytest.approx(0.0, abs=1e-9)
        assert zeta_sq == pytest.approx(1.0, abs=1e-9)

    def test_h_equals_f(self):
        oracle = make_toy_pair(0.0, 0.0)
        assert estimate_bias(oracle.exact_grad_f, oracle.exact_grad_h,
                             self._probes(1)) == (0.0, 0.0)

    def test_constant_bias_quadratic(self):
        a = np.diag([1.0, 2.0])
        oracle = make_quadratic_nd(a, a, np.array([0.0, 5.0]))
        m, zeta_sq = estimate_bias(oracle.exact_grad_f, oracle.exact_grad_h, self._probes(2))
        assert m == pytest.approx(0.0, abs=1e-12)
        assert zeta_sq == pytest.approx(25.0, abs=1e-9)

    def test_fit_holds_on_probes(self):
        oracle = make_toy_pair(0.6, 2.0)
        probes = self._probes(1)
        m, zeta_sq = estimate_bias(oracle.exact_grad_f, oracle.exact_grad_h, probes)
        for x in probes:
            b = float(np.sum(oracle.exact_grad_f_minus_h(x) ** 2))
            g = float(np.sum(oracle.exact_grad_f(x) ** 2))
            assert b <= m * g + zeta_sq + 1e-9

    def test_rejects_empty_probes(self):
        oracle = make_toy_pair(0.0, 0.0)
        with pytest.raises(ValueError):
            estimate_bias(oracle.exact_grad_f, oracle.exact_grad_h, [])

    def test_crossing_that_overflows_drops_out(self):
        # ||grad f||^2 = 1e-320 at the first probe: its line meets the line 0
        # at m = 9e320, which overflows and must not warn or be chosen
        oracle = make_toy_pair(0.0, 3.0)
        probes = [np.array([1e-160]), np.array([1.0])]
        m, zeta_sq = estimate_bias(oracle.exact_grad_f, oracle.exact_grad_h, probes)
        assert (m, zeta_sq) == (0.0, 9.0)

    @staticmethod
    def _toy():
        # ||zeta - delta x||^2 <= 2 delta^2 x^2 + 2 zeta^2
        delta, zeta = 0.5, 2.0
        return make_toy_pair(delta, zeta), (2 * delta**2, 2 * zeta**2), RandomToken(7)

    @staticmethod
    def _quadratic():
        # ||(A_f - A_h) x + b_h||^2 <= 2 ||A_f - A_h||^2 ||x||^2 + 2 ||b_h||^2 and
        # ||x|| <= ||A_f x|| / lambda_min(A_f)
        a_f = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.5]])
        a_h = np.array([[1.5, 0.5, 0.0], [0.5, 1.25, 0.0], [0.0, 0.0, 0.5]])
        b_h = np.array([0.25, -0.5, 1.0])
        analytic = (2 * np.linalg.norm(a_f - a_h, 2) ** 2 / np.linalg.eigvalsh(a_f)[0] ** 2,
                    2 * float(b_h @ b_h))
        return make_quadratic_nd(a_f, a_h, b_h), analytic, RandomToken(11)

    @pytest.mark.parametrize("problem", ["_toy", "_quadratic"], ids=["toy", "quadratic_nd"])
    def test_scores_at_most_the_analytic_pair(self, problem):
        # the pinned ``auxopt check`` configs' problems and probes: the fit is
        # valid there, and its right side, averaged over the probes, is at
        # most that of the analytic pair, which is valid at every x
        oracle, (m_true, zeta_sq_true), token = getattr(self, problem)()
        probes = default_probe_points(oracle.dim, token)
        gf = [oracle.exact_grad_f(x) for x in probes]
        r = np.array([np.sum((g - oracle.exact_grad_h(x)) ** 2) for g, x in zip(gf, probes)])
        g = np.array([np.sum(v ** 2) for v in gf])
        m, zeta_sq = estimate_bias(oracle.exact_grad_f, oracle.exact_grad_h, probes)
        assert m >= 0 and np.all(r - m * g <= zeta_sq)
        assert np.all(r <= m_true * g + zeta_sq_true)
        assert m * g.mean() + zeta_sq <= m_true * g.mean() + zeta_sq_true


class TestCheckReport:
    def test_is_the_estimators_at_the_token(self):
        oracle = make_quadratic_nd(np.diag([2.0, 1.0]), np.diag([1.5, 1.25]),
                                   np.array([0.25, -0.5]))
        token = RandomToken(4)
        probes = default_probe_points(oracle.dim, token)
        delta = estimate_delta(oracle.exact_grad_f, oracle.exact_grad_h, probes, token=token)
        m, zeta_sq = estimate_bias(oracle.exact_grad_f, oracle.exact_grad_h, probes)
        assert check_report(oracle, token) == {"delta": delta, "m": m, "zeta_sq": zeta_sq}


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
