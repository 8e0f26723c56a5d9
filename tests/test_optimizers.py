import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from auxopt import ConfigError
from auxopt.core import NoiseSpec, RandomToken
from auxopt.optimizers import (
    DivergenceError,
    OptimizerConfig,
    cycle,
    init_state,
    local_update_step,
    run,
)
from auxopt.problems import make_toy_pair, make_quadratic_nd

TOK = RandomToken(0)


def final_x(traj):
    return np.asarray(traj.metadata["final_x"])


class TestOptimizerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": "Nope", "eta": 0.1},
            {"algorithm": "AuxMOM", "eta": 0.0},
            {"algorithm": "AuxMOM", "eta": 0.1, "a": 0.0},
            {"algorithm": "AuxMOM", "eta": 0.1, "a": 1.5},
            {"algorithm": "AuxMOM", "eta": 0.1, "K": 0},
            {"algorithm": "AuxMOM", "eta": 0.1, "T": 0},
            {"algorithm": "AuxMOM", "eta": 0.1, "m0_mode": "bogus"},
            {"algorithm": "FineTune", "eta": 0.1, "split_fraction": 1.5},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)

    @pytest.mark.parametrize(
        "make,kwargs,path",
        [
            (OptimizerConfig, {"algorithm": "Nope", "eta": 0.1}, "name"),
            (OptimizerConfig, {"algorithm": "AuxMOM", "eta": 0.0}, "eta"),
            (OptimizerConfig, {"algorithm": "AuxMOM", "eta": 0.1, "a": 0.0}, "a"),
            (OptimizerConfig, {"algorithm": "AuxMOM", "eta": 0.1, "a": 1.5}, "a"),
            (OptimizerConfig, {"algorithm": "AuxMOM", "eta": 0.1, "K": 0}, "K"),
            (OptimizerConfig, {"algorithm": "AuxMOM", "eta": 0.1, "T": 0}, "T"),
            (OptimizerConfig, {"algorithm": "AuxMOM", "eta": 0.1, "m0_mode": "bogus"},
             "m0_mode"),
            (OptimizerConfig, {"algorithm": "FineTune", "eta": 0.1, "split_fraction": 1.5},
             "split_fraction"),
            (NoiseSpec, {"sigma_f": -1}, "sigma_f"),
            (NoiseSpec, {"sigma_h": -1}, "sigma_h"),
            (NoiseSpec, {"rho": 1.5}, "rho"),
        ],
    )
    def test_errors_name_their_field(self, make, kwargs, path):
        # the config key of the field, which load_config puts under its block
        with pytest.raises(ConfigError) as err:
            make(**kwargs)
        assert isinstance(err.value, ValueError)
        assert err.value.path == path

    @given(
        st.floats(min_value=1e-6, max_value=10),
        st.floats(min_value=1e-6, max_value=1.0),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=50),
    )
    def test_accepts_valid(self, eta, a, K, T):
        cfg = OptimizerConfig(algorithm="AuxMOM", eta=eta, a=a, K=K, T=T)
        assert cfg.eta == eta


class TestLocalUpdateStep:
    def test_delta0_zeta_cancels(self):
        oracle = make_toy_pair(0.0, 7.0)
        x = np.array([2.0])
        assert local_update_step(x, x, oracle, 0.5)[0] == pytest.approx(1.0)

    def test_h_equals_f_reduces_to_gd(self):
        oracle = make_toy_pair(0.0, 0.0)  # h == f
        y, x = np.array([3.0]), np.array([-1.0])
        assert local_update_step(y, x, oracle, 0.5)[0] == pytest.approx(1.5)

    def test_hand_example(self):
        # delta=1, zeta=0, x=1, y=0.5, eta=0.5: d = 2(0.5-1)+1 = 0
        oracle = make_toy_pair(1.0, 0.0)
        out = local_update_step(np.array([0.5]), np.array([1.0]), oracle, 0.5)
        assert out[0] == pytest.approx(0.5)


class TestNaive:
    def test_first_cycle_hand_value(self):
        # f=x^2/2, h=(x-1)^2/2, eta=0.5, K=2, x0=0 -> x1 = 0.5
        oracle = make_toy_pair(0.0, 1.0)
        cfg = OptimizerConfig("Naive", eta=0.5, K=2, T=1)
        traj = run(oracle, cfg, TOK, x0=np.array([0.0]))
        assert final_x(traj)[0] == pytest.approx(0.5, abs=1e-14)

    def test_cycle_map_fixed_point(self):
        # cycle map x -> 0.25 x + 0.5, fixed point 2/3, so ||grad f||^2 -> 4/9
        oracle = make_toy_pair(0.0, 1.0)
        cfg = OptimizerConfig("Naive", eta=0.5, K=2, T=100)
        traj = run(oracle, cfg, TOK, x0=np.array([0.0]))
        assert final_x(traj)[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert traj.final_grad_norm_sq() == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_zero_bias_collapses_to_gd(self):
        oracle = make_toy_pair(0.0, 0.0)  # h == f
        cfg = OptimizerConfig("Naive", eta=0.5, K=3, T=4)
        traj = run(oracle, cfg, TOK, x0=np.array([1.0]))
        assert final_x(traj)[0] == pytest.approx(0.5 ** 12, abs=1e-15)

    def test_budget(self):
        cfg = OptimizerConfig("Naive", eta=0.1, K=10, T=7)
        traj = run(make_toy_pair(0.0, 1.0), cfg, TOK)
        last = traj.rows[-1]
        assert (last.calls_f, last.calls_h, last.calls_fmh) == (7, 7 * 9, 0)


def reference_local_trajectory(oracle, eta, K, T, x0):
    """Independent oracle: iterate the bias-corrected local step directly."""
    x = np.asarray(x0, dtype=np.float64)
    for _ in range(T):
        y = x.copy()
        for _ in range(K):
            y = local_update_step(y, x, oracle, eta)
        x = y
    return x


class TestEquivalences:
    @pytest.mark.parametrize("alg", ["AuxMOM", "AuxMOM_V0", "AuxMVR"])
    def test_a1_deterministic_matches_local_steps(self, alg):
        oracle = make_toy_pair(0.5, 2.0)
        cfg = OptimizerConfig(alg, eta=0.2, a=1.0, K=4, T=6)
        traj = run(oracle, cfg, TOK, x0=np.array([1.5]))
        ref = reference_local_trajectory(oracle, 0.2, 4, 6, np.array([1.5]))
        assert np.max(np.abs(final_x(traj) - ref)) < 1e-12

    @pytest.mark.parametrize("alg", ["AuxMOM", "AuxMOM_V0", "AuxMVR"])
    def test_a1_deterministic_matches_local_steps_nd(self, alg):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((3, 3))
        a_h = g @ g.T / 3.0
        a_f = a_h + 0.1 * np.eye(3)
        oracle = make_quadratic_nd(a_f, a_h, rng.standard_normal(3))
        cfg = OptimizerConfig(alg, eta=0.1, a=1.0, K=5, T=8)
        traj = run(oracle, cfg, TOK, x0=np.ones(3))
        ref = reference_local_trajectory(oracle, 0.1, 5, 8, np.ones(3))
        assert np.max(np.abs(final_x(traj) - ref)) < 1e-12

    def test_h_equals_f_matches_gd(self):
        # g_{f-h} == 0 so the momentum stays zero and every inner step is GD.
        oracle = make_toy_pair(0.0, 0.0)
        cfg = OptimizerConfig("AuxMOM", eta=0.25, a=0.3, K=4, T=5, m0_mode="zero")
        traj = run(oracle, cfg, TOK, x0=np.array([2.0]))
        assert final_x(traj)[0] == pytest.approx(2.0 * 0.75 ** 20, abs=1e-14)

    def test_sgdm_a1_equals_gd(self):
        oracle = make_toy_pair(0.0, 0.0)
        sgdm = run(oracle, OptimizerConfig("SGDm", eta=0.5, a=1.0, T=3), TOK,
                   x0=np.array([1.0]))
        gd = run(oracle, OptimizerConfig("GD", eta=0.5, T=3), TOK, x0=np.array([1.0]))
        assert final_x(sgdm)[0] == pytest.approx(final_x(gd)[0], abs=1e-15)

    def test_auxmvr_first_cycle_keeps_exact_momentum(self):
        # x_prev = x0 = x and m0 = (grad f - grad h)(x0): m1 = m0 for any a.
        oracle = make_toy_pair(0.5, 2.0)
        cfg = OptimizerConfig("AuxMVR", eta=0.1, a=0.3, K=2, T=1)
        x0 = np.array([1.0])
        state = init_state(x0, oracle, cfg, TOK)
        assert np.allclose(state.m, oracle.exact_grad_f_minus_h(x0))
        result = cycle(state, oracle, cfg, TOK)
        assert np.allclose(result.state.m, oracle.exact_grad_f_minus_h(x0), atol=1e-15)


class TestBaselines:
    def test_gd_three_steps(self):
        oracle = make_toy_pair(0.0, 0.0)
        traj = run(oracle, OptimizerConfig("GD", eta=0.5, T=3), TOK, x0=np.array([1.0]))
        assert final_x(traj)[0] == pytest.approx(0.125)

    def test_mvr_deterministic_stationary_equals_sgdm(self):
        oracle = make_toy_pair(0.0, 0.0)
        kwargs = dict(eta=0.3, a=0.5, T=6)
        mvr = run(oracle, OptimizerConfig("MVR", **kwargs), TOK, x0=np.array([1.0]))
        # deterministic quadratic: the shared-sample correction adds the exact
        # gradient drift; check MVR still converges to the minimizer
        assert abs(final_x(mvr)[0]) < 0.2

    def test_finetune_hand_iteration(self):
        # toy delta=0, zeta=1, eta=0.5, a=1, T*K=4, split 0.5, x0=0:
        # two steps toward h's minimum (0 -> 0.5 -> 0.75), reset, two GD steps
        # on f (0.375 -> 0.1875)
        oracle = make_toy_pair(0.0, 1.0)
        cfg = OptimizerConfig("FineTune", eta=0.5, a=1.0, K=2, T=2, split_fraction=0.5)
        traj = run(oracle, cfg, TOK, x0=np.array([0.0]))
        assert final_x(traj)[0] == pytest.approx(0.1875, abs=1e-14)
        last = traj.rows[-1]
        assert (last.calls_f, last.calls_h) == (2, 2)

    def test_budgets(self):
        oracle = make_toy_pair(0.1, 1.0)
        expected = {
            "AuxMOM": (0, 50, 5),
            "AuxMVR": (0, 50, 10),
            "AuxMOM_V0": (5, 100, 0),
            "SGDm": (5, 0, 0),
            "MVR": (10, 0, 0),
            "GD": (5, 0, 0),
        }
        for alg, want in expected.items():
            cfg = OptimizerConfig(alg, eta=0.01, a=0.5, K=10, T=5, m0_mode="zero")
            last = run(oracle, cfg, TOK).rows[-1]
            assert (last.calls_f, last.calls_h, last.calls_fmh) == want, alg

    def test_single_sample_init_adds_one_call(self):
        oracle = make_toy_pair(0.1, 1.0)
        cfg = OptimizerConfig("AuxMOM", eta=0.01, a=0.5, K=10, T=5,
                              m0_mode="single_sample")
        last = run(oracle, cfg, TOK).rows[-1]
        assert last.calls_fmh == 6

    def test_big_batch_init_adds_t_calls(self):
        oracle = make_toy_pair(0.1, 1.0)
        cfg = OptimizerConfig("AuxMOM", eta=0.01, a=0.5, K=10, T=5, m0_mode="big_batch")
        last = run(oracle, cfg, TOK).rows[-1]
        assert last.calls_fmh == 10


class TestRun:
    def test_rows_ordered_and_counters_nondecreasing(self):
        oracle = make_toy_pair(0.1, 1.0, NoiseSpec(sigma_f=0.5, sigma_h=0.5))
        cfg = OptimizerConfig("AuxMOM", eta=0.05, a=0.5, K=3, T=4)
        traj = run(oracle, cfg, RandomToken(3))
        keys = [(r.t, r.k) for r in traj.rows]
        assert keys == sorted(keys)
        for prev, cur in zip(traj.rows, traj.rows[1:]):
            assert cur.calls_f >= prev.calls_f
            assert cur.calls_h >= prev.calls_h
            assert cur.calls_fmh >= prev.calls_fmh

    def test_determinism_bitwise(self):
        oracle = make_toy_pair(0.1, 1.0, NoiseSpec(sigma_f=1.0, sigma_h=1.0, rho=0.5))
        cfg = OptimizerConfig("AuxMVR", eta=0.05, a=0.5, K=3, T=10)
        t1 = run(oracle, cfg, RandomToken(7))
        t2 = run(oracle, cfg, RandomToken(7))
        assert t1.metadata["final_x"] == t2.metadata["final_x"]
        assert [(r.f_value, r.grad_norm_sq) for r in t1.rows] == [
            (r.f_value, r.grad_norm_sq) for r in t2.rows
        ]

    def test_diagnostics_e_zero_for_a1_deterministic(self):
        oracle = make_toy_pair(0.5, 2.0)
        cfg = OptimizerConfig("AuxMOM", eta=0.2, a=1.0, K=3, T=5)
        traj = run(oracle, cfg, TOK, diagnostics_on=True)
        e_vals = [r.E_t for r in traj.rows if r.t > 0]
        assert all(e == 0.0 for e in e_vals)

    def test_divergence_guard(self):
        oracle = make_toy_pair(0.0, 1.0)
        cfg = OptimizerConfig("GD", eta=50.0, T=100)
        with pytest.raises(DivergenceError) as err:
            run(oracle, cfg, TOK, x0=np.array([1.0]))
        assert len(err.value.trajectory.rows) > 0

    def test_default_x0_is_ones(self):
        oracle = make_toy_pair(0.0, 0.0)
        traj = run(oracle, OptimizerConfig("GD", eta=0.5, T=1), TOK)
        assert traj.rows[0].f_value == pytest.approx(0.5)


class TestContractionAndFloors:
    def test_naive_stall_floor_scales_with_zeta_sq(self):
        floors = []
        for zeta in (1.0, 10.0):
            oracle = make_toy_pair(0.0, zeta)
            cfg = OptimizerConfig("Naive", eta=0.5, K=10, T=200)
            traj = run(oracle, cfg, TOK, x0=np.array([1.0]))
            floors.append(traj.final_grad_norm_sq())
        assert 80.0 <= floors[1] / floors[0] <= 120.0

    def test_auxmom_contraction_matches_closed_form(self):
        # per-cycle ratio rho = 1 - (1-(1-(1+delta)eta)^K)/(1+delta)
        for delta in (0.1, 0.5, 1.0):
            for K in (2, 5, 10):
                eta = 0.5 / (1.0 + delta)
                oracle = make_toy_pair(delta, 1.0)
                cfg = OptimizerConfig("AuxMOM", eta=eta, a=1.0, K=K, T=30)
                traj = run(oracle, cfg, TOK, x0=np.array([1.0]))
                rho = 1.0 - (1.0 - (1.0 - (1.0 + delta) * eta) ** K) / (1.0 + delta)
                xs = [traj.rows[0].grad_norm_sq] + [
                    r.grad_norm_sq for r in traj.cycle_ends()
                ]
                for g_prev, g_next in zip(xs, xs[1:]):
                    # below ~1e-8 the O(eps) cancellation noise of the inner
                    # loop (terms of size eta*zeta) dominates the ratio
                    if g_next < 1e-8:
                        break
                    ratio = np.sqrt(g_next / g_prev)
                    assert abs(ratio - rho) < 1e-10, (delta, K)
