import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import auxopt
from auxopt import ConfigError, core, decentralized, harness, optimizers, problems, theory
from auxopt.core import NoiseSpec, RandomToken, stream_fork
from auxopt.optimizers import (
    ALGORITHMS,
    DivergenceError,
    OptimizerConfig,
    cycle,
    init_momentum,
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
            (OptimizerConfig, {"algorithm": "AuxMOM", "eta": 0.1, "K": 2**39}, "K"),
            (OptimizerConfig, {"algorithm": "AuxMOM", "eta": 0.1, "K": 2**64, "T": 2}, "K"),
            (OptimizerConfig, {"algorithm": "AuxMOM", "eta": 0.1, "K": 2**39 - 1, "T": 2}, "T"),
            (OptimizerConfig, {"algorithm": "AuxMOM", "eta": 0.1, "T": 2**38 + 1}, "T"),
        ],
    )
    def test_errors_name_their_field(self, make, kwargs, path):
        # the config key of the field, which load_config puts under its block
        with pytest.raises(ConfigError) as err:
            make(**kwargs)
        assert isinstance(err.value, ValueError)
        assert err.value.path == path

    def test_draw_cap_admits_its_bound(self):
        # the most draws a run can bill, 2 (K + 1) T, may reach MAX_DRAWS and no more
        assert optimizers.MAX_DRAWS == 2**40
        for K, T in ((2**39 - 1, 1), (1, 2**38), (2**19 - 1, 2**20)):
            assert 2 * (K + 1) * T == optimizers.MAX_DRAWS
            OptimizerConfig("AuxMOM", eta=0.1, K=K, T=T)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("m0_mode", ("single_sample", "big_batch"))
    def test_draw_cap_bounds_every_bill(self, algorithm, m0_mode):
        oracle = make_toy_pair(0.1, 1.0, NoiseSpec(sigma_f=0.5, sigma_h=0.5))
        cfg = OptimizerConfig(algorithm, eta=0.01, a=0.5, K=3, T=5, m0_mode=m0_mode)
        last = run(oracle, cfg, TOK).rows[-1]
        assert last.calls_f + last.calls_h + last.calls_fmh <= 2 * (cfg.K + 1) * cfg.T

    @given(
        st.floats(min_value=1e-6, max_value=10),
        st.floats(min_value=1e-6, max_value=1.0),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=50),
    )
    def test_accepts_valid(self, eta, a, K, T):
        cfg = OptimizerConfig(algorithm="AuxMOM", eta=eta, a=a, K=K, T=T)
        assert cfg.eta == eta


def local_steps(oracle, x, eta, K):
    """The inner iterates of one noise-free AuxMOM_V0 cycle with a = 1 from x:
    bias-corrected steps y - eta*(grad h(y) - grad h(x) + grad f(x)) from y = x."""
    cfg = OptimizerConfig("AuxMOM_V0", eta=eta, a=1.0, K=K, T=1)
    x = np.array([x])
    _, ys = cycle(x, x, init_momentum(x, oracle, cfg, TOK), oracle, cfg, TOK)
    return [float(y[0]) for y in ys]


class TestLocalUpdateStep:
    def test_delta0_zeta_cancels(self):
        oracle = make_toy_pair(0.0, 7.0)
        assert local_steps(oracle, 2.0, 0.5, K=1) == [pytest.approx(1.0)]

    def test_h_equals_f_reduces_to_gd(self):
        oracle = make_toy_pair(0.0, 0.0)  # h == f
        assert local_steps(oracle, 3.0, 0.5, K=1) == [pytest.approx(1.5)]

    def test_hand_example(self):
        # delta=1, zeta=0, x=1, eta=0.5: step 1 from y=1 has d = 2(1-1)+1 = 1,
        # so y=0.5; step 2 from y=0.5 has d = 2(0.5-1)+1 = 0
        oracle = make_toy_pair(1.0, 0.0)
        assert local_steps(oracle, 1.0, 0.5, K=2) == [pytest.approx(0.5), pytest.approx(0.5)]


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
    """Independent oracle: iterate the bias-corrected local step
    y - eta*(grad h(y) - grad h(x) + grad f(x)) directly, from exact gradients."""
    x = np.asarray(x0, dtype=np.float64)
    for _ in range(T):
        y = x.copy()
        for _ in range(K):
            y = y - eta * (oracle.exact_grad_h(y) - oracle.exact_grad_h(x)
                           + oracle.exact_grad_f(x))
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
        m0 = init_momentum(x0, oracle, cfg, TOK)
        assert np.allclose(m0, oracle.exact_grad_f_minus_h(x0))
        m1, _ = cycle(x0, x0, m0, oracle, cfg, TOK)
        assert np.allclose(m1, oracle.exact_grad_f_minus_h(x0), atol=1e-15)


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

    @pytest.mark.parametrize("bad_call,t,k", [(1, 1, 1), (4, 2, 1), (6, 2, 3)])
    def test_non_finite_iterate_reports_cycle_and_step(self, bad_call, t, k):
        # the h gradient turns NaN at its bad_call-th call, inner step k of
        # cycle t (K = 3); the partial trajectory keeps every row before it
        oracle = make_toy_pair(0.1, 1.0, NoiseSpec(sigma_f=0.5, sigma_h=0.5))
        calls = iter(range(1, 100))

        def grad_h(x, sample):
            g = oracle.grad_h(x, sample)
            return np.full_like(g, np.nan) if next(calls) == bad_call else g

        cfg = OptimizerConfig("AuxMOM", eta=0.05, a=0.5, K=3, T=4)
        with pytest.raises(DivergenceError,
                           match=f"^non-finite iterate at cycle {t}, step {k}$") as err:
            run(dataclasses.replace(oracle, grad_h=grad_h), cfg, TOK, diagnostics_on=True)
        rows = err.value.trajectory.rows
        assert list(zip(rows.t, rows.k)) == [(0, 0)] + [
            (c, s) for c in range(1, t + 1) for s in range(1, cfg.K + 1) if (c, s) < (t, k)]
        assert np.isfinite(rows.Delta_t[1:]).all()

    def test_f_past_the_limit_mid_cycle_ends_the_trajectory_at_its_row(self, monkeypatch):
        # f = h, so y doubles in size at every inner step and f passes the limit
        # inside a cycle; the partial rows are those run writes without a limit
        oracle = make_toy_pair(0.0, 0.0)
        cfg = OptimizerConfig("AuxMOM", eta=3.0, a=0.5, K=6, T=5)
        with pytest.raises(DivergenceError) as err:
            run(oracle, cfg, TOK, diagnostics_on=True)
        monkeypatch.setattr(optimizers, "DIVERGENCE_LIMIT", np.inf)
        rows = run(oracle, cfg, TOK, diagnostics_on=True).rows
        i = int(np.argmax(rows.f_value > 1e12))
        assert rows.k[i] > 1
        assert str(err.value) == (f"f = {rows.f_value[i]:g} at cycle {rows.t[i]:g}, "
                                  f"step {rows.k[i]:g} (limit 1e+12)")
        partial = err.value.trajectory.rows
        assert partial.tobytes() == rows[:i].tobytes()

    def test_logistic_peak_memory_does_not_grow_with_k(self):
        # a window's stack of iterates is observed a chunk of rows at a time
        # (2 rows at 16384 samples), so a run's (rows, n_samples)
        # temporaries are one chunk's at K = 10 and at K = 1000 alike
        features, labels = problems.make_synthetic_classification(16384, 4, RandomToken(2),
                                                                   n_groups=2)
        task = problems.LogisticTask(features, problems.map_labels_to_pm1(labels))
        oracle = problems.logistic_oracle(task, task, batch_size=1)
        peaks = {}
        for K in (10, 1000):
            tracemalloc.start()
            try:
                run(oracle, OptimizerConfig("AuxMOM", eta=0.1, a=0.5, K=K, T=2), TOK,
                    x0=np.zeros(4))
                peaks[K] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1000] < 1.5 * peaks[10], peaks

    def test_toy_run_peak_memory_is_a_few_tables(self):
        # a window's iterates, momenta and bills fill arrays, not a Python
        # object per cycle, so at K = 1 and d = 1 a run's peak is a few times
        # its finished row table
        oracle = make_toy_pair(0.1, 1.0, NoiseSpec(sigma_f=1.0, sigma_h=1.0, rho=0.5))
        cfg = OptimizerConfig("AuxMOM", eta=0.05, a=0.5, K=1, T=2**12)
        tracemalloc.start()
        try:
            traj = run(oracle, cfg, TOK, diagnostics_on=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.rows) == cfg.T + 1
        assert peak <= 4 * traj.rows.nbytes, peak / traj.rows.nbytes

    def test_default_x0_is_ones(self):
        oracle = make_toy_pair(0.0, 0.0)
        traj = run(oracle, OptimizerConfig("GD", eta=0.5, T=1), TOK)
        assert traj.rows[0].f_value == pytest.approx(0.5)

    @pytest.mark.parametrize("algorithm", ("AuxMOM", "AuxMVR"))
    def test_e_t_reuses_the_observed_gradient(self, monkeypatch, algorithm):
        """E_t from grad f as observed for the snapshot's row is bit for bit the
        E_t of ``exact_grad_f_minus_h`` computing grad f at the snapshot again,
        with one stacked call per window: the default bound books this run at
        once, a 5-row bound as x0 and cycle 1, then two cycles of 4 rows at a time."""
        features, labels = problems.make_synthetic_classification(120, 12, RandomToken(4),
                                                                   n_groups=4)
        task = problems.LogisticTask(features, problems.map_labels_to_pm1(labels), l2_reg=0.01)
        f_task, h_task = problems.build_semisupervised(
            task, (0.5, 0.25, 0.25), "coreset", RandomToken(5), fraction=0.5)
        oracle = problems.logistic_oracle(f_task, h_task, batch_size=8)
        cfg = OptimizerConfig(algorithm, eta=0.5, a=0.3, K=4, T=6)
        stacked = core.OraclePair.exact_grad_f_minus_h

        def recomputed(self, x, grad_f=None):
            same_grad.append(np.array_equal(grad_f, self.exact_grad_f(x)))
            return self.exact_grad_f(x) - self.exact_grad_h(x)

        for bound, windows in ((optimizers.WINDOW_FLOATS, 1), (5 * oracle.dim, 4)):
            monkeypatch.setattr(optimizers, "WINDOW_FLOATS", bound)
            monkeypatch.setattr(core.OraclePair, "exact_grad_f_minus_h", stacked)
            got = run(oracle, cfg, TOK, diagnostics_on=True)
            same_grad = []
            monkeypatch.setattr(core.OraclePair, "exact_grad_f_minus_h", recomputed)
            want = run(oracle, cfg, TOK, diagnostics_on=True)
            assert same_grad == [True] * windows
            assert not np.isnan(got.rows.E_t[1:]).any()
            assert harness.trajectory_to_csv(got) == harness.trajectory_to_csv(want)


# A window bound of one row books each cycle alone, three rows a few cycles
# at a time and the default a whole small run at once; none moves a byte.
WINDOW_ROWS = (1, 3, None)


def at_each_window(monkeypatch, dim: int, fn) -> list:
    """``fn()`` under each bound of WINDOW_ROWS, in rows of ``dim`` floats."""
    default, results = optimizers.WINDOW_FLOATS, []
    for rows in WINDOW_ROWS:
        monkeypatch.setattr(optimizers, "WINDOW_FLOATS", default if rows is None else rows * dim)
        results.append(fn())
    return results


def divergence(oracle, cfg, x0, **kwargs) -> tuple[str, bytes]:
    """The message and partial rows of a run that must diverge."""
    with pytest.raises(DivergenceError) as err:
        run(oracle, cfg, TOK, x0=x0, **kwargs)
    return str(err.value), err.value.trajectory.rows.tobytes()


class TestWindows:
    def test_noisy_logistic_run_with_diagnostics(self, monkeypatch):
        # E_t of a window's first cycle reads grad f at the previous window's last row
        features, labels = problems.make_synthetic_classification(90, 8, RandomToken(6),
                                                                   n_groups=4)
        task = problems.LogisticTask(features, problems.map_labels_to_pm1(labels), l2_reg=0.01)
        f_task, h_task = problems.build_semisupervised(
            task, (0.5, 0.25, 0.25), "random_labels", RandomToken(7))
        oracle = problems.logistic_oracle(f_task, h_task, batch_size=5)
        cfg = OptimizerConfig("AuxMVR", eta=0.5, a=0.3, K=2, T=9)
        csvs = at_each_window(monkeypatch, oracle.dim, lambda: harness.trajectory_to_csv(
            run(oracle, cfg, TOK, diagnostics_on=True, x0=np.zeros(oracle.dim))))
        assert csvs[0] == csvs[1] == csvs[2]
        rows = run(oracle, cfg, TOK, diagnostics_on=True, x0=np.zeros(oracle.dim)).rows
        assert not np.isnan(rows.E_t[1:]).any() and not np.isnan(rows.Delta_t[1:]).any()

    @pytest.mark.parametrize("x0,t", [(1.0, 4), (49.0, 3)])
    def test_f_past_the_limit(self, monkeypatch, x0, t):
        # GD at eta = 50 multiplies x by -49 a cycle: f passes 1e12 at row t,
        # inside the second 3-row window at t = 4 and at its first row at t = 3
        oracle, cfg = make_toy_pair(0.0, 0.0), OptimizerConfig("GD", eta=50.0, T=10)
        got = at_each_window(monkeypatch, 1, lambda: divergence(
            oracle, cfg, np.array([x0]), diagnostics_on=True))
        assert got[0] == got[1] == got[2]
        assert got[0][0].startswith("f = ") and got[0][0].endswith(
            f" at cycle {t}, step 1 (limit 1e+12)")
        assert len(got[0][1]) == t * len(optimizers.CSV_COLUMNS) * 8

    @pytest.mark.parametrize("bad_call", [3, 4])
    def test_non_finite_iterate(self, monkeypatch, bad_call):
        # the h gradient turns NaN at its bad_call-th call, the one step of
        # cycle bad_call: the first row of the second 3-row window at 3, the
        # second at 4
        oracle = make_toy_pair(0.1, 1.0, NoiseSpec(sigma_f=0.5, sigma_h=0.5))
        cfg = OptimizerConfig("AuxMOM", eta=0.05, a=0.5, K=1, T=8)

        def diverging():
            calls = iter(range(1, 100))

            def grad_h(x, sample):
                g = oracle.grad_h(x, sample)
                return np.full_like(g, np.nan) if next(calls) == bad_call else g

            return divergence(dataclasses.replace(oracle, grad_h=grad_h), cfg,
                              np.array([1.0]), diagnostics_on=True)

        got = at_each_window(monkeypatch, 1, diverging)
        assert got[0] == got[1] == got[2]
        assert got[0][0] == f"non-finite iterate at cycle {bad_call}, step 1"
        assert len(got[0][1]) == bad_call * len(optimizers.CSV_COLUMNS) * 8


def count_forks(monkeypatch) -> Counter:
    """Count calls of ``stream_fork`` in every module that bound it."""
    calls = Counter()
    real = core.stream_fork

    def counted(*args):
        calls["stream_fork"] += 1
        return real(*args)

    for mod in (auxopt, core, optimizers, decentralized, problems, harness, theory):
        if getattr(mod, "stream_fork", None) is real:
            monkeypatch.setattr(mod, "stream_fork", counted)
    return calls


def recording(oracle, seen: list, blocks: list, name=None):
    """Copy of ``oracle`` appending ``(name, token, n)`` to ``blocks`` for each
    block ``draw(token, n)`` and ``(name, token, k)`` to ``seen`` for each
    stochastic gradient, where the gradient's sample is sample k of the
    block drawn at ``token``."""
    def draw(token, n):
        blocks.append((name, token, n))
        return [((token, k), s) for k, s in enumerate(oracle.draw(token, n))]

    def record(grad):
        def served(x, sample):
            (token, k), inner = sample
            seen.append((name, token, k))
            return grad(x, inner)
        return served

    return dataclasses.replace(oracle, draw=draw, grad_f=record(oracle.grad_f),
                               grad_h=record(oracle.grad_h),
                               grad_f_minus_h=record(oracle.grad_f_minus_h))


class TestTokenPlan:
    """Inside a run, draws are named by counter, not by fork: a run forks once,
    a decentralized run N + 2 times, whatever T is."""

    @pytest.mark.parametrize("m0_mode", ("single_sample", "big_batch"))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_run_forks_independent_of_t(self, monkeypatch, algorithm, m0_mode):
        oracle = make_toy_pair(0.1, 1.0, NoiseSpec(sigma_f=0.5, sigma_h=0.5))
        calls = count_forks(monkeypatch)
        for T in (1, 2, 12):
            calls.clear()
            run(oracle, OptimizerConfig(algorithm, eta=0.05, a=0.5, K=3, T=T,
                                        m0_mode=m0_mode), TOK)
            assert calls == {"stream_fork": 1}

    @pytest.mark.parametrize("variant", decentralized.VARIANTS)
    def test_run_decentralized_forks_independent_of_t(self, monkeypatch, variant):
        noise = NoiseSpec(sigma_f=0.5, sigma_h=0.5)
        calls = count_forks(monkeypatch)
        for T in (1, 2, 12):
            calls.clear()
            helpers = decentralized.HelperSet(
                [make_toy_pair(0.1, z, noise) for z in (0.5, 1.0, 2.0)], s=2)
            decentralized.run_decentralized(
                np.array([1.0]), helpers, OptimizerConfig(variant, eta=0.05, a=0.5, K=3, T=T),
                TOK, variant=variant)
            assert calls == {"stream_fork": helpers.n + 2}

    @pytest.mark.parametrize("algorithm,has_m0,steps", [
        ("AuxMVR", True, [0, 0, 1, 2, 3]),  # STORM reuses sample 0 at x_prev
        ("AuxMOM_V0", True, [0, 1, 1, 2, 2, 3, 3]),  # svrg reuses sample k at x
        ("SGDm", True, [0]),
        ("Naive", False, [0, 1, 2]),
        ("FineTune", False, [1, 2, 3]),
    ])
    def test_run_draws_by_counter(self, algorithm, has_m0, steps):
        # a big_batch m0 draws T samples at draw 0 of stream_fork(token, 0) and
        # cycle t its K + 1 samples at draw t; sample k feeds step k.  The
        # token itself is never drawn from
        seen, blocks, token = [], [], RandomToken(5, 7)
        oracle = recording(make_toy_pair(0.1, 1.0, NoiseSpec(sigma_f=0.5, sigma_h=0.5)),
                           seen, blocks)
        cfg = OptimizerConfig(algorithm, eta=0.05, a=0.5, K=3, T=4, m0_mode="big_batch")
        run(oracle, cfg, token)
        stream = stream_fork(token, 0)
        cycles = [stream.skip(t) for t in range(1, cfg.T + 1)]
        assert blocks == [(None, stream, cfg.T)] * has_m0 + [(None, c, cfg.K + 1) for c in cycles]
        m0 = [(None, stream, i) for i in range(cfg.T) if has_m0]
        assert seen == m0 + [(None, c, k) for c in cycles for k in steps]

    def test_decentralized_draws_by_counter(self):
        # cycle t samples at the sampler's draw t - 1, and sampled helper i
        # draws its K + 1 samples at draw t of its lane, sample k for step k
        seen, blocks = [], []
        noise = NoiseSpec(sigma_f=0.5, sigma_h=0.5)
        oracles = [recording(make_toy_pair(0.1, z, noise), seen, blocks, i)
                   for i, z in enumerate((0.5, 1.0, 2.0))]
        cfg = OptimizerConfig("AuxMOM", eta=0.05, a=0.5, K=3, T=5)
        traj = decentralized.run_decentralized(np.array([1.0]), decentralized.HelperSet(
            oracles, s=2), cfg, TOK)
        sampler, lanes = stream_fork(TOK, 0), stream_fork(TOK, 1)
        want_blocks, want = [], []
        for t, chosen in enumerate(traj.sampled, start=1):
            assert chosen == decentralized.sample_helpers(sampler.skip(t - 1), 3, 2)
            lane = {i: stream_fork(lanes, i).skip(t) for i in chosen}
            want_blocks += [(i, lane[i], cfg.K + 1) for i in chosen]
            want += [(i, lane[i], k) for i in chosen for k in range(cfg.K + 1)]
        assert blocks == want_blocks and seen == want


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
