import ast
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import auxopt
from auxopt import core
from auxopt.core import (
    NoiseSpec,
    RandomToken,
    as_vector,
    draw_gaussian_noise,
    gaussian_oracle,
    rng_from_token,
    stream_fork,
    stream_forks,
)


def tuple_entropy_fork(parent: RandomToken, label: int) -> RandomToken:
    """``stream_fork`` as first written: SeedSequence over a tuple of Python ints."""
    ss = np.random.SeedSequence(entropy=(
        parent.stream_id & ((1 << 128) - 1),
        parent.draw_index & ((1 << 64) - 1),
        int(label) & ((1 << 64) - 1),
    ))
    return RandomToken(int.from_bytes(ss.generate_state(4, np.uint32).tobytes(), "little"), 0)


def two_call_noise(spec: NoiseSpec, token: RandomToken, dim: int, n=None):
    """The correlated pair from two ``standard_normal`` calls on a fresh generator."""
    rng = rng_from_token(token)
    shape = (dim,) if n is None else (n, dim)
    z1 = rng.standard_normal(shape)
    z2 = rng.standard_normal(shape)
    scale = 1.0 / math.sqrt(dim)
    return (spec.sigma_f * scale * z1,
            spec.sigma_h * scale * (spec.rho * z1 + math.sqrt(1.0 - spec.rho**2) * z2))


class TestRandomToken:
    def test_same_token_same_noise(self):
        spec = NoiseSpec(sigma_f=1.0, sigma_h=1.0, rho=0.3)
        tok = RandomToken(42, 7)
        a = draw_gaussian_noise(spec, tok, 5)
        b = draw_gaussian_noise(spec, RandomToken(42, 7), 5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_distinct_draw_indices_differ(self):
        spec = NoiseSpec(sigma_f=1.0)
        a = draw_gaussian_noise(spec, RandomToken(42, 0), 5)[0]
        b = draw_gaussian_noise(spec, RandomToken(42, 1), 5)[0]
        assert not np.array_equal(a, b)

    @given(st.integers(min_value=0, max_value=2**160), st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=50, deadline=None)
    def test_rng_construction_total(self, sid, idx):
        rng = rng_from_token(RandomToken(sid, idx))
        assert np.isfinite(rng.standard_normal())


class TestStreamFork:
    def test_fork_deterministic(self):
        t0 = RandomToken(9)
        assert stream_fork(t0, 1) == stream_fork(t0, 1)

    def test_fork_label_separation(self):
        t0 = RandomToken(9)
        assert stream_fork(t0, 1) != stream_fork(t0, 2)

    def test_fork_streams_uncorrelated(self):
        t0 = RandomToken(123)
        a = rng_from_token(stream_fork(t0, 1)).standard_normal(10_000)
        b = rng_from_token(stream_fork(t0, 2)).standard_normal(10_000)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.05

    @given(st.integers(min_value=0, max_value=2**64), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_fork_total_and_stable(self, sid, label):
        parent = RandomToken(sid)
        assert stream_fork(parent, label) == stream_fork(parent, label)

    @given(st.integers(min_value=0, max_value=2**160),
           st.integers(min_value=0, max_value=2**70),
           st.integers(min_value=-1, max_value=2**70))
    @settings(max_examples=300, deadline=None)
    def test_matches_tuple_entropy_formula(self, sid, draw, label):
        parent = RandomToken(sid, draw)
        assert stream_fork(parent, label) == tuple_entropy_fork(parent, label)

    @given(st.integers(min_value=0, max_value=6).flatmap(lambda n: st.lists(st.tuples(
        st.integers(min_value=-2**130, max_value=2**130),
        st.integers(min_value=-2**66, max_value=2**66),
        st.lists(st.integers(min_value=-2**66, max_value=2**66), min_size=n, max_size=n)),
        max_size=12)))
    @settings(max_examples=200, deadline=None)
    def test_bulk_matches_scalar(self, rows):
        # masked ids, draws and labels of every word count, mixed in one call
        parents = [RandomToken(sid, draw) for sid, draw, _ in rows]
        labels = [row for _, _, row in rows]
        assert stream_forks(parents, labels) == [
            [stream_fork(p, label) for label in row] for p, row in zip(parents, labels)]
        if parents:  # one row of labels for every parent
            assert stream_forks(parents, labels[0]) == [
                [stream_fork(p, label) for label in labels[0]] for p in parents]
        # numpy integer labels, wherever they fit, are masked as their int value
        np_labels = [[np.int64(v) if -2**63 <= v < 2**63 else v for v in row] for row in labels]
        assert stream_forks(parents, np_labels) == stream_forks(parents, labels)

    def test_bulk_rejects_a_label_row_per_wrong_parent_count(self):
        with pytest.raises(ValueError):
            stream_forks([RandomToken(1)], [[0, 1], [2, 3]])


class TestNoiseSpec:
    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            NoiseSpec(rho=1.5)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma_f=-1.0)

    @given(
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=-1, max_value=1),
    )
    def test_difference_variance_nonnegative(self, sf, sh, rho):
        spec = NoiseSpec(sigma_f=sf, sigma_h=sh, rho=rho)
        assert spec.sigma_fmh_sq >= 0.0

    def test_difference_variance_formula(self):
        spec = NoiseSpec(sigma_f=1.0, sigma_h=1.0, rho=0.9)
        assert math.isclose(spec.sigma_fmh_sq, 0.2, rel_tol=1e-12)


class TestDrawGaussianNoise:
    def test_perfect_correlation_cancels(self):
        spec = NoiseSpec(sigma_f=1.0, sigma_h=1.0, rho=1.0)
        nf, nh = draw_gaussian_noise(spec, RandomToken(5), 8)
        assert np.allclose(nf - nh, 0.0, atol=1e-15)

    def test_zero_variance_gives_zeros(self):
        spec = NoiseSpec()
        nf, nh = draw_gaussian_noise(spec, RandomToken(5), 8)
        assert np.all(nf == 0) and np.all(nh == 0)

    def test_difference_variance_monte_carlo(self):
        # Var(noise_f - noise_h) = sigma_f^2 + sigma_h^2 - 2 rho sigma_f sigma_h = 1
        spec = NoiseSpec(sigma_f=1.0, sigma_h=1.0, rho=0.5)
        nf, nh = draw_gaussian_noise(spec, RandomToken(11), 1, n=100_000)
        var = float(np.var(nf - nh))
        assert abs(var - 1.0) <= 0.03

    def test_correlation_contract(self):
        # Per-coordinate covariance of the pair is rho sigma_f sigma_h / dim.
        dim, rho = 4, 0.5
        spec = NoiseSpec(sigma_f=1.0, sigma_h=1.0, rho=rho)
        nf, nh = draw_gaussian_noise(spec, RandomToken(17), dim, n=1_000_000)
        cov = float(np.mean(nf * nh))
        target = rho / dim
        assert abs(cov - target) <= 0.03 * target

    def test_expected_squared_norm_is_sigma_sq(self):
        spec = NoiseSpec(sigma_f=2.0, sigma_h=0.5)
        nf, nh = draw_gaussian_noise(spec, RandomToken(23), 6, n=200_000)
        assert abs(np.mean(np.sum(nf**2, axis=1)) - 4.0) < 0.05
        assert abs(np.mean(np.sum(nh**2, axis=1)) - 0.25) < 0.01

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            draw_gaussian_noise(NoiseSpec(), RandomToken(0), 0)

    @given(st.integers(min_value=1, max_value=64),
           st.sampled_from([None, 1, 3]),
           st.floats(min_value=-1, max_value=1),
           st.integers(min_value=0, max_value=2**160),
           st.integers(min_value=0, max_value=2**70))
    @settings(max_examples=200, deadline=None)
    def test_matches_two_draws_on_fresh_generator(self, dim, n, rho, sid, draw):
        spec = NoiseSpec(sigma_f=1.3, sigma_h=0.7, rho=rho)
        token = RandomToken(sid, draw)
        got = draw_gaussian_noise(spec, token, dim, n)
        want = two_call_noise(spec, token, dim, n)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_threads_draw_what_a_serial_run_draws(self):
        spec = NoiseSpec(sigma_f=1.0, sigma_h=0.5, rho=0.3)
        jobs = [[(RandomToken(1000 * w + i, i % 7), 1 + (i * 5 + w) % 9, (None, 2)[i % 2])
                 for i in range(200)] for w in range(4)]
        serial = [[draw_gaussian_noise(spec, *job) for job in lane] for lane in jobs]
        threaded = [None] * 4
        start = threading.Barrier(4)

        def work(w):
            start.wait()
            threaded[w] = [draw_gaussian_noise(spec, *job) for job in jobs[w]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for lane_s, lane_t in zip(serial, threaded):
            for (sf, sh), (tf, th) in zip(lane_s, lane_t):
                assert np.array_equal(sf, tf) and np.array_equal(sh, th)


class TestGaussianOracle:
    def _oracle(self, spec):
        return gaussian_oracle(lambda x: x, lambda x: 2 * x, spec, dim=3)

    def test_unbiasedness(self):
        # Mean over n draws converges to the exact gradient, per coordinate.
        spec = NoiseSpec(sigma_f=1.0, sigma_h=1.0, rho=0.2)
        oracle = self._oracle(spec)
        x = np.array([0.3, -1.0, 2.0])
        n = 100_000
        nf, nh = draw_gaussian_noise(spec, RandomToken(31), 3, n=n)
        tol = 4.0 / math.sqrt(n)  # 4 sigma / sqrt(n), sigma per coord = 1/sqrt(3)
        assert np.all(np.abs(np.mean(nf, axis=0)) < tol)
        assert np.all(np.abs(np.mean(nh, axis=0)) < tol)
        # spot-check the oracle plumbing adds exactly this noise
        tok = RandomToken(31, 5)
        got = oracle.grad_f(x, tok)
        want = x + draw_gaussian_noise(spec, tok, 3)[0]
        assert np.array_equal(got, want)

    def test_shared_token_correlates_f_and_h(self):
        spec = NoiseSpec(sigma_f=1.0, sigma_h=1.0, rho=1.0)
        oracle = self._oracle(spec)
        x = np.ones(3)
        tok = RandomToken(7, 2)
        noise_f = oracle.grad_f(x, tok) - x
        noise_h = oracle.grad_h(x, tok) - 2 * x
        assert np.allclose(noise_f, noise_h, atol=1e-15)

    def test_difference_oracle_consistent(self):
        spec = NoiseSpec(sigma_f=1.0, sigma_h=1.0, rho=0.5)
        oracle = self._oracle(spec)
        x = np.ones(3)
        tok = RandomToken(7, 2)
        diff = oracle.grad_f_minus_h(x, tok)
        assert np.allclose(diff, oracle.grad_f(x, tok) - oracle.grad_h(x, tok), atol=1e-15)

    def test_deterministic_spec_draws_nothing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("noise drawn for a deterministic spec")

        monkeypatch.setattr(core, "draw_gaussian_noise", no_draw)
        oracle = self._oracle(NoiseSpec())
        x = np.array([1.0, -0.0, 3.0])
        tok = RandomToken(7, 2)
        assert np.array_equal(oracle.grad_f(x, tok), x)
        assert np.array_equal(oracle.grad_h(x, tok), 2 * x)
        assert np.array_equal(oracle.grad_f_minus_h(x, tok), -x)

    def test_exact_gradients_exposed(self):
        oracle = self._oracle(NoiseSpec())
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(oracle.exact_grad_f_minus_h(x), -x)


class TestAsVector:
    def test_scalar_promoted(self):
        assert as_vector(3.0).shape == (1,)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vector(np.eye(2))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([1.0, float("nan")])

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            as_vector([1.0, 2.0], dim=3)


def test_export_list_is_what_init_imports():
    """Every name in ``__all__`` resolves, and ``__all__`` is exactly the public
    names ``auxopt/__init__.py`` imports, so ``from auxopt import *`` works."""
    tree = ast.parse(Path(auxopt.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(auxopt.__all__) == sorted(n for n in imported if not n.startswith("_"))
    exec("from auxopt import *", {})  # AttributeError on a name that does not resolve
