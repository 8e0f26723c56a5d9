import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auxopt.core import RandomToken, rng_from_token, stream_fork
from auxopt.problems import (
    LibsvmParseError,
    LogisticTask,
    _sigmoid,
    build_coreset_helper,
    build_semisupervised,
    exact_hessian_logistic,
    logistic_oracle,
    make_quadratic_nd,
    make_synthetic_classification,
    make_toy_pair,
    map_labels_to_pm1,
    parse_libsvm,
    write_libsvm,
)


def central_diff_grad(f, x, step):
    g = np.empty_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2 * step)
    return g


class TestToyPair:
    def test_gradients_delta1_zeta0(self):
        oracle = make_toy_pair(1.0, 0.0)
        x = np.array([2.0])
        assert oracle.exact_grad_h(x)[0] == 4.0
        assert oracle.exact_grad_f(x)[0] == 2.0

    def test_constant_bias_when_delta0(self):
        oracle = make_toy_pair(0.0, 1.0)
        for v in (-3.0, 0.0, 7.5):
            x = np.array([v])
            assert oracle.exact_grad_f_minus_h(x)[0] == pytest.approx(1.0, abs=1e-15)

    def test_reported_gap(self):
        assert make_toy_pair(0.3, 0.0).hessian_gap == 0.3

    def test_reported_smoothness(self):
        assert make_toy_pair(0.3, 0.0).lipschitz == 1.3

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            make_toy_pair(-0.1, 0.0)

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_values_are_python_pow_or_inf(self, x, delta, zeta):
        def pow_or_inf(v):
            try:
                return v**2
            except OverflowError:
                return float("inf")

        oracle = make_toy_pair(delta, zeta)
        c = 1.0 + delta
        assert oracle.f_value(np.array([x])) == 0.5 * pow_or_inf(x)
        assert oracle.h_value(np.array([x])) == 0.5 * c * pow_or_inf(x - zeta / c)
        assert oracle.bias_m == 2.0 * pow_or_inf(delta)
        assert oracle.bias_zeta_sq == 2.0 * pow_or_inf(zeta)

    def test_huge_constants_give_inf(self):
        oracle = make_toy_pair(1e300, -1e300)
        assert oracle.bias_m == oracle.bias_zeta_sq == float("inf")
        assert oracle.f_value(np.array([1e200])) == float("inf")

    def test_bias_bound_witness(self):
        # ||grad f - grad h||^2 <= 2 delta^2 ||grad f||^2 + 2 zeta^2 everywhere
        delta, zeta = 0.7, 3.0
        oracle = make_toy_pair(delta, zeta)
        rng = rng_from_token(RandomToken(0))
        xs = 100.0 * rng.standard_normal(10_000)
        lhs = (zeta - delta * xs) ** 2
        rhs = oracle.bias_m * xs**2 + oracle.bias_zeta_sq
        assert np.all(lhs <= rhs + 1e-9)


class TestQuadraticND:
    def test_identical_hessians(self):
        oracle = make_quadratic_nd(np.eye(3), np.eye(3), np.zeros(3))
        assert oracle.hessian_gap == 0.0

    def test_scaled_identity_gap(self):
        oracle = make_quadratic_nd(np.eye(3), 2 * np.eye(3), np.zeros(3))
        assert oracle.hessian_gap == pytest.approx(1.0, abs=1e-12)

    def test_bias_orthogonal_to_gap(self):
        a = np.diag([1.0, 2.0])
        oracle = make_quadratic_nd(a, a, np.array([0.0, 5.0]))
        assert oracle.hessian_gap == 0.0
        x = np.array([0.7, -1.2])
        assert np.linalg.norm(oracle.exact_grad_f_minus_h(x)) == pytest.approx(5.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            make_quadratic_nd(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2), np.zeros(2))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            make_quadratic_nd(-np.eye(2), np.eye(2), np.zeros(2))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            make_quadratic_nd(np.eye(2), np.eye(3), np.zeros(2))


class TestFiniteDifferenceGradients:
    def _check(self, oracle, dim):
        rng = rng_from_token(RandomToken(99))
        for _ in range(20):
            x = rng.standard_normal(dim)
            step = 1e-6 * (1.0 + np.linalg.norm(x))
            for value, grad in ((oracle.f_value, oracle.exact_grad_f),
                                (oracle.h_value, oracle.exact_grad_h)):
                fd = central_diff_grad(value, x, step)
                g = grad(x)
                denom = max(1.0, float(np.linalg.norm(g)))
                assert np.linalg.norm(fd - g) / denom < 1e-5

    def test_toy(self):
        self._check(make_toy_pair(0.4, 2.0), 1)

    def test_quadratic(self):
        rng = rng_from_token(RandomToken(3))
        g = rng.standard_normal((4, 4))
        a_h = g @ g.T
        a_f = a_h + 0.5 * np.eye(4)
        self._check(make_quadratic_nd(a_f, a_h, rng.standard_normal(4)), 4)

    def test_logistic(self):
        rng = rng_from_token(RandomToken(4))
        features = rng.standard_normal((30, 5))
        labels = np.sign(rng.standard_normal(30))
        labels[labels == 0] = 1.0
        f_task = LogisticTask(features, labels, l2_reg=0.1)
        h_task = LogisticTask(features, -labels, l2_reg=0.1)
        self._check(logistic_oracle(f_task, h_task), 5)


class TestLibsvmParser:
    def test_basic_line(self):
        features, labels = parse_libsvm("2 1:1 24:1\n")
        assert labels.tolist() == [2.0]
        row = features.toarray()[0]
        assert row[0] == 1.0 and row[23] == 1.0 and row.sum() == 2.0

    def test_empty_input(self):
        features, labels = parse_libsvm("")
        assert features.shape[0] == 0 and len(labels) == 0

    def test_real_valued_features_and_labels(self):
        features, labels = parse_libsvm("-1 2:0.5\n+1 1:-3.25 3:2\n")
        assert labels.tolist() == [-1.0, 1.0]
        assert features.toarray().tolist() == [[0.0, 0.5, 0.0], [-3.25, 0.0, 2.0]]

    @pytest.mark.parametrize(
        "text,lineno",
        [
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
        ],
    )
    def test_malformed_lines_name_line_number(self, text, lineno):
        with pytest.raises(LibsvmParseError, match=f"line {lineno}"):
            parse_libsvm(text)

    def test_round_trip(self):
        rng = rng_from_token(RandomToken(8))
        dense = np.round(rng.standard_normal((6, 5)) * (rng.random((6, 5)) > 0.5), 3)
        labels = np.array([1.0, 2.0, 1.0, 2.0, 1.0, 1.0])
        features, got_labels = parse_libsvm(write_libsvm(dense, labels))
        assert features.shape[1] <= 5
        assert np.array_equal(got_labels, labels)
        assert np.allclose(features.toarray(), dense[:, : features.shape[1]])

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=8))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, n, d):
        rng = rng_from_token(RandomToken(n * 100 + d))
        dense = (rng.random((n, d)) > 0.5).astype(float)
        dense[:, -1] = 1.0  # keep the column count identifiable
        labels = rng.integers(1, 3, size=n).astype(float)
        features, got_labels = parse_libsvm(write_libsvm(dense, labels))
        assert np.array_equal(features.toarray(), dense)
        assert np.array_equal(got_labels, labels)


class TestLogisticTask:
    def test_rejects_non_pm1_labels(self):
        with pytest.raises(ValueError):
            LogisticTask(np.ones((2, 2)), np.array([1.0, 2.0]))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            LogisticTask(np.ones((2, 2)), np.array([1.0, -1.0]),
                         weights=np.array([0.9, 0.9]))

    def test_loss_at_zero_is_log2(self):
        task = LogisticTask(np.ones((4, 3)), np.array([1.0, -1.0, 1.0, -1.0]))
        assert task.loss(np.zeros(3)) == pytest.approx(np.log(2.0))

    def test_hessian_single_sample(self):
        task = LogisticTask(np.array([[1.0, 0.0]]), np.array([1.0]))
        h = exact_hessian_logistic(task, np.zeros(2))
        assert np.allclose(h, 0.25 * np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_hessian_label_free(self):
        rng = rng_from_token(RandomToken(12))
        features = rng.standard_normal((40, 6))
        labels = np.sign(rng.standard_normal(40))
        labels[labels == 0] = 1.0
        x = rng.standard_normal(6)
        h1 = exact_hessian_logistic(LogisticTask(features, labels), x)
        h2 = exact_hessian_logistic(LogisticTask(features, -labels), x)
        assert np.linalg.norm(h1 - h2) < 1e-12

    def test_hessian_reg_identity(self):
        task = LogisticTask(np.zeros((3, 2)), np.ones(3), l2_reg=1.0)
        # zero features: the data term vanishes and only the ridge remains
        assert np.allclose(exact_hessian_logistic(task, np.ones(2)), np.eye(2))

    def test_minibatch_unbiased(self):
        rng = rng_from_token(RandomToken(13))
        features = rng.standard_normal((50, 4))
        labels = np.sign(rng.standard_normal(50))
        labels[labels == 0] = 1.0
        task = LogisticTask(features, labels)
        x = rng.standard_normal(4)
        full = task.grad_minibatch(x, np.arange(50))
        assert np.allclose(full, task.grad(x), atol=1e-12)

    def test_grad_after_in_place_change_is_fresh(self):
        # loss and grad share one margin vector per x; changing the caller's
        # array in place must not return the margins of the old values
        rng = rng_from_token(RandomToken(14))
        features = rng.standard_normal((30, 5))
        labels = np.where(rng.random(30) < 0.5, 1.0, -1.0)
        task = LogisticTask(features, labels, l2_reg=0.1)
        x = rng.standard_normal(5)
        task.loss(x)
        x[2] += 1.0
        fresh = LogisticTask(features, labels, l2_reg=0.1)
        assert np.array_equal(task.grad(x), fresh.grad(x))
        assert task.loss(x) == fresh.loss(x)


class TestLogisticOracle:
    def test_minibatches_are_what_a_fresh_generator_draws(self):
        # the oracle borrows the thread's generator; uniform (f) and weighted
        # (h) minibatches must be the rows rng_from_token draws on each token
        rng = rng_from_token(RandomToken(15))
        features = rng.standard_normal((40, 3))
        labels = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        w = rng.random(40)
        f_task = LogisticTask(features, labels)
        h_task = LogisticTask(features, labels, weights=w / w.sum())
        oracle = logistic_oracle(f_task, h_task, batch_size=7)
        x = rng.standard_normal(3)
        for i in range(300):
            token = RandomToken(i, i)
            idx_f = rng_from_token(stream_fork(token, 0)).integers(0, 40, size=7)
            idx_h = rng_from_token(stream_fork(token, 1)).choice(
                40, size=7, replace=True, p=h_task.weights)
            assert np.array_equal(oracle.grad_f(x, token), f_task.grad_minibatch(x, idx_f))
            assert np.array_equal(oracle.grad_h(x, token), h_task.grad_minibatch(x, idx_h))


def _masked_sigmoid(z):
    """The earlier two-branch formula, kept here as the reference bits."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    def test_matches_masked_formula_bitwise(self):
        grid = np.concatenate([
            np.linspace(-800.0, 800.0, 160_001),
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 709.8, -709.8, 745.2],
            rng_from_token(RandomToken(16)).normal(0.0, 50.0, 100_000),
        ])
        assert np.array_equal(_sigmoid(grid), _masked_sigmoid(grid), equal_nan=True)

    def test_no_overflow_warning(self):
        with np.errstate(over="raise"):
            out = _sigmoid(np.array([-1000.0, 1000.0]))
        assert out.tolist() == [0.0, 1.0]


class TestSemisupervised:
    def _task(self, n=8124, d=12):
        rng = rng_from_token(RandomToken(55))
        features = rng.standard_normal((n, d))
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        return LogisticTask(features, labels)

    def test_equal_thirds_split_sizes(self):
        task = self._task()
        f_task, h_task, test_task = build_semisupervised(
            task, (1 / 3, 1 / 3, 1 / 3), "random_labels", RandomToken(1)
        )
        assert (f_task.n_samples, test_task.n_samples, h_task.n_samples) == (2708, 2708, 2708)

    def test_remainder_goes_to_train(self):
        task = self._task(n=100)
        f_task, h_task, test_task = build_semisupervised(
            task, (0.333, 0.333, 0.334), "random_labels", RandomToken(1)
        )
        assert f_task.n_samples + h_task.n_samples + test_task.n_samples == 100
        assert f_task.n_samples >= 33

    def test_deterministic_in_seed(self):
        task = self._task(n=200)
        a = build_semisupervised(task, (1 / 3, 1 / 3, 1 / 3),
                                 "random_labels", RandomToken(5))
        b = build_semisupervised(task, (1 / 3, 1 / 3, 1 / 3),
                                 "random_labels", RandomToken(5))
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.features, tb.features)
            assert np.array_equal(ta.labels, tb.labels)

    def test_random_label_helper_has_label_free_hessian(self):
        task = self._task(n=300)
        _, h_task, _ = build_semisupervised(
            task, (1 / 3, 1 / 3, 1 / 3), "random_labels", RandomToken(2)
        )
        truth = LogisticTask(h_task.features, np.ones(h_task.n_samples))
        x = np.zeros(task.dim)
        assert np.linalg.norm(
            exact_hessian_logistic(h_task, x) - exact_hessian_logistic(truth, x)
        ) < 1e-12

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            build_semisupervised(self._task(n=30), (0.5, 0.5, 0.5),
                                 "random_labels", RandomToken(0))

    def test_rejects_unknown_helper_kind(self):
        with pytest.raises(ValueError, match="unknown helper kind 'labels'"):
            build_semisupervised(self._task(n=30), (1 / 3, 1 / 3, 1 / 3),
                                 "labels", RandomToken(0))

    def test_split_and_labels_are_what_a_fresh_generator_draws(self):
        task = self._task(n=90)
        seed = RandomToken(6)
        f_task, h_task, test_task = build_semisupervised(
            task, (1 / 3, 1 / 3, 1 / 3), "random_labels", seed)
        perm = rng_from_token(stream_fork(seed, 0)).permutation(90)
        labels = rng_from_token(stream_fork(seed, 1)).integers(0, 2, size=30) * 2.0 - 1.0
        assert np.array_equal(f_task.features, task.features[perm[:30]])
        assert np.array_equal(test_task.features, task.features[perm[30:60]])
        assert np.array_equal(h_task.features, task.features[perm[60:]])
        assert np.array_equal(h_task.labels, labels)


class TestCoreset:
    def _task(self, n=1000):
        rng = rng_from_token(RandomToken(77))
        features = rng.standard_normal((n, 5))
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        return LogisticTask(features, labels)

    def test_one_fifth_size(self):
        helper = build_coreset_helper(self._task(), 0.2, RandomToken(1))
        assert helper.n_samples == 200

    def test_weights_uniform_sum_to_one(self):
        helper = build_coreset_helper(self._task(), 0.2, RandomToken(1))
        assert np.allclose(helper.weights, 1.0 / 200)

    def test_full_fraction_matches_task_gradient(self):
        task = self._task(n=50)
        helper = build_coreset_helper(task, 1.0, RandomToken(1))
        x = np.ones(5)
        assert np.allclose(helper.grad(x), task.grad(x), atol=1e-12)

    def test_seeds_give_different_subsets_same_size(self):
        task = self._task()
        h1 = build_coreset_helper(task, 0.2, RandomToken(1))
        h2 = build_coreset_helper(task, 0.2, RandomToken(2))
        assert h1.n_samples == h2.n_samples
        assert not np.array_equal(h1.features, h2.features)

    def test_rejects_empty_fraction(self):
        with pytest.raises(ValueError):
            build_coreset_helper(self._task(n=3), 0.1, RandomToken(0))

    def test_subset_is_what_a_fresh_generator_draws(self):
        task = self._task()
        for i in range(20):
            rows = rng_from_token(RandomToken(i)).choice(1000, size=200, replace=False)
            helper = build_coreset_helper(task, 0.2, RandomToken(i))
            assert np.array_equal(helper.features, task.features[np.sort(rows)])


class TestSyntheticDataset:
    def test_shape_and_alphabet(self):
        features, labels = make_synthetic_classification(500, 112, RandomToken(0))
        assert features.shape == (500, 112)
        assert set(np.unique(labels)) == {1.0, 2.0}

    def test_one_hot_groups(self):
        features, _ = make_synthetic_classification(100, 112, RandomToken(0), n_groups=16)
        assert np.all(features.sum(axis=1) == 16)
        assert set(np.unique(features)) == {0.0, 1.0}

    def test_label_mapping(self):
        assert map_labels_to_pm1(np.array([1.0, 2.0, 1.0])).tolist() == [1.0, -1.0, 1.0]

    def test_label_mapping_rejects_three_values(self):
        with pytest.raises(ValueError):
            map_labels_to_pm1(np.array([1.0, 2.0, 3.0]))
