import functools
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auxopt import harness, problems
from auxopt.core import ConfigError, RandomToken, rng_from_token, stream_fork
from auxopt.problems import (
    LibsvmParseError,
    LogisticTask,
    _sigmoid,
    build_semisupervised,
    logistic_oracle,
    make_quadratic_nd,
    make_synthetic_classification,
    make_toy_pair,
    map_labels_to_pm1,
    parse_libsvm,
    write_libsvm,
)


def exact_hessian_logistic(task, x):
    """Weighted sum of sigma_i (1 - sigma_i) a_i a_i' plus the ridge term, from
    a dense copy of the features.  Label-free: relabeling any subset of rows
    leaves the output unchanged."""
    a = task.features.toarray()
    s = _sigmoid(a @ np.asarray(x, dtype=np.float64))
    d = s * (1.0 - s) * task._w
    return (a * d[:, None]).T @ a + task.l2_reg * np.eye(task.dim)


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

    def test_negative_delta_error_names_delta(self):
        with pytest.raises(ConfigError) as err:
            make_toy_pair(-0.1, 0.0)
        assert err.value.path == "delta"

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    @example(x=1.393564773707595, delta=0.0, zeta=0.0)  # x ** 2 misses x * x by one ulp
    def test_values_are_products_or_inf(self, x, delta, zeta):
        # float products, which overflow to inf rather than raise
        oracle = make_toy_pair(delta, zeta)
        f = oracle.f_value(np.array([x]))
        assert f == 0.5 * (x * x)
        with np.errstate(over="ignore"):  # ||grad f||^2 as run observes it
            grad_norm_sq = float((oracle.exact_grad_f(np.array([x])) ** 2).sum())
        assert f == grad_norm_sq / 2

    def test_huge_constants_give_inf(self):
        oracle = make_toy_pair(1e300, -1e300)
        assert oracle.f_value(np.array([1e200])) == float("inf")

    def test_bias_bound_witness(self):
        # ||grad f - grad h||^2 <= 2 delta^2 ||grad f||^2 + 2 zeta^2 everywhere
        delta, zeta = 0.7, 3.0
        oracle = make_toy_pair(delta, zeta)
        rng = rng_from_token(RandomToken(0))
        xs = 100.0 * rng.standard_normal(10_000)
        lhs = (zeta - delta * xs) ** 2
        rhs = 2 * delta**2 * xs**2 + 2 * zeta**2
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

    def test_smoothness_is_largest_eigenvalue(self):
        rng = rng_from_token(RandomToken(8))
        b = rng.standard_normal((20, 20))
        a_f = b @ b.T
        oracle = make_quadratic_nd(a_f, np.eye(20), np.zeros(20))
        assert oracle.lipschitz == np.linalg.eigvalsh(a_f).max()
        assert oracle.lipschitz == pytest.approx(np.linalg.norm(a_f, 2), rel=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            make_quadratic_nd(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2), np.zeros(2))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            make_quadratic_nd(-np.eye(2), np.eye(2), np.zeros(2))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            make_quadratic_nd(np.eye(2), np.eye(3), np.zeros(2))

    @pytest.mark.parametrize("a_f,a_h,b_h,path", [
        ([[1.0, 1.0], [0.0, 1.0]], np.eye(2), np.zeros(2), "a_f"),  # asymmetric
        ([[1.0, 0.0], [0.0]], np.eye(2), np.zeros(2), "a_f"),  # ragged
        ([1.0, 2.0], np.eye(2), np.zeros(2), "a_f"),  # not a matrix
        (np.eye(2), -np.eye(2), np.zeros(2), "a_h"),  # indefinite
        (np.eye(2), np.eye(3), np.zeros(2), "a_h"),  # shape of a_f
        (np.eye(2), np.eye(2), np.zeros(3), "b_h"),
        (np.eye(2), np.eye(2), "x", "b_h"),
    ])
    def test_errors_name_their_field(self, a_f, a_h, b_h, path):
        with pytest.raises(ConfigError) as err:
            make_quadratic_nd(a_f, a_h, b_h)
        assert err.value.path == path
        assert "inhomogeneous" not in err.value.message  # numpy's words for a ragged list

    @pytest.mark.parametrize("ragged", [[[1.0, 0.0], [0.0]], [[1.0], [0.0, 1.0], []]])
    @pytest.mark.parametrize("path", ["a_f", "a_h"])
    def test_ragged_rows_are_named_by_their_lengths(self, ragged, path):
        args = {"a_f": np.eye(2), "a_h": np.eye(2), path: ragged}
        with pytest.raises(ConfigError) as err:
            make_quadratic_nd(args["a_f"], args["a_h"], np.zeros(2))
        lengths = [len(row) for row in ragged]
        assert (err.value.path, err.value.message) == (
            path, f"must be a square matrix, got rows of lengths {lengths}")


class TestFiniteDifferenceGradients:
    def _check(self, oracle, h_value, dim):
        # h_value: h from the family's formula, since the pair carries only f
        rng = rng_from_token(RandomToken(99))
        for _ in range(20):
            x = rng.standard_normal(dim)
            step = 1e-6 * (1.0 + np.linalg.norm(x))
            for value, grad in ((oracle.f_value, oracle.exact_grad_f),
                                (h_value, oracle.exact_grad_h)):
                fd = central_diff_grad(value, x, step)
                g = grad(x)
                denom = max(1.0, float(np.linalg.norm(g)))
                assert np.linalg.norm(fd - g) / denom < 1e-5

    def test_toy(self):
        delta, zeta = 0.4, 2.0
        c = 1.0 + delta
        self._check(make_toy_pair(delta, zeta),
                    lambda x: 0.5 * c * float(x[0] - zeta / c) ** 2, 1)

    def test_quadratic(self):
        rng = rng_from_token(RandomToken(3))
        g = rng.standard_normal((4, 4))
        a_h = g @ g.T
        a_f = a_h + 0.5 * np.eye(4)
        b_h = rng.standard_normal(4)
        self._check(make_quadratic_nd(a_f, a_h, b_h),
                    lambda x: 0.5 * float(x @ (a_h @ x)) - float(b_h @ x), 4)

    def test_logistic(self):
        rng = rng_from_token(RandomToken(4))
        features = rng.standard_normal((30, 5))
        labels = np.sign(rng.standard_normal(30))
        labels[labels == 0] = 1.0
        f_task = LogisticTask(features, labels, l2_reg=0.1)
        h_task = LogisticTask(features, -labels, l2_reg=0.1)
        self._check(logistic_oracle(f_task, h_task), h_task.loss, 5)


def _stack_family(family: str, l2_reg: float):
    """An oracle pair of ``family`` and its dimension; ``l2_reg`` is the
    logistic tasks' ridge."""
    if family == "toy":
        return make_toy_pair(0.5, 2.0), 1
    if family == "quadratic_nd":
        rng = rng_from_token(RandomToken(31))
        g = rng.standard_normal((5, 5))
        return make_quadratic_nd(g @ g.T + np.eye(5), g @ g.T, rng.standard_normal(5)), 5
    features, labels = make_synthetic_classification(300, 12, RandomToken(32), n_groups=4)
    task = LogisticTask(features, map_labels_to_pm1(labels), l2_reg=l2_reg)
    return logistic_oracle(task, task), 12


class TestStackedOracles:
    """``exact_grad_f``, ``exact_grad_h`` and ``f_value`` at an (n, d) stack
    give, row by row, the bits they give at each row alone: ``run`` observes
    a window of cycles at once, and takes E_t from its stacked snapshots."""

    @staticmethod
    def _assert_rows_are_points(oracle, ys):
        grads, values = oracle.exact_grad_f(ys), oracle.f_value(ys)
        grads_h = oracle.exact_grad_h(ys)
        assert grads.shape == grads_h.shape == ys.shape and values.shape == ys.shape[:1]
        for y, grad, grad_h, value in zip(ys, grads, grads_h, values):
            assert grad.tobytes() == oracle.exact_grad_f(y).tobytes()
            assert grad_h.tobytes() == oracle.exact_grad_h(y).tobytes()
            assert value.tobytes() == np.float64(oracle.f_value(y)).tobytes()

    @pytest.mark.parametrize("n", [1, 5, 10])
    @pytest.mark.parametrize("family,l2_reg", [("toy", 0.0), ("quadratic_nd", 0.0),
                                               ("logistic", 0.0), ("logistic", 0.05)])
    def test_stack_rows_equal_points(self, family, l2_reg, n):
        oracle, dim = _stack_family(family, l2_reg)
        ys = 3.0 * rng_from_token(RandomToken(n)).standard_normal((n, dim))
        if family == "toy":
            ys[-1] = 1e200  # f overflows to inf, without a warning
        self._assert_rows_are_points(oracle, ys)

    @pytest.mark.parametrize("l2_reg", [0.0, 0.05])
    def test_logistic_stack_over_several_chunks(self, monkeypatch, l2_reg):
        oracle, dim = _stack_family("logistic", l2_reg)
        monkeypatch.setattr(LogisticTask, "_CHUNK_FLOATS", 3 * 300)  # chunks of 3 rows
        ys = rng_from_token(RandomToken(33)).standard_normal((10, dim))
        self._assert_rows_are_points(oracle, ys)


def _parse_libsvm_loop(text):
    """The per-token parser that the vectorised one replaced, kept as the
    reference: same arrays bit for bit, same error line."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    labels, data, indices, indptr = [], [], [], [0]
    n_features = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        try:
            labels.append(float(parts[0]))
        except ValueError:
            raise LibsvmParseError(f"line {lineno}: invalid label {parts[0]!r}") from None
        prev_idx = 0
        for tok in parts[1:]:
            idx_s, _, val_s = tok.partition(":")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise LibsvmParseError(f"line {lineno}: malformed token {tok!r}") from None
            if idx < 1:
                raise LibsvmParseError(f"line {lineno}: index {idx} is not 1-based")
            if idx <= prev_idx:
                raise LibsvmParseError(
                    f"line {lineno}: non-ascending index {idx} after {prev_idx}"
                )
            prev_idx = idx
            indices.append(idx - 1)
            data.append(val)
            n_features = max(n_features, idx)
        indptr.append(len(data))
    features = sp.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(labels), n_features),
    )
    return features, np.asarray(labels)


def _assert_same_parse(text):
    """parse_libsvm agrees with the loop: equal arrays and dtypes bit for
    bit, or the same LibsvmParseError message."""
    try:
        want = _parse_libsvm_loop(text)
    except LibsvmParseError as exc:
        with pytest.raises(LibsvmParseError) as got:
            parse_libsvm(text)
        assert str(got.value) == str(exc)
        return
    except OverflowError:  # an index of 2**63 or more: the loop cannot store it
        with pytest.raises(LibsvmParseError, match="too large"):
            parse_libsvm(text)
        return
    if want[0].shape[1] >= 2**53:  # indices are held as float64 now
        with pytest.raises(LibsvmParseError, match="too large"):
            parse_libsvm(text)
        return
    features, labels = parse_libsvm(text)
    assert features.shape == want[0].shape
    for got_a, want_a in ((features.data, want[0].data), (features.indices, want[0].indices),
                          (features.indptr, want[0].indptr), (labels, want[1])):
        assert got_a.dtype == want_a.dtype
        assert got_a.tobytes() == want_a.tobytes()


# Pieces of LIBSVM text: numbers, separators and every line break the loop
# splits on, so that both well-formed and malformed lines come up.
_NUMBERISH = st.text(alphabet="0123456789+-.eE", min_size=0, max_size=6)
_NUMBER = st.one_of(
    st.integers(-(10**20), 10**20).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.3e}"),
    _NUMBERISH,
)
_SEP = st.sampled_from([" ", "  ", "\t", " \t"])
_BREAK = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\n \n", "\x0b", "\x0c", "\x1c"])
_INDEX = st.one_of(st.integers(1, 40).map(str), _NUMBERISH)


@st.composite
def _libsvm_text(draw):
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.integers(0, 5))
        start = draw(st.integers(0, 3))
        ascending = [str(start + i + 1) for i in range(n)] if draw(st.booleans()) else None
        toks = [draw(_NUMBER)]
        for i in range(n):
            idx = ascending[i] if ascending else draw(_INDEX)
            tok = f"{idx}:{draw(_NUMBER)}"
            if draw(st.integers(0, 9)) == 0:  # now and then no colon, or two
                tok = draw(st.sampled_from([idx, tok + ":1"]))
            toks.append(tok)
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + draw(_SEP).join(toks))
    text = "".join(line + draw(_BREAK) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


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


    # An index of more than 15 digits is named by its text, not its float64 value.
    LONG_INDICES = ("1 -1234567890123456789:1\n", "1 1234567890123457:1 1234567890123456:1\n")

    @given(_libsvm_text())
    @settings(max_examples=400, deadline=None)
    @example(text=LONG_INDICES[0])
    @example(text=LONG_INDICES[1])
    def test_matches_loop_on_structured_text(self, text):
        _assert_same_parse(text)

    @given(st.text(alphabet="0123456789+-.eE: \t\n\r", max_size=40))
    @settings(max_examples=400, deadline=None)
    @example(text=LONG_INDICES[0])
    @example(text=LONG_INDICES[1])
    def test_matches_loop_on_raw_text(self, text):
        _assert_same_parse(text)

    @pytest.mark.parametrize("text", [
        "", "\n\n", "1\n", "-0 1:-0\n", "+1 007:+.5e-3 8:5. 9:1e400\n",
        "1 1:0.1000000000000000055511151231257827021181583404541015625000001\n",
        "1 1:123456789012345 2:1234567890123456 3:-99999999999999999999\n",
        "1 1:1\r\n\r\n2 2:2\r3 3:3\x0b4 4:4", "1 1:1 1:1\n", "1 5:1\n2\n3 1:1 2:2 2:3\n",
        "1 1:1\n2 1:1:1\n", "1 :1\n", "1 1:\n", "1 1\n", "1 0:1\n", "1 -0:1\n",
        "1:1 2:2\n", "1 1:1\n. 1:1\n", "1 1:1e\n", "1 1:1e+\n", "1 1:.e1\n",
        "1 1:+-1\n", "1 1:1.2.3\n", "1 1:1e5.0\n", "1 1:1ee5\n", "1 1.0:1\n", "1 1e1:1\n",
        "1 9223372036854775808:1\n", "1 9007199254740993:1\n",
    ])
    def test_matches_loop_on_edge_cases(self, text):
        _assert_same_parse(text)
        _assert_same_parse(text.encode())

    @pytest.mark.parametrize("text,lineno", [
        ("1 1:inf\n", 1), ("1 1:1\nnan 1:1\n", 2), ("1 1_0:1\n", 1), ("1 1:1\n1 1:\u0661\n", 2),
    ])
    def test_rejects_python_only_float_syntax(self, text, lineno):
        # float() and int() accept these, the decimal reader does not
        _parse_libsvm_loop(text)
        with pytest.raises(LibsvmParseError, match=f"line {lineno}"):
            parse_libsvm(text)

    def test_write_accepts_csr_rows(self):
        dense = np.array([[0.0, 1.5, 0.0], [0.0, 0.0, 0.0], [-2.0, 0.0, 3.0]])
        labels = np.array([1.0, 2.0, 1.0])
        # a stored zero, a duplicated entry and unsorted columns
        csr = sp.csr_matrix((np.array([0.0, 1.0, 0.5, 3.0, -2.0]), np.array([0, 1, 1, 2, 0]),
                             np.array([0, 3, 3, 5])), shape=(3, 3))
        assert np.array_equal(csr.toarray(), dense)
        want = "1 2:1.5\n2\n1 1:-2 3:3\n"
        assert write_libsvm(csr, labels) == write_libsvm(dense, labels) == want


@functools.lru_cache(maxsize=None)
def _mushrooms_text() -> bytes:
    """An 8124 x 112 one-hot LIBSVM file, the shape of the benchmark's."""
    features, labels = make_synthetic_classification(8124, 112, RandomToken(8))
    return write_libsvm(features, labels).encode()


def _line_of(n: int) -> str:
    """A valid line of ``n`` characters (a label and spaces), empty for 0."""
    return ("1" + " " * n)[:n]


_BLOCK_SIZES = [1, 7, 64]


class TestLibsvmBlocks:
    """parse_libsvm over blocks of a few bytes, so that every kind of line
    and break meets a block boundary, against the per-token loop."""

    @pytest.mark.parametrize("block", _BLOCK_SIZES)
    @given(text=_libsvm_text())
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_on_structured_text(self, block, text):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(problems, "_BLOCK_BYTES", block)
            _assert_same_parse(text)

    @pytest.mark.parametrize("block", _BLOCK_SIZES)
    @pytest.mark.parametrize("case", [
        # "\r" the last byte of the first block's minimum, its "\n" the next
        lambda b: _line_of(b - 1) + "\r\n2 1:1\r\n3 2:1 1:1\n",
        lambda b: _line_of(b - 1) + "\r\n2 1:1\r\nx 1:1",
        # blank and whitespace-only lines at the start of a block
        lambda b: _line_of(b - 1) + "\n \t\n\n1 2:1\n  \n3 x\n",
        lambda b: _line_of(b - 1) + "\n\n \n1 3:1\n",
        # "\r" breaks only: one block
        lambda b: "1 1:1\r2 2:2\r\r3 3:1 4:4\r" * b,
        lambda b: "1 1:1\r2 2:2\r\r3 3:1 4:x\r" * b,
    ])
    def test_matches_loop_at_boundaries(self, monkeypatch, block, case):
        monkeypatch.setattr(problems, "_BLOCK_BYTES", block)
        _assert_same_parse(case(block))

    @pytest.mark.parametrize("block", _BLOCK_SIZES)
    def test_error_in_a_late_block_names_its_line(self, monkeypatch, block):
        monkeypatch.setattr(problems, "_BLOCK_BYTES", block)
        text = _mushrooms_text() + b"1 3:1 2:1\nx 1:1\n"
        with pytest.raises(LibsvmParseError) as exc:
            parse_libsvm(text)
        assert str(exc.value) == "line 8125: non-ascending index 2 after 3"


class TestParseMemory:
    def test_parse_peak_is_a_small_multiple_of_its_output(self):
        text = _mushrooms_text() * 7
        assert len(text) >= 4 * 2**20
        tracemalloc.start()
        try:
            features, labels = parse_libsvm(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert features.shape == (7 * 8124, 112)
        returned = sum(a.nbytes for a in (features.data, features.indices,
                                          features.indptr, labels))
        assert peak <= 3 * returned, (peak, returned)

    def test_build_oracle_peak(self, tmp_path):
        data = tmp_path / "data.libsvm"
        data.write_bytes(_mushrooms_text())
        cfg = harness.load_config(json.dumps({
            "version": 1,
            "problem": {"logistic": {"path": str(data), "helper": {"kind": "random_labels"},
                                     "batch_size": 128}},
            "algorithm": {"name": "AuxMOM", "eta": 0.5, "a": 0.1, "K": 1, "T": 20},
            "seed": 1,
        }))
        harness.build_oracle(cfg)  # imports scipy, outside the trace
        tracemalloc.start()
        try:
            harness.build_oracle(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 2**20, peak


class TestWriteLibsvm:
    def test_round_trip_is_exact(self):
        rng = rng_from_token(RandomToken(12))
        dense = rng.standard_normal((40, 7))
        labels = rng.standard_normal(40)
        features, got_labels = parse_libsvm(write_libsvm(dense, labels))
        assert got_labels.tobytes() == labels.tobytes()
        assert features.toarray().tobytes() == dense.tobytes()

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_rejects_a_label_count_that_is_not_the_row_count(self, n_labels):
        with pytest.raises(ValueError, match=f"{n_labels} labels for 2 rows"):
            write_libsvm(np.ones((2, 3)), np.ones(n_labels))


class TestLogisticTask:
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_features(self, value):
        features = np.ones((2, 2))
        features[1, 0] = value
        with pytest.raises(ValueError, match="features must be finite"):
            LogisticTask(sp.csr_matrix(features), np.array([1.0, -1.0]))

    def test_rejects_non_pm1_labels(self):
        with pytest.raises(ValueError):
            LogisticTask(np.ones((2, 2)), np.array([1.0, 2.0]))

    def test_gradients_keep_no_copy_of_the_design(self):
        # the gradient's product and the minibatch gather read the CSR's own
        # arrays, so after its first gradients a task keeps only the loss
        # memo (a copy of x and the n margins), far less than its design
        warm = LogisticTask(np.eye(3), np.array([1.0, -1.0, 1.0]))
        warm.loss(np.ones(3)), warm.grad(np.ones(3)), warm.grad_minibatch(np.ones(3), np.arange(3))
        features, labels = make_synthetic_classification(4000, 112, RandomToken(1))
        task = LogisticTask(features, map_labels_to_pm1(labels))
        x, idx = np.full(task.dim, 0.1), np.arange(0, task.n_samples, 7)
        tracemalloc.start()
        try:
            task.loss(x), task.grad(x), task.grad_minibatch(x, idx)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        design = task.features.data.nbytes + task.features.indices.nbytes
        assert kept < 0.1 * design, (kept, design)

    @pytest.mark.parametrize("n, d", [(5000, 40), (200, 20000)], ids=["tall", "wide"])
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_transposed_product_is_bit_identical(self, n, d, scale):
        # the CSC view features.T adds each entry's terms in row order, as the
        # product with a transposed CSR copy does, so no gradient bit moves;
        # 16 nonzeros per row on average
        rng = np.random.default_rng(11)
        features = sp.random(n, d, density=16 / d, format="csr", random_state=rng,
                             data_rvs=rng.standard_normal)
        copy = features.T.tocsr()
        for _ in range(20):
            c = scale * rng.standard_normal(n)
            assert (features.T @ c).tobytes() == (copy @ c).tobytes()

    @pytest.mark.parametrize("l2_reg", [-1.0, float("nan")])
    def test_rejects_bad_l2_reg(self, l2_reg):
        with pytest.raises(ConfigError) as err:
            LogisticTask(np.ones((2, 2)), np.array([1.0, -1.0]), l2_reg=l2_reg)
        assert err.value.path == "l2_reg"

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
        # loss and grad share one memo of outputs per x, a point or a stack;
        # changing the caller's array in place must not return the outputs of
        # the old values, and the outputs it returns cannot be changed
        rng = rng_from_token(RandomToken(14))
        features = rng.standard_normal((30, 5))
        labels = np.where(rng.random(30) < 0.5, 1.0, -1.0)
        task = LogisticTask(features, labels, l2_reg=0.1)
        for shape in ((5,), (3, 5)):
            x = rng.standard_normal(shape)
            task.loss(x)
            x[..., 2] += 1.0
            fresh = LogisticTask(features, labels, l2_reg=0.1)
            assert np.array_equal(task.grad(x), fresh.grad(x))
            assert np.array_equal(task.loss(x), fresh.loss(x))
            with pytest.raises(ValueError, match="read-only"):
                task.grad(x)[..., 0] = 0.0

    def test_loss_after_grad_of_a_stack_makes_no_second_product(self, monkeypatch):
        # loss and grad of a stack come from one pass per chunk: after grad
        # of a 10-row stack in chunks of 3 rows (four products with the
        # transposed design), loss of the same stack makes none
        features, labels = make_synthetic_classification(300, 12, RandomToken(32), n_groups=4)
        task = LogisticTask(features, map_labels_to_pm1(labels), l2_reg=0.05)
        monkeypatch.setattr(LogisticTask, "_CHUNK_FLOATS", 3 * 300)
        products = []

        class Spy:
            def __init__(self, design):
                self.design = design

            def __matmul__(self, other):
                products.append(other.shape)
                return self.design @ other

        object.__setattr__(task, "_design_t", Spy(task._design_t))
        xs = rng_from_token(RandomToken(34)).standard_normal((10, 12))
        grads = task.grad(xs)
        assert len(products) == 4
        losses = task.loss(xs)
        assert len(products) == 4
        fresh = LogisticTask(features, map_labels_to_pm1(labels), l2_reg=0.05)
        assert losses.tobytes() == fresh.loss(xs).tobytes()
        assert grads.tobytes() == fresh.grad(xs).tobytes()

    def test_stack_peak_memory_is_two_chunks_and_its_outputs(self):
        # a 200-row stack at the benchmark's 2,708 samples is evaluated a
        # chunk of rows at a time: its peak is within two chunks' temporaries,
        # measured on a one-chunk stack, plus its outputs (the memo's copy
        # of the stack, the losses and the gradients)
        features, labels = make_synthetic_classification(2708, 112, RandomToken(3), n_groups=16)
        task = LogisticTask(features, map_labels_to_pm1(labels))
        rows = task._CHUNK_FLOATS // task.n_samples

        def peak_over_outputs(n: int) -> int:
            xs = rng_from_token(RandomToken(n)).standard_normal((n, task.dim))
            tracemalloc.start()
            try:
                task.grad(xs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - (2 * xs.nbytes + 8 * n)

        chunk = peak_over_outputs(rows)
        assert 0 < peak_over_outputs(200) <= 2 * chunk


def _dense_loss(task, x):
    """The dense formulas the CSR task replaced, kept as the reference."""
    margins = task.labels * (task.features.toarray() @ x)
    return float(task._w @ np.logaddexp(0.0, -margins)) + 0.5 * task.l2_reg * float(x @ x)


def _dense_grad(task, x):
    a = task.features.toarray()
    coef = -task.labels * _sigmoid(-task.labels * (a @ x)) * task._w
    return a.T @ coef + task.l2_reg * x


def _dense_grad_minibatch(task, x, idx):
    a = task.features.toarray()[idx]
    y = task.labels[idx]
    coef = -y * _sigmoid(-y * (a @ x)) / len(idx)
    return a.T @ coef + task.l2_reg * x


def _assert_close(got, want, rel=1e-12):
    assert np.linalg.norm(np.subtract(got, want)) <= rel * np.linalg.norm(want)


class TestSparseMatchesDense:
    """The CSR task against the dense formulas, to 1e-12 relative."""

    @pytest.mark.parametrize("shape", [(60, 9), (6, 40)])
    @pytest.mark.parametrize("kind", ["uniform", "coreset"])
    @pytest.mark.parametrize("l2_reg", [0.0, 0.1])
    def test_loss_grad_minibatch_smoothness(self, shape, kind, l2_reg):
        n, d = shape
        rng = rng_from_token(RandomToken(17))
        dense = rng.standard_normal(shape) * (rng.random(shape) < 0.3)
        dense[4] = 0.0  # a row with no nonzeros
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        task = LogisticTask(sp.csr_matrix(dense), labels, l2_reg=l2_reg)
        if kind == "coreset":  # one that keeps the empty row
            _, task = build_semisupervised(task, (0.6, 0.2, 0.2), "coreset", RandomToken(9),
                                           fraction=0.5)
        assert np.diff(task.features.indptr).min() == 0
        for scale in (0.1, 1.0, 30.0):
            x = scale * rng.standard_normal(d)
            _assert_close(task.loss(x), _dense_loss(task, x))
            _assert_close(task.grad(x), _dense_grad(task, x))
            empty = int(np.argmin(np.diff(task.features.indptr)))
            for idx in (np.array([empty]), np.array([empty, empty, 0]),
                        rng.integers(0, task.n_samples, 128)):
                _assert_close(task.grad_minibatch(x, idx), _dense_grad_minibatch(task, x, idx))

    def test_dense_and_sparse_input_give_one_task(self):
        rng = rng_from_token(RandomToken(18))
        dense = rng.standard_normal((20, 4)) * (rng.random((20, 4)) < 0.5)
        labels = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        a, b = LogisticTask(dense, labels), LogisticTask(sp.csr_matrix(dense), labels)
        assert isinstance(a.features, sp.csr_matrix) and isinstance(b.features, sp.csr_matrix)
        x = rng.standard_normal(4)
        assert a.loss(x) == b.loss(x) and np.array_equal(a.grad(x), b.grad(x))

    def test_rejects_one_dimensional_features(self):
        with pytest.raises(ValueError, match="inconsistent shapes"):
            LogisticTask(np.ones(3), np.ones(3))


class TestLogisticOracle:
    def test_minibatches_are_what_a_fresh_generator_draws(self):
        # the oracle borrows the thread's generator: a block's f rows must be
        # the first draws of rng_from_token(token), and its h rows the draws
        # that follow them, each uniform over its task; sample k pairs row k
        # of each
        rng = rng_from_token(RandomToken(15))
        features = rng.standard_normal((40, 3))
        labels = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        f_task = LogisticTask(features, labels)
        h_task = LogisticTask(features[:25], labels[:25])
        oracle = logistic_oracle(f_task, h_task, batch_size=7)
        x = rng.standard_normal(3)
        for i in range(100):
            token, n = RandomToken(i, i), 1 + i % 4
            fresh = rng_from_token(token)
            idx_f = fresh.integers(0, 40, size=(n, 7))
            idx_h = fresh.integers(0, 25, size=(n, 7))
            samples = oracle.draw(token, n)
            assert len(samples) == n
            for k, sample in enumerate(samples):
                g_f = f_task.grad_minibatch(x, idx_f[k])
                g_h = h_task.grad_minibatch(x, idx_h[k])
                assert np.array_equal(oracle.grad_f(x, sample), g_f)
                assert np.array_equal(oracle.grad_h(x, sample), g_h)
                assert np.array_equal(oracle.grad_f_minus_h(x, sample), g_f - g_h)

    @pytest.mark.parametrize("helper", ["unweighted", "coreset"])
    def test_minibatch_rows_are_uniform_weighted_and_independent(self, helper, monkeypatch):
        # chi-square tests over the rows of blocks drawn at consecutive
        # indices of one stream: f's rows and h's, a plain task or a
        # coreset, are uniform (every row weighs 1/n), and a sample's f and
        # h rows are independent
        rng = rng_from_token(RandomToken(19))
        n_f, n_h = 8, 6
        f_task = LogisticTask(rng.standard_normal((n_f, 2)), np.ones(n_f))
        if helper == "unweighted":
            h_task = LogisticTask(rng.standard_normal((n_h, 2)), np.ones(n_h))
        else:  # half of a 12-row train part
            _, h_task = build_semisupervised(
                LogisticTask(rng.standard_normal((20, 2)), np.ones(20)), (0.6, 0.2, 0.2),
                "coreset", RandomToken(20), fraction=0.5)
        assert h_task.n_samples == n_h
        rows = {}

        def record(task, x, idx):
            rows.setdefault(id(task), []).append(idx)
            return np.zeros(2)

        monkeypatch.setattr(LogisticTask, "grad_minibatch", record)
        oracle = logistic_oracle(f_task, h_task, batch_size=16)
        start = RandomToken(21)
        for j in range(200):
            for sample in oracle.draw(start.skip(j), 10):
                oracle.grad_f_minus_h(np.zeros(2), sample)
        idx_f = np.concatenate(rows[id(f_task)])
        idx_h = np.concatenate(rows[id(h_task)])
        n = len(idx_f)
        assert n == 200 * 10 * 16
        assert scipy.stats.chisquare(np.bincount(idx_f, minlength=n_f)).pvalue > 1e-3
        assert scipy.stats.chisquare(np.bincount(idx_h, minlength=n_h)).pvalue > 1e-3
        table = np.zeros((n_f, n_h))
        np.add.at(table, (idx_f, idx_h), 1)
        assert scipy.stats.chi2_contingency(table).pvalue > 1e-3

    def test_exact_oracle_draws_nothing(self, monkeypatch):
        task = LogisticTask(np.eye(4, 2), np.array([1.0, -1.0, 1.0, -1.0]))
        monkeypatch.setattr(problems, "borrow_generator", None)  # any draw would fail
        oracle = logistic_oracle(task, task)
        x = np.array([0.5, -2.0])
        samples = oracle.draw(RandomToken(3), 2)
        assert samples == [None, None]
        assert np.array_equal(oracle.grad_f(x, samples[0]), task.grad(x))
        assert np.array_equal(oracle.grad_f_minus_h(x, samples[1]), task.grad(x) - task.grad(x))

    def test_rejects_empty_batch(self):
        task = LogisticTask(np.ones((4, 2)), np.array([1.0, -1.0, 1.0, -1.0]))
        with pytest.raises(ConfigError) as err:
            logistic_oracle(task, task, batch_size=0)
        assert err.value.path == "batch_size"


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
        f_task, h_task = build_semisupervised(
            task, (1 / 3, 1 / 3, 1 / 3), "random_labels", RandomToken(1)
        )
        assert (f_task.n_samples, h_task.n_samples) == (2708, 2708)

    def test_remainder_goes_to_train(self):
        task = self._task(n=100)
        f_task, h_task = build_semisupervised(
            task, (0.333, 0.333, 0.334), "random_labels", RandomToken(1)
        )
        # the parts' floors are 33, 33 and 33; the one row left over goes to train
        assert (f_task.n_samples, h_task.n_samples) == (34, 33)

    def test_deterministic_in_seed(self):
        task = self._task(n=200)
        a = build_semisupervised(task, (1 / 3, 1 / 3, 1 / 3),
                                 "random_labels", RandomToken(5))
        b = build_semisupervised(task, (1 / 3, 1 / 3, 1 / 3),
                                 "random_labels", RandomToken(5))
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.features.toarray(), tb.features.toarray())
            assert np.array_equal(ta.labels, tb.labels)

    def test_random_label_helper_has_label_free_hessian(self):
        task = self._task(n=300)
        _, h_task = build_semisupervised(
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

    @pytest.mark.parametrize("kind,fields,path", [
        ("subset_batch", {"indices": [-1, 0]}, "helper.indices"),  # negative
        ("subset_batch", {"indices": [0, 10]}, "helper.indices"),  # beyond the 10-row train part
        ("subset_batch", {"indices": []}, "helper.indices"),
        ("subset_batch", {}, "helper.indices"),
        ("random_labels", {"fraction": 0.5}, "helper.fraction"),
        ("random_labels", {"indices": [0]}, "helper.indices"),
        ("coreset", {"indices": [0]}, "helper.indices"),
        ("coreset", {"fraction": 0.05}, "helper.fraction"),  # no row of the train part
    ])
    def test_helper_errors_name_their_field(self, kind, fields, path):
        with pytest.raises(ConfigError) as err:
            build_semisupervised(self._task(n=30), (1 / 3, 1 / 3, 1 / 3), kind,
                                 RandomToken(0), **fields)
        assert err.value.path == path

    @pytest.mark.parametrize("split", [(0.5, 0.5), (0.5, 0.6, -0.1), (0.98, 0.01, 0.01)])
    def test_split_errors_name_their_field(self, split):
        with pytest.raises(ConfigError) as err:
            build_semisupervised(self._task(n=30), split, "random_labels", RandomToken(0))
        assert err.value.path == "split"

    def test_last_train_row_is_a_valid_index(self):
        task = self._task(n=30)
        f_task, h_task = build_semisupervised(task, (1 / 3, 1 / 3, 1 / 3), "subset_batch",
                                              RandomToken(0), indices=[9, 0])
        assert np.array_equal(h_task.features.toarray(), f_task.features.toarray()[[9, 0]])

    def test_split_and_labels_are_what_a_fresh_generator_draws(self):
        task = self._task(n=90)
        seed = RandomToken(6)
        f_task, h_task = build_semisupervised(
            task, (1 / 3, 1 / 3, 1 / 3), "random_labels", seed)
        perm = rng_from_token(stream_fork(seed, 0)).permutation(90)
        labels = rng_from_token(stream_fork(seed, 1)).integers(0, 2, size=30) * 2.0 - 1.0
        dense = task.features.toarray()
        assert np.array_equal(f_task.features.toarray(), dense[perm[:30]])
        assert np.array_equal(h_task.features.toarray(), dense[perm[60:]])
        assert np.array_equal(h_task.labels, labels)


class TestCoreset:
    """The coreset helper of ``build_semisupervised``: a row subset of the
    train part, built as the subset_batch helper is."""

    SPLIT = (0.9, 0.05, 0.05)

    def _task(self, n=1000):
        rng = rng_from_token(RandomToken(77))
        features = rng.standard_normal((n, 5))
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        return LogisticTask(features, labels)

    def _coreset(self, task, fraction, seed):
        return build_semisupervised(task, self.SPLIT, "coreset", seed, fraction=fraction)

    def test_one_fifth_size(self):
        f_task, helper = self._coreset(self._task(), 0.2, RandomToken(1))
        assert (f_task.n_samples, helper.n_samples) == (900, 180)

    def test_full_fraction_matches_task_gradient(self):
        f_task, helper = self._coreset(self._task(n=50), 1.0, RandomToken(1))
        x = np.ones(5)
        assert np.allclose(helper.grad(x), f_task.grad(x), atol=1e-12)

    def test_seeds_give_different_subsets_same_size(self):
        _, h1 = self._coreset(self._task(), 0.2, RandomToken(1))
        _, h2 = self._coreset(self._task(), 0.2, RandomToken(2))
        assert h1.n_samples == h2.n_samples == 180
        assert not np.array_equal(h1.features.toarray(), h2.features.toarray())

    def test_rejects_empty_fraction(self):
        with pytest.raises(ConfigError) as err:
            build_semisupervised(self._task(n=3), (1 / 3, 1 / 3, 1 / 3), "coreset",
                                 RandomToken(0), fraction=0.9)
        assert err.value.path == "helper.fraction"
        assert err.value.message == "yields an empty coreset"

    @pytest.mark.parametrize("fraction", [0.0, 1.5])
    def test_rejects_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ConfigError) as err:
            self._coreset(self._task(n=30), fraction, RandomToken(0))
        assert err.value.path == "helper.fraction"
        assert err.value.message == "must lie in (0, 1]"

    def test_subset_is_what_a_fresh_generator_draws(self):
        # a coreset is the subset_batch helper at the sorted rows drawn from
        # stream_fork(seed, 2): the same rows, labels and exact gradients
        task = self._task(n=300)
        x = rng_from_token(RandomToken(78)).standard_normal(5)
        for i in range(20):
            seed = RandomToken(i)
            rows = rng_from_token(stream_fork(seed, 2)).choice(270, size=54, replace=False)
            f_core, core = self._coreset(task, 0.2, seed)
            f_sub, sub = build_semisupervised(task, self.SPLIT, "subset_batch", seed,
                                              indices=np.sort(rows).tolist())
            assert np.array_equal(f_core.features.toarray(), f_sub.features.toarray())
            assert np.array_equal(core.features.toarray(), sub.features.toarray())
            assert np.array_equal(core.labels, sub.labels)
            assert np.array_equal(core.grad(x), sub.grad(x))
            assert core.loss(x) == sub.loss(x)


class TestSyntheticDataset:
    def test_shape_and_alphabet(self):
        features, labels = make_synthetic_classification(500, 112, RandomToken(0))
        assert features.shape == (500, 112)
        assert set(np.unique(labels)) == {1.0, 2.0}

    def test_one_hot_groups(self):
        features, _ = make_synthetic_classification(100, 112, RandomToken(0), n_groups=16)
        assert np.all(features.sum(axis=1) == 16)
        assert set(np.unique(features.toarray())) == {0.0, 1.0}

    def test_rejects_fewer_features_than_groups(self):
        with pytest.raises(ValueError, match="n_features = 10 is below n_groups = 16"):
            make_synthetic_classification(5, 10, RandomToken(0))

    def test_label_mapping(self):
        assert map_labels_to_pm1(np.array([1.0, 2.0, 1.0])).tolist() == [1.0, -1.0, 1.0]

    def test_label_mapping_rejects_three_values(self):
        with pytest.raises(ValueError):
            map_labels_to_pm1(np.array([1.0, 2.0, 3.0]))
