"""Problem families with analytically known smoothness and similarity constants.

Covers the 1-D toy quadratic pair, general quadratic pairs, logistic
regression with semi-supervised / coreset helper constructions, and a LIBSVM
text-format parser.  Only the functions that build sparse matrices import
scipy, at their first call, so the quadratic families never load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    Array,
    ConfigError,
    NoiseSpec,
    OraclePair,
    RandomToken,
    as_vector,
    at_path,
    borrow_generator,
    gaussian_oracle,
    rng_from_token,
    stream_fork,
)


# ---------------------------------------------------------------------------
# Quadratic pairs
# ---------------------------------------------------------------------------

def make_toy_pair(delta: float, zeta: float, noise: NoiseSpec = NoiseSpec()) -> OraclePair:
    """1-D pair f(x) = x^2/2 helped by h(x) = (1+delta)/2 (x - zeta/(1+delta))^2.

    The Hessian gap is exactly ``delta`` and the gradient bias is
    (zeta - delta*x), so the (m, zeta^2) bias bound holds with m = 2 delta^2
    and residual 2 zeta^2.  Squares are float products, inf where they
    overflow, so f(x) is exactly ||grad f(x)||^2 / 2.
    """
    if delta < 0:
        raise ConfigError("delta", "must be nonnegative")

    def grad_f(x: Array) -> Array:
        return x.copy()

    def grad_h(x: Array) -> Array:
        return (1.0 + delta) * x - zeta

    return gaussian_oracle(
        grad_f,
        grad_h,
        noise,
        dim=1,
        f_value=lambda x: 0.5 * (float(x[0]) * float(x[0])),
        lipschitz=1.0 + delta,
        hessian_gap=delta,
        bias_m=2.0 * (delta * delta),
        bias_zeta_sq=2.0 * (zeta * zeta),
        f_star=0.0,
    )


def check_symmetric_psd(a, name: str, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """``a`` as a float64 matrix and its eigenvalues; a ConfigError at ``name``
    unless it is square, symmetric and positive semidefinite."""
    a = at_path(name, np.asarray, a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError(name, f"must be a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=tol):
        raise ConfigError(name, "must be symmetric")
    eigenvalues = np.linalg.eigvalsh(a)
    if eigenvalues.min() < -tol * max(1.0, np.abs(a).max()):
        raise ConfigError(name, "must be positive semidefinite")
    return a, eigenvalues


def make_quadratic_nd(
    a_f: np.ndarray,
    a_h: np.ndarray,
    b_h: Union[Array, Sequence[float]],
    noise: NoiseSpec = NoiseSpec(),
) -> OraclePair:
    """Pair f(x) = x'A_f x / 2 and h(x) = x'A_h x / 2 - b_h'x.

    The Hessian gap ||A_f - A_h||_2 and smoothness ||A_f||_2 are computed
    analytically; the gradient bias and the curvature gap are independent
    knobs (b_h shifts gradients without touching Hessians).  A bad input is a
    ConfigError naming ``a_f``, ``a_h`` or ``b_h``.
    """
    a_f, eig_f = check_symmetric_psd(a_f, "a_f")
    a_h, _ = check_symmetric_psd(a_h, "a_h")
    if a_h.shape != a_f.shape:
        raise ConfigError("a_h", "must have the shape of a_f")
    dim = a_f.shape[0]
    b_h = at_path("b_h", as_vector, b_h, dim)

    lipschitz = float(np.abs(eig_f).max())
    gap = float(np.linalg.norm(a_f - a_h, 2))

    return gaussian_oracle(
        lambda x: a_f @ x,
        lambda x: a_h @ x - b_h,
        noise,
        dim=dim,
        f_value=lambda x: 0.5 * float(x @ (a_f @ x)),
        lipschitz=lipschitz,
        hessian_gap=gap,
        f_star=0.0,
    )


# ---------------------------------------------------------------------------
# LIBSVM parsing
# ---------------------------------------------------------------------------

class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; message carries the 1-based line number."""


# An integer of up to 15 digits is an exact float64 sum of digit * 10**k.
_POW10 = 10.0 ** np.arange(15)
_MAX_INDEX = 2**53  # indices are held as float64, exact below this


def _between(buf: np.ndarray, first: int, last: int) -> np.ndarray:
    """``first <= buf <= last`` for uint8 bytes, by one wrapping subtraction."""
    return buf - np.uint8(first) <= last - first


def _read_numbers(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  marks: np.ndarray, seg: np.ndarray):
    """The byte ranges ``buf[lo:hi]`` read as ``float`` reads them, and which
    of them are integers, ``[+-]digits``.

    A range that is not a decimal, ``[+-]digits[.digits][(e|E)[+-]digits]``
    with a digit before any exponent, reads as NaN.  ``marks`` are the
    positions of the non-digit bytes inside the ranges and ``seg`` their
    range numbers, so a range without one is a nonempty run of digits.
    Integers of up to 15 digits are summed from their digits, exactly; the
    other numbers go through one ``np.fromstring`` call.
    """
    length = hi - lo
    is_float = length > 0
    is_int = is_float.copy()
    signed = np.zeros(len(lo), dtype=bool)
    neg = np.zeros(len(lo), dtype=bool)
    if len(marks):
        # The marks of one range are adjacent, so runs of ``seg`` number them.
        new = np.concatenate(([True], seg[1:] != seg[:-1]))
        ids, inv = seg[new], np.cumsum(new) - 1
        off = marks - lo[seg]
        ch = buf[marks]
        sign = (ch == ord("+")) | (ch == ord("-"))
        dot = ch == ord(".")
        exp = (ch == ord("e")) | (ch == ord("E"))

        def count(mask):
            return np.bincount(inv[mask], minlength=len(ids))

        epos = length[ids]
        epos[inv[exp]] = off[exp]
        bad = (~(sign | dot | exp) | sign & (off != 0) & (off != epos[inv] + 1)
               | dot & (off > epos[inv]))
        n_exp, n_dot, n_sign = count(exp), count(dot), count(sign)
        mantissa = epos - count(sign & (off == 0)) - n_dot
        ok = ((count(bad) == 0) & (n_exp <= 1) & (n_dot <= 1) & (mantissa > 0)
              & ((n_exp == 0) | (length[ids] - n_sign - n_dot - n_exp > mantissa)))
        is_float[ids] = ok
        is_int[ids] = ok & (n_exp == 0) & (n_dot == 0)
        signed[ids] = n_sign > 0
        neg[ids] = count(ch == ord("-")) > 0

    # Digits summed per integer range (0 for the others), accumulated in
    # place from the last digit backwards to keep the temporaries small.
    n_digit = np.where(is_int & (length - signed <= len(_POW10)), length - signed, 0)
    digits = np.where(_between(buf, ord("0"), ord("9")), buf - np.uint8(ord("0")), 0)
    values = np.zeros(len(lo))
    for k in range(int(n_digit.max(initial=0))):
        values += digits[hi - 1 - k] * (n_digit > k) * _POW10[k]
    values[neg & is_int] *= -1.0
    values[~is_float] = np.nan
    rest = is_float & (n_digit == 0)
    if rest.any():
        at, size = lo[rest], length[rest]
        first = np.cumsum(size) - size
        text = buf[np.repeat(at - first, size) + np.arange(size.sum())]
        values[rest] = np.fromstring(np.insert(text, first, ord(" ")).tobytes(), sep=" ")
    return values, is_int


def parse_libsvm(text: Union[str, bytes]) -> tuple[sp.csr_matrix, np.ndarray]:
    """Parse LIBSVM text ("<label> <idx>:<val> ...", 1-based ascending indices).

    Feature count is the maximum index seen; labels are passed through
    unmapped.  Lines and tokens are split as ``str.splitlines`` and
    ``str.split`` split ASCII text, blank lines are skipped, and numbers are
    plain decimals read as ``float`` reads them.  Anything else (non-ASCII
    bytes, ``inf``, ``nan``, ``1_0``, an index of 2**53 or more) is a
    :class:`LibsvmParseError` naming the first offending line.
    """
    import scipy.sparse as sp
    if isinstance(text, str):
        text = text.encode()
    buf = np.frombuffer(text, dtype=np.uint8)
    # Byte positions and token numbers as int32 where they fit: it halves
    # the parser's peak memory.
    int_t = np.int32 if len(buf) < 2**31 else np.int64
    # str.split() separators among ASCII bytes: space, \t-\r and \x1c-\x1f.
    space = (buf == ord(" ")) | _between(buf, 0x09, 0x0D) | _between(buf, 0x1C, 0x1F)
    edges = np.flatnonzero(np.diff(np.concatenate(([True], space, [True])))).astype(int_t)
    starts, ends = edges[::2], edges[1::2]
    # str.splitlines() breaks, \n-\r and \x1c-\x1e, with "\r\n" as one.
    breaks = np.flatnonzero(_between(buf, 0x0A, 0x0D) | _between(buf, 0x1C, 0x1E))
    breaks = breaks[(buf[breaks] != ord("\n")) | (buf[breaks - 1] != ord("\r")) | (breaks == 0)]
    is_label = np.zeros(len(starts) + 1, dtype=bool)
    is_label[np.searchsorted(starts, breaks)] = True
    is_label[0] = True
    is_label = is_label[:-1]
    label_tok = np.flatnonzero(is_label).astype(int_t)
    feat = np.flatnonzero(~is_label).astype(int_t)
    n_labels, n_feats = len(label_tok), len(feat)

    def line(tok: int) -> int:
        return int(np.searchsorted(breaks, starts[tok])) + 1

    # A feature token splits at its first colon into an index and a value,
    # empty when it has none.  A well-formed file has one colon per feature
    # token, so the k-th colon is the k-th token's whenever it lies inside.
    colons = np.flatnonzero(buf == ord(":")).astype(int_t)
    f_start, f_end = starts[feat], ends[feat]
    if len(colons) != n_feats or np.any((colons < f_start) | (colons >= f_end)):
        colons = np.append(colons, len(buf))[np.searchsorted(colons, f_start)]
    colon = np.minimum(colons, f_end)
    # The numbers' byte ranges: the labels, then the indices, then the values.
    lo = np.concatenate((starts[label_tok], f_start, np.minimum(colon + 1, f_end)))
    hi = np.concatenate((ends[label_tok], colon, f_end))
    marks = ~(space | _between(buf, ord("0"), ord("9")))
    marks[colon[colon < f_end]] = False
    marks = np.flatnonzero(marks)
    tok = np.searchsorted(starts, marks, side="right") - 1
    labels_upto = np.searchsorted(label_tok, tok, side="right")
    seg = labels_upto - 1
    in_feat = ~is_label[tok]
    k = tok[in_feat] - labels_upto[in_feat]
    seg[in_feat] = n_labels + k + n_feats * (marks[in_feat] > colon[k])
    values, is_int = _read_numbers(buf, lo, hi, marks, seg)
    labels, idx, data = np.split(values, [n_labels, n_labels + n_feats])

    # The first error in reading order: a malformed token, or before it an
    # index that is below 1, too large or not above its predecessor.
    label_bad = np.isnan(labels)
    feat_bad = ~is_int[n_labels:n_labels + n_feats] | np.isnan(data)
    n_ok = min(label_tok[label_bad][:1].tolist() + feat[feat_bad][:1].tolist() + [len(starts)])
    prev = np.where(is_label[feat - 1], 0.0, np.concatenate(([0.0], idx[:-1])))
    index_bad = (idx < 1) | (idx >= _MAX_INDEX) | (idx <= prev)
    index_bad[np.searchsorted(feat, n_ok):] = False
    if index_bad.any():
        i = int(np.argmax(index_bad))
        where, value = f"line {line(feat[i])}", int(idx[i])
        if idx[i] < 1:
            raise LibsvmParseError(f"{where}: index {value} is not 1-based")
        if idx[i] >= _MAX_INDEX:
            raise LibsvmParseError(f"{where}: index {value} is too large")
        raise LibsvmParseError(f"{where}: non-ascending index {value} after {int(prev[i])}")
    if n_ok < len(starts):
        token = text[starts[n_ok]:ends[n_ok]].decode("utf-8", "backslashreplace")
        what = "invalid label" if is_label[n_ok] else "malformed token"
        raise LibsvmParseError(f"line {line(n_ok)}: {what} {token!r}")

    row_nnz = np.diff(np.append(label_tok, len(starts))) - 1
    features = sp.csr_matrix(
        (data, idx.astype(np.int64) - 1, np.concatenate(([0], np.cumsum(row_nnz)))),
        shape=(n_labels, int(idx.max(initial=0))),
    )
    return features, labels


def write_libsvm(features, labels: np.ndarray) -> str:
    """Serialize a dense or sparse feature matrix and labels into LIBSVM text;
    stored zeros are left out."""
    import scipy.sparse as sp
    a = sp.csr_matrix(features, dtype=np.float64, copy=True)
    a.sum_duplicates()
    a.eliminate_zeros()
    ptr, cols, vals = a.indptr.tolist(), (a.indices + 1).tolist(), a.data.tolist()
    lines = []
    for i, label in zip(range(a.shape[0]), labels):
        toks = [_format_label(label)] + [
            f"{j}:{v:g}" for j, v in zip(cols[ptr[i]:ptr[i + 1]], vals[ptr[i]:ptr[i + 1]])]
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def _format_label(label) -> str:
    f = float(label)
    return str(int(f)) if f.is_integer() else f"{f:g}"


# ---------------------------------------------------------------------------
# Logistic regression tasks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogisticTask:
    """Weighted binary logistic regression over a fixed design matrix.

    loss(x) = sum_i w_i log(1 + exp(-y_i a_i'x)) + l2_reg/2 ||x||^2, with
    weights defaulting to 1/n.  The Hessian is independent of the labels.
    ``features`` may be given dense or sparse and is kept as a CSR matrix,
    so every product over the data costs its nonzeros, not n x d.
    """

    features: sp.csr_matrix
    labels: np.ndarray
    l2_reg: float = 0.0
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        import scipy.sparse as sp
        a = self.features
        if not sp.issparse(a):
            a = np.asarray(a, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.float64)
        if a.ndim != 2 or y.ndim != 1 or a.shape[0] != y.shape[0]:
            raise ValueError("features and labels have inconsistent shapes")
        if a.shape[0] == 0:
            raise ValueError("task must have at least one sample")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be in {-1, +1}")
        if not self.l2_reg >= 0:
            raise ConfigError("l2_reg", "must be nonnegative")
        a = sp.csr_matrix(a, dtype=np.float64)
        object.__setattr__(self, "features", a)
        object.__setattr__(self, "labels", y)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != y.shape or np.any(w <= 0):
                raise ValueError("weights must be positive, one per sample")
            if not math.isclose(float(w.sum()), 1.0, rel_tol=1e-9):
                raise ValueError("weights must sum to one")
            object.__setattr__(self, "weights", w)
        # Not dataclass fields: the weights with the uniform default built
        # once, the transposed design as CSR for the gradient's product, the
        # CSR's index arrays as intp (faster to gather with than int32) for the
        # minibatch, and a one-entry memo (x copy, margins) that loss and grad share.
        object.__setattr__(self, "_w", self.weights if self.weights is not None
                           else np.full(y.shape[0], 1.0 / y.shape[0]))
        object.__setattr__(self, "_features_t", a.T.tocsr())
        object.__setattr__(self, "_indptr", a.indptr.astype(np.intp))
        object.__setattr__(self, "_indices", a.indices.astype(np.intp))
        object.__setattr__(self, "_margin_memo", None)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def _margins(self, x: Array) -> np.ndarray:
        """labels * (features @ x), reused while x keeps the same values.

        The memo keeps its own copy of x and compares by value, so changing
        the caller's array in place never returns stale margins.
        """
        memo = self._margin_memo
        if memo is not None and np.array_equal(memo[0], x):
            return memo[1]
        margins = self.labels * (self.features @ x)
        object.__setattr__(self, "_margin_memo", (np.array(x), margins))
        return margins

    def loss(self, x: Array) -> float:
        # log(1 + exp(-m)) computed stably: exp only ever sees -|m|
        m = self._margins(x)
        losses = np.maximum(-m, 0.0) + np.log1p(np.exp(-np.abs(m)))
        return float(self._w @ losses) + 0.5 * self.l2_reg * float(x @ x)

    def grad(self, x: Array) -> Array:
        coef = -self.labels * _sigmoid(-self._margins(x)) * self._w
        return self._features_t @ coef + self.l2_reg * x

    def grad_minibatch(self, x: Array, idx: np.ndarray) -> Array:
        """Unbiased gradient estimate from rows ``idx`` sampled prop. to weights.

        The rows' nonzeros are gathered straight from the CSR arrays (scipy's
        row indexing costs more than the whole product at minibatch sizes).
        """
        start = self._indptr[idx]
        count = self._indptr[idx + 1] - start
        row = np.repeat(np.arange(len(idx)), count)
        nz = np.repeat(start - (np.cumsum(count) - count), count) + np.arange(len(row))
        cols, vals = self._indices[nz], self.features.data[nz]
        y = self.labels[idx]
        margins = y * np.bincount(row, weights=vals * x[cols], minlength=len(idx))
        coef = -y * _sigmoid(-margins) / len(idx)
        return np.bincount(cols, weights=vals * coef[row], minlength=self.dim) + self.l2_reg * x


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|z|."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def build_semisupervised(
    task: LogisticTask,
    split: Sequence[float],
    helper: str,
    seed: RandomToken,
    fraction: Optional[float] = None,
    indices: Optional[Sequence[int]] = None,
) -> tuple[LogisticTask, LogisticTask, LogisticTask]:
    """Split into (train, test, unlabeled) and build the ``helper`` task.

    ``helper`` is ``random_labels`` (the unlabeled part with random labels),
    ``coreset`` (a uniform ``fraction`` of the train part, 1 when None,
    weights 1/M) or ``subset_batch`` (the train-part rows ``indices``).  Part
    sizes are the floors of the ``split`` fractions, the remainder going to
    the train part; the shuffle and any random labels are deterministic in
    ``seed``.  A bad input is a ConfigError at its config field: ``split``,
    ``helper.kind``, ``helper.fraction`` or ``helper.indices``.
    """
    if len(split) != 3 or min(split) <= 0 or not math.isclose(sum(split), 1.0, rel_tol=1e-9):
        raise ConfigError("split", "must be three positive numbers that sum to 1")
    n = task.n_samples
    sizes = [int(math.floor(f * n)) for f in split]
    sizes[0] += n - sum(sizes)
    if 0 in sizes:
        raise ConfigError("split", "produces an empty part")
    if helper not in ("random_labels", "coreset", "subset_batch"):
        raise ConfigError("helper.kind", f"unknown helper kind {helper!r}")
    if fraction is not None and helper != "coreset":
        raise ConfigError("helper.fraction", "only a coreset helper has one")
    if (indices is not None) != (helper == "subset_batch"):
        raise ConfigError("helper.indices", "only a subset_batch helper has them; it needs them")
    if indices is not None and not (len(indices) and 0 <= min(indices) <= max(indices) < sizes[0]):
        raise ConfigError("helper.indices", "must be a nonempty list of row numbers below "
                          f"the train-part size {sizes[0]}")

    perm = borrow_generator(stream_fork(seed, 0)).permutation(n)
    tr = perm[: sizes[0]]
    te = perm[sizes[0] : sizes[0] + sizes[1]]
    un = perm[sizes[0] + sizes[1] :]

    def subtask(idx, labels=None):
        return LogisticTask(
            task.features[idx],
            task.labels[idx] if labels is None else labels,
            l2_reg=task.l2_reg,
        )

    f_task = subtask(tr)
    test_task = subtask(te)

    if helper == "random_labels":
        rad = borrow_generator(stream_fork(seed, 1)).integers(0, 2, size=len(un)) * 2.0 - 1.0
        h_task = subtask(un, labels=rad)
    elif helper == "coreset":
        h_task = at_path("helper", build_coreset_helper, f_task,
                         1.0 if fraction is None else fraction, stream_fork(seed, 2))
    else:
        h_task = subtask(tr[np.asarray(indices)])
    return f_task, h_task, test_task


def build_coreset_helper(task: LogisticTask, fraction: float, seed: RandomToken) -> LogisticTask:
    """Uniform random subset of size floor(fraction * n) with weights 1/M; a
    ``fraction`` outside (0, 1] or too small for one row is a ConfigError at
    ``fraction``."""
    if not 0 < fraction <= 1:
        raise ConfigError("fraction", "must lie in (0, 1]")
    m = int(math.floor(fraction * task.n_samples))
    if m == 0:
        raise ConfigError("fraction", "yields an empty coreset")
    idx = np.sort(borrow_generator(seed).choice(task.n_samples, size=m, replace=False))
    return LogisticTask(
        task.features[idx],
        task.labels[idx],
        l2_reg=task.l2_reg,
        weights=np.full(m, 1.0 / m),
    )


def logistic_oracle(
    f_task: LogisticTask,
    h_task: LogisticTask,
    batch_size: Optional[int] = None,
) -> OraclePair:
    """Oracle pair over two logistic tasks sharing a parameter space.

    ``batch_size`` None gives exact (deterministic) gradients; otherwise
    stochastic gradients average over a with-replacement minibatch drawn from
    the token, and a ``batch_size`` below 1 is a ConfigError at ``batch_size``.
    No analytic smoothness bound or Hessian gap is carried.
    """
    if f_task.dim != h_task.dim:
        raise ValueError("tasks must share the parameter dimension")
    if batch_size is not None and batch_size < 1:
        raise ConfigError("batch_size", "must be >= 1")
    dim = f_task.dim

    def _batch(task: LogisticTask, x: Array, token: RandomToken) -> Array:
        if batch_size is None:
            return task.grad(x)
        rng = borrow_generator(token)
        if task.weights is not None:
            idx = rng.choice(task.n_samples, size=batch_size, replace=True, p=task.weights)
        else:
            idx = rng.integers(0, task.n_samples, size=batch_size)
        return task.grad_minibatch(x, idx)

    def grad_f(x, token):
        return _batch(f_task, x, stream_fork(token, 0))

    def grad_h(x, token):
        return _batch(h_task, x, stream_fork(token, 1))

    def grad_f_minus_h(x, token):
        return grad_f(x, token) - grad_h(x, token)

    return OraclePair(
        dim=dim,
        grad_f=grad_f,
        grad_h=grad_h,
        grad_f_minus_h=grad_f_minus_h,
        exact_grad_f=f_task.grad,
        exact_grad_h=h_task.grad,
        f_value=f_task.loss,
        f_star=0.0 if f_task.l2_reg == 0 else None,
    )


# ---------------------------------------------------------------------------
# Synthetic dataset (mushrooms-shaped stand-in)
# ---------------------------------------------------------------------------

def make_synthetic_classification(
    n_samples: int, n_features: int, seed: RandomToken, n_groups: int = 16
) -> tuple[sp.csr_matrix, np.ndarray]:
    """One-hot grouped binary features with a planted noisy linear rule.

    Mirrors the shape of categorical LIBSVM datasets: features come in
    groups, exactly one active feature per group per row; labels are {1, 2}.
    The features are CSR, n_groups nonzeros per row.
    """
    if n_features < n_groups:
        raise ValueError(f"n_features = {n_features} is below n_groups = {n_groups}: "
                         "every group needs at least one feature")
    import scipy.sparse as sp
    rng = rng_from_token(seed)
    group_sizes = np.full(n_groups, n_features // n_groups)
    group_sizes[: n_features % n_groups] += 1
    offsets = np.concatenate([[0], np.cumsum(group_sizes)])

    cols = np.empty((n_samples, n_groups), dtype=np.int64)
    for g in range(n_groups):
        cols[:, g] = offsets[g] + rng.integers(0, group_sizes[g], size=n_samples)
    features = sp.csr_matrix(
        (np.ones(cols.size), cols.ravel(), np.arange(0, cols.size + 1, n_groups)),
        shape=(n_samples, n_features),
    )

    w = rng.standard_normal(n_features)
    logits = features @ w - np.median(features @ w)
    p = _sigmoid(4.0 * logits)
    labels = np.where(rng.random(n_samples) < p, 2.0, 1.0)
    return features, labels


def map_labels_to_pm1(labels: np.ndarray) -> np.ndarray:
    """Map a two-valued label alphabet to {-1, +1}; the smaller value maps to +1.

    Matches the {1, 2} -> {+1, -1} convention with 1 -> +1.
    """
    vals = np.unique(labels)
    if len(vals) != 2:
        raise ValueError(f"expected exactly two label values, got {vals}")
    return np.where(labels == vals[0], 1.0, -1.0)
