"""Problem families with analytically known smoothness and similarity constants.

Covers the 1-D toy quadratic pair, general quadratic pairs, logistic
regression with helpers that are row subsets of its data, and a LIBSVM
text-format parser.  Only the functions that build sparse matrices import
scipy, at their first call, so the quadratic families never load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    MAX_DRAWS,
    Array,
    ConfigError,
    NoiseSpec,
    OraclePair,
    RandomToken,
    as_vector,
    at_path,
    borrow_generator,
    draw_nothing,
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
    (zeta - delta*x).  Squares are float products, inf where they overflow,
    so f(x) is exactly ||grad f(x)||^2 / 2.
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
        f_value=np.errstate(over="ignore")(lambda x: 0.5 * (x[..., 0] * x[..., 0])),
        lipschitz=1.0 + delta,
        hessian_gap=delta,
    )


def check_symmetric_psd(a, name: str, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """``a`` as a float64 matrix and its eigenvalues; a ConfigError at ``name``
    unless it is square, symmetric and positive semidefinite."""
    lengths = [len(row) for row in a if isinstance(row, list)] if isinstance(a, list) else []
    if len(set(lengths)) > 1:
        raise ConfigError(name, f"must be a square matrix, got rows of lengths {lengths}")
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

    with np.errstate(over="ignore"):
        gap_matrix = a_f - a_h
    if not np.isfinite(gap_matrix).all():
        raise ConfigError("a_h", "a_f - a_h overflows a float")
    lipschitz = float(np.abs(eig_f).max())
    gap = float(np.linalg.norm(gap_matrix, 2))

    return gaussian_oracle(
        lambda x: np.matvec(a_f, x),  # a gemv per row: a gemm moves the last bits
        lambda x: np.matvec(a_h, x) - b_h,
        noise,
        dim=dim,
        f_value=lambda x: 0.5 * np.vecdot(x, np.matvec(a_f, x)),
        lipschitz=lipschitz,
        hessian_gap=gap,
    )


# ---------------------------------------------------------------------------
# LIBSVM parsing
# ---------------------------------------------------------------------------

class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; message carries the 1-based line number."""


# An integer of up to 15 digits is an exact float64 sum of digit * 10**k.
_POW10 = 10.0 ** np.arange(15)
_MAX_INDEX = 2**53  # indices are held as float64, exact below this
_BLOCK_BYTES = 1 << 16  # the least LIBSVM text parsed at a time
_DECIMAL_BYTES = np.isin(np.arange(256), list(b"0123456789+-.eE"))  # what a decimal holds


def _between(buf: np.ndarray, first: int, last: int) -> np.ndarray:
    """``first <= buf <= last`` for uint8 bytes, by one wrapping subtraction."""
    return buf - np.uint8(first) <= last - first


def _read_numbers(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, marks: np.ndarray):
    """The byte ranges ``buf[lo:hi]`` read as ``float`` reads them, NaN where
    it fails, and which of them are integers, ``[+-]digits``.

    ``marks`` flags the bytes other than digits, separators and the colons
    that split features.  A ``[+-]digits`` range of up to 15 digits is summed
    from its digits, exactly; ``float`` reads each other range that holds no
    byte outside ``0-9+-.eE`` (it would accept ``inf``, ``nan`` and ``1_0``).
    """
    # The [+-]digits ranges, some too long or without digits; all if no marks.
    plain, neg, signed = np.ones(len(lo), dtype=bool), False, False
    if marks.any():
        n_marks = _counts(marks, lo, hi)
        first = buf[np.minimum(lo, len(buf) - 1)]
        neg = first == ord("-")
        signed = (n_marks == 1) & (neg | (first == ord("+")))
        plain = n_marks == signed

    # Digits summed per short plain range (0 for the others), accumulated in
    # place from the last digit backwards to keep the temporaries small.
    n_digit = np.where(plain, hi - lo - signed, 0)
    n_digit[n_digit > len(_POW10)] = 0
    digits = np.where(_between(buf, ord("0"), ord("9")), buf - np.uint8(ord("0")), 0)
    values = np.zeros(len(lo))
    for k in range(int(n_digit.max(initial=0))):
        values += digits[hi - 1 - k] * (n_digit > k) * _POW10[k]
    values[neg & (n_digit > 0)] *= -1.0
    rest = np.flatnonzero(n_digit == 0)
    if len(rest):
        ok = _counts(~_DECIMAL_BYTES[buf], lo[rest], hi[rest]) == 0
        text = buf.tobytes()
        values[rest] = [_float(text[i:j]) if good else math.nan for i, j, good
                        in zip(lo[rest].tolist(), hi[rest].tolist(), ok.tolist())]
        plain[rest] &= ~np.isnan(values[rest])
    return values, plain


def _counts(mask: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """How many bytes of ``mask`` are set in each range ``[lo, hi)``."""
    total = np.cumsum(np.append(False, mask), dtype=lo.dtype)
    return total[hi] - total[lo]


def _float(word: bytes) -> float:
    try:
        return float(word)
    except ValueError:
        return math.nan


def parse_libsvm(text: Union[str, bytes]) -> tuple[sp.csr_matrix, np.ndarray]:
    """Parse LIBSVM text ("<label> <idx>:<val> ...", 1-based ascending indices).

    Feature count is the maximum index seen; labels are passed through
    unmapped.  Lines and tokens are split as ``str.splitlines`` and
    ``str.split`` split ASCII text, blank lines are skipped, and numbers are
    plain decimals read as ``float`` reads them.  Anything else (non-ASCII
    bytes, ``inf``, ``nan``, ``1_0``, an index of 2**53 or more) is a
    :class:`LibsvmParseError` naming the first offending line.

    The text is parsed in blocks of whole lines, at least ``_BLOCK_BYTES``
    long, whose arrays are joined once: the temporaries are one block's.
    """
    import scipy.sparse as sp
    if isinstance(text, str):
        text = text.encode()
    blocks, start, line0 = [], 0, 0
    while not blocks or start < len(text):
        # A block ends just after a "\n", so it splits no line and no "\r\n";
        # empty text is one empty block.
        stop = text.find(b"\n", start + _BLOCK_BYTES - 1) + 1 or len(text)
        *arrays, n_breaks = _parse_block(np.frombuffer(text, np.uint8, stop - start, start), line0)
        blocks.append(arrays)
        start, line0 = stop, line0 + n_breaks
    # Each name below holds the only references to its blocks' arrays, so
    # rebinding it to their join frees them: one array is joined at a time.
    labels, data, indices, row_nnz = zip(*blocks)
    del blocks
    n_rows, nnz = sum(map(len, labels)), sum(map(len, data))
    n_cols = max(int(idx.max(initial=-1)) for idx in indices) + 1
    # The index dtype csr_matrix picks for this shape, so it copies nothing.
    idx_t = np.int32 if max(n_rows, n_cols, nnz) < 2**31 else np.int64
    indptr = np.zeros(n_rows + 1, dtype=idx_t)
    np.cumsum(np.concatenate(row_nnz), dtype=idx_t, out=indptr[1:])
    data = np.concatenate(data)
    indices = np.concatenate(indices, dtype=idx_t)
    return sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols)), np.concatenate(labels)


def _parse_block(buf: np.ndarray, line0: int):
    """The labels, values, 0-based indices and row lengths of the whole lines
    in ``buf``, and its line-break count; ``line0`` breaks come before it."""
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
        return line0 + int(np.searchsorted(breaks, starts[tok])) + 1

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
    values, is_int = _read_numbers(buf, lo, hi, marks)
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
        where, value = f"line {line(feat[i])}", int(buf[f_start[i]:colon[i]].tobytes())
        if idx[i] < 1:
            raise LibsvmParseError(f"{where}: index {value} is not 1-based")
        if idx[i] >= _MAX_INDEX:
            raise LibsvmParseError(f"{where}: index {value} is too large")
        raise LibsvmParseError(f"{where}: non-ascending index {value} after {int(prev[i])}")
    if n_ok < len(starts):
        token = buf[starts[n_ok]:ends[n_ok]].tobytes().decode("utf-8", "backslashreplace")
        what = "invalid label" if is_label[n_ok] else "malformed token"
        raise LibsvmParseError(f"line {line(n_ok)}: {what} {token!r}")

    row_nnz = np.diff(np.append(label_tok, len(starts))) - 1
    idx_t = np.int32 if idx.max(initial=0) <= 2**31 else np.int64
    # Copies, so that the block's arrays do not keep ``values`` alive.
    return labels.copy(), data.copy(), (idx - 1).astype(idx_t), row_nnz, len(breaks)


def write_libsvm(features, labels: np.ndarray) -> str:
    """Serialize a dense or sparse feature matrix and labels into LIBSVM text;
    stored zeros are left out.  Numbers are written with 17 significant
    digits, which ``float`` reads back exactly."""
    import scipy.sparse as sp
    a = sp.csr_matrix(features, dtype=np.float64, copy=True)
    if len(labels) != a.shape[0]:
        raise ValueError(f"{len(labels)} labels for {a.shape[0]} rows")
    a.sum_duplicates()
    a.eliminate_zeros()
    ptr, cols, vals = a.indptr.tolist(), (a.indices + 1).tolist(), a.data.tolist()
    lines = []
    for i, label in enumerate(labels):
        toks = [f"{float(label):.17g}"] + [
            f"{j}:{v:.17g}" for j, v in zip(cols[ptr[i]:ptr[i + 1]], vals[ptr[i]:ptr[i + 1]])]
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Logistic regression tasks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogisticTask:
    """Binary logistic regression over a fixed design matrix.

    loss(x) = (1/n) sum_i log(1 + exp(-y_i a_i'x)) + l2_reg/2 ||x||^2.  The
    Hessian is independent of the labels.  loss and grad take x or an (n, d) stack.
    ``features`` may be given dense or sparse and is kept as a CSR matrix,
    so every product over the data costs its nonzeros, not n x d.
    """

    features: sp.csr_matrix
    labels: np.ndarray
    l2_reg: float = 0.0
    _CHUNK_FLOATS = 1 << 15  # the most floats in one (rows, n_samples) temporary

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
        if not np.isfinite(a.data).all():
            raise ValueError("features must be finite")
        object.__setattr__(self, "features", a)
        object.__setattr__(self, "labels", y)
        # Not dataclass fields: the uniform weights 1/n and the transposed
        # design, a CSC view sharing the CSR's arrays, built once, and a
        # one-entry memo (x copy, losses, gradients) that loss and grad share.
        object.__setattr__(self, "_w", np.full(y.shape[0], 1.0 / y.shape[0]))
        object.__setattr__(self, "_design_t", a.T)
        object.__setattr__(self, "_memo", None)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def _evaluate(self, x: Array) -> tuple[np.ndarray, np.ndarray]:
        """The losses and gradients at x or at each row of an (n, d) stack,
        computed together, one chunk of rows at a time; reused while x keeps
        its values.

        The memo keeps its own copy of x and compares by value, so changing
        the caller's array in place never returns stale outputs; the outputs
        it returns are read-only, so no caller changes them for the next.
        """
        memo = self._memo
        if memo is not None and np.array_equal(memo[0], x):
            return memo[1:]
        xs, step = x.reshape(-1, self.dim), max(1, self._CHUNK_FLOATS // self.n_samples)
        losses, grads = np.empty(len(xs)), np.empty_like(xs)
        for i in range(0, len(xs), step):
            rows = xs[i:i + step]
            # -labels * (features @ y), the negated margins, C-ordered; log(1 +
            # exp(-m)) computed stably: exp only ever sees -|m|; a row sums
            # with one dot over contiguous memory, as a single point does
            neg_m = np.multiply(-self.labels, (self.features @ rows.T).T, order="C")
            e = np.exp(-np.abs(neg_m))
            loss = np.maximum(neg_m, 0.0) + np.log1p(e)
            ridge = 0.5 * self.l2_reg * np.vecdot(rows, rows)
            losses[i:i + step] = np.vecdot(loss, self._w) + ridge
            # the CSC product adds each entry's terms in row order, as the
            # product with a transposed CSR copy does, so it gives the same bits
            coef = _sigmoid(neg_m, e)  # scaled in place: -labels * sigmoid * w
            coef *= -self.labels
            coef *= self._w
            grads[i:i + step] = (self._design_t @ coef.T).T + self.l2_reg * rows
        losses.flags.writeable = grads.flags.writeable = False
        out = losses.reshape(x.shape[:-1])[()], grads.reshape(x.shape)
        object.__setattr__(self, "_memo", (np.array(x), *out))
        return out

    def loss(self, x: Array) -> np.ndarray:
        return self._evaluate(x)[0]

    def grad(self, x: Array) -> np.ndarray:
        return self._evaluate(x)[1]

    def grad_minibatch(self, x: Array, idx: np.ndarray) -> Array:
        """Unbiased gradient estimate from rows ``idx`` sampled uniformly.

        The rows' nonzeros are gathered straight from the CSR arrays (scipy's
        row indexing costs more than the whole product at minibatch sizes);
        the gathered offsets and columns are cast to intp, which numpy
        repeats, indexes and counts with faster than the CSR's int32.
        """
        start = self.features.indptr[idx].astype(np.intp)
        count = self.features.indptr[idx + 1] - start
        row = np.repeat(np.arange(len(idx)), count)
        nz = np.repeat(start - (np.cumsum(count) - count), count) + np.arange(len(row))
        cols, vals = self.features.indices[nz].astype(np.intp), self.features.data[nz]
        y = self.labels[idx]
        margins = y * np.bincount(row, weights=vals * x[cols], minlength=len(idx))
        coef = -y * _sigmoid(-margins) / len(idx)
        return np.bincount(cols, weights=vals * coef[row], minlength=self.dim) + self.l2_reg * x


def _sigmoid(z: np.ndarray, e: Optional[np.ndarray] = None) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|z| (``e`` is exp(-|z|))."""
    e = np.exp(-np.abs(z)) if e is None else e
    s = np.maximum(e, z >= 0)  # 1 where z >= 0, else e, which is <= 1
    s /= 1.0 + e
    return s


def build_semisupervised(
    task: LogisticTask,
    split: Sequence[float],
    helper: str,
    seed: RandomToken,
    fraction: Optional[float] = None,
    indices: Optional[Sequence[int]] = None,
) -> tuple[LogisticTask, LogisticTask]:
    """The train task and the ``helper`` task of a (train, held-out, unlabeled)
    split; the held-out part is left out and never built.

    ``helper`` is ``random_labels`` (the unlabeled part with random labels),
    ``subset_batch`` (the train-part rows ``indices``) or ``coreset`` (the
    train-part rows at floor(``fraction`` * train size) sorted indices drawn
    without replacement, all of them when ``fraction`` is None).  Part sizes
    are the floors of the ``split`` fractions, the remainder going to the
    train part; the shuffle, the coreset rows and any random labels are
    deterministic in ``seed``.  A bad input is a ConfigError at its config
    field: ``split``, ``helper.kind``, ``helper.fraction`` or
    ``helper.indices``.
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
    if helper == "coreset":
        fraction = 1.0 if fraction is None else fraction
        if not 0 < fraction <= 1:
            raise ConfigError("helper.fraction", "must lie in (0, 1]")
        m = int(math.floor(fraction * sizes[0]))
        if m == 0:
            raise ConfigError("helper.fraction", "yields an empty coreset")

    perm = borrow_generator(stream_fork(seed, 0)).permutation(n)
    tr, un = perm[: sizes[0]], perm[sizes[0] + sizes[1] :]

    def subtask(idx, labels=None):
        return LogisticTask(
            task.features[idx],
            task.labels[idx] if labels is None else labels,
            l2_reg=task.l2_reg,
        )

    if helper == "random_labels":
        rad = borrow_generator(stream_fork(seed, 1)).integers(0, 2, size=len(un)) * 2.0 - 1.0
        return subtask(tr), subtask(un, labels=rad)
    if helper == "coreset":
        rows = borrow_generator(stream_fork(seed, 2)).choice(sizes[0], size=m, replace=False)
        indices = np.sort(rows)
    return subtask(tr), subtask(tr[np.asarray(indices)])


def logistic_oracle(
    f_task: LogisticTask,
    h_task: LogisticTask,
    batch_size: Optional[int] = None,
) -> OraclePair:
    """Oracle pair over two logistic tasks sharing a parameter space.

    ``batch_size`` None gives exact (deterministic) gradients and draws
    nothing; otherwise a sample is a pair of with-replacement minibatches,
    f's rows and h's, and ``draw(token, n)`` takes f's (n, batch_size) rows,
    then h's, from one borrowed generator.  A ``batch_size`` below 1 or above
    the draw cap ``MAX_DRAWS`` is a ConfigError at ``batch_size``.  No
    analytic smoothness bound or Hessian gap is carried.
    """
    if f_task.dim != h_task.dim:
        raise ValueError("tasks must share the parameter dimension")
    if batch_size is not None and batch_size < 1:
        raise ConfigError("batch_size", "must be >= 1")
    if batch_size is not None and batch_size > MAX_DRAWS:
        raise ConfigError("batch_size", f"must be at most {MAX_DRAWS}, the draw cap")
    dim = f_task.dim

    def draw(token, n):
        rng = borrow_generator(token)
        rows_f = rng.integers(0, f_task.n_samples, size=(n, batch_size))
        rows_h = rng.integers(0, h_task.n_samples, size=(n, batch_size))
        return list(zip(rows_f, rows_h))

    def grad_f(x, sample):
        return f_task.grad(x) if sample is None else f_task.grad_minibatch(x, sample[0])

    def grad_h(x, sample):
        return h_task.grad(x) if sample is None else h_task.grad_minibatch(x, sample[1])

    def grad_f_minus_h(x, sample):
        return grad_f(x, sample) - grad_h(x, sample)

    return OraclePair(
        dim=dim,
        grad_f=grad_f,
        grad_h=grad_h,
        grad_f_minus_h=grad_f_minus_h,
        draw=draw_nothing if batch_size is None else draw,
        exact_grad_f=f_task.grad,
        exact_grad_h=h_task.grad,
        f_value=f_task.loss,
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
