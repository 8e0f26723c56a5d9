"""Problem families with analytically known smoothness and similarity constants.

Covers the 1-D toy quadratic pair, general quadratic pairs, logistic
regression with semi-supervised / coreset helper constructions, and a LIBSVM
text-format parser.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .core import (
    Array,
    NoiseSpec,
    OraclePair,
    RandomToken,
    as_vector,
    gaussian_oracle,
    rng_from_token,
    stream_fork,
)


# ---------------------------------------------------------------------------
# Quadratic pairs
# ---------------------------------------------------------------------------

def _square(v: float) -> float:
    """``v ** 2`` by Python's float pow, or inf where that overflows."""
    try:
        return v**2
    except OverflowError:
        return math.inf


def make_toy_pair(delta: float, zeta: float, noise: NoiseSpec = NoiseSpec()) -> OraclePair:
    """1-D pair f(x) = x^2/2 helped by h(x) = (1+delta)/2 (x - zeta/(1+delta))^2.

    The Hessian gap is exactly ``delta`` and the gradient bias is
    (zeta - delta*x), so the (m, zeta^2) bias bound holds with m = 2 delta^2
    and residual 2 zeta^2.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")

    def grad_f(x: Array) -> Array:
        return x.copy()

    def grad_h(x: Array) -> Array:
        return (1.0 + delta) * x - zeta

    return gaussian_oracle(
        grad_f,
        grad_h,
        noise,
        dim=1,
        f_value=lambda x: 0.5 * _square(float(x[0])),
        h_value=lambda x: 0.5 * (1.0 + delta) * _square(float(x[0]) - zeta / (1.0 + delta)),
        lipschitz=1.0 + delta,
        hessian_gap=delta,
        bias_m=2.0 * _square(delta),
        bias_zeta_sq=2.0 * _square(zeta),
        f_star=0.0,
    )


def check_symmetric_psd(a: np.ndarray, name: str, tol: float = 1e-10) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=tol):
        raise ValueError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(a).min() < -tol * max(1.0, np.abs(a).max()):
        raise ValueError(f"{name} must be positive semidefinite")
    return a


def make_quadratic_nd(
    a_f: np.ndarray,
    a_h: np.ndarray,
    b_h: Union[Array, Sequence[float]],
    noise: NoiseSpec = NoiseSpec(),
) -> OraclePair:
    """Pair f(x) = x'A_f x / 2 and h(x) = x'A_h x / 2 - b_h'x.

    The Hessian gap ||A_f - A_h||_2 and smoothness ||A_f||_2 are computed
    analytically; the gradient bias and the curvature gap are independent
    knobs (b_h shifts gradients without touching Hessians).
    """
    a_f = check_symmetric_psd(a_f, "a_f")
    a_h = check_symmetric_psd(a_h, "a_h")
    if a_f.shape != a_h.shape:
        raise ValueError("a_f and a_h must have the same shape")
    dim = a_f.shape[0]
    b_h = as_vector(b_h, dim)

    lipschitz = float(np.linalg.norm(a_f, 2))
    gap = float(np.linalg.norm(a_f - a_h, 2))

    return gaussian_oracle(
        lambda x: a_f @ x,
        lambda x: a_h @ x - b_h,
        noise,
        dim=dim,
        f_value=lambda x: 0.5 * float(x @ (a_f @ x)),
        h_value=lambda x: 0.5 * float(x @ (a_h @ x)) - float(b_h @ x),
        lipschitz=lipschitz,
        hessian_gap=gap,
        f_star=0.0,
    )


# ---------------------------------------------------------------------------
# LIBSVM parsing
# ---------------------------------------------------------------------------

class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; message carries the 1-based line number."""


def parse_libsvm(text: Union[str, bytes]) -> tuple[sp.csr_matrix, np.ndarray]:
    """Parse LIBSVM text ("<label> <idx>:<val> ...", 1-based ascending indices).

    Feature count is the maximum index seen; labels are passed through
    unmapped.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    labels: list[float] = []
    data: list[float] = []
    indices: list[int] = []
    indptr: list[int] = [0]
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


def write_libsvm(features: np.ndarray, labels: np.ndarray) -> str:
    """Serialize a dense feature matrix and labels into LIBSVM text."""
    lines = []
    for row, label in zip(np.asarray(features), labels):
        nz = np.nonzero(row)[0]
        toks = [_format_label(label)] + [f"{j + 1}:{row[j]:g}" for j in nz]
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
    """

    features: np.ndarray
    labels: np.ndarray
    l2_reg: float = 0.0
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        a = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.float64)
        if a.ndim != 2 or y.ndim != 1 or a.shape[0] != y.shape[0]:
            raise ValueError("features and labels have inconsistent shapes")
        if a.shape[0] == 0:
            raise ValueError("task must have at least one sample")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be in {-1, +1}")
        if self.l2_reg < 0:
            raise ValueError("l2_reg must be nonnegative")
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
        # once, and a one-entry memo (x copy, margins) that loss and grad share.
        object.__setattr__(self, "_w", self.weights if self.weights is not None
                           else np.full(y.shape[0], 1.0 / y.shape[0]))
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
        # log(1 + exp(-m)) computed stably
        losses = np.logaddexp(0.0, -self._margins(x))
        return float(self._w @ losses) + 0.5 * self.l2_reg * float(x @ x)

    def grad(self, x: Array) -> Array:
        coef = -self.labels * _sigmoid(-self._margins(x)) * self._w
        return self.features.T @ coef + self.l2_reg * x

    def grad_minibatch(self, x: Array, idx: np.ndarray) -> Array:
        """Unbiased gradient estimate from rows ``idx`` sampled prop. to weights."""
        a = self.features[idx]
        y = self.labels[idx]
        margins = y * (a @ x)
        coef = -y * _sigmoid(-margins) / len(idx)
        return a.T @ coef + self.l2_reg * x

    def smoothness(self) -> float:
        """Upper bound on the loss Hessian spectral norm (at sigma(1-sigma) <= 1/4)."""
        a = self.features * np.sqrt(self._w)[:, None]
        return 0.25 * float(np.linalg.norm(a, 2)) ** 2 + self.l2_reg


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|z|."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def exact_hessian_logistic(task: LogisticTask, x: Array) -> np.ndarray:
    """Weighted sum of sigma_i (1 - sigma_i) a_i a_i' plus the ridge term.

    Label-free: relabeling any subset of rows leaves the output unchanged.
    """
    x = as_vector(x, task.dim)
    s = _sigmoid(task.features @ x)
    d = s * (1.0 - s) * task._w
    return (task.features * d[:, None]).T @ task.features + task.l2_reg * np.eye(task.dim)


@dataclass(frozen=True)
class HelperBuild:
    """How to manufacture a helper task: random labels, a weighted coreset,
    or re-use of a fixed batch of rows."""

    kind: str  # random_labels | coreset | subset_batch
    fraction: float = 1.0
    indices: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("random_labels", "coreset", "subset_batch"):
            raise ValueError(f"unknown helper kind {self.kind!r}")


def split_sizes(n: int, split) -> list[int]:
    """Part sizes of ``n`` rows: floors of the fractions, the remainder to the first."""
    sizes = [int(math.floor(f * n)) for f in split]
    sizes[0] += n - sum(sizes)
    return sizes


def build_semisupervised(
    task: LogisticTask,
    split: tuple[float, float, float],
    helper: HelperBuild,
    seed: RandomToken,
) -> tuple[LogisticTask, LogisticTask, LogisticTask]:
    """Split into (train, test, unlabeled) and build the helper over the last part.

    Split sizes come from :func:`split_sizes`; the shuffle and any random
    labels are deterministic in ``seed``.
    """
    fr = tuple(float(f) for f in split)
    if len(fr) != 3 or any(f <= 0 for f in fr) or not math.isclose(sum(fr), 1.0, rel_tol=1e-9):
        raise ValueError("split fractions must be positive and sum to 1")
    n = task.n_samples
    sizes = split_sizes(n, fr)
    if any(s == 0 for s in sizes):
        raise ValueError("split produces an empty part")

    perm = rng_from_token(stream_fork(seed, 0)).permutation(n)
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

    if helper.kind == "random_labels":
        rng = rng_from_token(stream_fork(seed, 1))
        rad = rng.integers(0, 2, size=len(un)) * 2.0 - 1.0
        h_task = subtask(un, labels=rad)
    elif helper.kind == "coreset":
        h_task = build_coreset_helper(f_task, helper.fraction, stream_fork(seed, 2))
    elif helper.kind == "subset_batch":
        idx = helper.indices
        if idx is None:
            raise ValueError("subset_batch helper requires explicit indices")
        h_task = subtask(tr[np.asarray(idx)])
    else:  # pragma: no cover - HelperBuild validates kinds
        raise AssertionError(helper.kind)
    return f_task, h_task, test_task


def build_coreset_helper(task: LogisticTask, fraction: float, seed: RandomToken) -> LogisticTask:
    """Uniform random subset of size floor(fraction * n) with weights 1/M."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must lie in (0, 1]")
    m = int(math.floor(fraction * task.n_samples))
    if m == 0:
        raise ValueError("fraction yields an empty coreset")
    rng = rng_from_token(seed)
    idx = np.sort(rng.choice(task.n_samples, size=m, replace=False))
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
    hessian_gap: Optional[float] = None,
) -> OraclePair:
    """Oracle pair over two logistic tasks sharing a parameter space.

    ``batch_size`` None gives exact (deterministic) gradients; otherwise
    stochastic gradients average over a with-replacement minibatch drawn from
    the token.  The noise_spec is zero: subsampling noise is not part of the
    additive Gaussian model.
    """
    if f_task.dim != h_task.dim:
        raise ValueError("tasks must share the parameter dimension")
    dim = f_task.dim

    def _batch(task: LogisticTask, x: Array, token: RandomToken) -> Array:
        if batch_size is None:
            return task.grad(x)
        rng = rng_from_token(token)
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
        noise_spec=NoiseSpec(),
        exact_grad_f=f_task.grad,
        exact_grad_h=h_task.grad,
        f_value=f_task.loss,
        h_value=h_task.loss,
        lipschitz=f_task.smoothness(),
        hessian_gap=hessian_gap,
        f_star=0.0 if f_task.l2_reg == 0 else None,
    )


# ---------------------------------------------------------------------------
# Synthetic dataset (mushrooms-shaped stand-in)
# ---------------------------------------------------------------------------

def make_synthetic_classification(
    n_samples: int, n_features: int, seed: RandomToken, n_groups: int = 16
) -> tuple[np.ndarray, np.ndarray]:
    """One-hot grouped binary features with a planted noisy linear rule.

    Mirrors the shape of categorical LIBSVM datasets: features come in
    groups, exactly one active feature per group per row; labels are {1, 2}.
    """
    rng = rng_from_token(seed)
    group_sizes = np.full(n_groups, n_features // n_groups)
    group_sizes[: n_features % n_groups] += 1
    offsets = np.concatenate([[0], np.cumsum(group_sizes)])

    features = np.zeros((n_samples, n_features))
    for g in range(n_groups):
        choice = rng.integers(0, group_sizes[g], size=n_samples)
        features[np.arange(n_samples), offsets[g] + choice] = 1.0

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
