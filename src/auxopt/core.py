"""Deterministic randomness, the correlated-noise model, and the gradient-oracle contract.

Parameters, gradients, and momenta are plain 1-D float64 numpy arrays.  All
stochastic draws are keyed by a :class:`RandomToken`, so the same token always
reproduces the same noise realization and independent runs never share RNG
state.

Generators are owned or borrowed.  :func:`rng_from_token` returns a fresh
generator that the caller owns and may keep.  :func:`borrow_generator`
returns the calling thread's one Philox generator with its state set from the
token; a caller that draws once and drops it (:func:`draw_gaussian_noise`,
minibatch and helper sampling) borrows, and never holds the borrowed
generator across another call.

Tokens form a tree: :func:`stream_fork` derives one child.  A run derives its
tokens a :func:`plan_blocks` block of cycles and a tree level at a time with
:func:`stream_forks`, one vectorised pass that gives the same children bit for bit.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray

_KEY_MASK = (1 << 128) - 1
_COUNTER_MASK = (1 << 64) - 1
_WORD_MASK = (1 << 32) - 1


def as_vector(x, dim: Optional[int] = None) -> Array:
    """Validate and return a finite 1-D float64 array of length ``dim``."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector has non-finite entries")
    return arr


class ConfigError(ValueError):
    """Bad input; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def at_path(path: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a bad-input error reported as a ConfigError
    at ``path``; a ConfigError's own path is put under ``path``."""
    try:
        return fn(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc.path}", exc.message) from None
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(path, str(exc)) from None


@dataclass(frozen=True, slots=True)
class RandomToken:
    """Handle into a counter-based random stream.

    The same ``(stream_id, draw_index)`` always reproduces the same noise.
    """

    stream_id: int
    draw_index: int = 0


def _philox_key_counter(token: RandomToken) -> tuple[int, int]:
    """Philox key and counter word of a token.

    The counter is ``[0, 0, word, 0]``, so distinct draw indices use disjoint
    counter blocks and draws from different indices never overlap.
    """
    return token.stream_id & _KEY_MASK, token.draw_index & _COUNTER_MASK


def rng_from_token(token: RandomToken) -> np.random.Generator:
    """A fresh counter-based generator keyed by (stream_id, draw_index).

    The caller owns it and may hold it across other calls.
    """
    key, word = _philox_key_counter(token)
    return np.random.Generator(np.random.Philox(key=key, counter=word << 128))


class _ThreadPhilox(threading.local):
    """One Philox generator per thread, lent out by :func:`borrow_generator`."""

    def __init__(self):
        self.bit_generator = np.random.Philox(key=0)
        self.generator = np.random.Generator(self.bit_generator)


_THREAD_PHILOX = _ThreadPhilox()


def borrow_generator(token: RandomToken) -> np.random.Generator:
    """This thread's generator, in the state ``rng_from_token(token)`` starts in.

    Draw from it and drop it before calling anything that may borrow again.
    """
    key, word = _philox_key_counter(token)
    local = _THREAD_PHILOX
    local.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, word, 0), "key": (key & _COUNTER_MASK, key >> 64)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return local.generator


def stream_fork(parent: RandomToken, label: int) -> RandomToken:
    """Deterministically derive an independent child stream from ``parent``.

    Distinct labels give statistically independent streams; the same
    (parent, label) always gives the same child.  The entropy is the
    little-endian uint32 words of each masked int, at least one per int.
    """
    values = (parent.stream_id & _KEY_MASK, parent.draw_index & _COUNTER_MASK,
              int(label) & _COUNTER_MASK)
    words = [v >> s & _WORD_MASK for v in values for s in range(0, max(v.bit_length(), 1), 32)]
    ss = np.random.SeedSequence(entropy=np.array(words, dtype=np.uint32))
    child_id = int.from_bytes(ss.generate_state(4, np.uint32).tobytes(), "little")
    return RandomToken(child_id, 0)


# SeedSequence's hash constants: its entropy hash XORs with INIT_A * MULT_A^k
# and multiplies by INIT_A * MULT_A^(k+1) at its k-th call, of at most 32 here.
_HASH_A = np.array([0x43B0D7E5 * pow(0x931E8875, k, 2**32) % 2**32 for k in range(33)],
                   dtype=np.uint32)[:, None]
_HASH_B = np.array([0x8B51F9DD * pow(0x58F38DED, k, 2**32) % 2**32 for k in range(5)],
                   dtype=np.uint32)[:, None]


def _seed_words(entropy: Array) -> Array:
    """``SeedSequence(e).generate_state(4, np.uint32)`` of every row e of an
    (L, n) uint32 array: its ``mix_entropy`` over uint32 lanes, with the 4
    pool words as rows, so hashing one word into several is one operation."""
    words = np.pad(entropy.T, ((0, max(0, 4 - entropy.shape[1])), (0, 0)))

    def hashmix(v, k, rows):  # the hash's calls k..k+rows-1, one per row
        v = (v ^ _HASH_A[k:k + rows]) * _HASH_A[k + 1:k + rows + 1]
        return v ^ (v >> 16)

    def mix(pool, h):
        r = np.uint32(0xCA01F9DD) * pool - np.uint32(0x4973F715) * h
        return r ^ (r >> 16)

    pool = hashmix(words[:4], 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 4 + 3 * src, 3))
    for j, w in enumerate(words[4:]):
        pool = mix(pool, hashmix(w, 16 + 4 * j, 4))
    out = (pool ^ _HASH_B[:4]) * _HASH_B[1:]
    return (out ^ (out >> 16)).T


def stream_forks(parents: Sequence[RandomToken], labels) -> list[list[RandomToken]]:
    """``[[stream_fork(p, label) for label in row] for p, row in zip(parents, rows)]``
    in one vectorised pass, bit for bit, with ``labels`` one row of ints for
    every parent or a row per parent.  A pair's entropy is the words of its
    stream id, draw index and label, each cut after its last nonzero word
    (keeping one); pairs with as many words share one hash sequence."""
    labels = np.array(labels, dtype=object)
    masked = np.array([int(label) & _COUNTER_MASK for label in labels.flat], dtype="<u8")
    rows = np.broadcast_to(masked.reshape(labels.shape),
                           (len(parents), labels.shape[-1])).astype("<u8")
    parent_words = np.frombuffer(b"".join(
        (p.stream_id & _KEY_MASK).to_bytes(16, "little")
        + (p.draw_index & _COUNTER_MASK).to_bytes(8, "little") for p in parents), dtype="<u4")
    words = np.empty(rows.shape + (8,), dtype="<u4")
    words[..., :6] = parent_words.reshape(-1, 1, 6)
    words[..., 6:] = rows[..., None].view("<u4")
    words = words.reshape(-1, 8)
    keep = words != 0
    for lo, hi in ((0, 4), (4, 6), (6, 8)):
        keep[:, lo:hi] = np.logical_or.accumulate(keep[:, lo:hi][:, ::-1], axis=1)[:, ::-1]
        keep[:, lo] = True
    counts, children = keep.sum(axis=1), np.empty((len(words), 4), dtype="<u4")
    for n in np.unique(counts):
        lanes = counts == n
        children[lanes] = _seed_words(words[lanes][keep[lanes]].reshape(-1, n))
    buf = children.tobytes()
    flat = [RandomToken(int.from_bytes(buf[i:i + 16], "little")) for i in range(0, len(buf), 16)]
    width = rows.shape[1]
    return [flat[i * width:(i + 1) * width] for i in range(len(parents))]


PLAN_LANES = 4096  # the most tokens a run plans at a time


def plan_blocks(n: int, lanes: int):
    """Labels 1..n in ranges of ``PLAN_LANES // lanes`` (one at least): planning
    ``lanes`` tokens per label holds at most max(PLAN_LANES, lanes) at a time."""
    step = max(1, PLAN_LANES // lanes)
    return (range(lo, min(lo + step, n + 1)) for lo in range(1, n + 1, step))


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian noise levels of the f and h gradient estimates.

    ``rho`` is the per-coordinate cross-correlation between f-noise and
    h-noise drawn under a shared token; positive correlation shrinks the
    variance of the difference estimate below sigma_f^2 + sigma_h^2.
    """

    sigma_f: float = 0.0
    sigma_h: float = 0.0
    rho: float = 0.0

    def __post_init__(self):
        for name in ("sigma_f", "sigma_h"):
            if getattr(self, name) < 0:
                raise ConfigError(name, "must be nonnegative")
        if not -1.0 <= self.rho <= 1.0:
            raise ConfigError("rho", f"must lie in [-1, 1], got {self.rho}")

    @property
    def sigma_fmh_sq(self) -> float:
        """Implied variance of the difference estimator g_f - g_h; inf where a
        square overflows."""
        try:
            v = self.sigma_f**2 + self.sigma_h**2 - 2.0 * self.rho * self.sigma_f * self.sigma_h
        except OverflowError:
            return math.inf
        return max(v, 0.0)

    @property
    def is_deterministic(self) -> bool:
        return self.sigma_f == 0.0 and self.sigma_h == 0.0


def draw_gaussian_noise(
    spec: NoiseSpec, token: RandomToken, dim: int, n: Optional[int] = None
) -> tuple[Array, Array]:
    """Draw a correlated (noise_f, noise_h) pair, deterministic in ``token``.

    Per-coordinate variances are sigma^2/dim so the expected squared norm of
    each vector equals sigma^2.  With ``n`` set, returns ``(n, dim)`` arrays
    of independent paired draws from the same stream.  The draws are those of
    two ``standard_normal(shape)`` calls on ``rng_from_token(token)``.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    shape = (dim,) if n is None else (n, dim)
    z1, z2 = borrow_generator(token).standard_normal((2,) + shape)
    scale = 1.0 / math.sqrt(dim)
    noise_f = spec.sigma_f * scale * z1
    noise_h = spec.sigma_h * scale * (spec.rho * z1 + math.sqrt(1.0 - spec.rho**2) * z2)
    return noise_f, noise_h


GradFn = Callable[[Array, RandomToken], Array]
ExactGradFn = Callable[[Array], Array]
ValueFn = Callable[[Array], float]


@dataclass(frozen=True)
class OraclePair:
    """Stochastic gradient sources for the target f and the helper h.

    The three stochastic gradients are unbiased.  When ``grad_f`` and
    ``grad_h`` receive the same token their noise realizations may be
    correlated.  Analytic constants (smoothness, Hessian gap, bias
    bound, minimum value) are carried when the problem family knows them.
    """

    dim: int
    grad_f: GradFn
    grad_h: GradFn
    grad_f_minus_h: GradFn
    exact_grad_f: Optional[ExactGradFn] = None
    exact_grad_h: Optional[ExactGradFn] = None
    f_value: Optional[ValueFn] = None
    lipschitz: Optional[float] = None
    hessian_gap: Optional[float] = None
    bias_m: Optional[float] = None
    bias_zeta_sq: Optional[float] = None
    f_star: Optional[float] = None

    @property
    def has_exact_gradients(self) -> bool:
        return self.exact_grad_f is not None and self.exact_grad_h is not None

    def exact_grad_f_minus_h(self, x: Array, grad_f: Optional[Array] = None) -> Array:
        """grad f(x) - grad h(x); ``grad_f``, when given, is grad f(x) already computed."""
        if not self.has_exact_gradients:
            raise ValueError("oracle does not expose exact gradients")
        return (self.exact_grad_f(x) if grad_f is None else grad_f) - self.exact_grad_h(x)


def gaussian_oracle(
    exact_grad_f: ExactGradFn,
    exact_grad_h: ExactGradFn,
    noise_spec: NoiseSpec,
    dim: int,
    **extras,
) -> OraclePair:
    """Build an OraclePair by adding correlated Gaussian noise to exact gradients.

    With a deterministic ``noise_spec`` the stochastic gradients are the exact
    ones and nothing is drawn: the draws would be multiplied by zero.
    """
    exact = noise_spec.is_deterministic

    def grad_f(x: Array, token: RandomToken) -> Array:
        if exact:
            return exact_grad_f(x)
        nf, _ = draw_gaussian_noise(noise_spec, token, dim)
        return exact_grad_f(x) + nf

    def grad_h(x: Array, token: RandomToken) -> Array:
        if exact:
            return exact_grad_h(x)
        _, nh = draw_gaussian_noise(noise_spec, token, dim)
        return exact_grad_h(x) + nh

    def grad_f_minus_h(x: Array, token: RandomToken) -> Array:
        if exact:
            return exact_grad_f(x) - exact_grad_h(x)
        nf, nh = draw_gaussian_noise(noise_spec, token, dim)
        return exact_grad_f(x) - exact_grad_h(x) + (nf - nh)

    return OraclePair(
        dim=dim,
        grad_f=grad_f,
        grad_h=grad_h,
        grad_f_minus_h=grad_f_minus_h,
        exact_grad_f=exact_grad_f,
        exact_grad_h=exact_grad_h,
        **extras,
    )
