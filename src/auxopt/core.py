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
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

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


@dataclass(frozen=True)
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


def _uint32_words(*values: int) -> Array:
    """The uint32 array SeedSequence makes of a tuple of nonnegative ints: the
    little-endian 32-bit words of each, at least one word per int."""
    words = []
    for v in values:
        words.append(v & _WORD_MASK)
        v >>= 32
        while v:
            words.append(v & _WORD_MASK)
            v >>= 32
    return np.array(words, dtype=np.uint32)


def stream_fork(parent: RandomToken, label: int) -> RandomToken:
    """Deterministically derive an independent child stream from ``parent``.

    Distinct labels give statistically independent streams; the same
    (parent, label) always gives the same child.
    """
    ss = np.random.SeedSequence(entropy=_uint32_words(
        parent.stream_id & _KEY_MASK,
        parent.draw_index & _COUNTER_MASK,
        int(label) & _COUNTER_MASK,
    ))
    child_id = int.from_bytes(ss.generate_state(4, np.uint32).tobytes(), "little")
    return RandomToken(child_id, 0)


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
        if self.sigma_f < 0 or self.sigma_h < 0:
            raise ValueError("noise levels must be nonnegative")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"correlation must lie in [-1, 1], got {self.rho}")

    @property
    def sigma_fmh_sq(self) -> float:
        """Implied variance of the difference estimator g_f - g_h."""
        v = self.sigma_f**2 + self.sigma_h**2 - 2.0 * self.rho * self.sigma_f * self.sigma_h
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
    h_value: Optional[ValueFn] = None
    lipschitz: Optional[float] = None
    hessian_gap: Optional[float] = None
    bias_m: Optional[float] = None
    bias_zeta_sq: Optional[float] = None
    f_star: Optional[float] = None

    @property
    def has_exact_gradients(self) -> bool:
        return self.exact_grad_f is not None and self.exact_grad_h is not None

    def exact_grad_f_minus_h(self, x: Array) -> Array:
        if not self.has_exact_gradients:
            raise ValueError("oracle does not expose exact gradients")
        return self.exact_grad_f(x) - self.exact_grad_h(x)


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
