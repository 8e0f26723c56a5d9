"""Deterministic randomness, the correlated-noise model, and the gradient-oracle contract.

Parameters, gradients, and momenta are plain 1-D float64 numpy arrays.  All
stochastic draws are keyed by a :class:`RandomToken`, so the same token always
reproduces the same noise realization and independent runs never share RNG
state.

Generators are owned or borrowed.  :func:`rng_from_token` returns a fresh
generator that the caller owns and may keep.  :func:`borrow_generator`
returns the calling thread's one Philox generator with its state set from the
token; a caller that draws once and drops it (:func:`draw_gaussian_noise`,
an oracle's ``draw``, helper sampling) borrows, and never holds the borrowed
generator across another call.

A token's key names a stream and its draw index the position in it.
:func:`stream_fork` derives a child stream at program structure (a repeat,
a run's draws, a multi-helper run's sampler and helper lanes, a data
split); inside a run, successive draws take successive draw indices of one
stream, and a token that is forked is not drawn from.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional

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


# The caps on 2 (K + 1) T, the most draws a run can bill, and on a config's
# repeats.  They keep float64 call counts, summed over the repeats, exact
# (below 2**53).  They do not bound run time: K = 2**39 - 1 at T = 1 is admitted.
MAX_DRAWS, MAX_REPEATS = 2**40, 2**13


class ConfigError(ValueError):
    """Bad input; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
        self.message = message


def at_path(path: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a bad-input error (an unreadable file too)
    reported as a ConfigError at ``path``; a ConfigError's own path is put
    under ``path``."""
    try:
        return fn(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc.path}", exc.message) from None
    except (TypeError, ValueError, IndexError, OSError) as exc:
        raise ConfigError(path, str(exc)) from None


@dataclass(frozen=True, slots=True)
class RandomToken:
    """Handle into a counter-based random stream.

    The same ``(stream_id, draw_index)`` always reproduces the same noise.
    """

    stream_id: int
    draw_index: int = 0

    def skip(self, n: int) -> "RandomToken":
        """The token ``n`` draws further along the same stream."""
        return RandomToken(self.stream_id, self.draw_index + n)


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


Sample = Any  # one draw of an oracle's noise; None where it draws nothing
DrawFn = Callable[[RandomToken, int], list]
GradFn = Callable[[Array, Sample], Array]
ExactGradFn = Callable[[Array], Array]
ValueFn = Callable[[Array], float | Array]  # a float per point


def draw_nothing(token: RandomToken, n: int) -> list:
    """The ``draw`` of an oracle whose gradients are exact: n empty samples."""
    return [None] * n


@dataclass(frozen=True)
class OraclePair:
    """Stochastic gradient sources for the target f and the helper h.

    Drawing is split from evaluating: ``draw(token, n)`` returns n samples
    drawn at ``token`` in one block, and each stochastic gradient evaluates
    at ``(x, sample)``.  The three are unbiased, and the f and h gradients
    at one sample may have correlated noise.  Every pair serves exact grad f,
    grad h and f too; each of the three takes a point or an (n, d) stack of
    points, whose rows give the point's bits.  Analytic constants (smoothness,
    Hessian gap) are carried when the problem family knows them.
    """

    dim: int
    grad_f: GradFn
    grad_h: GradFn
    grad_f_minus_h: GradFn
    exact_grad_f: ExactGradFn
    exact_grad_h: ExactGradFn
    f_value: ValueFn
    draw: DrawFn = draw_nothing
    lipschitz: Optional[float] = None
    hessian_gap: Optional[float] = None

    def exact_grad_f_minus_h(self, x: Array, grad_f: Optional[Array] = None) -> Array:
        """grad f(x) - grad h(x) at a point or a stack; ``grad_f``, when given, is
        grad f(x) already computed."""
        return (self.exact_grad_f(x) if grad_f is None else grad_f) - self.exact_grad_h(x)


def gaussian_oracle(
    exact_grad_f: ExactGradFn,
    exact_grad_h: ExactGradFn,
    noise_spec: NoiseSpec,
    dim: int,
    **extras,
) -> OraclePair:
    """Build an OraclePair by adding correlated Gaussian noise to exact gradients;
    ``extras`` give ``f_value`` and the analytic constants.

    Sample k of ``draw(token, n)`` is row k of each array of
    ``draw_gaussian_noise(noise_spec, token, dim, n)``.  With a deterministic
    ``noise_spec`` nothing is drawn, the draws would be multiplied by zero,
    and the gradients are the exact ones.
    """
    def draw(token: RandomToken, n: int) -> list:
        return list(zip(*draw_gaussian_noise(noise_spec, token, dim, n)))

    def grad_f(x: Array, sample: Sample) -> Array:
        g = exact_grad_f(x)
        return g if sample is None else g + sample[0]

    def grad_h(x: Array, sample: Sample) -> Array:
        g = exact_grad_h(x)
        return g if sample is None else g + sample[1]

    def grad_f_minus_h(x: Array, sample: Sample) -> Array:
        g = exact_grad_f(x) - exact_grad_h(x)
        return g if sample is None else g + (sample[0] - sample[1])

    return OraclePair(
        dim=dim,
        grad_f=grad_f,
        grad_h=grad_h,
        grad_f_minus_h=grad_f_minus_h,
        draw=draw_nothing if noise_spec.is_deterministic else draw,
        exact_grad_f=exact_grad_f,
        exact_grad_h=exact_grad_h,
        **extras,
    )
