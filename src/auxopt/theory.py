"""Prescribed hyperparameter formulas, similarity/bias estimators, and the
report ``auxopt check`` prints.

The step-size and momentum formulas carry explicit numeric constants; a
tighter variant of the same derivation yields slightly different values,
recorded alongside CONSTANTS for reference.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import optimizers
from .core import (Array, ConfigError, ExactGradFn, OraclePair, RandomToken, borrow_generator,
                   rng_from_token, stream_fork)

# The formulas below use these constants; a tighter variant of the same
# derivation gives the alternate values noted per entry.
CONSTANTS = {
    "mom_eta_delta_k": 192,       # alternate derivation: 144
    "mom_eta_variance": 144,      # alternate derivation: 128
    "mom_a": 36,
    "mvr_a": 1156,                # alternate derivation: 1152
    "mvr_eta_cubic": 18432,
}


@dataclass(frozen=True)
class TheoryParams:
    L: float
    delta: float
    sigma_f: float = 0.0
    sigma_h: float = 0.0
    sigma_fmh: float = 0.0
    F0: float = 0.0
    K: int = 1
    T: int = 1

    def __post_init__(self):
        """The formulas' input rules; a ConfigError names the field it breaks."""
        if not 0 < self.L < math.inf:
            raise ConfigError("L", f"L = {self.L:g} must be positive and finite")
        for name in ("K", "T"):
            if getattr(self, name) < 1:
                raise ConfigError(name, f"{name} must be >= 1")
        for name in ("delta", "sigma_f", "sigma_h", "sigma_fmh", "F0"):
            if not getattr(self, name) >= 0:
                raise ConfigError(name, f"{name} must be nonnegative")
        if self.F0 == math.inf:
            raise ConfigError("F0", "F0 = f(x0) overflows a float")
        # The formulas square these and 1/L, a bound on eta; an int's square is exact.
        squared = [("L", "1/L", 1 / self.L)] + [(n, n, getattr(self, n)) for n in (
            "delta", "sigma_f", "sigma_h", "sigma_fmh", "K", "T")]
        for name, label, value in squared:
            if not value * value <= sys.float_info.max:
                raise ConfigError(name, f"{label} squared overflows a float")
        if self.delta > 2 * self.L:
            raise ConfigError("delta", f"delta = {self.delta:g} exceeds 2L = {2 * self.L:g}")


def auxmom_beta(p: TheoryParams) -> float:
    """Variance inflation factor of the momentum method's dominant term."""
    sf2 = p.sigma_f**2
    if sf2 == 0:  # includes subnormal sigma_f whose square underflows
        return 0.0
    return (p.delta / p.L) * (p.sigma_fmh**2 / sf2 + p.sigma_h**2 / (18 * p.K * sf2)) + (
        p.sigma_h**2 / (288 * p.K * sf2)
    )


def _step_size(p: TheoryParams, *branches: float) -> float:
    """min(1/L, 1/(192 delta K), *branches).  A zero branch is dropped from the
    min (treated as +inf): 1/(192 delta K) when delta = 0, and any of
    ``branches`` given as 0 for a zero denominator or a quotient that underflows."""
    eta = [1.0 / p.L] + [b for b in branches if b > 0]
    if p.delta > 0:
        eta.append(1.0 / (CONSTANTS["mom_eta_delta_k"] * p.delta * p.K))
    return min(eta)


def auxmom_params(p: TheoryParams) -> tuple[float, float, float]:
    """Step size, momentum parameter, and beta for the classical-momentum method.

    eta = min(1/L, 1/(192 delta K), sqrt(F0 / (144 L beta K^2 T sigma_f^2)))
    and a = max(1/T, 36 delta K eta); zero-division branches are dropped from
    the min (treated as +inf) and contribute 0 to the max.
    """
    beta = auxmom_beta(p)
    var_denom = CONSTANTS["mom_eta_variance"] * p.L * beta * p.K**2 * p.T * p.sigma_f**2
    eta = _step_size(p, math.sqrt(p.F0 / var_denom) if var_denom > 0 else 0.0)
    a = max(1.0 / p.T, CONSTANTS["mom_a"] * p.delta * p.K * eta)
    return eta, min(a, 1.0), beta


def auxmvr_params(p: TheoryParams) -> tuple[float, float]:
    """Step size and momentum parameter for the variance-reduced momentum method.

    eta = min(1/L, 1/(192 delta K), (1/K)(F0/(18432 delta^2 T sigma_fmh^2))^(1/3),
              sqrt(F0/(K T (L/2 + 8 delta K)))) and
    a = max(1/T, 1156 delta^2 K^2 eta^2).
    """
    # the cubic branch's denominator underflows for tiny delta or sigma_fmh
    cubic_denom = CONSTANTS["mvr_eta_cubic"] * p.delta**2 * p.T * p.sigma_fmh**2
    eta = _step_size(p, (p.F0 / cubic_denom) ** (1.0 / 3.0) / p.K if cubic_denom > 0 else 0.0,
                     math.sqrt(p.F0 / (p.K * p.T * (p.L / 2 + 8 * p.delta * p.K))))
    a = max(1.0 / p.T, CONSTANTS["mvr_a"] * p.delta**2 * p.K**2 * eta**2)
    return eta, min(a, 1.0)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

# estimate_delta: power-iteration restarts and steps per probe, their stopping
# tolerance, and the finite-difference step relative to 1 + ||x||
DELTA_RESTARTS, DELTA_ITERS, DELTA_TOL, DELTA_FD_SCALE = 5, 50, 1e-8, 1e-4


def default_probe_points(dim: int, token: RandomToken, n_points: int = 20,
                         radius: float = 1.0) -> Array:
    """``n_points`` Gaussian points of scale ``radius``, the rows of one array."""
    return radius * borrow_generator(token).standard_normal((n_points, dim))


def estimate_delta(
    grad_f: ExactGradFn,
    grad_h: ExactGradFn,
    probes: Sequence[Array],
    token: RandomToken = RandomToken(0),
) -> float:
    """Spectral norm of the Hessian gap, via power iteration on a finite-
    difference Hessian-vector product of grad(f - h).

    Uses ||Hv|| as the magnitude estimate so opposite-signed extreme
    eigenvalues do not stall the iteration.  Returns the max over probe
    points and restarts.  The restarts, probe by probe, are the rows of a
    stack, iterated a block at a time (its x +- eps v points at most
    ``WINDOW_FLOATS`` floats, one row at least): each step evaluates the
    block's live points with one grad_f and one grad_h call, and a row
    retires alone, so the result has the bits of one restart at a time.
    """
    xs = np.asarray(probes, dtype=np.float64)
    eps = DELTA_FD_SCALE * (1.0 + np.sqrt(np.vecdot(xs, xs)))
    n_rows, dim = len(xs) * DELTA_RESTARTS, xs.shape[-1]
    block = max(1, optimizers.WINDOW_FLOATS // max(1, 2 * dim))  # no probes: dim 0
    rng = rng_from_token(stream_fork(token, 777))  # owned: held across the oracle calls
    best = 0.0
    for start in range(0, n_rows, block):
        live = np.arange(start, min(start + block, n_rows)) // DELTA_RESTARTS  # rows' probes
        v = rng.standard_normal((len(live), dim))
        v /= np.sqrt(np.vecdot(v, v))[:, None]  # a row's dot has the bits of its own
        est = np.zeros(len(live))
        for step in range(DELTA_ITERS):
            x, e = xs[live], eps[live, None]
            points = np.concatenate((x + e * v, x - e * v))
            g = grad_f(points) - grad_h(points)
            w = (g[:len(live)] - g[len(live):]) / (2.0 * e)
            if not np.all(np.isfinite(w)):
                raise ValueError("non-finite gradient evaluation in delta estimator")
            norm_w = np.sqrt(np.vecdot(w, w))
            # the one-restart stopping rule; the last step retires every row
            done = (step == DELTA_ITERS - 1) | (norm_w < DELTA_TOL) | (
                np.abs(norm_w - est) <= DELTA_TOL * np.maximum(1.0, norm_w))
            best = np.max(norm_w[done], initial=best)
            go = ~done  # at delta = 0 a retired row has ||w|| = 0: divide only the rest
            live, est, v = live[go], norm_w[go], w[go] / norm_w[go, None]
            if not len(live):
                break
    return float(best)


def estimate_bias(
    grad_f: ExactGradFn,
    grad_h: ExactGradFn,
    probes: Sequence[Array],
) -> tuple[float, float]:
    """The (m, zeta^2), m >= 0, for which ||grad f - grad h||^2 <= m ||grad f||^2 + zeta^2
    holds on every probe with the least right side averaged over the probes.

    With r_i, g_i the two squared norms at probe i, zeta^2(m) = max_i (r_i - m g_i)^+
    and the average is m mean(g) + zeta^2(m), convex and piecewise linear in m,
    so its least value lies at m = 0 or where two of the lines r_i - m g_i
    (or one and the line 0) cross."""
    if len(probes) == 0:
        raise ValueError("probe set must be nonempty")
    xs = np.asarray(probes, dtype=np.float64)
    gf = grad_f(xs)
    r, g = ((gf - grad_h(xs)) ** 2).sum(axis=1), (gf**2).sum(axis=1)
    g_mean = float(np.mean(g))
    r, g = np.append(r, 0.0), np.append(g, 0.0)  # the line 0 keeps zeta^2 >= 0
    # parallel lines cross nowhere, and a crossing or score that overflows
    # drops out of the search
    with np.errstate(all="ignore"):
        cross = (r[:, None] - r) / (g[:, None] - g)
        m = np.append(0.0, cross[np.isfinite(cross) & (cross > 0)])
        zeta_sq = np.max(r - m[:, None] * g, axis=1)
        best = int(np.argmin(m * g_mean + zeta_sq))
    return float(m[best]), float(zeta_sq[best])


def check_report(oracle: OraclePair, token: RandomToken) -> dict:
    """What ``auxopt check`` prints: the estimated Hessian gap ``delta`` and
    the bias fit ``m`` and ``zeta_sq``.

    The probe points come from ``token``, delta's power-iteration restarts
    from a fork of it.  Raises ValueError when delta, m or zeta^2 is not
    finite (gradients that overflow at the probes)."""
    probes = default_probe_points(oracle.dim, token)
    with np.errstate(over="ignore", invalid="ignore"):
        delta = estimate_delta(oracle.exact_grad_f, oracle.exact_grad_h, probes, token=token)
        m, zeta_sq = estimate_bias(oracle.exact_grad_f, oracle.exact_grad_h, probes)
        if not all(map(math.isfinite, (delta, m, zeta_sq))):
            raise ValueError(f"gradients overflow at the probe points: delta = {delta:g}, "
                             f"m = {m:g}, zeta^2 = {zeta_sq:g}")
    return {"delta": delta, "m": m, "zeta_sq": zeta_sq}

