"""Prescribed hyperparameter formulas and similarity/bias estimators.

The step-size and momentum formulas carry explicit numeric constants; a
tighter variant of the same derivation yields slightly different values,
recorded alongside CONSTANTS for reference.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Array, ConfigError, RandomToken, rng_from_token, stream_fork

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
        if not self.L > 0:
            raise ConfigError("L", f"L = {self.L:g} must be positive")
        for name in ("K", "T"):
            if getattr(self, name) < 1:
                raise ConfigError(name, f"{name} must be >= 1")
        for name in ("delta", "sigma_f", "sigma_h", "sigma_fmh", "F0"):
            if not getattr(self, name) >= 0:
                raise ConfigError(name, f"{name} must be nonnegative")
        if self.F0 == math.inf:
            raise ConfigError("F0", "F0 = f(x0) - f* overflows a float")
        # The formulas square these and 1/L, a bound on eta; an int's square is exact.
        squared = [("L", "1/L", 1 / self.L)] + [(n, n, getattr(self, n)) for n in (
            "delta", "sigma_f", "sigma_h", "sigma_fmh", "K", "T")]
        for name, label, value in squared:
            if not value * value <= sys.float_info.max:
                raise ConfigError(name, f"{label} squared overflows a float")
        if self.delta > 2 * self.L:
            raise ConfigError("delta", f"delta = {self.delta:g} exceeds 2L = {2 * self.L:g}")


@dataclass(frozen=True)
class BiasEstimate:
    m: float
    zeta_sq: float


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

GradFn = Callable[[Array], Array]

# estimate_delta: power-iteration restarts and steps per probe, their stopping
# tolerance, and the finite-difference step relative to 1 + ||x||
DELTA_RESTARTS, DELTA_ITERS, DELTA_TOL, DELTA_FD_SCALE = 5, 50, 1e-8, 1e-4
BIAS_THRESHOLD = 1e-8  # estimate_bias fits m on probes with ||grad f||^2 above this


def default_probe_points(dim: int, token: RandomToken, n_points: int = 20,
                         radius: float = 1.0) -> list[Array]:
    rng = rng_from_token(token)
    return [radius * rng.standard_normal(dim) for _ in range(n_points)]


def estimate_delta(
    grad_f: GradFn,
    grad_h: GradFn,
    probes: Sequence[Array],
    token: Optional[RandomToken] = None,
) -> float:
    """Spectral norm of the Hessian gap, via power iteration on a finite-
    difference Hessian-vector product of grad(f - h).

    Uses ||Hv|| as the magnitude estimate so opposite-signed extreme
    eigenvalues do not stall the iteration.  Returns the max over probe
    points and restarts.
    """
    token = token or RandomToken(0)
    rng = rng_from_token(stream_fork(token, 777))
    best = 0.0
    for x in probes:
        x = np.asarray(x, dtype=np.float64)
        eps = DELTA_FD_SCALE * (1.0 + float(np.linalg.norm(x)))

        def hv(v: Array) -> Array:
            gp = grad_f(x + eps * v) - grad_h(x + eps * v)
            gm = grad_f(x - eps * v) - grad_h(x - eps * v)
            g = (gp - gm) / (2.0 * eps)
            if not np.all(np.isfinite(g)):
                raise ValueError("non-finite gradient evaluation in delta estimator")
            return g

        for _ in range(DELTA_RESTARTS):
            v = rng.standard_normal(len(x))
            v /= np.linalg.norm(v)
            est = 0.0
            for _ in range(DELTA_ITERS):
                w = hv(v)
                norm_w = float(np.linalg.norm(w))
                if norm_w < DELTA_TOL:
                    est = norm_w
                    break
                if abs(norm_w - est) <= DELTA_TOL * max(1.0, norm_w):
                    est = norm_w
                    break
                est = norm_w
                v = w / norm_w
            best = max(best, est)
    return best


def estimate_bias(
    grad_f: GradFn,
    grad_h: GradFn,
    probes: Sequence[Array],
) -> BiasEstimate:
    """Least-slack (m, zeta^2) fit so ||grad f - grad h||^2 <= m ||grad f||^2 + zeta^2
    holds on every probe."""
    if len(probes) == 0:
        raise ValueError("probe set must be nonempty")
    b = []
    g = []
    for x in probes:
        gf = grad_f(np.asarray(x, dtype=np.float64))
        gh = grad_h(np.asarray(x, dtype=np.float64))
        b.append(float(np.sum((gf - gh) ** 2)))
        g.append(float(np.sum(gf**2)))
    b = np.asarray(b)
    g = np.asarray(g)
    floor = float(b.min())
    big = g > BIAS_THRESHOLD
    m = float(np.max((b[big] - floor) / g[big], initial=0.0))
    m = max(m, 0.0)
    zeta_sq = float(np.max(b - m * g, initial=0.0))
    return BiasEstimate(m=m, zeta_sq=max(zeta_sq, 0.0))

