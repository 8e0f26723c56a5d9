"""Multi-helper orchestration: sample S of N helpers, run one optimizer cycle
per sampled helper, average the returned iterates."""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import Array, OraclePair, RandomToken, borrow_generator, rng_from_token, stream_fork
from .optimizers import OptimizerConfig, OptimizerState, cycle

VARIANTS = ("AuxMOM", "AuxMVR")


@dataclass
class HelperSet:
    """N helper oracles with persistent per-helper momenta.

    Momenta of unsampled helpers are left untouched by a cycle.  Each helper
    draws noise from its own token lane.
    """

    oracles: list[OraclePair]
    s: int
    momenta: list[Array] = field(default_factory=list)
    calls_h: int = 0
    calls_fmh: int = 0

    def __post_init__(self):
        n = len(self.oracles)
        if n == 0:
            raise ValueError("helper set must be nonempty")
        if not 1 <= self.s <= n:
            raise ValueError(f"S must lie in [1, {n}], got {self.s}")
        dim = self.oracles[0].dim
        if any(o.dim != dim for o in self.oracles):
            raise ValueError("helpers must share the parameter dimension")
        if not self.momenta:
            self.momenta = [np.zeros(dim) for _ in range(n)]

    @property
    def n(self) -> int:
        return len(self.oracles)


def sample_helpers(token: RandomToken, n: int, s: int) -> list[int]:
    """Uniform sample of s helper indices without replacement, sorted."""
    chosen = borrow_generator(token).choice(n, size=s, replace=False)
    return sorted(int(i) for i in chosen)


def decentralized_cycle(
    x: Array,
    helpers: HelperSet,
    cfg: OptimizerConfig,
    token: RandomToken,
    variant: str = "AuxMOM",
    x_prev: Optional[Array] = None,
) -> tuple[Array, list[int]]:
    """One cycle: each sampled helper runs one ``cycle`` of ``variant`` from x
    with its own momentum; the next snapshot is the average of their final
    iterates.

    Helper i draws under ``stream_fork(stream_fork(token, 1), i)``, the
    token layout of a single-helper cycle, and is billed what that cycle
    bills.  Mutates the sampled helpers' momenta; returns (x', sampled).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    cfg = replace(cfg, algorithm=variant)
    x_prev = x if x_prev is None else x_prev
    sampled = sample_helpers(stream_fork(token, 0), helpers.n, helpers.s)
    lanes = stream_fork(token, 1)
    finals = []
    for i in sampled:
        state = OptimizerState(x_prev=x_prev, x=x, m=helpers.momenta[i])
        new = cycle(state, helpers.oracles[i], cfg, stream_fork(lanes, i)).state
        helpers.momenta[i] = new.m
        helpers.calls_h += new.calls_h
        helpers.calls_fmh += new.calls_fmh
        finals.append(new.x)
    return np.mean(finals, axis=0), sampled


@dataclass
class DecentralizedTrajectory:
    snapshots: list[Array]
    sampled: list[list[int]]


def run_decentralized(
    x0: Array,
    helpers: HelperSet,
    cfg: OptimizerConfig,
    token: RandomToken,
    variant: str = "AuxMOM",
) -> DecentralizedTrajectory:
    """T decentralized cycles; records snapshots and the sampled helper sets."""
    x = np.asarray(x0, dtype=np.float64).copy()
    x_prev = x.copy()
    traj = DecentralizedTrajectory(snapshots=[x.copy()], sampled=[])
    for t in range(1, cfg.T + 1):
        x_new, chosen = decentralized_cycle(
            x, helpers, cfg, stream_fork(token, t), variant=variant, x_prev=x_prev
        )
        x_prev, x = x, x_new
        traj.snapshots.append(x.copy())
        traj.sampled.append(chosen)
    return traj


@dataclass(frozen=True)
class WeakConvexityReport:
    ok: bool
    witness: Optional[tuple[Array, Array]] = None

    def __bool__(self) -> bool:
        return self.ok


def check_weak_convexity(
    oracle: OraclePair,
    delta: float,
    n_points: int = 200,
    radius: float = 2.0,
    token: RandomToken = RandomToken(0),
    tol: float = 1e-9,
) -> WeakConvexityReport:
    """Midpoint-convexity test of f(x) + delta ||x||^2 on random point pairs.

    Returns a falsy report with a witness pair on the first violation.
    """
    if oracle.f_value is None:
        raise ValueError("weak-convexity check needs f values")

    def g(x: Array) -> float:
        return oracle.f_value(x) + delta * float(x @ x)

    rng = rng_from_token(token)
    for _ in range(n_points):
        x = radius * rng.standard_normal(oracle.dim)
        y = radius * rng.standard_normal(oracle.dim)
        mid = g(0.5 * (x + y))
        avg = 0.5 * (g(x) + g(y))
        if mid > avg + tol * max(1.0, abs(avg)):
            return WeakConvexityReport(ok=False, witness=(x, y))
    return WeakConvexityReport(ok=True)
