"""Multi-helper orchestration: sample S of N helpers, run one optimizer cycle
per sampled helper, average the returned iterates."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import (Array, OraclePair, RandomToken, borrow_generator, plan_blocks,
                   rng_from_token, stream_forks)
from .optimizers import OptimizerConfig, OptimizerState, billed, cycle

VARIANTS = ("AuxMOM", "AuxMVR")


@dataclass
class HelperSet:
    """N helper oracles with persistent per-helper momenta.

    Momenta of unsampled helpers are left untouched by a cycle.  Each helper
    draws noise from its own token lane and bills ``calls`` through ``views[i]``.
    """

    oracles: list[OraclePair]
    s: int
    momenta: list[Array] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter, init=False)
    views: list[OraclePair] = field(init=False, repr=False)

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
        self.views = [billed(o, self.calls) for o in self.oracles]

    @property
    def n(self) -> int:
        return len(self.oracles)

    calls_h = property(lambda self: self.calls["h"])
    calls_fmh = property(lambda self: self.calls["fmh"])


def sample_helpers(token: RandomToken, n: int, s: int) -> list[int]:
    """Uniform sample of s helper indices without replacement, sorted."""
    chosen = borrow_generator(token).choice(n, size=s, replace=False)
    return sorted(int(i) for i in chosen)


def plan_cycles(tokens: list[RandomToken], helpers: HelperSet, cfg: OptimizerConfig) -> list:
    """Each cycle's sampled set and its helpers' tokens, one fork pass per
    level: cycle token c samples under label 0, and helper i's cycle token is
    ``stream_fork(stream_fork(c, 1), i)``."""
    pairs = stream_forks(tokens, range(2))
    sampled = [sample_helpers(sampler, helpers.n, helpers.s) for sampler, _ in pairs]
    lanes = stream_forks([lane for _, lane in pairs], sampled)
    steps = stream_forks([lane for row in lanes for lane in row], range(cfg.K + 1))
    return [(chosen, steps[j * helpers.s:(j + 1) * helpers.s]) for j, chosen in enumerate(sampled)]


def decentralized_cycle(x: Array, helpers: HelperSet, cfg: OptimizerConfig, sampled: list[int],
                        tokens: list[list[RandomToken]], x_prev: Array) -> Array:
    """One cycle: each sampled helper runs one ``cycle`` of ``cfg.algorithm``
    from x with its own momentum and its tokens from :func:`plan_cycles`,
    billed to ``helpers.calls``.  Mutates the sampled helpers' momenta and
    returns the average of their final iterates, the next snapshot.
    """
    finals = []
    for i, steps in zip(sampled, tokens, strict=True):
        state = OptimizerState(x_prev=x_prev, x=x, m=helpers.momenta[i])
        new = cycle(state, helpers.views[i], cfg, steps).state
        helpers.momenta[i] = new.m
        finals.append(new.x)
    return np.mean(finals, axis=0)


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
    """T decentralized cycles of ``variant``, cycle t under label t of ``token``,
    planned a ``plan_blocks`` block at a time; records snapshots and sampled sets."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    cfg = replace(cfg, algorithm=variant)
    x = np.asarray(x0, dtype=np.float64).copy()
    x_prev = x.copy()
    traj = DecentralizedTrajectory(snapshots=[x.copy()], sampled=[])
    # per cycle: its token, the two under it, S helper lanes and their K+1 steps
    for block in plan_blocks(cfg.T, 3 + helpers.s * (cfg.K + 2)):
        for chosen, tokens in plan_cycles(stream_forks([token], block)[0], helpers, cfg):
            x_new = decentralized_cycle(x, helpers, cfg, chosen, tokens, x_prev=x_prev)
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


# check_weak_convexity: random point pairs, their scale, and the relative slack
CONVEXITY_PAIRS, CONVEXITY_RADIUS, CONVEXITY_TOL = 200, 2.0, 1e-9


def check_weak_convexity(oracle: OraclePair, delta: float,
                         token: RandomToken = RandomToken(0)) -> WeakConvexityReport:
    """Midpoint-convexity test of f(x) + delta ||x||^2 on random point pairs.

    Returns a falsy report with a witness pair on the first violation.
    """
    if oracle.f_value is None:
        raise ValueError("weak-convexity check needs f values")

    def g(x: Array) -> float:
        return oracle.f_value(x) + delta * float(x @ x)

    rng = rng_from_token(token)
    for _ in range(CONVEXITY_PAIRS):
        x = CONVEXITY_RADIUS * rng.standard_normal(oracle.dim)
        y = CONVEXITY_RADIUS * rng.standard_normal(oracle.dim)
        mid = g(0.5 * (x + y))
        avg = 0.5 * (g(x) + g(y))
        if mid > avg + CONVEXITY_TOL * max(1.0, abs(avg)):
            return WeakConvexityReport(ok=False, witness=(x, y))
    return WeakConvexityReport(ok=True)
