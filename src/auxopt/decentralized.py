"""Multi-helper orchestration: sample S of N helpers, run one optimizer cycle
per sampled helper, average the returned iterates."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import Array, OraclePair, RandomToken, borrow_generator, stream_fork
from .optimizers import OptimizerConfig, billed, cycle

VARIANTS = ("AuxMOM", "AuxMVR")


@dataclass
class HelperSet:
    """N helper oracles with persistent per-helper momenta.

    Momenta of unsampled helpers are left untouched by a cycle.  Each helper
    draws noise from its own token lane and bills ``calls`` through ``views[i]``.
    """

    oracles: list[OraclePair]
    s: int
    momenta: list[Array] = field(init=False)
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


def decentralized_cycle(x: Array, helpers: HelperSet, cfg: OptimizerConfig, sampled: list[int],
                        tokens: list[RandomToken], x_prev: Array) -> Array:
    """One cycle: each sampled helper runs one ``cycle`` of ``cfg.algorithm``
    from x with its own momentum, under its own token in ``tokens``, billed
    to ``helpers.calls``.  Mutates the sampled helpers' momenta and returns
    the average of their final iterates, the next snapshot.
    """
    finals = []
    for i, token in zip(sampled, tokens, strict=True):
        helpers.momenta[i], ys = cycle(x_prev, x, helpers.momenta[i], helpers.views[i], cfg, token)
        finals.append(ys[-1])
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
    """T cycles of ``variant``, which must be ``cfg.algorithm``; records snapshots, sampled sets.

    A run forks ``token`` N + 2 times: a sampler stream (label 0) and helper
    i's lane (label i under label 1).  Cycle t = 1..T samples its helpers at
    the sampler's draw index t - 1, and helper i draws its cycle at its
    lane's draw index t."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if cfg.algorithm != variant:
        raise ValueError(f"cfg.algorithm {cfg.algorithm!r} is not the variant {variant!r}")
    x = np.asarray(x0, dtype=np.float64).copy()
    x_prev = x.copy()
    traj = DecentralizedTrajectory(snapshots=[x.copy()], sampled=[])
    sampler, lane_root = stream_fork(token, 0), stream_fork(token, 1)
    lanes = [stream_fork(lane_root, i) for i in range(helpers.n)]
    for t in range(1, cfg.T + 1):
        chosen = sample_helpers(sampler.skip(t - 1), helpers.n, helpers.s)
        tokens = [lanes[i].skip(t) for i in chosen]
        x_new = decentralized_cycle(x, helpers, cfg, chosen, tokens, x_prev=x_prev)
        x_prev, x = x, x_new
        traj.snapshots.append(x.copy())
        traj.sampled.append(chosen)
    return traj

