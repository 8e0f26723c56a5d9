"""Cycle-based optimizers: Naive, AuxMOM, AuxMOM-V0, AuxMVR, and baselines.

Each algorithm proceeds in T cycles; a cycle refreshes a momentum estimate of
grad(f - h) (or of grad f for the baselines) from the current snapshot x and
then takes K inner steps driven by gradients of the helper h.  One pure
function, :func:`cycle`, runs a cycle of every algorithm: state in, new
state out.  The momentum methods are rows of the MOMENTUM table.  Gradient
calls are billed where they are served, by the :func:`billed` view of the oracle.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .core import Array, ConfigError, OraclePair, RandomToken, as_vector, plan_blocks, stream_forks

ALGORITHMS = ("Naive", "AuxMOM", "AuxMOM_V0", "AuxMVR", "SGDm", "MVR", "GD", "FineTune")

DIVERGENCE_LIMIT = 1e12


class DivergenceError(RuntimeError):
    """Raised when an iterate blows up; carries the partial trajectory."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class OptimizerConfig:
    algorithm: str
    eta: float
    a: float = 1.0
    K: int = 1
    T: int = 1
    m0_mode: str = "single_sample"  # zero | single_sample | big_batch
    split_fraction: float = 0.5  # FineTune only: share of the budget spent on h

    def __post_init__(self):
        """Range rules; a ConfigError names the field by its config key."""
        if self.algorithm not in ALGORITHMS:
            raise ConfigError("name", f"must be one of {ALGORITHMS}")
        if not self.eta > 0:
            raise ConfigError("eta", "must be positive")
        if not 0 < self.a <= 1:
            raise ConfigError("a", "must lie in (0, 1]")
        for name in ("K", "T"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be >= 1")
        if self.m0_mode not in ("zero", "single_sample", "big_batch"):
            raise ConfigError("m0_mode", f"unknown m0_mode {self.m0_mode!r}")
        if not 0 <= self.split_fraction <= 1:
            raise ConfigError("split_fraction", "must lie in [0, 1]")


@dataclass(frozen=True)
class OptimizerState:
    x_prev: Array  # snapshot two cycles back (AuxMVR correction point)
    x: Array  # current snapshot
    m: Array  # momentum
    t: int = 0


@dataclass(frozen=True)
class CycleResult:
    state: OptimizerState
    inner_iterates: tuple[Array, ...]  # y^t_1 .. y^t_K (or the baseline steps)


CSV_COLUMNS = ("t", "k", "f_value", "grad_norm_sq", "E_t", "Delta_t",
               "calls_f", "calls_h", "calls_fmh")


def row_table(rows=()) -> np.recarray:
    """Rows in ``CSV_COLUMNS`` order as a float64 record array; None becomes NaN."""
    cells = np.array(rows, dtype=np.float64).reshape(-1, len(CSV_COLUMNS))
    return cells.view([(name, np.float64) for name in CSV_COLUMNS])[:, 0].view(np.recarray)


@dataclass
class Trajectory:
    """Row 0 for the initial point, then one row per inner step, with fields
    ``CSV_COLUMNS``; NaN marks an empty cell."""

    rows: np.recarray = field(default_factory=row_table)
    metadata: dict = field(default_factory=dict)

    def final_grad_norm_sq(self) -> float:
        return float(self.rows.grad_norm_sq[-1])

    def cycle_ends(self) -> np.recarray:
        """The last row of each cycle t >= 1."""
        t = self.rows.t
        return self.rows[(np.diff(t, append=np.inf) != 0) & (t > 0)]

    def cycle_grad_means(self) -> list[float]:
        """G^t: per-cycle mean of ||grad f(y^t_k)||^2 over the inner steps."""
        t, g = self.rows.t, self.rows.grad_norm_sq
        keep = (t > 0) & ~np.isnan(g)
        t, g = t[keep], g[keep]
        cycles = np.split(g, np.flatnonzero(np.diff(t)) + 1) if g.size else []
        return [float(np.mean(c)) for c in cycles]


@dataclass(frozen=True)
class Momentum:
    """A momentum method, given by the three axes along which they differ."""

    fmh: bool  # tracks g_{f-h} (bias correction) rather than g_f
    storm: bool  # STORM: adds (1-a)(g(x) - g(x_prev)), one sample, to the EMA
    # None: one step along m; "h": K steps along g_h(y) + m; "svrg": K steps
    # along g_h(y) - g_h(x) + m, both h-gradients on one sample
    inner: Optional[str]

    def target(self, oracle: OraclePair):
        """The stochastic gradient the momentum tracks."""
        return oracle.grad_f_minus_h if self.fmh else oracle.grad_f


MOMENTUM = {
    "AuxMOM": Momentum(fmh=True, storm=False, inner="h"),
    "AuxMVR": Momentum(fmh=True, storm=True, inner="h"),
    "AuxMOM_V0": Momentum(fmh=False, storm=False, inner="svrg"),
    "SGDm": Momentum(fmh=False, storm=False, inner=None),
    "MVR": Momentum(fmh=False, storm=True, inner=None),
}


def init_state(
    x0: Array, oracle: OraclePair, cfg: OptimizerConfig, token: RandomToken
) -> OptimizerState:
    """Initial state; m0 per cfg.m0_mode (zero, one sample under ``token``, or
    the mean of T samples under its labels 0..T-1)."""
    x0 = as_vector(x0, oracle.dim)
    m = np.zeros(oracle.dim)
    spec = MOMENTUM.get(cfg.algorithm)
    if cfg.m0_mode != "zero" and spec is not None:
        grad = spec.target(oracle)
        if cfg.m0_mode == "single_sample":
            m = grad(x0, token)
        else:  # big_batch: mean of T independent samples
            samples = [grad(x0, tok) for tok in stream_forks([token], range(cfg.T))[0]]
            m = np.mean(samples, axis=0)
    return OptimizerState(x_prev=x0.copy(), x=x0.copy(), m=m)


def cycle(
    state: OptimizerState, oracle: OraclePair, cfg: OptimizerConfig, tokens: Sequence[RandomToken]
) -> CycleResult:
    """One cycle of ``cfg.algorithm`` from the snapshot ``state.x``.

    ``tokens[k]`` is label k = 0..K of the cycle's token.  A MOMENTUM method
    refreshes m from draws at the snapshot under label 0, then takes its
    inner steps under labels 1..K.  Naive, GD and FineTune are written out.
    The next snapshot is the last iterate.
    """
    x, a, eta = state.x, cfg.a, cfg.eta
    m, ys = state.m, []
    spec = MOMENTUM.get(cfg.algorithm)
    if spec is not None:
        grad, tok = spec.target(oracle), tokens[0]
        g = grad(x, tok)
        m = (1.0 - a) * m + a * g
        if spec.storm:
            m = m + (1.0 - a) * (g - grad(state.x_prev, tok))
        if spec.inner is None:
            ys.append(x - eta * m)
        else:
            y = x.copy()
            for k in range(1, cfg.K + 1):
                tok = tokens[k]
                d = oracle.grad_h(y, tok)
                if spec.inner == "svrg":
                    d = d - oracle.grad_h(x, tok)
                y = y - eta * (d + m)
                ys.append(y)
    elif cfg.algorithm == "Naive":
        # One f-gradient step followed by K-1 raw h-gradient steps, no correction.
        m = oracle.grad_f(x, tokens[0])
        y = x - eta * m
        ys.append(y)
        for k in range(1, cfg.K):
            y = y - eta * oracle.grad_h(y, tokens[k])
            ys.append(y)
    elif cfg.algorithm == "GD":
        if oracle.exact_grad_f is None:
            raise ValueError("GD requires an exact gradient of f")
        ys.append(x - eta * oracle.exact_grad_f(x))
    else:  # FineTune
        # First split_fraction * (T*K) global steps run SGDm on h, the rest on f.
        # The momentum buffer is reset when the phase flips.
        switch = cfg.split_fraction * cfg.T * cfg.K
        y = x.copy()
        for k in range(1, cfg.K + 1):
            step = state.t * cfg.K + k
            on_h = step <= switch
            if not on_h and step - 1 <= switch:
                m = np.zeros_like(m)  # phase switch
            g = oracle.grad_h(y, tokens[k]) if on_h else oracle.grad_f(y, tokens[k])
            m = (1.0 - a) * m + a * g
            y = y - eta * m
            ys.append(y)
    new = replace(state, x_prev=x, x=ys[-1], m=m, t=state.t + 1)
    return CycleResult(new, tuple(ys))


def billed(oracle: OraclePair, calls: Counter) -> OraclePair:
    """``oracle`` adding one to ``calls["f"|"h"|"fmh"]`` for each gradient it
    serves; an exact gradient of f (a GD step) is billed as an f call."""
    def bill(key, grad):
        def served(*args):
            calls[key] += 1
            return grad(*args)
        return served

    return replace(oracle, grad_f=bill("f", oracle.grad_f), grad_h=bill("h", oracle.grad_h),
                   grad_f_minus_h=bill("fmh", oracle.grad_f_minus_h),
                   exact_grad_f=oracle.exact_grad_f and bill("f", oracle.exact_grad_f))


def run(
    oracle: OraclePair,
    cfg: OptimizerConfig,
    token: RandomToken,
    diagnostics_on: bool = False,
    x0: Optional[Array] = None,
) -> Trajectory:
    """Execute T cycles, recording f(y) and ||grad f(y)||^2 per inner step.

    m0 draws under label 0 of ``token`` and cycle t under label t, forked a
    ``plan_blocks`` block of cycles at a time, one pass per level of the token
    tree.  With diagnostics on (and exact gradients available) also records the
    momentum error E^t = ||m^t - (grad f - grad h)(x^{t-1})||^2 and the
    per-step displacement Delta^t_k = ||y^t_k - x^{t-1}||^2.
    """
    if x0 is None:
        x0 = np.ones(oracle.dim)
    calls = Counter()
    stepper = billed(oracle, calls)
    [[m0_token]] = stream_forks([token], [0])
    state = init_state(x0, stepper, cfg, m0_token)
    exact = oracle.has_exact_gradients
    spec = MOMENTUM.get(cfg.algorithm)
    track_e = diagnostics_on and exact and spec is not None and spec.fmh

    metadata = {"algorithm": cfg.algorithm, "eta": cfg.eta, "a": cfg.a, "K": cfg.K, "T": cfg.T}

    def observe(x: Array):
        f_val = oracle.f_value(x) if oracle.f_value is not None else None
        grad = oracle.exact_grad_f(x) if exact else None
        return f_val, float((grad ** 2).sum()) if exact else None, grad

    rows = []

    def diverged(message: str) -> DivergenceError:
        return DivergenceError(message, Trajectory(row_table(rows), metadata))

    # A blow-up is reported once, as a DivergenceError, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        f_val, g_sq, grad = observe(state.x)
        rows.append((0, 0, f_val, g_sq, None, None, calls["f"], calls["h"], calls["fmh"]))
        for block in plan_blocks(cfg.T, cfg.K + 2):  # a cycle token and its K + 1 children
            [cycle_tokens] = stream_forks([token], block)
            for t, tokens in zip(block, stream_forks(cycle_tokens, range(cfg.K + 1))):
                result = cycle(state, stepper, cfg, tokens)
                snapshot = state.x
                new = result.state
                e_t = None
                if track_e:  # grad is grad f(snapshot), observed for its row
                    e_t = float(((new.m - oracle.exact_grad_f_minus_h(snapshot, grad)) ** 2).sum())
                for k, y in enumerate(result.inner_iterates, start=1):
                    if not np.isfinite(y).all():
                        raise diverged(f"non-finite iterate at cycle {t}, step {k}")
                    f_val, g_sq, grad = observe(y)
                    if f_val is not None and not f_val <= DIVERGENCE_LIMIT:
                        raise diverged(f"f = {f_val:g} at cycle {t}, step {k} "
                                       f"(limit {DIVERGENCE_LIMIT:g})")
                    delta = float(((y - snapshot) ** 2).sum()) if diagnostics_on else None
                    rows.append((t, k, f_val, g_sq, e_t, delta,
                                 calls["f"], calls["h"], calls["fmh"]))
                state = new

    metadata["final_x"] = state.x.tolist()
    return Trajectory(row_table(rows), metadata)
