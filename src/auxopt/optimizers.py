"""Cycle-based optimizers: Naive, AuxMOM, AuxMOM-V0, AuxMVR, and baselines.

Each algorithm proceeds in T cycles; a cycle refreshes a momentum estimate of
grad(f - h) (or of grad f for the baselines) from the current snapshot x and
then takes K inner steps driven by gradients of the helper h.  One pure
function, :func:`cycle`, runs a cycle of every algorithm on plain arrays.
The momentum methods are rows of the MOMENTUM table.  Gradient calls are
billed where they are served, by the :func:`billed` view of the oracle.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import MAX_DRAWS, Array, ConfigError, OraclePair, RandomToken, as_vector, stream_fork

ALGORITHMS = ("Naive", "AuxMOM", "AuxMOM_V0", "AuxMVR", "SGDm", "MVR", "GD", "FineTune")

DIVERGENCE_LIMIT = 1e12
WINDOW_FLOATS = 2**17  # the most iterate floats (rows x d) that run observes in one stack


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
        if 2 * (self.K + 1) * self.T > MAX_DRAWS:
            raise ConfigError("K" if 2 * (self.K + 1) > MAX_DRAWS else "T",
                              f"2 (K + 1) T, the most draws a run can bill, must be at most "
                              f"{MAX_DRAWS}")
        if self.m0_mode not in ("zero", "single_sample", "big_batch"):
            raise ConfigError("m0_mode", f"unknown m0_mode {self.m0_mode!r}")
        if not 0 <= self.split_fraction <= 1:
            raise ConfigError("split_fraction", "must lie in [0, 1]")


CSV_COLUMNS = ("t", "k", "f_value", "grad_norm_sq", "E_t", "Delta_t",
               "calls_f", "calls_h", "calls_fmh")


def row_table(rows=()) -> np.recarray:
    """Rows in ``CSV_COLUMNS`` order as a float64 record array; None becomes NaN."""
    cells = np.ascontiguousarray(rows, dtype=np.float64).reshape(-1, len(CSV_COLUMNS))
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
        keep = self.rows.t > 0
        t, g = self.rows.t[keep], self.rows.grad_norm_sq[keep]
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


def init_momentum(x0: Array, oracle: OraclePair, cfg: OptimizerConfig,
                  token: RandomToken) -> Array:
    """m0 per cfg.m0_mode: zero, or the mean of one (single_sample) or T
    (big_batch) samples of the tracked gradient at x0, drawn at ``token``."""
    spec = MOMENTUM.get(cfg.algorithm)
    if cfg.m0_mode == "zero" or spec is None:
        return np.zeros(oracle.dim)
    grad = spec.target(oracle)
    samples = oracle.draw(token, cfg.T if cfg.m0_mode == "big_batch" else 1)
    return np.mean([grad(x0, s) for s in samples], axis=0)


def cycle(x_prev: Array, x: Array, m: Array, oracle: OraclePair, cfg: OptimizerConfig,
          token: RandomToken, t: int = 0) -> tuple[Array, Array]:
    """One cycle of ``cfg.algorithm`` from the snapshot x, after ``t`` earlier
    cycles (read by FineTune only); returns the new momentum and the cycle's
    iterates as one (n, d) array, whose last row is the next snapshot.

    The cycle draws its K + 1 samples at ``token`` in one block (GD draws
    none).  A MOMENTUM method refreshes m from sample 0 at the snapshot
    (STORM reuses it at x_prev), then takes inner step k = 1..K on sample k
    (svrg reuses it at x).  Naive, GD and FineTune are written out.
    """
    a, eta, ys = cfg.a, cfg.eta, []
    spec = MOMENTUM.get(cfg.algorithm)
    if cfg.algorithm != "GD":
        samples = oracle.draw(token, cfg.K + 1)
    if spec is not None:
        grad = spec.target(oracle)
        g = grad(x, samples[0])
        m = (1.0 - a) * m + a * g
        if spec.storm:
            m = m + (1.0 - a) * (g - grad(x_prev, samples[0]))
        if spec.inner is None:
            ys.append(x - eta * m)
        else:
            y = x.copy()
            for k in range(1, cfg.K + 1):
                d = oracle.grad_h(y, samples[k])
                if spec.inner == "svrg":
                    d = d - oracle.grad_h(x, samples[k])
                y = y - eta * (d + m)
                ys.append(y)
    elif cfg.algorithm == "Naive":
        # One f-gradient step followed by K-1 raw h-gradient steps, no correction.
        m = oracle.grad_f(x, samples[0])
        y = x - eta * m
        ys.append(y)
        for k in range(1, cfg.K):
            y = y - eta * oracle.grad_h(y, samples[k])
            ys.append(y)
    elif cfg.algorithm == "GD":
        ys.append(x - eta * oracle.exact_grad_f(x))
    else:  # FineTune
        # First split_fraction * (T*K) global steps run SGDm on h, the rest on f.
        # The momentum buffer is reset when the phase flips.
        switch = cfg.split_fraction * cfg.T * cfg.K
        y = x.copy()
        for k in range(1, cfg.K + 1):
            step = t * cfg.K + k
            on_h = step <= switch
            if not on_h and step - 1 <= switch:
                m = np.zeros_like(m)  # phase switch
            g = oracle.grad_h(y, samples[k]) if on_h else oracle.grad_f(y, samples[k])
            m = (1.0 - a) * m + a * g
            y = y - eta * m
            ys.append(y)
    return m, np.array(ys)


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
                   exact_grad_f=bill("f", oracle.exact_grad_f))


def run(
    oracle: OraclePair,
    cfg: OptimizerConfig,
    token: RandomToken,
    diagnostics_on: bool = False,
    x0: Optional[Array] = None,
) -> Trajectory:
    """Execute T cycles, recording f(y) and ||grad f(y)||^2 per inner step.

    A run forks once and draws from ``stream_fork(token, 0)``, never from
    ``token``, so no draw of a run repeats one taken under its parent's other
    children (a data split).  m0 draws at draw index 0 of that stream and
    cycle t = 1..T at draw index t.  With diagnostics on it also records the
    momentum error E^t = ||m^t - (grad f - grad h)(x^{t-1})||^2 and the per-step
    displacement Delta^t_k = ||y^t_k - x^{t-1}||^2.

    Rows are booked a window of cycles at a time: each cycle's finite iterates
    are copied into a row buffer allocated once per run, after the snapshot of
    the window's first cycle, and observed as one stack once they hold
    ``WINDOW_FLOATS`` floats (rows x d), at a non-finite iterate and after the
    last cycle.  x0's row is that snapshot, and counts, in the first window.
    """
    if x0 is None:
        x0 = np.ones(oracle.dim)
    calls = Counter()
    stepper = billed(oracle, calls)
    stream = stream_fork(token, 0)
    x_prev = x = as_vector(x0, oracle.dim)
    spec = MOMENTUM.get(cfg.algorithm)
    track_e = diagnostics_on and spec is not None and spec.fmh

    metadata = {"algorithm": cfg.algorithm, "eta": cfg.eta, "a": cfg.a, "K": cfg.K, "T": cfg.T}
    blocks = []

    def observe(ys: Array) -> tuple[Array, Array]:
        """f and grad f at the stack ys; grad f is C-ordered, so each row sums as alone."""
        return oracle.f_value(ys), oracle.exact_grad_f(ys)

    def diverged(message: str) -> DivergenceError:
        return DivergenceError(message, Trajectory(row_table(np.concatenate(blocks)), metadata))

    def book(ys: Array, ms: Array, bills: Array, t0: int) -> None:
        """The window ys as rows in CSV_COLUMNS order, up to the first whose f is NaN
        or past the limit.  Row r >= 1 is of cycle t0 + c, c = (r - 1) // n, with
        momentum ms[c] and bill bills[c + 1]; row 0 is booked in the first window."""
        f, grads = observe(ys)
        c = (np.arange(len(ys)) - 1) // n
        snap = np.maximum(c, 0) * n  # the row of each row's snapshot, row 0 its own
        block = np.full((len(ys), len(CSV_COLUMNS)), np.nan)
        block[:, 0], block[:, 1], block[:, 2] = t0 + c, np.arange(len(ys)) - snap, f
        block[:, 3] = (grads ** 2).sum(axis=1)
        block[:, 6:] = bills[c + 1]
        if track_e:  # a snapshot's grad f is the one observed for its row
            starts = np.arange(len(ms)) * n
            e = ((ms - oracle.exact_grad_f_minus_h(ys[starts], grads[starts])) ** 2).sum(axis=1)
            block[1:, 4] = e[c[1:]]
        if diagnostics_on:  # bit for bit the per-row sums
            block[1:, 5] = ((ys[1:] - ys[snap[1:]]) ** 2).sum(axis=1)
        low = block[:, 2] <= DIVERGENCE_LIMIT
        low[0] = True  # x0's row, or one booked before
        n_low = len(ys) if low.all() else int(low.argmin())
        blocks.append(block[int(t0 > 1):n_low])
        if n_low < len(ys):
            t, k, f = int(block[n_low, 0]), int(block[n_low, 1]), block[n_low, 2]
            raise diverged(f"f = {f:g} at cycle {t}, step {k} (limit {DIVERGENCE_LIMIT:g})")

    # A blow-up is reported once, as a DivergenceError, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        m = init_momentum(x, stepper, cfg, stream)
        bill, t0 = (calls["f"], calls["h"], calls["fmh"]), 1
        for t in range(1, cfg.T + 1):
            m, ys = cycle(x_prev, x, m, stepper, cfg, stream.skip(t), t - 1)
            if t == 1:  # every cycle yields n iterates; a window holds at most `cycles`
                n, d = len(ys), oracle.dim
                cycles = min(cfg.T, -(-WINDOW_FLOATS // (n * d)))
                buf, ms, bills = map(np.empty, [(1 + cycles * n, d), (cycles, d), (1 + cycles, 3)])
                buf[0], bills[0] = x, bill
            finite = np.isfinite(ys).all(axis=1)
            n_ok = len(ys) if finite.all() else int(finite.argmin())
            j = t - t0  # the cycle's place in the window
            end = 1 + j * n + n_ok
            buf[end - n_ok:end], ms[j] = ys[:n_ok], m
            bills[j + 1] = calls["f"], calls["h"], calls["fmh"]
            if n_ok < len(ys) or t == cfg.T or (end - (t0 > 1)) * d >= WINDOW_FLOATS:
                book(buf[:end], ms[:j + 1], bills[:j + 2], t0)
                buf[0], t0 = ys[-1], t + 1
            if n_ok < len(ys):
                raise diverged(f"non-finite iterate at cycle {t}, step {n_ok + 1}")
            x_prev, x = x, ys[-1]

    metadata["final_x"] = x.tolist()
    return Trajectory(row_table(np.concatenate(blocks)), metadata)
