"""Counters and spans laid over the auxopt modules from outside the package.

A :class:`Probe` counts the oracle draws a workload makes and records, per
optimisation run, the draws and the final iterate.  With ``timed`` on it also
wraps the traced functions of every auxopt module in spans and keeps, per
span name, the number of calls, the total time and the self time (total minus
the time of nested spans).  Nothing here is imported by ``auxopt`` itself;
the wrappers replace names in the modules after they are imported.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# Functions timed in a traced run, by module, besides harness.build_oracle
# and optimizers.run, which are always wrapped to count draws.  A name bound
# into several modules with ``from .x import name`` is replaced in each.
TRACED = {
    "core": ("stream_fork", "rng_from_token", "draw_gaussian_noise"),
    "problems": ("parse_libsvm",),
    "harness": ("load_config", "run_experiment", "run_sweep", "trajectory_to_csv"),
    "decentralized": ("decentralized_cycle", "run_decentralized"),
    "cli": ("main",),
}
MODULES = ("core", "problems", "optimizers", "harness", "decentralized", "theory", "cli")

# Callers of ``OraclePair.exact_grad_f`` / ``f_value`` that are observation
# or diagnostics rather than an optimisation step (GD's exact gradient).
OBSERVER = "observe"
DIAGNOSTIC = "exact_grad_f_minus_h"


class Probe:
    def __init__(self, timed: bool):
        self.timed = timed
        self.counts: Counter = Counter()
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.runs: list[dict] = []  # one record per optimizers.run call
        self._stack: list[list[float]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn):
        """``fn`` timed under ``name``; ``fn`` itself when timing is off."""
        if not self.timed:
            return fn
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def snapshot(self) -> dict:
        return {"counts": dict(self.counts),
                "stats": {k: list(v) for k, v in self.stats.items()}}

    # -- oracle boundary ---------------------------------------------------

    def _count(self, key: str, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _exact_f(self, fn):
        """Split exact-gradient calls into observation, diagnostics and GD steps."""
        counts = self.counts
        observed = self.span("optimizers.observe", fn)
        step = self.span("problems.draw", fn)

        def exact_grad_f(x):
            caller = sys._getframe(1).f_code.co_name
            if caller == OBSERVER:
                return observed(x)
            if caller == DIAGNOSTIC:
                return fn(x)
            counts["exact_f_steps"] += 1
            return step(x)

        return exact_grad_f

    def _f_value(self, fn):
        observed = self.span("optimizers.observe", fn)

        def f_value(x):
            if sys._getframe(1).f_code.co_name == OBSERVER:
                return observed(x)
            return fn(x)

        return f_value

    def wrap_pair(self, pair):
        """Copy of an OraclePair whose callables count (and time) their calls."""
        draw = functools.partial(self.span, "problems.draw")
        return dataclasses.replace(
            pair,
            grad_f=draw(self._count("draws_f", pair.grad_f)),
            grad_h=draw(self._count("draws_h", pair.grad_h)),
            grad_f_minus_h=draw(self._count("draws_fmh", pair.grad_f_minus_h)),
            exact_grad_f=pair.exact_grad_f and self._exact_f(pair.exact_grad_f),
            f_value=pair.f_value and self._f_value(pair.f_value),
        )

    # -- installation --------------------------------------------------------

    def install(self, auxopt) -> None:
        """Replace names in every auxopt module; spans only when timed."""
        mods = [auxopt] + [importlib.import_module(f"auxopt.{m}") for m in MODULES]
        originals = []

        def replace(original, wrapper):
            originals.append(original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

        core, problems, optimizers, harness = mods[1:5]
        build = harness.build_oracle
        replace(build, self.span("harness.build_oracle",
                                 lambda cfg: self.wrap_pair(build(cfg))))
        run = optimizers.run
        replace(run, self.span("optimizers.run", self._recorded(run)))
        if self.timed:
            for mod_name, names in TRACED.items():
                mod = mods[1 + MODULES.index(mod_name)]
                for name in names:
                    fn = getattr(mod, name)
                    replace(fn, self.span(f"{mod_name}.{name}", fn))
            task = problems.LogisticTask
            task.grad_minibatch = self.span("problems.grad_minibatch",
                                            task.grad_minibatch)
            pair = core.OraclePair
            pair.exact_grad_f_minus_h = self.span("optimizers.diagnostics",
                                                  pair.exact_grad_f_minus_h)
        for mod in mods:
            for attr, value in vars(mod).items():
                if any(value is o for o in originals):
                    raise RuntimeError(f"{mod.__name__}.{attr} escaped the probe")

    def _recorded(self, run):
        counts, runs = self.counts, self.runs

        @functools.wraps(run)
        def recorded(*args, **kwargs):
            before = Counter(counts)
            traj = run(*args, **kwargs)
            drawn = Counter(counts)
            drawn.subtract(before)
            runs.append({
                "draws": {k: drawn[k] for k in ("draws_f", "draws_h", "draws_fmh",
                                                "exact_f_steps")},
                "final_x": traj.metadata["final_x"],
            })
            counts["rows"] += len(traj.rows)
            return traj

        return recorded
