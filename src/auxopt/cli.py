"""Command-line entry point: run / sweep / check / params.

Exit codes: 0 success, 2 config error, 3 divergence.  The environment
variable AUXOPT_SEED, when set, overrides the config seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import harness, theory
from .core import RandomToken
from .decentralized import check_weak_convexity
from .optimizers import DivergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auxopt",
        description="Run helper-assisted stochastic optimization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory for CSVs")

    p_sweep = sub.add_parser("sweep", help="sweep one numeric config field")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, help="dotted config path, e.g. algorithm.eta")
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")
    p_sweep.add_argument("--out", default=None)

    p_check = sub.add_parser(
        "check", help="estimate similarity/bias constants and verify weak convexity"
    )
    p_check.add_argument("--config", required=True)

    p_params = sub.add_parser("params", help="print theorem-prescribed eta, a (and beta)")
    p_params.add_argument("--config", required=True)
    return parser


def _load(path: str) -> harness.ExperimentConfig:
    cfg = harness.load_config_file(path)
    seed_env = os.environ.get("AUXOPT_SEED")
    if seed_env is not None:
        try:
            seed = int(seed_env)
        except ValueError:
            raise harness.ConfigError("seed", f"AUXOPT_SEED is not an integer: {seed_env!r}")
        if seed < 0:
            raise harness.ConfigError("seed", "AUXOPT_SEED must be nonnegative")
        cfg.seed = seed
        cfg.raw["seed"] = seed
    return cfg


def _cmd_run(args) -> int:
    cfg = _load(args.config)
    trajectories = harness.run_experiment(cfg, args.out)
    last = trajectories[-1].rows[-1]
    print(f"completed {cfg.repeats} repeat(s) of {cfg.algorithm.algorithm}: "
          f"T={cfg.algorithm.T}, K={cfg.algorithm.K}")
    for name, label in (("f_value", "f"), ("grad_norm_sq", "||grad f||^2")):
        if not np.isnan(last[name]):
            print(f"final {label} = {last[name]:.6g}")
    print(f"gradient calls: f={last.calls_f:.0f} h={last.calls_h:.0f} f-h={last.calls_fmh:.0f}")
    if args.out:
        print(f"wrote CSVs to {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v != ""]
    except ValueError:
        raise harness.ConfigError(args.axis, f"non-numeric sweep values: {args.values!r}")
    if not values:
        raise harness.ConfigError(args.axis, "empty sweep value list")
    summaries = harness.run_sweep(cfg, args.axis, values, args.out)
    print(f"sweep over {args.axis}:")
    for s in summaries:
        final = "n/a" if s["final_G"] is None else f"{s['final_G']:.6g}"
        iters = "n/a" if s["iters_to_threshold"] is None else f"{s['iters_to_threshold']:g}"
        print(f"  {args.axis}={s['value']:g}: final G={final}, "
              f"cycles to threshold={iters}, calls f/h/f-h="
              f"{s['calls_f']}/{s['calls_h']}/{s['calls_fmh']}")
    if args.out:
        print(f"wrote summary to {args.out}/sweep_summary.csv")
    return EXIT_OK


def _cmd_check(args) -> int:
    cfg = _load(args.config)
    oracle = harness.build_oracle(cfg)
    if not oracle.has_exact_gradients:
        raise harness.ConfigError("problem", "check requires exact gradients")
    token = RandomToken(cfg.seed)
    probes = theory.default_probe_points(oracle.dim, token)
    delta_hat = theory.estimate_delta(
        oracle.exact_grad_f, oracle.exact_grad_h, probes, token=token
    )
    bias = theory.estimate_bias(oracle.exact_grad_f, oracle.exact_grad_h, probes)
    print(f"estimated Hessian-gap delta = {delta_hat:.6g}")
    if oracle.hessian_gap is not None:
        print(f"analytic delta            = {oracle.hessian_gap:.6g}")
    print(f"estimated bias fit: m = {bias.m:.6g}, zeta^2 = {bias.zeta_sq:.6g}")
    if oracle.f_value is not None:
        report = check_weak_convexity(oracle, delta_hat, token=token)
        verdict = "holds" if report else "VIOLATED"
        print(f"weak convexity of f + delta*||x||^2 on random pairs: {verdict}")
        if not report:
            x, y = report.witness
            print(f"  witness x = {np.array2string(x, precision=4)}")
            print(f"  witness y = {np.array2string(y, precision=4)}")
    else:
        print("weak convexity: skipped (no f values available)")
    return EXIT_OK


def _cmd_params(args) -> int:
    cfg = _load(args.config)
    oracle = harness.build_oracle(cfg)
    x0 = harness.initial_point(cfg, oracle)
    print(json.dumps(harness.theorem_params(cfg, oracle, x0), indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep,
                "check": _cmd_check, "params": _cmd_params}
    try:
        return handlers[args.command](args)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
