"""Command-line entry point: run / sweep / check / params.

Every subcommand takes its settings from the ``--config`` file alone (a sweep
also from its axis and values) and prints what the library computes.  Exit
codes: 0 success, 2 config error, 3 divergence.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import harness, theory
from .core import RandomToken, at_path
from .optimizers import DivergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3


@functools.cache
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

    p_check = sub.add_parser("check", help="estimate the Hessian gap delta and the bias fit")
    p_check.add_argument("--config", required=True)

    p_params = sub.add_parser("params", help="print theorem-prescribed eta, a (and beta)")
    p_params.add_argument("--config", required=True)
    return parser


def _cmd_run(args) -> int:
    cfg = harness.load_config_file(args.config)
    trajectories = harness.run_experiment(cfg, args.out)
    last = trajectories[-1].rows[-1]
    print(f"completed {cfg.repeats} repeat(s) of {cfg.algorithm.algorithm}: "
          f"T={cfg.algorithm.T}, K={cfg.algorithm.K}")
    print(f"final f = {last.f_value:.6g}")
    print(f"final ||grad f||^2 = {last.grad_norm_sq:.6g}")
    print(f"gradient calls: f={last.calls_f:.0f} h={last.calls_h:.0f} f-h={last.calls_fmh:.0f}")
    if args.out:
        print(f"wrote CSVs to {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = harness.load_config_file(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v != ""]
    except ValueError:
        raise harness.ConfigError(args.axis, f"non-numeric sweep values: {args.values!r}")
    if not values:
        raise harness.ConfigError(args.axis, "empty sweep value list")
    summaries = harness.run_sweep(cfg, args.axis, values, args.out)
    print(f"sweep over {args.axis}:")
    for s in summaries:
        iters = "n/a" if s["iters_to_threshold"] is None else f"{s['iters_to_threshold']:g}"
        print(f"  {args.axis}={s['value']:g}: final G={s['final_G']:.6g}, "
              f"cycles to threshold={iters}, calls f/h/f-h="
              f"{s['calls_f']}/{s['calls_h']}/{s['calls_fmh']}")
    if args.out:
        print(f"wrote summary to {args.out}/sweep_summary.csv")
    return EXIT_OK


def _cmd_check(args) -> int:
    cfg = harness.load_config_file(args.config)
    oracle = harness.build_oracle(cfg)
    report = at_path(f"problem.{next(iter(cfg.problem))}", theory.check_report, oracle,
                     RandomToken(cfg.seed))
    print(f"estimated Hessian-gap delta = {report['delta']:.6g}")
    if oracle.hessian_gap is not None:
        print(f"analytic delta            = {oracle.hessian_gap:.6g}")
    print(f"estimated bias fit: m = {report['m']:.6g}, zeta^2 = {report['zeta_sq']:.6g}")
    return EXIT_OK


def _cmd_params(args) -> int:
    cfg = harness.load_config_file(args.config)
    oracle = harness.build_oracle(cfg)
    x0 = harness.initial_point(cfg, oracle)
    print(json.dumps(harness.theorem_params(cfg, oracle, x0), indent=2, allow_nan=False))
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
