"""Experiment configuration, run orchestration, sweeps, and CSV persistence."""
from __future__ import annotations

import copy
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

from . import problems, theory
from .core import ConfigError, NoiseSpec, OraclePair, RandomToken, at_path, stream_fork
from .optimizers import (
    CSV_COLUMNS,
    DivergenceError,
    OptimizerConfig,
    Trajectory,
    run,
)

SCHEMA_VERSION = 1

SUMMARY_COLUMNS = ("value", "final_G", "iters_to_threshold", "calls_f", "calls_h", "calls_fmh")

GRAD_THRESHOLD = 1e-6  # sweep summary: cycles until ||grad f||^2 falls below


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(path, message)


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    """A JSON number in the finite float range; booleans are not numbers."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _given(obj: dict, keys) -> dict:
    """The entries of ``obj`` under ``keys``; a key left out keeps the default
    of the parameter it would fill."""
    return {key: obj[key] for key in keys if key in obj}


def _check_keys(obj: dict, allowed: set, required: set, path: str):
    _require(isinstance(obj, dict), path, "expected an object")
    unknown = set(obj) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    missing = required - set(obj)
    if missing:
        key = sorted(missing)[0]
        raise ConfigError(f"{path}.{key}" if path else key, "missing required key")


@dataclass
class ExperimentConfig:
    raw: dict
    problem: dict
    algorithm: OptimizerConfig
    noise: NoiseSpec
    seed: int
    params_mode: str = "manual"
    repeats: int = 1
    output_path: str = "experiment"
    x0: Optional[list[float]] = None
    diagnostics: bool = False


_PROBLEM_TYPES = ("toy", "quadratic_nd", "logistic")

# The optional top-level fields: the rule each must meet when given, and its message.
_OPTIONAL = {
    "params_mode": (lambda v: v in ("manual", "theorem"), "must be 'manual' or 'theorem'"),
    "repeats": (lambda v: _integer(v) and v >= 1, "must be an integer >= 1"),
    "output_path": (lambda v: isinstance(v, str) and "\0" not in v,
                    "must be a string without NUL characters"),
    "x0": (lambda v: v is None or isinstance(v, list) and all(map(_number, v)),
           "must be a list of finite numbers"),
    "diagnostics": (lambda v: isinstance(v, bool), "must be true or false"),
}


def load_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config; unknown keys are rejected."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from None

    _check_keys(raw, {"version", "problem", "algorithm", "noise", "seed", *_OPTIONAL},
                {"problem", "algorithm", "seed"}, "")
    if "version" in raw:
        _require(_integer(raw["version"]) and raw["version"] == SCHEMA_VERSION, "version",
                 f"unsupported schema version {raw['version']}")
    given = _given(raw, _OPTIONAL)
    for key, value in given.items():
        rule, message = _OPTIONAL[key]
        _require(rule(value), key, message)

    problem = raw["problem"]
    _require(isinstance(problem, dict) and len(problem) == 1, "problem",
             f"expected exactly one problem tag out of {_PROBLEM_TYPES}")
    tag = next(iter(problem))
    _require(tag in _PROBLEM_TYPES, f"problem.{tag}", "unknown problem type")
    _validate_problem(tag, problem[tag])
    _require(tag != "logistic" or "noise" not in raw, "noise",
             "logistic gradients are minibatch estimates; a noise block has no effect")

    alg_raw = raw["algorithm"]
    _check_keys(alg_raw, {"name", "eta", "a", "K", "T", "m0_mode", "split_fraction"},
                {"name", "K", "T"}, "algorithm")
    if given.get("params_mode") != "theorem":
        _require("eta" in alg_raw, "algorithm.eta", "required in manual params mode")
    for key in ("K", "T"):
        _require(_integer(alg_raw[key]), f"algorithm.{key}", "must be an integer")
    for key in ("eta", "a", "split_fraction"):
        _require(key not in alg_raw or _number(alg_raw[key]), f"algorithm.{key}",
                 "must be a finite number")
    fields = {"eta": 1.0, **alg_raw}  # the eta placeholder that theorem mode resolves
    algorithm = at_path("algorithm", OptimizerConfig, fields.pop("name"), **fields)

    noise_raw = raw.get("noise", {})
    _check_keys(noise_raw, {"sigma_f", "sigma_h", "rho"}, set(), "noise")
    for key, value in noise_raw.items():
        _require(_number(value), f"noise.{key}", "must be a finite number")
    noise = at_path("noise", NoiseSpec, **noise_raw)

    seed = raw["seed"]
    _require(_integer(seed) and seed >= 0, "seed", "must be a nonnegative integer")
    return ExperimentConfig(raw, problem, algorithm, noise, seed, **given)


# The JSON type of each logistic field, and its message.
_LOGISTIC_TYPES = {
    "path": (lambda v: isinstance(v, str), "must be a string"),
    "batch_size": (lambda v: v is None or _integer(v), "must be null or an integer"),
    "l2_reg": (_number, "must be a finite number"),
    "split": (lambda v: isinstance(v, list) and all(map(_number, v)),
              "must be a list of finite numbers"),
    "helper.fraction": (_number, "must be a finite number"),
    "helper.indices": (lambda v: isinstance(v, list) and all(map(_integer, v)),
                       "must be a list of integers"),
}


def _validate_problem(tag: str, body: Any):
    path = f"problem.{tag}"
    if tag == "toy":
        _check_keys(body, {"delta", "zeta"}, {"delta", "zeta"}, path)
        for key in ("delta", "zeta"):
            _require(_number(body[key]), f"{path}.{key}", "must be a finite number")
    elif tag == "quadratic_nd":
        _check_keys(body, {"a_f", "a_h", "b_h"}, {"a_f", "a_h", "b_h"}, path)
    else:  # the JSON types only; the problems builders hold the range rules
        _check_keys(body, {"path", "split", "helper", "l2_reg", "batch_size"},
                    {"path", "helper"}, path)
        helper = body["helper"]
        _check_keys(helper, {"kind", "fraction", "indices"}, {"kind"}, f"{path}.helper")
        fields = {**body, **{f"helper.{key}": value for key, value in helper.items()}}
        for key, (rule, message) in _LOGISTIC_TYPES.items():
            _require(key not in fields or rule(fields[key]), f"{path}.{key}", message)


def load_config_file(path: str) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError("", f"config file not found: {path}")
    return load_config(p.read_text())


def build_oracle(cfg: ExperimentConfig) -> OraclePair:
    """Instantiate the problem named by the config.

    Reads only ``cfg.problem``, ``cfg.noise`` and ``cfg.seed``.  Logistic
    pairs carry no analytic Hessian gap: every helper kind is built from
    other rows than f (random labels use the unlabeled part), so
    ||H_f - H_h|| is not zero in general.
    """
    tag = next(iter(cfg.problem))
    body = cfg.problem[tag]
    path = f"problem.{tag}"
    if tag == "toy":
        return at_path(path, problems.make_toy_pair, body["delta"], body["zeta"], cfg.noise)
    if tag == "quadratic_nd":
        return at_path(path, problems.make_quadratic_nd, body["a_f"], body["a_h"], body["b_h"],
                       cfg.noise)
    data_path = Path(body["path"])
    if not data_path.is_file():
        raise ConfigError(f"{path}.path", f"dataset file not found: {data_path}")
    features, labels = at_path(f"{path}.path", problems.parse_libsvm, data_path.read_bytes())
    labels = at_path(f"{path}.path", problems.map_labels_to_pm1, labels)
    task = at_path(path, problems.LogisticTask, features, labels, **_given(body, ["l2_reg"]))
    helper = body["helper"]
    f_task, h_task, _ = at_path(path, problems.build_semisupervised, task,
                                body.get("split", (1 / 3, 1 / 3, 1 / 3)), helper["kind"],
                                RandomToken(cfg.seed), **_given(helper, ["fraction", "indices"]))
    return at_path(path, problems.logistic_oracle, f_task, h_task, **_given(body, ["batch_size"]))


def initial_point(cfg: ExperimentConfig, oracle: OraclePair) -> np.ndarray:
    """``cfg.x0`` as a vector of the problem's dimension; all ones when unset."""
    if cfg.x0 is None:
        return np.ones(oracle.dim)
    _require(len(cfg.x0) == oracle.dim, "x0", f"expected {oracle.dim} entries")
    return np.asarray(cfg.x0, dtype=np.float64)


def theorem_params(cfg: ExperimentConfig, oracle: OraclePair, x0: np.ndarray) -> dict:
    """The theorem formulas' inputs and each method's (eta, a): the JSON that
    ``auxopt params`` prints.  An input that breaks a ``TheoryParams`` rule is a
    ConfigError at the config field it comes from."""
    if oracle.lipschitz is None or oracle.hessian_gap is None:
        raise ConfigError("params_mode",
                          "theorem mode requires a problem with analytic constants")
    block = f"problem.{next(iter(cfg.problem))}"
    paths = {"L": block, "delta": f"{block}.delta" if block == "problem.toy" else block,
             "sigma_f": "noise.sigma_f", "sigma_h": "noise.sigma_h", "sigma_fmh": "noise",
             "F0": "x0", "K": "algorithm.K", "T": "algorithm.T"}
    f0 = 0.0 if oracle.f_value is None else oracle.f_value(x0) - (oracle.f_star or 0.0)
    try:
        p = theory.TheoryParams(
            L=oracle.lipschitz, delta=oracle.hessian_gap, sigma_f=cfg.noise.sigma_f,
            sigma_h=cfg.noise.sigma_h, sigma_fmh=math.sqrt(cfg.noise.sigma_fmh_sq),
            F0=max(f0, 0.0), K=cfg.algorithm.K, T=cfg.algorithm.T)
    except ConfigError as exc:
        raise ConfigError(paths[exc.path], exc.message) from None
    eta_mom, a_mom, beta = theory.auxmom_params(p)
    eta_mvr, a_mvr = theory.auxmvr_params(p)
    return {"inputs": asdict(p), "AuxMOM": {"eta": eta_mom, "a": a_mom, "beta": beta},
            "AuxMVR": {"eta": eta_mvr, "a": a_mvr}}


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

def _cell(v) -> str:
    """Empty for None or NaN, ``str`` for a Python int, ``.17g`` otherwise."""
    if v is None or v != v:
        return ""
    if isinstance(v, int):
        return str(v)
    return format(v, ".17g")


def _csv(header: Sequence[str], rows) -> str:
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def trajectory_to_csv(traj: Trajectory) -> str:
    return _csv(CSV_COLUMNS, traj.rows.tolist())


def trajectory_from_csv(text: str) -> Trajectory:
    table = np.genfromtxt(io.StringIO(text), delimiter=",", names=True, ndmin=1)
    if table.dtype.names != CSV_COLUMNS:
        raise ValueError("unexpected CSV header")
    return Trajectory(table.view(np.recarray))


def _aggregate(trajectories: Sequence[Trajectory]) -> str:
    """Per-row mean over repeats, cut to the shortest; NaN (an empty cell)
    wherever any repeat lacks the value.

    The repeats are stacked as (rows x columns x repeats) and reduced along
    the last, C-contiguous axis, which sums each cell in the same order as
    ``np.mean`` of that cell alone, so the bytes match a per-cell mean for
    any repeat count.
    """
    n_rows = min(len(t.rows) for t in trajectories)
    cells = np.stack([t.rows[:n_rows].view(np.float64).reshape(n_rows, -1)
                      for t in trajectories], axis=-1)
    return _csv(CSV_COLUMNS, cells.mean(axis=-1).tolist())


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None,
                   oracle: Optional[OraclePair] = None) -> list[Trajectory]:
    """Run ``repeats`` independent runs with forked seeds and persist CSVs.

    ``oracle`` must be ``build_oracle(cfg)`` or an equal build; it is built
    here when omitted.  On divergence the partial trajectory is persisted
    before the error propagates.
    """
    if oracle is None:
        oracle = build_oracle(cfg)
    x0 = initial_point(cfg, oracle)
    opt_cfg, resolve_meta = cfg.algorithm, {"params_mode": cfg.params_mode}
    if cfg.params_mode == "theorem":  # AuxMVR has its own formulas; the rest use AuxMOM's
        entry = theorem_params(cfg, oracle, x0)[
            "AuxMVR" if cfg.algorithm.algorithm == "AuxMVR" else "AuxMOM"]
        opt_cfg = replace(cfg.algorithm, eta=entry["eta"], a=entry["a"])
        resolve_meta.update(entry)

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    stem = Path(cfg.output_path).name or ExperimentConfig.output_path

    trajectories = []
    root = RandomToken(cfg.seed)
    for r in range(cfg.repeats):
        run_token = stream_fork(root, r)
        try:
            traj = run(oracle, opt_cfg, run_token, diagnostics_on=cfg.diagnostics, x0=x0)
        except DivergenceError as exc:
            if out is not None:
                (out / f"{stem}_rep{r}_partial.csv").write_text(
                    trajectory_to_csv(exc.trajectory))
            raise
        traj.metadata.update(resolve_meta)
        traj.metadata["config"] = copy.deepcopy(cfg.raw)
        traj.metadata["repeat"] = r
        trajectories.append(traj)
        if out is not None:
            (out / f"{stem}_rep{r}.csv").write_text(trajectory_to_csv(traj))
    if out is not None:
        (out / f"{stem}_aggregate.csv").write_text(_aggregate(trajectories))
    return trajectories


def _get_by_path(obj: dict, path: str):
    cur = obj
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            raise ConfigError(path, "sweep axis does not name an existing field")
        cur = cur[part]
    return cur


def _set_by_path(obj: dict, path: str, value):
    parts = path.split(".")
    cur = obj
    for part in parts[:-1]:
        cur = cur[part]
    cur[parts[-1]] = value


def run_sweep(
    base_cfg: ExperimentConfig,
    axis: str,
    values: Sequence[float],
    out_dir: Optional[str] = None,
) -> list[dict]:
    """One run_experiment per axis value; returns summary rows.

    The oracle is built for the first value and rebuilt only when a value
    changes a field ``build_oracle`` reads (``problem``, ``noise`` or
    ``seed``), so a sweep over ``algorithm.*`` or ``repeats`` builds it once.
    Only the current build is kept, and none outlives the call.

    Each summary reports the final per-cycle gradient average, the cycles
    needed to push ||grad f||^2 below ``GRAD_THRESHOLD``, and the gradient-call
    budget so same-work comparisons against baselines stay checkable.
    """
    current = _get_by_path(base_cfg.raw, axis)
    if not isinstance(current, (int, float)) or isinstance(current, bool):
        raise ConfigError(axis, "sweep axis must name a numeric field")

    summaries = []
    oracle, oracle_key = None, None
    for value in values:
        raw = copy.deepcopy(base_cfg.raw)
        cast = int(value) if isinstance(current, int) and float(value).is_integer() else value
        _set_by_path(raw, axis, cast)
        cfg = load_config(json.dumps(raw))
        sub_dir = None
        if out_dir is not None:
            sub_dir = str(Path(out_dir) / f"{axis.replace('.', '_')}_{cast}")
        key = (cfg.problem, cfg.noise, cfg.seed)
        if key != oracle_key:
            oracle = None  # free the previous build before making the next
            oracle, oracle_key = build_oracle(cfg), key
        trajs = run_experiment(cfg, sub_dir, oracle=oracle)
        g_means = [t.cycle_grad_means() for t in trajs]
        final_g = (float(np.mean([g[-1] for g in g_means]))
                   if all(g for g in g_means) else None)
        hits = []
        for traj in trajs:
            ends = traj.cycle_ends()
            below = ends.t[ends.grad_norm_sq < GRAD_THRESHOLD]
            hits.append(below[0] if below.size else np.nan)
        iters = float(np.mean(hits))
        last = trajs[0].rows[-1]
        summaries.append({
            "value": cast,
            "final_G": final_g,
            "iters_to_threshold": None if math.isnan(iters) else iters,
            "calls_f": int(last.calls_f),
            "calls_h": int(last.calls_h),
            "calls_fmh": int(last.calls_fmh),
        })
    if out_dir is not None:
        (Path(out_dir) / "sweep_summary.csv").write_text(_csv(
            SUMMARY_COLUMNS, ([s[h] for h in SUMMARY_COLUMNS] for s in summaries)))
    return summaries
