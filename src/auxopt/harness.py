"""Experiment configuration, run orchestration, sweeps, and CSV persistence."""
from __future__ import annotations

import copy
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

from . import problems, theory
from .core import NoiseSpec, OraclePair, RandomToken, as_vector, stream_fork
from .optimizers import (
    ALGORITHMS,
    CSV_COLUMNS,
    DivergenceError,
    OptimizerConfig,
    Trajectory,
    run,
)

SCHEMA_VERSION = 1

SUMMARY_COLUMNS = ("value", "final_G", "iters_to_threshold", "calls_f", "calls_h", "calls_fmh")

GRAD_THRESHOLD = 1e-6  # sweep summary: cycles until ||grad f||^2 falls below


class ConfigError(ValueError):
    """Schema violation; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(path, message)


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    """A JSON number in the finite float range; booleans are not numbers."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _at(path: str, fn, *args):
    """``fn(*args)``, with a bad-input error reported as a ConfigError at ``path``."""
    try:
        return fn(*args)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(path, str(exc)) from None


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


def load_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config; unknown keys are rejected."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from None

    _check_keys(raw, {"version", "problem", "algorithm", "noise", "seed", "params_mode",
                      "repeats", "output_path", "x0", "diagnostics"},
                {"problem", "algorithm", "seed"}, "")
    if "version" in raw:
        _require(_integer(raw["version"]) and raw["version"] == SCHEMA_VERSION, "version",
                 f"unsupported schema version {raw['version']}")

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
    params_mode = raw.get("params_mode", "manual")
    _require(params_mode in ("manual", "theorem"), "params_mode",
             "must be 'manual' or 'theorem'")
    if params_mode == "manual":
        _require("eta" in alg_raw, "algorithm.eta", "required in manual params mode")
    _require(alg_raw["name"] in ALGORITHMS, "algorithm.name",
             f"must be one of {ALGORITHMS}")
    _require(_integer(alg_raw["K"]) and alg_raw["K"] >= 1,
             "algorithm.K", "must be an integer >= 1")
    _require(_integer(alg_raw["T"]) and alg_raw["T"] >= 1,
             "algorithm.T", "must be an integer >= 1")
    eta = alg_raw.get("eta", 1.0)  # placeholder when theorem mode resolves it
    _require(_number(eta) and eta > 0, "algorithm.eta", "must be a finite positive number")
    a = alg_raw.get("a", 1.0)
    _require(_number(a) and 0 < a <= 1, "algorithm.a",
             "must lie in (0, 1]")
    m0_mode = alg_raw.get("m0_mode", "single_sample")
    _require(m0_mode in ("zero", "single_sample", "big_batch"), "algorithm.m0_mode",
             f"unknown m0_mode {m0_mode!r}")
    split_fraction = alg_raw.get("split_fraction", 0.5)
    _require(_number(split_fraction) and 0 <= split_fraction <= 1, "algorithm.split_fraction",
             "must lie in [0, 1]")
    try:
        algorithm = OptimizerConfig(
            algorithm=alg_raw["name"],
            eta=eta,
            a=a,
            K=alg_raw["K"],
            T=alg_raw["T"],
            m0_mode=m0_mode,
            split_fraction=split_fraction,
        )
    except ValueError as exc:
        raise ConfigError("algorithm", str(exc)) from None

    noise_raw = raw.get("noise", {})
    _check_keys(noise_raw, {"sigma_f", "sigma_h", "rho"}, set(), "noise")
    for key, value in noise_raw.items():
        _require(_number(value), f"noise.{key}", "must be a finite number")
        _require(key == "rho" or value >= 0, f"noise.{key}", "must be nonnegative")
    _require(-1 <= noise_raw.get("rho", 0.0) <= 1, "noise.rho", "must lie in [-1, 1]")
    try:
        noise = NoiseSpec(
            sigma_f=noise_raw.get("sigma_f", 0.0),
            sigma_h=noise_raw.get("sigma_h", 0.0),
            rho=noise_raw.get("rho", 0.0),
        )
    except ValueError as exc:
        raise ConfigError("noise", str(exc)) from None

    seed = raw["seed"]
    _require(_integer(seed) and seed >= 0, "seed", "must be a nonnegative integer")
    repeats = raw.get("repeats", 1)
    _require(_integer(repeats) and repeats >= 1, "repeats", "must be an integer >= 1")
    x0 = raw.get("x0")
    _require(x0 is None or isinstance(x0, list) and all(map(_number, x0)), "x0",
             "must be a list of finite numbers")
    _require(isinstance(raw.get("diagnostics", False), bool), "diagnostics",
             "must be true or false")
    output_path = raw.get("output_path", "experiment")
    _require(isinstance(output_path, str) and "\0" not in output_path, "output_path",
             "must be a string without NUL characters")

    return ExperimentConfig(
        raw=raw,
        problem=problem,
        algorithm=algorithm,
        noise=noise,
        seed=seed,
        params_mode=params_mode,
        repeats=repeats,
        output_path=output_path,
        x0=x0,
        diagnostics=raw.get("diagnostics", False),
    )


def _validate_problem(tag: str, body: Any):
    path = f"problem.{tag}"
    if tag == "toy":
        _check_keys(body, {"delta", "zeta"}, {"delta", "zeta"}, path)
        _require(_number(body["delta"]) and body["delta"] >= 0, f"{path}.delta",
                 "must be a finite nonnegative number")
        _require(_number(body["zeta"]), f"{path}.zeta", "must be a finite number")
    elif tag == "quadratic_nd":
        _check_keys(body, {"a_f", "a_h", "b_h"}, {"a_f", "a_h", "b_h"}, path)
    else:
        _check_keys(body, {"path", "split", "helper", "l2_reg", "batch_size"},
                    {"path", "helper"}, path)
        _require(isinstance(body["path"], str), f"{path}.path", "must be a string")
        batch = body.get("batch_size")
        _require(batch is None or _integer(batch) and batch >= 1, f"{path}.batch_size",
                 "must be null or an integer >= 1")
        l2_reg = body.get("l2_reg", 0.0)
        _require(_number(l2_reg) and l2_reg >= 0, f"{path}.l2_reg",
                 "must be a finite nonnegative number")
        split = body.get("split", [1 / 3, 1 / 3, 1 / 3])
        _require(isinstance(split, list) and len(split) == 3
                 and all(_number(f) and f > 0 for f in split)
                 and math.isclose(sum(split), 1.0, rel_tol=1e-9), f"{path}.split",
                 "must be three positive numbers that sum to 1")
        helper = body["helper"]
        _check_keys(helper, {"kind", "fraction", "indices"}, {"kind"}, f"{path}.helper")
        kind = helper["kind"]
        _require(kind in ("random_labels", "coreset", "subset_batch"),
                 f"{path}.helper.kind", "unknown helper kind")
        if "fraction" in helper:
            _require(kind == "coreset", f"{path}.helper.fraction", "only a coreset helper has one")
            fraction = helper["fraction"]
            _require(_number(fraction) and 0 < fraction <= 1, f"{path}.helper.fraction",
                     "must lie in (0, 1]")
        if kind == "subset_batch" or "indices" in helper:
            _require(kind == "subset_batch", f"{path}.helper.indices",
                     "only a subset_batch helper has them")
            indices = helper.get("indices")
            _require(isinstance(indices, list) and indices
                     and all(_integer(i) and i >= 0 for i in indices),
                     f"{path}.helper.indices", "must be a nonempty list of train-part row numbers")


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
    if tag == "toy":
        return problems.make_toy_pair(body["delta"], body["zeta"], cfg.noise)
    path = f"problem.{tag}"
    if tag == "quadratic_nd":
        a_f = _at(f"{path}.a_f", problems.check_symmetric_psd, body["a_f"], "a_f")
        a_h = _at(f"{path}.a_h", problems.check_symmetric_psd, body["a_h"], "a_h")
        _require(a_h.shape == a_f.shape, f"{path}.a_h", "must have the shape of a_f")
        b_h = _at(f"{path}.b_h", as_vector, body["b_h"], a_f.shape[0])
        return problems.make_quadratic_nd(a_f, a_h, b_h, cfg.noise)
    data_path = Path(body["path"])
    if not data_path.is_file():
        raise ConfigError(f"{path}.path", f"dataset file not found: {data_path}")
    features, labels = _at(f"{path}.path", problems.parse_libsvm, data_path.read_bytes())
    labels = _at(f"{path}.path", problems.map_labels_to_pm1, labels)
    task = _at(path, problems.LogisticTask, features.toarray(), labels, body.get("l2_reg", 0.0))
    helper = body["helper"]
    indices = helper.get("indices")
    split = body.get("split", (1 / 3, 1 / 3, 1 / 3))
    if indices is not None:
        n_train = problems.split_sizes(task.n_samples, split)[0]
        _require(max(indices) < n_train, f"{path}.helper.indices",
                 f"must be below the train-part size {n_train}")
    f_task, h_task, _ = _at(path, problems.build_semisupervised, task, split, helper["kind"],
                            RandomToken(cfg.seed), helper.get("fraction", 1.0), indices)
    return problems.logistic_oracle(f_task, h_task, batch_size=body.get("batch_size"))


def initial_point(cfg: ExperimentConfig, oracle: OraclePair) -> np.ndarray:
    """``cfg.x0`` as a vector of the problem's dimension; all ones when unset."""
    if cfg.x0 is None:
        return np.ones(oracle.dim)
    _require(len(cfg.x0) == oracle.dim, "x0", f"expected {oracle.dim} entries")
    return np.asarray(cfg.x0, dtype=np.float64)


def theory_params_for(cfg: ExperimentConfig, oracle: OraclePair,
                      x0: np.ndarray) -> theory.TheoryParams:
    if oracle.lipschitz is None or oracle.hessian_gap is None:
        raise ConfigError("params_mode",
                          "theorem mode requires a problem with analytic constants")
    f0 = 0.0
    if oracle.f_value is not None:
        f0 = oracle.f_value(x0) - (oracle.f_star or 0.0)
    return theory.TheoryParams(
        L=oracle.lipschitz,
        delta=oracle.hessian_gap,
        sigma_f=cfg.noise.sigma_f,
        sigma_h=cfg.noise.sigma_h,
        sigma_fmh=math.sqrt(cfg.noise.sigma_fmh_sq),
        F0=max(f0, 0.0),
        K=cfg.algorithm.K,
        T=cfg.algorithm.T,
    )


def resolve_params(cfg: ExperimentConfig, oracle: OraclePair,
                   x0: np.ndarray) -> tuple[OptimizerConfig, dict]:
    """Apply theorem-derived (eta, a) when requested; returns (config, metadata)."""
    meta: dict = {"params_mode": cfg.params_mode}
    if cfg.params_mode != "theorem":
        return cfg.algorithm, meta
    p = theory_params_for(cfg, oracle, x0)
    if cfg.algorithm.algorithm == "AuxMVR":
        eta, a = theory.auxmvr_params(p)
    else:
        eta, a, beta = theory.auxmom_params(p)
        meta["beta"] = beta
    return replace(cfg.algorithm, eta=eta, a=a), meta


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
    opt_cfg, resolve_meta = resolve_params(cfg, oracle, x0)

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    stem = Path(cfg.output_path).name or "experiment"

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
