"""Experiment configuration, run orchestration, sweeps, and CSV persistence."""
from __future__ import annotations

import copy
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import problems, theory
from .core import (
    MAX_REPEATS,
    ConfigError,
    NoiseSpec,
    OraclePair,
    RandomToken,
    at_path,
    stream_fork,
)
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


def _numbers(v) -> bool:
    return isinstance(v, list) and all(map(_number, v))


def _given(obj: dict, keys) -> dict:
    """The entries of ``obj`` under ``keys``; a key left out keeps the default
    of the parameter it would fill."""
    return {key: obj[key] for key in keys if key in obj}


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


# The config format: the keys of each block, by the block's path.  A key's
# entry says whether it is required, then gives its JSON rule and the message
# when that fails ("{!r}" takes the value, so the message stays one line).  A
# key without a rule is a sub-block, walked in turn, or a value that the
# constructor or ``problems`` builder reading it checks; those hold the range
# rules.  The problem blocks are the problem tags.
_FINITE, _UNCHECKED = (_number, "must be a finite number"), (None, "")
_SCHEMA = {
    "": {
        "version": (False, lambda v: _integer(v) and v == SCHEMA_VERSION,
                    "unsupported schema version {!r}"),
        "params_mode": (False, lambda v: v in ("manual", "theorem"),
                        "must be 'manual' or 'theorem'"),
        "repeats": (False, lambda v: _integer(v) and 1 <= v <= MAX_REPEATS,
                    f"must be an integer in [1, {MAX_REPEATS}]"),
        "output_path": (False, lambda v: isinstance(v, str) and "\0" not in v and "/" not in v
                        and v not in ("", ".", ".."),
                        "must be a file-name stem: no '/' or NUL, and not '', '.' or '..'"),
        "x0": (False, lambda v: v is None or _numbers(v), "must be a list of finite numbers"),
        "diagnostics": (False, lambda v: isinstance(v, bool), "must be true or false"),
        "problem": (True, *_UNCHECKED),  # load_config checks its one tag
        "algorithm": (True, *_UNCHECKED), "noise": (False, *_UNCHECKED),
        "seed": (True, lambda v: _integer(v) and v >= 0, "must be a nonnegative integer")},
    "problem.toy": dict.fromkeys(("delta", "zeta"), (True, *_FINITE)),
    "problem.quadratic_nd": {
        **dict.fromkeys(("a_f", "a_h"), (True, lambda v: isinstance(v, list) and all(
            map(_numbers, v)), "must be a list of rows of finite numbers")),
        "b_h": (True, _numbers, "must be a list of finite numbers")},
    "problem.logistic": {
        "path": (True, lambda v: isinstance(v, str), "must be a string"),
        "batch_size": (False, lambda v: v is None or _integer(v), "must be null or an integer"),
        "l2_reg": (False, *_FINITE),
        "split": (False, _numbers, "must be a list of finite numbers"),
        "helper": (True, *_UNCHECKED)},
    "problem.logistic.helper": {
        "kind": (True, *_UNCHECKED), "fraction": (False, *_FINITE),
        "indices": (False, lambda v: isinstance(v, list) and all(map(_integer, v)),
                    "must be a list of integers")},
    "algorithm": {"name": (True, *_UNCHECKED), "K": (True, _integer, "must be an integer"),
                  "T": (True, _integer, "must be an integer"), "eta": (False, *_FINITE),
                  "a": (False, *_FINITE), "m0_mode": (False, *_UNCHECKED),
                  "split_fraction": (False, *_FINITE)},
    "noise": dict.fromkeys(("sigma_f", "sigma_h", "rho"), (False, *_FINITE)),
}
_PROBLEM_TYPES = tuple(p.partition(".")[2] for p in _SCHEMA
                       if p.startswith("problem.") and p.count(".") == 1)


def _walk(obj, path: str):
    """Check ``obj`` against the block at ``path``: an object holding only the
    block's keys and all its required ones, each value meeting its JSON rule;
    a key's sub-block is walked in turn.  The first error found is raised."""
    _require(isinstance(obj, dict), path, "expected an object")
    keys, prefix = _SCHEMA[path], f"{path}." if path else ""
    unknown = set(obj) - set(keys)
    _require(not unknown, prefix + min(unknown, default=""), "unknown key")
    missing = {key for key, (required, *_) in keys.items() if required and key not in obj}
    _require(not missing, prefix + min(missing, default=""), "missing required key")
    for key, (_, rule, message) in keys.items():
        if key in obj and prefix + key in _SCHEMA:
            _walk(obj[key], prefix + key)
        elif key in obj and rule is not None and not rule(obj[key]):
            raise ConfigError(prefix + key, message.format(obj[key]))


def load_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config; unknown keys are rejected."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from None
    _walk(raw, "")

    problem = raw["problem"]
    _require(isinstance(problem, dict) and len(problem) == 1, "problem",
             f"expected exactly one problem tag out of {_PROBLEM_TYPES}")
    tag = next(iter(problem))
    _require(tag in _PROBLEM_TYPES, f"problem.{tag}", "unknown problem type")
    _walk(problem[tag], f"problem.{tag}")
    _require(tag != "logistic" or "noise" not in raw, "noise",
             "logistic gradients are minibatch estimates; a noise block has no effect")
    if raw.get("params_mode") != "theorem":
        _require("eta" in raw["algorithm"], "algorithm.eta", "required in manual params mode")
    # a stream key holds 128 bits, so a seed bit above them would have no effect
    _require(raw["seed"] < 2**128, "seed", "must be below 2**128")

    fields = {"eta": 1.0, **raw["algorithm"]}  # the eta placeholder that theorem mode resolves
    algorithm = at_path("algorithm", OptimizerConfig, fields.pop("name"), **fields)
    noise = at_path("noise", NoiseSpec, **raw.get("noise", {}))
    given = raw.keys() - {"version", "algorithm", "noise"}  # the fields taken as they are
    return ExperimentConfig(raw, algorithm=algorithm, noise=noise, **{k: raw[k] for k in given})


def load_config_file(path: str) -> ExperimentConfig:
    return load_config(at_path("", Path(path).read_text, encoding="utf-8"))


def build_oracle(cfg: ExperimentConfig) -> OraclePair:
    """Instantiate the problem named by the config.

    Reads only ``cfg.problem``, ``cfg.noise`` and ``cfg.seed``.  Logistic
    pairs carry no analytic Hessian gap: a random-label helper averages over
    the unlabeled part and a coreset or subset_batch helper over a subset of
    f's own train rows, so ||H_f - H_h|| is not zero in general.
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
    features, labels = at_path(f"{path}.path",
                               lambda: problems.parse_libsvm(data_path.read_bytes()))
    labels = at_path(f"{path}.path", problems.map_labels_to_pm1, labels)
    task = at_path(path, problems.LogisticTask, features, labels, **_given(body, ["l2_reg"]))
    helper = body["helper"]
    f_task, h_task = at_path(path, problems.build_semisupervised, task,
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
    with np.errstate(over="ignore"):  # an f(x0) that overflows is F0's error below
        f0 = oracle.f_value(x0)
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


def _float_csv(cells: np.ndarray) -> str:
    """``_csv(CSV_COLUMNS, rows)`` for a float64 table given as its cells in
    row order, with one format over all of them: ``"%.17g" % v`` is
    ``format(v, ".17g")``, and "nan", which no other float prints as,
    becomes the empty cell."""
    row = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"
    body = (row * (cells.size // len(CSV_COLUMNS))) % tuple(cells.ravel().tolist())
    return ",".join(CSV_COLUMNS) + "\n" + body.replace("nan", "")


def _write(path: Path, text: str):
    """Write one output file; an OS error is a ConfigError at ``--out``, the
    option that names the output directory."""
    at_path("--out", path.write_text, text)


def trajectory_to_csv(traj: Trajectory) -> str:
    return _float_csv(traj.rows.view(np.float64))


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
    return _float_csv(cells.mean(axis=-1))


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None,
                   oracle: Optional[OraclePair] = None) -> list[Trajectory]:
    """Run ``repeats`` independent runs with forked seeds and persist CSVs.

    ``oracle`` must be ``build_oracle(cfg)`` or an equal build; it is built
    here when omitted.  On divergence the partial trajectory is persisted
    before the error propagates.  A directory or file under ``out_dir`` that
    cannot be written is a ConfigError at ``--out``.
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
        at_path("--out", out.mkdir, parents=True, exist_ok=True)
    trajectories = []
    root = RandomToken(cfg.seed)
    for r in range(cfg.repeats):
        run_token = stream_fork(root, r)
        try:
            traj = run(oracle, opt_cfg, run_token, diagnostics_on=cfg.diagnostics, x0=x0)
        except DivergenceError as exc:
            if out is not None:
                _write(out / f"{cfg.output_path}_rep{r}_partial.csv",
                       trajectory_to_csv(exc.trajectory))
            raise
        traj.metadata.update(resolve_meta)
        trajectories.append(traj)
        if out is not None:
            _write(out / f"{cfg.output_path}_rep{r}.csv", trajectory_to_csv(traj))
    if out is not None:
        _write(out / f"{cfg.output_path}_aggregate.csv", _aggregate(trajectories))
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
        final_g = float(np.mean([t.cycle_grad_means()[-1] for t in trajs]))
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
        _write(Path(out_dir) / "sweep_summary.csv", _csv(
            SUMMARY_COLUMNS, ([s[h] for h in SUMMARY_COLUMNS] for s in summaries)))
    return summaries
