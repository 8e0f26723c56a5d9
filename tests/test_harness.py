import contextlib
import io
import json
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auxopt import cli, harness
from auxopt.core import RandomToken, rng_from_token
from auxopt.harness import (
    CSV_COLUMNS,
    ConfigError,
    _aggregate,
    build_oracle,
    load_config,
    run_experiment,
    run_sweep,
    trajectory_from_csv,
    trajectory_to_csv,
)
from auxopt.optimizers import DivergenceError, Trajectory, row_table
from auxopt.problems import make_synthetic_classification, write_libsvm
from auxopt.theory import TheoryParams, auxmom_params


def toy_config(**overrides):
    base = {
        "version": 1,
        "problem": {"toy": {"delta": 1.0, "zeta": 10.0}},
        "algorithm": {"name": "AuxMOM", "eta": 0.05, "a": 0.1, "K": 10, "T": 100},
        "seed": 7,
    }
    base.update(overrides)
    return base


def logistic_config(tmp_path):
    features, labels = make_synthetic_classification(90, 8, RandomToken(3), n_groups=4)
    data = tmp_path / "data.libsvm"
    data.write_text(write_libsvm(features, labels))
    return {
        "version": 1,
        "problem": {"logistic": {"path": str(data), "helper": {"kind": "random_labels"},
                                 "batch_size": 16}},
        "algorithm": {"name": "AuxMOM", "eta": 0.5, "a": 0.1, "K": 2, "T": 4},
        "seed": 5,
        "repeats": 2,
        "x0": [0.0] * 8,
        "diagnostics": True,
    }


class TestLoadConfig:
    def test_minimal_valid(self):
        cfg = load_config(json.dumps(toy_config()))
        assert cfg.algorithm.algorithm == "AuxMOM"
        assert cfg.seed == 7
        assert cfg.repeats == 1

    def test_k_zero_names_field(self):
        raw = toy_config()
        raw["algorithm"]["K"] = 0
        with pytest.raises(ConfigError) as err:
            load_config(json.dumps(raw))
        assert err.value.path == "algorithm.K"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            load_config(json.dumps(toy_config(bogus=1)))
        assert err.value.path == "bogus"

    def test_unknown_nested_key(self):
        raw = toy_config()
        raw["problem"]["toy"]["extra"] = 1
        with pytest.raises(ConfigError) as err:
            load_config(json.dumps(raw))
        assert err.value.path == "problem.toy.extra"

    def test_manual_mode_requires_eta(self):
        raw = toy_config()
        del raw["algorithm"]["eta"]
        with pytest.raises(ConfigError) as err:
            load_config(json.dumps(raw))
        assert err.value.path == "algorithm.eta"

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            load_config("{not json")

    def test_bad_noise(self):
        with pytest.raises(ConfigError) as err:
            load_config(json.dumps(toy_config(noise={"rho": 2.0})))
        assert err.value.path == "noise.rho"

    def test_unsupported_version(self):
        with pytest.raises(ConfigError) as err:
            load_config(json.dumps(toy_config(version=99)))
        assert err.value.path == "version"

    def test_theorem_mode_metadata_matches_formula(self, tmp_path):
        raw = toy_config(params_mode="theorem", x0=[1.0])
        del raw["algorithm"]["eta"]
        del raw["algorithm"]["a"]
        cfg = load_config(json.dumps(raw))
        traj = run_experiment(cfg)[0]
        p = TheoryParams(L=2.0, delta=1.0, F0=0.5, K=10, T=100)
        eta, a, _ = auxmom_params(p)
        assert traj.metadata["eta"] == pytest.approx(eta, abs=1e-15)
        assert traj.metadata["a"] == pytest.approx(a, abs=1e-15)


class TestCsv:
    def _trajectory(self):
        cfg = load_config(json.dumps(toy_config(
            noise={"sigma_f": 1.0, "sigma_h": 1.0, "rho": 0.5}, diagnostics=True)))
        return run_experiment(cfg)[0]

    def test_round_trip_exact(self):
        traj = self._trajectory()
        text = trajectory_to_csv(traj)
        back = trajectory_from_csv(text)
        assert trajectory_to_csv(back) == text
        for a, b in zip(traj.rows, back.rows):
            assert (a.t, a.k) == (b.t, b.k)
            assert a.f_value == b.f_value
            assert a.grad_norm_sq == b.grad_norm_sq
            assert (a.calls_f, a.calls_h, a.calls_fmh) == (b.calls_f, b.calls_h, b.calls_fmh)

    def test_round_trip_hand_written_bytes(self):
        text = ("t,k,f_value,grad_norm_sq,E_t,Delta_t,calls_f,calls_h,calls_fmh\n"
                "0,0,inf,-0,,,0,0,1\n"
                "1,1,-inf,4.9406564584124654e-324,0.10000000000000001,,1,10,2\n"
                "1,2,-0,0.10000000000000001,,2.5,1,20,2\n"
                "2,1,,,-2.5,4.9406564584124654e-324,123456789,30,3\n")
        assert trajectory_to_csv(trajectory_from_csv(text)) == text

    def test_aggregate_is_mean_of_repeats(self, tmp_path):
        cfg = load_config(json.dumps(toy_config(
            repeats=3, noise={"sigma_f": 1.0, "sigma_h": 1.0})))
        trajs = run_experiment(cfg, str(tmp_path))
        agg = trajectory_from_csv((tmp_path / "experiment_aggregate.csv").read_text())
        for i, row in enumerate(agg.rows):
            want = np.mean([t.rows[i].f_value for t in trajs])
            assert abs(row.f_value - want) < 1e-12

    @pytest.mark.parametrize("repeats", [1, 2, 3, 8, 10, 17])
    def test_aggregate_bytes_match_per_cell_mean(self, repeats):
        def reference(trajectories):
            lines = [",".join(CSV_COLUMNS)]
            for i in range(min(len(t.rows) for t in trajectories)):
                rows = [t.rows[i] for t in trajectories]
                cells = [str(int(rows[0].t)), str(int(rows[0].k))]
                for attr in CSV_COLUMNS[2:]:
                    vals = [getattr(r, attr) for r in rows]
                    cells.append("" if any(np.isnan(v) for v in vals)
                                 else format(float(np.mean(vals)), ".17g"))
                lines.append(",".join(cells))
            return "\n".join(lines) + "\n"

        rng = rng_from_token(RandomToken(repeats))
        trajectories = []
        for r in range(repeats):
            rows = []
            for i in range(40 + r):  # ragged: the aggregate stops at the shortest
                scale = 10.0 ** rng.integers(-8, 8, 4)
                f, g, e, d = (float(v) for v in rng.standard_normal(4) * scale)
                rows.append((
                    i // 4, i % 4, f, abs(g), None if i == 0 else e,
                    None if i % 7 == 3 and r == repeats - 1 else d,
                    int(rng.integers(0, 10**6)), i, 3 * i))
            trajectories.append(Trajectory(row_table(rows)))
        assert _aggregate(trajectories) == reference(trajectories)

    def test_run_experiment_deterministic_bytes(self, tmp_path):
        cfg = load_config(json.dumps(toy_config(
            repeats=2, noise={"sigma_f": 1.0, "sigma_h": 1.0, "rho": 0.3})))
        run_experiment(cfg, str(tmp_path / "a"))
        run_experiment(cfg, str(tmp_path / "b"))
        for name in ("experiment_rep0.csv", "experiment_rep1.csv",
                     "experiment_aggregate.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_divergence_persists_partial(self, tmp_path):
        raw = toy_config()
        raw["algorithm"] = {"name": "GD", "eta": 50.0, "K": 1, "T": 100}
        cfg = load_config(json.dumps(raw))
        with pytest.raises(DivergenceError):
            run_experiment(cfg, str(tmp_path))
        partial = tmp_path / "experiment_rep0_partial.csv"
        assert partial.exists()
        assert len(trajectory_from_csv(partial.read_text()).rows) > 0


class TestRunExperimentBehavior:
    def test_bias_robust_convergence_all_zetas(self):
        # delta=1, eta=min(0.5, 1/(delta K)): converges regardless of zeta
        for zeta in (0.1, 1.0, 10.0, 100.0):
            raw = toy_config()
            raw["problem"]["toy"]["zeta"] = zeta
            raw["algorithm"] = {"name": "AuxMOM", "eta": 0.1, "a": 1.0, "K": 10, "T": 200}
            traj = run_experiment(load_config(json.dumps(raw)))[0]
            assert traj.final_grad_norm_sq() < 1e-6, zeta

    def test_naive_floor_grows_with_zeta(self):
        finals = {}
        for zeta in (1.0, 10.0):
            raw = toy_config()
            raw["problem"]["toy"] = {"delta": 0.0, "zeta": zeta}
            raw["algorithm"] = {"name": "Naive", "eta": 0.5, "K": 10, "T": 200}
            traj = run_experiment(load_config(json.dumps(raw)))[0]
            finals[zeta] = traj.final_grad_norm_sq()
        assert 80.0 <= finals[10.0] / finals[1.0] <= 120.0


class TestRunSweep:
    def test_k_benefit(self, tmp_path):
        raw = toy_config()
        raw["problem"]["toy"] = {"delta": 0.1, "zeta": 1.0}
        raw["algorithm"] = {"name": "AuxMOM", "eta": 0.5 / 1.1, "a": 1.0, "K": 1, "T": 60}
        cfg = load_config(json.dumps(raw))
        summaries = run_sweep(cfg, "algorithm.K", [1, 2, 5, 10], str(tmp_path))
        iters = [s["iters_to_threshold"] for s in summaries]
        assert all(i is not None for i in iters)
        assert iters == sorted(iters, reverse=True)
        assert (tmp_path / "sweep_summary.csv").exists()

    def test_zeta_axis_naive_floor_increasing(self):
        raw = toy_config()
        raw["problem"]["toy"] = {"delta": 0.0, "zeta": 1.0}
        raw["algorithm"] = {"name": "Naive", "eta": 0.5, "K": 10, "T": 100}
        cfg = load_config(json.dumps(raw))
        summaries = run_sweep(cfg, "problem.toy.zeta", [1.0, 3.0, 10.0])
        finals = [s["final_G"] for s in summaries]
        assert finals == sorted(finals)

    def test_delta_slows_convergence(self):
        # larger similarity gap -> more cycles to a fixed threshold, with the
        # step size tied to delta as eta = 0.5/(1+delta)
        iters = []
        for delta in (0.1, 1.0, 10.0):
            raw = toy_config()
            raw["problem"]["toy"] = {"delta": delta, "zeta": 1.0}
            raw["algorithm"] = {"name": "AuxMOM", "eta": 0.5 / (1 + delta), "a": 1.0,
                                "K": 10, "T": 400}
            traj = run_experiment(load_config(json.dumps(raw)))[0]
            hit = next(r.t for r in traj.cycle_ends() if r.grad_norm_sq < 1e-6)
            iters.append(hit)
        assert iters == sorted(iters)
        assert iters[0] < iters[-1]

    def test_reports_budget_counters(self):
        cfg = load_config(json.dumps(toy_config()))
        summaries = run_sweep(cfg, "algorithm.T", [5, 10])
        assert summaries[0]["calls_f"] == 0
        assert summaries[0]["calls_fmh"] == 6  # T cycles + one init sample
        assert summaries[1]["calls_fmh"] == 11

    def test_k_axis_builds_oracle_once(self, tmp_path, monkeypatch):
        builds = []
        real = harness.build_oracle
        monkeypatch.setattr(harness, "build_oracle",
                            lambda cfg: builds.append(cfg.algorithm.K) or real(cfg))
        cfg = load_config(json.dumps(logistic_config(tmp_path)))
        run_sweep(cfg, "algorithm.K", [1, 3, 5], str(tmp_path / "sweep"))
        assert builds == [1]
        builds.clear()
        run_sweep(cfg, "seed", [1, 2])
        assert len(builds) == 2

    @pytest.mark.parametrize("axis, values", [
        ("problem.toy.zeta", [1.0, 3.0, 10.0]),
        ("seed", [7, 8, 9]),
        ("noise.sigma_f", [0.5, 1.0, 2.0]),
        ("algorithm.K", [1, 4, 10]),
    ])
    def test_per_value_csvs_match_standalone_runs(self, tmp_path, axis, values):
        raw = toy_config(noise={"sigma_f": 1.0, "sigma_h": 1.0, "rho": 0.5},
                         repeats=2, diagnostics=True)
        raw["algorithm"]["T"] = 20
        self._check_against_standalone(tmp_path, raw, axis, values)

    @pytest.mark.parametrize("axis, values", [("algorithm.K", [1, 3]), ("seed", [5, 6])])
    def test_logistic_per_value_csvs_match_standalone_runs(self, tmp_path, axis, values):
        self._check_against_standalone(tmp_path, logistic_config(tmp_path), axis, values)

    @staticmethod
    def _check_against_standalone(tmp_path, raw, axis, values):
        run_sweep(load_config(json.dumps(raw)), axis, values, str(tmp_path / "sweep"))
        for value in values:
            one = json.loads(json.dumps(raw))
            harness._set_by_path(one, axis, value)
            alone = tmp_path / f"alone_{value}"
            run_experiment(load_config(json.dumps(one)), str(alone))
            swept = tmp_path / "sweep" / f"{axis.replace('.', '_')}_{value}"
            names = sorted(p.name for p in alone.iterdir())
            assert names == sorted(p.name for p in swept.iterdir())
            for name in names:
                assert (swept / name).read_bytes() == (alone / name).read_bytes(), (value, name)

    def test_invalid_axis(self):
        cfg = load_config(json.dumps(toy_config()))
        with pytest.raises(ConfigError):
            run_sweep(cfg, "algorithm.name", [1.0])
        with pytest.raises(ConfigError):
            run_sweep(cfg, "no.such.field", [1.0])


class TestCli:
    def _write(self, tmp_path, raw):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        return str(p)

    def test_run_ok(self, tmp_path, capsys):
        path = self._write(tmp_path, toy_config())
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "experiment_rep0.csv").exists()

    def test_config_error_exit_2(self, tmp_path, capsys):
        raw = toy_config()
        raw["algorithm"]["K"] = 0
        path = self._write(tmp_path, raw)
        assert cli.main(["run", "--config", path]) == 2
        assert "algorithm.K" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert cli.main(["run", "--config", "/nonexistent.json"]) == 2

    def test_divergence_exit_3(self, tmp_path, capsys):
        raw = toy_config()
        raw["algorithm"] = {"name": "GD", "eta": 50.0, "K": 1, "T": 100}
        path = self._write(tmp_path, raw)
        assert cli.main(["run", "--config", path]) == 3

    def test_seed_env_override(self, tmp_path, monkeypatch):
        raw = toy_config(noise={"sigma_f": 1.0, "sigma_h": 1.0})
        path = self._write(tmp_path, raw)
        cli.main(["run", "--config", path, "--out", str(tmp_path / "a")])
        monkeypatch.setenv("AUXOPT_SEED", "12345")
        cli.main(["run", "--config", path, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "experiment_rep0.csv").read_bytes()
        b = (tmp_path / "b" / "experiment_rep0.csv").read_bytes()
        assert a != b
        monkeypatch.setenv("AUXOPT_SEED", "7")  # back to the config value
        cli.main(["run", "--config", path, "--out", str(tmp_path / "c")])
        assert (tmp_path / "c" / "experiment_rep0.csv").read_bytes() == a

    def test_bad_seed_env_exit_2(self, tmp_path, monkeypatch, capsys):
        path = self._write(tmp_path, toy_config())
        monkeypatch.setenv("AUXOPT_SEED", "not-a-number")
        assert cli.main(["run", "--config", path]) == 2

    def test_params_subcommand(self, tmp_path, capsys):
        raw = toy_config(x0=[1.0])
        path = self._write(tmp_path, raw)
        assert cli.main(["params", "--config", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"inputs", "AuxMOM", "AuxMVR"}
        assert out["AuxMOM"]["eta"] > 0

    def test_check_subcommand(self, tmp_path, capsys):
        path = self._write(tmp_path, toy_config())
        assert cli.main(["check", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "delta" in out and "weak convexity" in out and "holds" in out

    def test_sweep_subcommand(self, tmp_path, capsys):
        path = self._write(tmp_path, toy_config())
        code = cli.main(["sweep", "--config", path, "--axis", "algorithm.K",
                         "--values", "1,2", "--out", str(tmp_path / "sw")])
        assert code == 0
        assert (tmp_path / "sw" / "sweep_summary.csv").exists()

    def test_random_label_helper_has_no_analytic_gap(self, tmp_path, capsys):
        raw = logistic_config(tmp_path)
        assert build_oracle(load_config(json.dumps(raw))).hessian_gap is None
        path = self._write(tmp_path, raw)
        assert cli.main(["check", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "estimated Hessian-gap delta" in out and "analytic delta" not in out
        assert cli.main(["params", "--config", path]) == 2
        assert "params_mode" in capsys.readouterr().err
        raw["params_mode"] = "theorem"
        del raw["algorithm"]["eta"]
        assert cli.main(["run", "--config", self._write(tmp_path, raw)]) == 2
        assert "params_mode" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["AuxMOM", "AuxMVR", "SGDm"])
    def test_run_and_params_agree_in_theorem_mode(self, tmp_path, capsys, name):
        raw = toy_config(params_mode="theorem", noise={"sigma_f": 1.0, "sigma_h": 0.5})
        raw["algorithm"].update(name=name, K=4, T=20)
        assert cli.main(["params", "--config", self._write(tmp_path, raw)]) == 0
        printed = json.loads(capsys.readouterr().out)
        mom, mvr = ((e["eta"], e["a"]) for e in (printed["AuxMOM"], printed["AuxMVR"]))
        assert mom != mvr
        meta = run_experiment(load_config(json.dumps(raw)))[0].metadata
        assert (meta["eta"], meta["a"]) == (mvr if name == "AuxMVR" else mom)

    def test_sweep_bad_values_exit_2(self, tmp_path):
        path = self._write(tmp_path, toy_config())
        assert cli.main(["sweep", "--config", path, "--axis", "algorithm.K",
                         "--values", "1,banana"]) == 2

    def test_wide_sparse_file_runs_in_little_memory(self, tmp_path, capsys):
        # 2,000 x 50,000 with 16 nonzeros per row: the dense matrix alone
        # would take 800 MB
        features, labels = make_synthetic_classification(2000, 50_000, RandomToken(9))
        data = tmp_path / "wide.libsvm"
        data.write_text(write_libsvm(features, labels))
        path = self._write(tmp_path, {
            "problem": {"logistic": {"path": str(data), "helper": {"kind": "random_labels"},
                                     "batch_size": 32}},
            "algorithm": {"name": "AuxMOM", "eta": 0.5, "a": 0.1, "K": 3, "T": 4},
            "seed": 2,
            "diagnostics": True,
        })
        tracemalloc.start()
        try:
            code = cli.main(["run", "--config", path, "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 100e6, peak
        assert features.nnz == 2000 * 16
        rows = trajectory_from_csv((tmp_path / "out" / "experiment_rep0.csv").read_text()).rows
        assert len(rows) == 1 + 4 * 3 and np.isfinite(rows.f_value[-1])


def _set_field(raw: dict, path: str, value):
    *parents, last = path.split(".")
    for part in parents:
        raw = raw[part]
    raw[last] = value


def _set_fields(raw: dict, field, value):
    """``_set_field`` for one path, or for each of a tuple of paths and values."""
    for path, v in zip(field, value) if isinstance(field, tuple) else [(field, value)]:
        _set_field(raw, path, v)


def _main_quietly(args):
    """cli.main with stdout dropped; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, err.getvalue()


def logistic_block(kind="random_labels", **fields) -> dict:
    """A logistic problem block with one helper kind and extra fields; its data
    file does not exist unless ``path`` names one, so by default only
    load-time checks can reject it."""
    helper = {"kind": kind}
    for key in ("fraction", "indices"):
        if key in fields:
            helper[key] = fields.pop(key)
    return {"logistic": {"path": "missing.libsvm", "helper": helper, **fields}}


NON_SYMMETRIC = {"quadratic_nd": {"a_f": [[1.0, 0.5], [0.0, 1.0]],
                                  "a_h": [[1.0, 0.0], [0.0, 1.0]], "b_h": [0.0, 1.0]}}

FUZZ_FIELDS = ("version", "problem", "problem.toy", "problem.toy.delta", "problem.toy.zeta",
               "algorithm", "algorithm.name", "algorithm.eta", "algorithm.a", "algorithm.K",
               "algorithm.T", "algorithm.m0_mode", "algorithm.split_fraction", "noise",
               "noise.sigma_f", "noise.sigma_h", "noise.rho", "seed", "params_mode",
               "repeats", "output_path", "x0", "diagnostics")


# Theorem-mode configs whose constants overflow when squared.
THEOREM_OVERFLOWS = [
    (("params_mode", "noise"), ("theorem", {"sigma_f": 1e300}), "noise.sigma_f"),
    (("params_mode", "noise"), ("theorem", {"sigma_f": 1.0, "sigma_h": 1e300}), "noise.sigma_h"),
    (("params_mode", "problem.toy.delta", "algorithm.name"), ("theorem", 1e300, "AuxMVR"),
     "problem.toy.delta"),
]

# Theorem-mode configs whose formula inputs break another TheoryParams rule.
THEOREM_RULES = [
    (("params_mode", "problem"), ("theorem", {"quadratic_nd": {  # delta = 4 > 2L = 2
        "a_f": [[1.0, 0.0], [0.0, 1.0]], "a_h": [[5.0, 0.0], [0.0, 5.0]], "b_h": [0.0, 0.0]}}),
     "problem.quadratic_nd"),
    (("params_mode", "problem"), ("theorem", {"quadratic_nd": {  # L = 0
        "a_f": [[0.0, 0.0], [0.0, 0.0]], "a_h": [[1.0, 0.0], [0.0, 1.0]], "b_h": [0.0, 0.0]}}),
     "problem.quadratic_nd"),
    (("params_mode", "algorithm.K"), ("theorem", 10**320), "algorithm.K"),
    (("params_mode", "algorithm.T"), ("theorem", 10**320), "algorithm.T"),
]


class TestInputErrors:
    @pytest.mark.parametrize("field,value,where", [
        ("algorithm.K", True, "algorithm.K"),
        ("algorithm.T", True, "algorithm.T"),
        ("seed", True, "seed"),
        ("repeats", True, "repeats"),
        ("diagnostics", "no", "diagnostics"),
        ("algorithm.eta", 1e400, "algorithm.eta"),
        ("problem.toy.delta", "big", "problem.toy.delta"),
        ("problem.toy.zeta", "big", "problem.toy.zeta"),
        ("noise", {"sigma_f": "big"}, "noise.sigma_f"),
        ("problem", NON_SYMMETRIC, "problem.quadratic_nd.a_f"),
        ("x0", [1.0, 2.0], "x0"),
        ("x0", ["one"], "x0"),
        ("output_path", "a\0b", "output_path"),
        ("problem", logistic_block(l2_reg="x"), "problem.logistic.l2_reg"),
        ("problem", logistic_block(l2_reg=-1.0), "problem.logistic.l2_reg"),
        ("problem", logistic_block(split="x"), "problem.logistic.split"),
        ("problem", logistic_block(split=[0.5, 0.5]), "problem.logistic.split"),
        ("problem", logistic_block(split=[0.5, 0.6, -0.1]), "problem.logistic.split"),
        ("problem", logistic_block(kind="coreset", fraction="x"),
         "problem.logistic.helper.fraction"),
        ("problem", logistic_block(kind="coreset", fraction=0),
         "problem.logistic.helper.fraction"),
        ("problem", logistic_block(fraction=0.5), "problem.logistic.helper.fraction"),
        ("problem", logistic_block(kind="subset_batch"), "problem.logistic.helper.indices"),
        ("problem", logistic_block(kind="subset_batch", indices="x"),
         "problem.logistic.helper.indices"),
        ("problem", logistic_block(kind="subset_batch", indices=[0, -1]),
         "problem.logistic.helper.indices"),
        ("problem", logistic_block(kind="subset_batch", indices=[1.5]),
         "problem.logistic.helper.indices"),
        ("problem", logistic_block(indices=[0]), "problem.logistic.helper.indices"),
        ("problem", logistic_block(kind="subset_batch", indices=[0, 1000000],
                                   path="data.libsvm"), "problem.logistic.helper.indices"),
        ("noise", {"sigma_f": -1}, "noise.sigma_f"),
        ("noise", {"rho": 2}, "noise.rho"),
        ("algorithm.m0_mode", "bogus", "algorithm.m0_mode"),
        ("algorithm.split_fraction", 2, "algorithm.split_fraction"),
        *THEOREM_OVERFLOWS,
        ("algorithm.name", "Nope", "algorithm.name"),
        ("algorithm.eta", 0, "algorithm.eta"),
        ("algorithm.a", 1.5, "algorithm.a"),
        ("algorithm.T", 0, "algorithm.T"),
        ("noise", {"sigma_h": -1}, "noise.sigma_h"),
        *THEOREM_RULES,
    ])
    def test_exit_2_names_field(self, tmp_path, monkeypatch, field, value, where):
        logistic_config(tmp_path)  # writes data.libsvm, a real 90-row file
        monkeypatch.chdir(tmp_path)
        raw = toy_config()
        _set_fields(raw, field, value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, err = _main_quietly(["run", "--config", str(path)])
        assert code == 2
        assert err.startswith(f"config error: {where}: ")

    @pytest.mark.parametrize("field,value,where", [
        *THEOREM_OVERFLOWS,
        (("params_mode", "problem.toy.delta"), ("theorem", 1e300), "problem.toy.delta"),
        *THEOREM_RULES,
    ])
    def test_params_exit_2_names_overflowing_field(self, tmp_path, field, value, where):
        raw = toy_config()
        _set_fields(raw, field, value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, err = _main_quietly(["params", "--config", str(path)])
        assert code == 2
        assert err.startswith(f"config error: {where}: ")

    def test_noise_on_logistic_exit_2(self, tmp_path):
        raw = logistic_config(tmp_path)
        raw["noise"] = {"sigma_f": 5.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, err = _main_quietly(["run", "--config", str(path)])
        assert code == 2
        assert err.startswith("config error: noise: ")

    def test_huge_toy_bias_exits_3_with_partial_csv(self, tmp_path):
        raw = toy_config(problem={"toy": {"delta": 1.0, "zeta": 1e300}})
        raw["algorithm"]["name"] = "Naive"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, err = _main_quietly(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert "Traceback" not in err
        assert (tmp_path / "experiment_rep0_partial.csv").exists()

    def test_huge_eta_prints_only_divergence(self, tmp_path):
        raw = toy_config()
        raw["algorithm"]["eta"] = 1e300
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, err = _main_quietly(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert err.startswith("divergence: ") and err.count("\n") == 1

    def test_nan_f_exits_3_with_partial_csv(self, tmp_path, monkeypatch):
        def nan_f(cfg):
            return replace(build_oracle(cfg), f_value=lambda x: float("nan"))

        monkeypatch.setattr(harness, "build_oracle", nan_f)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(toy_config()))
        code, err = _main_quietly(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert err.startswith("divergence: f = nan at cycle 1, step 1")
        partial = trajectory_from_csv((tmp_path / "experiment_rep0_partial.csv").read_text())
        assert len(partial.rows) == 1 and np.isnan(partial.rows[0].f_value)

    def test_malformed_libsvm_exit_2(self, tmp_path):
        raw = logistic_config(tmp_path)
        (tmp_path / "data.libsvm").write_text("1 1:1 3:1\n2 3:1 2:1\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, err = _main_quietly(["run", "--config", str(path)])
        assert code == 2
        assert err.startswith("config error: problem.logistic.path: line 2")

    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(FUZZ_FIELDS),
           value=st.one_of(st.text(max_size=4), st.booleans(), st.none(),
                           st.lists(st.floats(), max_size=2), st.just(1e400),
                           st.just(1e300), st.just(-1e300)),
           mode=st.sampled_from(("manual", "theorem")))
    @example(field="problem.toy.zeta", value=1e300, mode="manual")
    @example(field="noise.sigma_f", value=1e300, mode="theorem")
    @example(field="problem.toy.delta", value=1e300, mode="theorem")
    def test_fuzzed_field_exits_cleanly(self, field, value, mode):
        raw = toy_config(noise={"sigma_f": 1.0, "sigma_h": 0.5, "rho": 0.2},
                         params_mode=mode, repeats=1, output_path="fuzz", x0=[1.0],
                         diagnostics=True)
        raw["algorithm"].update(K=2, T=2, m0_mode="single_sample", split_fraction=0.5)
        _set_field(raw, field, value)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(raw))
            code, err = _main_quietly(["run", "--config", str(path), "--out", tmp])
        assert code in (0, 2, 3)
        assert "Traceback" not in err
