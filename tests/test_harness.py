import contextlib
import copy
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

from auxopt import cli, harness, problems
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

    def test_quadratic_build_checks_each_matrix_once(self, monkeypatch):
        checked, check = [], problems.check_symmetric_psd
        monkeypatch.setattr(problems, "check_symmetric_psd",
                            lambda a, name: checked.append(name) or check(a, name))
        build_oracle(load_config(json.dumps(toy_config(problem=QUADRATIC))))
        assert checked == ["a_f", "a_h"]

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

    def test_row_format_matches_cell_rule(self):
        # trajectory and aggregate CSVs format a row at a time; the bytes are
        # those of the per-cell rule, _cell, on edge cases and on floats of
        # every exponent, subnormals and random bit patterns (NaNs) included
        rng = rng_from_token(RandomToken(41))
        special = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 2**53 + 1,
                   2.0**53 + 2, 0.1, 1e16, 1.7976931348623157e308, 2.2250738585072014e-308]
        n = 9 * 4_000
        spread = np.ldexp(rng.random(n) + 0.5, rng.integers(-1075, 1024, n))
        spread *= rng.choice([-1.0, 1.0], n)
        bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
        for cells in (special * 9, spread, bits):
            cells = np.array(cells, dtype=np.float64).reshape(-1, 9)
            repeats = [Trajectory(row_table(cells)), Trajectory(row_table(cells[::-1]))]
            assert trajectory_to_csv(repeats[0]) == harness._csv(CSV_COLUMNS, cells.tolist())
            with np.errstate(all="ignore"):  # inf - inf and overflowing sums
                means = [[float(np.mean(pair)) for pair in zip(*rows)]
                         for rows in zip(cells.tolist(), cells[::-1].tolist())]
                assert _aggregate(repeats) == harness._csv(CSV_COLUMNS, means)

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

    @pytest.mark.parametrize("kind", ("random_labels", "coreset"))
    def test_runs_never_draw_from_a_data_stream(self, tmp_path, monkeypatch, kind):
        # the data split forks children 0..2 of the seed token, and repeat r
        # runs under child r; no repeat may draw where the split drew
        drawn = []
        real = problems.borrow_generator

        def borrow(token):
            drawn.append(token)
            return real(token)

        monkeypatch.setattr(problems, "borrow_generator", borrow)
        raw = logistic_config(tmp_path)
        raw["problem"]["logistic"]["helper"]["kind"] = kind
        raw["repeats"] = 3
        cfg = load_config(json.dumps(raw))
        oracle = build_oracle(cfg)
        data, drawn[:] = list(drawn), []
        run_experiment(cfg, oracle=oracle)
        assert len(data) == 2 and drawn
        assert not {t.stream_id for t in data} & {t.stream_id for t in drawn}


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

    def test_overflowing_data_value_exit_2(self, tmp_path, capsys):
        # 1e400 parses as inf, which the task rejects before any step
        raw = logistic_config(tmp_path)
        raw["x0"] = [0.0] * 2
        (tmp_path / "data.libsvm").write_text("1 1:1e400\n2 2:1\n" * 3)
        assert cli.main(["run", "--config", self._write(tmp_path, raw),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "config error: problem.logistic: features must be finite\n"

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
        assert "delta" in out

    def test_check_non_finite_estimates_exit_2(self, tmp_path, capsys):
        # the gradients are finite at the probes, but their squares overflow
        raw = toy_config(problem={"quadratic_nd": {
            "a_f": [[1e200, 0.0], [0.0, 1e200]], "a_h": [[0.0, 0.0], [0.0, 0.0]],
            "b_h": [0.0, 0.0]}})
        assert cli.main(["check", "--config", self._write(tmp_path, raw)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: problem.quadratic_nd: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "algorithm.K",
                                                   "--values", "1,2"]])
    def test_out_under_a_file_exit_2(self, tmp_path, capsys, command):
        (tmp_path / "file").write_text("")
        path = self._write(tmp_path, toy_config())
        code = cli.main([*command, "--config", path, "--out", str(tmp_path / "file" / "sub")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: --out: ") and err.count("\n") == 1

    @pytest.mark.parametrize("blocked,command,algorithm", [
        ("experiment_rep0.csv", "run", {}),
        ("experiment_aggregate.csv", "run", {}),
        ("experiment_rep0_partial.csv", "run", {"name": "GD", "eta": 50.0, "K": 1}),
        ("sweep_summary.csv", "sweep", {}),
    ])
    def test_unwritable_csv_exit_2(self, tmp_path, capsys, blocked, command, algorithm):
        # a directory where a CSV goes makes its write fail
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        raw = toy_config()
        raw["algorithm"].update(algorithm)
        args = [command, "--config", self._write(tmp_path, raw), "--out", str(out)]
        if command == "sweep":
            args += ["--axis", "algorithm.K", "--values", "1,2"]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --out: ") and err.count("\n") == 1

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

    def test_negative_sweep_values_go_after_an_equals_sign(self, tmp_path, capsys):
        # README's contract: after a space, argparse reads "-0.5,0.5" as an option
        args = ["sweep", "--config", self._write(tmp_path, toy_config(noise={"rho": 0.0})),
                "--axis", "noise.rho"]
        assert cli.main([*args, "--values=-0.5,0.5"]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--values", "-0.5,0.5"])
        assert exc.value.code == 2
        assert "argument --values: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["1e30", "1,1e30", "1e400"])
    def test_sweep_huge_k_exits_2_at_k(self, tmp_path, values):
        path = self._write(tmp_path, toy_config())
        code, err = _main_quietly(["sweep", "--config", path, "--axis", "algorithm.K",
                                   "--values", values])
        assert code == 2
        assert err.startswith("config error: algorithm.K: ") and err.count("\n") == 1

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
    """A logistic problem block with one helper kind and extra fields.  Its
    data file is ``data.libsvm`` in the working directory, the 90-row file
    ``logistic_config`` writes, so a block with well-typed fields reaches the
    ``problems`` builders and the range rules they state."""
    helper = {"kind": kind}
    for key in ("fraction", "indices"):
        if key in fields:
            helper[key] = fields.pop(key)
    return {"logistic": {"path": "data.libsvm", "helper": helper, **fields}}


QUADRATIC = {"quadratic_nd": {"a_f": [[2.0, 0.0], [0.0, 1.0]],
                              "a_h": [[1.0, 0.0], [0.0, 1.0]], "b_h": [0.0, 1.0]}}
NON_SYMMETRIC = {"quadratic_nd": {"a_f": [[1.0, 0.5], [0.0, 1.0]],
                                  "a_h": [[1.0, 0.0], [0.0, 1.0]], "b_h": [0.0, 1.0]}}
WRONG_SHAPE_A_H = {"quadratic_nd": {**QUADRATIC["quadratic_nd"], "a_h": [[1.0]]}}
WRONG_LENGTH_B_H = {"quadratic_nd": {**QUADRATIC["quadratic_nd"], "b_h": [0.0]}}

# The messages of load_config's errors at the config's root, which name no path.
ROOT_ERRORS = ("invalid JSON: ", "expected an object\n")
# The top-level config keys: the head of every field path an error names.
CONFIG_KEYS = ("version", "problem", "algorithm", "noise", "seed", "params_mode", "repeats",
               "output_path", "x0", "diagnostics")
FUZZ_FIELDS = ("version", "problem", "problem.toy", "problem.toy.delta", "problem.toy.zeta",
               "algorithm", "algorithm.name", "algorithm.eta", "algorithm.a", "algorithm.K",
               "algorithm.T", "algorithm.m0_mode", "algorithm.split_fraction", "noise",
               "noise.sigma_f", "noise.sigma_h", "noise.rho", "seed", "params_mode",
               "repeats", "output_path", "x0", "diagnostics")


# Numeric sweep axes, by problem; a count past its cap exits 2 at the axis.
SWEEP_AXES = {"toy": ("problem.toy.delta", "problem.toy.zeta", "noise.sigma_f", "noise.rho"),
              "logistic": ("problem.logistic.batch_size", "problem.logistic.l2_reg")}
COMMON_AXES = ("algorithm.eta", "algorithm.a", "algorithm.K", "algorithm.T",
               "algorithm.split_fraction", "seed", "repeats")
CAPPED_AXES = ("algorithm.K", "algorithm.T", "repeats", "problem.logistic.batch_size")
# A PSD quadratic pair whose A_f - A_h overflows.
OVERFLOWING_GAP = {"quadratic_nd": {"a_f": [[1e308, -1e308], [-1e308, 1e308]],
                                    "a_h": [[1e308, 1e308], [1e308, 1e308]], "b_h": [0.0, 0.0]}}
# A quadratic pair whose gradients overflow at the check's probe points.
OVERFLOWING_QUADRATIC = {"quadratic_nd": {"a_f": [[1e308, 0.0], [0.0, 1e308]],
                                          "a_h": [[0.0, 0.0], [0.0, 0.0]], "b_h": [0.0, 0.0]}}


def sweep_values():
    """Sweep values: small ones, or ones past every count cap (above 2**40),
    so every run a sweep starts stays small."""
    return st.floats(-1e3, 100) | st.floats(2.0**41, 1e30) | st.sampled_from(
        [1e300, float("inf"), float("-inf"), float("nan")])


def sweep_cases():
    """(problem, axis, values) for ``sweep``; ``check`` uses the problem alone."""
    return st.sampled_from(sorted(SWEEP_AXES)).flatmap(lambda problem: st.tuples(
        st.just(problem), st.sampled_from(SWEEP_AXES[problem] + COMMON_AXES),
        st.lists(sweep_values(), min_size=1, max_size=3)))


def fuzz_values(field: str):
    """Values a fuzzed field takes.  Integers reach 2**128 in size, but a
    huge positive one only where the draw cap rejects it (K and T), so every
    run the fuzz starts stays small: T K repeats <= 10**4."""
    ints = st.integers(-2**128, 100)
    if field in ("algorithm.K", "algorithm.T"):
        ints |= st.integers(2**39, 2**128)
    return st.one_of(st.text(max_size=4), st.booleans(), st.none(),
                     st.lists(st.floats(), max_size=2), st.just(1e400), st.just(1e300),
                     st.just(-1e300), ints)


def block_entries():
    """Entries of a problem block's lists: small numbers, extreme and
    non-finite floats (inf is written as 1e400), booleans and non-numbers."""
    return st.one_of(st.floats(-3, 3), st.integers(-2, 2), st.none(), st.text(max_size=2),
                     st.sampled_from([True, False, 1e308, -1e308, 5e-324, float("inf"),
                                      float("-inf"), float("nan")]))


def block_numbers():
    return st.floats(-3, 3) | st.sampled_from([0.0, 1.0, 2.0, 1e308, -1e308, 5e-324])


def matrices():
    """a_f and a_h: symmetric matrices of numbers, mostly 2 x 2 like the
    config's b_h (some PSD and valid), ragged or empty lists of rows, and
    values that are not lists of rows."""
    def symmetric(n, cells):
        return [[cells[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]

    sym = st.sampled_from([2, 1, 3]).flatmap(lambda n: st.lists(
        block_numbers(), min_size=n * n, max_size=n * n).map(lambda cells: symmetric(n, cells)))
    return st.one_of(sym, st.lists(st.lists(block_entries(), max_size=3), max_size=3),
                     block_entries())


# The problem blocks' own fields, by tag, and the values a fuzzed one takes.
BLOCK_FIELDS = {"quadratic_nd": {
    "a_f": matrices(), "a_h": matrices(),
    "b_h": st.one_of(st.lists(block_numbers(), min_size=2, max_size=2),
                     st.lists(block_entries(), max_size=3), block_entries()),
}, "logistic": {
    "split": st.one_of(st.lists(block_entries(), max_size=4), block_entries(),
                       st.sampled_from([[1 / 3, 1 / 3, 1 / 3], [0.98, 0.01, 0.01]])),
    "helper.kind": st.sampled_from(["random_labels", "coreset", "subset_batch"])
    | block_entries(),
    "helper.fraction": st.sampled_from([0.5, 1, 1e-3, 2]) | block_entries(),
    "helper.indices": st.lists(st.integers(-5, 100) | st.sampled_from([2**64, True, 1.5]),
                               max_size=3) | block_entries(),
    "l2_reg": st.floats(0, 1e308) | block_entries(),
    # small, or past the cap: an admitted batch too big for memory is not
    # caught (README), so none is drawn
    "batch_size": st.integers(-2, 200) | st.sampled_from([2**40 + 1, 2**64, None, 1.5, True]),
    # names under the run's directory: the data, a JSON file, a directory, nothing
    "path": st.sampled_from(["data.libsvm", "cfg.json", ".", "missing", "", "a\0b"])
    | block_entries(),
}}


def block_cases():
    """(tag, [(field, value), ...]): one or two fuzzed fields of one problem block."""
    return st.sampled_from(sorted(BLOCK_FIELDS)).flatmap(lambda tag: st.tuples(
        st.just(tag), st.lists(st.sampled_from(sorted(BLOCK_FIELDS[tag])).flatmap(
            lambda field: st.tuples(st.just(field), BLOCK_FIELDS[tag][field])),
            min_size=1, max_size=2)))


# Theorem-mode configs whose constants overflow when squared.
THEOREM_OVERFLOWS = [
    (("params_mode", "noise"), ("theorem", {"sigma_f": 1e300}), "noise.sigma_f"),
    (("params_mode", "noise"), ("theorem", {"sigma_f": 1.0, "sigma_h": 1e300}), "noise.sigma_h"),
    (("params_mode", "problem.toy.delta", "algorithm.name"), ("theorem", 1e300, "AuxMVR"),
     "problem.toy.delta"),
]

# A theorem-mode PSD A_f whose largest eigenvalue, L, overflows while f(x0) is 0.
INFINITE_L = [
    (("params_mode", "problem", "x0"), ("theorem", {"quadratic_nd": {
        "a_f": [[1e308, 1e308], [1e308, 1e308]], "a_h": [[1e308, 1e308], [1e308, 1e308]],
        "b_h": [0.0, 0.0]}}, [1.0, -1.0]), "problem.quadratic_nd"),
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
    (("params_mode", "x0"), ("theorem", [1e200]), "x0"),  # f(x0) = inf
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
        ("problem", WRONG_SHAPE_A_H, "problem.quadratic_nd.a_h"),
        ("problem", WRONG_LENGTH_B_H, "problem.quadratic_nd.b_h"),
        ("problem.toy.delta", -1.0, "problem.toy.delta"),
        ("problem", logistic_block(split=[0.98, 0.01, 0.01]), "problem.logistic.split"),
        ("problem", logistic_block(kind="coreset", fraction=0.01),
         "problem.logistic.helper.fraction"),
        ("algorithm.K", 2**64, "algorithm.K"),  # past the draw cap
        ("algorithm.K", 10**30, "algorithm.K"),
        ("algorithm.K", 2**40, "algorithm.K"),
        ("algorithm.T", 2**40, "algorithm.T"),
        ("repeats", 2**13 + 1, "repeats"),  # past the repeats cap
        ("repeats", 2**64, "repeats"),
        ("problem", logistic_block(batch_size=2**40 + 1), "problem.logistic.batch_size"),
        ("seed", 2**128, "seed"),  # past a stream key's 128 bits
        ("problem", OVERFLOWING_GAP, "problem.quadratic_nd.a_h"),
        *INFINITE_L,
        # output_path is a file-name stem under --out, not a path
        ("output_path", "results/run1", "output_path"),
        ("output_path", "", "output_path"),
        ("output_path", ".", "output_path"),
        ("output_path", "..", "output_path"),
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
        *INFINITE_L,
    ])
    def test_params_exit_2_names_overflowing_field(self, tmp_path, field, value, where):
        raw = toy_config()
        _set_fields(raw, field, value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, err = _main_quietly(["params", "--config", str(path)])
        assert code == 2
        assert err.startswith(f"config error: {where}: ")

    @pytest.mark.parametrize("command", ["run", "params", "check"])
    @pytest.mark.parametrize("key,value", [
        ("a_f", [[1e400, 0.0], [0.0, 1.0]]),  # JSON reads 1e400 as inf
        ("a_f", [[-1e400, 0.0], [0.0, 1.0]]),
        ("a_h", [[float("nan"), 0.0], [0.0, 1.0]]),
        ("a_f", [[True, 0.0], [0.0, 1.0]]),
        ("a_h", [1.0, 0.0]),
        ("b_h", [True, 0.0]),
        ("b_h", [0.0, 1e400]),
    ])
    def test_quadratic_entries_exit_2_at_their_field(self, tmp_path, command, key, value):
        raw = toy_config(params_mode="theorem", problem=copy.deepcopy(QUADRATIC))
        raw["problem"]["quadratic_nd"][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, err = _main_quietly([command, "--config", str(path)])
        assert code == 2
        assert err.startswith(f"config error: problem.quadratic_nd.{key}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("key", ["a_f", "a_h"])
    def test_ragged_matrix_exit_2_names_row_lengths(self, tmp_path, command, key):
        raw = toy_config(problem=copy.deepcopy(QUADRATIC))
        raw["problem"]["quadratic_nd"][key] = [[1.0, 0.0], [0.0]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, err = _main_quietly([command, "--config", str(path)])
        assert (code, err) == (2, f"config error: problem.quadratic_nd.{key}: must be a square "
                                  "matrix, got rows of lengths [2, 1]\n")

    def test_repeats_cap(self, tmp_path):
        # 2**13 repeats are admitted; past that, a sweep point exits 2 at repeats too
        assert load_config(json.dumps(toy_config(repeats=2**13))).repeats == 2**13
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(toy_config(repeats=1)))
        code, err = _main_quietly(["sweep", "--config", str(path), "--axis", "repeats",
                                   "--values", "1e30"])
        assert code == 2
        assert err.startswith("config error: repeats: ") and err.count("\n") == 1

    def test_version_error_is_one_line(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(toy_config(version="\n")))
        code, err = _main_quietly(["run", "--config", str(path)])
        assert code == 2
        assert err == "config error: version: unsupported schema version '\\n'\n"

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

    def test_m0_overflow_prints_only_divergence(self, tmp_path):
        # m0's f-h gradient at x0 = -1e308 overflows; it warns no more than a cycle does
        raw = toy_config(problem={"toy": {"delta": 0.5, "zeta": 1e308}}, x0=[-1e308])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, err = _main_quietly(["run", "--config", str(path)])
        assert code == 3
        assert err.startswith("divergence: ") and err.count("\n") == 1

    def test_params_overflowing_f_x0_exits_2_at_x0(self, tmp_path):
        # f(x0) = x0' A_f x0 / 2 overflows in the product A_f x0 without a warning
        raw = toy_config(params_mode="theorem", problem={"quadratic_nd": {
            "a_f": [[1e308, 0.0], [0.0, 1e308]], "a_h": [[1.0, 0.0], [0.0, 1.0]],
            "b_h": [0.0, 0.0]}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, err = _main_quietly(["params", "--config", str(path)])
        assert code == 2
        assert err.startswith("config error: x0: ") and err.count("\n") == 1

    def test_nan_f_exits_3_with_partial_csv(self, tmp_path, monkeypatch):
        def nan_f(cfg):
            return replace(build_oracle(cfg), f_value=lambda x: np.full(len(x), np.nan))

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

    @pytest.mark.parametrize("name,why", [
        ("latin1.json", "'utf-8' codec can't decode byte 0xe9"),
        ("dir.json", "Is a directory"),
        ("missing.json", "No such file or directory"),
    ])
    def test_unreadable_config_exit_2(self, tmp_path, name, why):
        (tmp_path / "latin1.json").write_bytes(json.dumps(toy_config()).encode() + b" \xe9")
        (tmp_path / "dir.json").mkdir()
        code, err = _main_quietly(["run", "--config", str(tmp_path / name)])
        assert code == 2
        assert err.startswith("config error: ") and why in err
        assert not err.startswith("config error: :")
        assert err.count("\n") == 1

    def test_unreadable_libsvm_exit_2(self, tmp_path, monkeypatch):
        raw = logistic_config(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))

        def denied(self):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_bytes", denied)
        code, err = _main_quietly(["run", "--config", str(path)])
        assert code == 2
        assert err.startswith("config error: problem.logistic.path: ")
        assert "Permission denied" in err and err.count("\n") == 1

    @settings(max_examples=100, deadline=None)
    @given(case=st.sampled_from(FUZZ_FIELDS).flatmap(
               lambda field: st.tuples(st.just(field), fuzz_values(field))),
           mode=st.sampled_from(("manual", "theorem")),
           command=st.sampled_from(("run", "params")))
    @example(case=("problem.toy.zeta", 1e300), mode="manual", command="run")
    @example(case=("noise.sigma_f", 1e300), mode="theorem", command="run")
    @example(case=("problem.toy.delta", 1e300), mode="theorem", command="run")
    @example(case=("algorithm.K", 2**64), mode="manual", command="run")
    @example(case=("algorithm.K", 10**30), mode="manual", command="run")
    @example(case=("algorithm.K", 2**40), mode="manual", command="run")
    @example(case=("algorithm.K", 2**40), mode="theorem", command="params")
    def test_fuzzed_field_exits_cleanly(self, case, mode, command):
        raw = toy_config(noise={"sigma_f": 1.0, "sigma_h": 0.5, "rho": 0.2},
                         params_mode=mode, repeats=1, output_path="fuzz", x0=[1.0],
                         diagnostics=True)
        raw["algorithm"].update(K=2, T=2, m0_mode="single_sample", split_fraction=0.5)
        _set_field(raw, *case)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(raw))
            code, err = _main_quietly([command, "--config", str(path)] +
                                      (["--out", tmp] if command == "run" else []))
        capped = case[0] in ("algorithm.K", "algorithm.T") and type(case[1]) is int \
            and case[1] >= 2**39
        assert code == 2 if capped else code in (0, 2, 3)
        if code == 2:  # one line: a field path under a config key, or a root error alone
            line = err.removeprefix("config error: ")
            where, _, message = line.partition(": ")
            assert line != err and err.count("\n") == 1
            assert line.startswith(ROOT_ERRORS) or (
                where.split(".")[0] in CONFIG_KEYS and message.strip())
            assert where == case[0] or not capped
        assert "Traceback" not in err

    @settings(max_examples=100, deadline=None)
    @given(case=sweep_cases(), command=st.sampled_from(("sweep", "check")))
    @example(case=("logistic", "problem.logistic.batch_size", [1e30]), command="sweep")
    @example(case=(OVERFLOWING_QUADRATIC, None, None), command="check")
    @example(case=("toy", "seed", [1e300]), command="sweep")  # a sub-directory name per value
    def test_fuzzed_sweep_and_check_exit_cleanly(self, case, command):
        problem, axis, values = case
        with tempfile.TemporaryDirectory() as tmp:
            if problem == "logistic":  # the 90-row file, K=2, T=4, two repeats
                raw = logistic_config(Path(tmp))
                raw["problem"]["logistic"]["l2_reg"] = 0.01
            else:
                raw = toy_config(noise={"sigma_f": 1.0, "sigma_h": 0.5, "rho": 0.2})
                raw["algorithm"].update(K=2, T=2, split_fraction=0.5)
                if problem != "toy":
                    raw["problem"] = problem
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(raw))
            args = [command, "--config", str(path)]
            if command == "sweep":
                # "--values=" keeps a leading minus from reading as an option
                args += ["--axis", axis, "--values=" + ",".join(map(repr, values)), "--out", tmp]
            code, err = _main_quietly(args)
        capped = command == "sweep" and axis in CAPPED_AXES and not values[0] <= 100
        assert code == 2 if capped or problem == OVERFLOWING_QUADRATIC else code in (0, 2, 3)
        if code == 2:
            assert err.startswith("config error: ") and err.count("\n") == 1
        if capped:
            assert err.startswith(f"config error: {axis}: ")
        if problem == OVERFLOWING_QUADRATIC:
            assert err.startswith("config error: problem.quadratic_nd: ")
        assert "Traceback" not in err

    @settings(max_examples=300, deadline=None)
    @given(problem=block_cases(),
           kind=st.sampled_from(["random_labels", "coreset", "subset_batch"]),
           mode=st.sampled_from(("manual", "theorem")),
           command=st.sampled_from(("run", "params", "check")))
    @example(problem=("quadratic_nd", list(OVERFLOWING_GAP["quadratic_nd"].items())[:2]),
             kind="coreset", mode="theorem", command="run")
    @example(problem=("quadratic_nd", [("a_f", [[1.0, 0.0], [0.0]])]),
             kind="coreset", mode="manual", command="check")
    @example(problem=("logistic", [("path", "cfg.json")]),
             kind="coreset", mode="manual", command="run")
    def test_fuzzed_problem_block_exits_cleanly(self, problem, kind, mode, command):
        """A fuzzed field of a problem block exits 0 with nothing on stderr, or
        2 or 3 with one stderr line, under run, params and check."""
        tag, fields = problem
        with tempfile.TemporaryDirectory() as tmp:
            if tag == "logistic":  # the 90-row file, K=2, T=4, two repeats
                raw = logistic_config(Path(tmp))
                block = raw["problem"]["logistic"]
                block.update(l2_reg=0.01, helper={
                    "kind": kind, **{"coreset": {"fraction": 0.5},
                                     "subset_batch": {"indices": [0, 3]}}.get(kind, {})})
            else:
                raw = toy_config(problem=copy.deepcopy(QUADRATIC), params_mode=mode)
                raw["algorithm"].update(K=2, T=2)
                block = raw["problem"]["quadratic_nd"]
            for field, value in fields:
                if field == "path" and isinstance(value, str):
                    value = str(Path(tmp) / value)
                _set_field(block, field, value)
            path = Path(tmp) / "cfg.json"
            # JSON has no inf; 1e400 is the number that reads as one
            path.write_text(json.dumps(raw).replace("Infinity", "1e400"))
            code, err = _main_quietly([command, "--config", str(path)] +
                                      (["--out", tmp] if command == "run" else []))
        assert code in (0, 2, 3)
        assert err == "" if code == 0 else err.count("\n") == 1
        assert "Traceback" not in err
