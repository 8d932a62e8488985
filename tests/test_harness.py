"""Experiment determinism, config handling, and CLI surface."""

import numpy as np
import pytest

from revsde import NeuralField, harness
from revsde.harness import (
    ExperimentConfig,
    build_gradient_test_problem,
    check_brownian_bench,
    check_convergence,
    check_fit_toy,
    check_gradient_error,
    check_stability,
    fit_slope,
    fit_toy_sde,
    load_config_file,
    main,
    ou_moments,
    relative_l1,
    run_brownian_bench,
    run_convergence,
    run_gradient_error,
    run_stability,
)
from revsde.solvers import SolveConfig


class TestConfig:
    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=[])

    def test_config_file_rejects_empty_weak_step_sizes(self, tmp_path):
        # Before: numpy's "expected non-empty vector for x" from the fit.
        path = tmp_path / "run.cfg"
        path.write_text("weak_step_sizes =\n")
        with pytest.raises(ValueError,
                           match="^weak_step_sizes must be non-empty"):
            main(["convergence", "--config", str(path), "--out",
                  str(tmp_path / "conv.csv")])

    @pytest.mark.parametrize(
        "name", ["iters", "repeats", "batch", "paths", "weak_paths", "dims"])
    def test_nonpositive_counts_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            ExperimentConfig(**{name: 0})

    def test_cli_rejects_zero_iters(self, tmp_path):
        with pytest.raises(ValueError, match="^iters must be >= 1"):
            main(["fit-toy", "--iters", "0", "--out",
                  str(tmp_path / "fit.csv")])

    def test_cli_rejects_zero_subintervals(self, tmp_path):
        # Before: ZeroDivisionError deep inside the query-order builder.
        with pytest.raises(ValueError,
                           match=r"^subintervals must all be >= 1, got \[10, 0\]"):
            main(["brownian-bench", "--subintervals", "10,0", "--out",
                  str(tmp_path / "bench.csv")])

    @pytest.mark.parametrize("lr", ["-0.02", "nan", "inf"])
    def test_cli_rejects_negative_or_nonfinite_lr(self, lr, tmp_path):
        # Before: exit 0 with a bitwise-flat loss, every update skipped.
        with pytest.raises(ValueError,
                           match=f"^lr must be non-negative and finite, "
                                 f"got {float(lr)}"):
            main(["fit-toy", "--lr", lr, "--iters", "1", "--out",
                  str(tmp_path / "fit.csv")])

    @pytest.mark.parametrize("argv, message", [
        (["convergence", "--steps", "0.25,-0.125"],
         "step_sizes must lie in 0 < h < inf, got [-0.125]"),
        (["gradient-error", "--steps", "0.25,nan"],
         "step_sizes must lie in 0 < h < inf, got [nan]"),
        (["convergence", "--cases", "additive,bogus"],
         "cases has unknown entries ['bogus']; pick from "
         "['additive', 'multiplicative']"),
        (["brownian-bench", "--patterns", "sequential,bogus"],
         "patterns has unknown entries ['bogus']; pick from "
         "['sequential', 'doubly_sequential', 'random']"),
        (["brownian-bench", "--vbt-eps", "0"],
         "vbt_eps must lie in 0 < eps < 1, got 0.0"),
        (["brownian-bench", "--vbt-eps", "-1"],
         "vbt_eps must lie in 0 < eps < 1, got -1.0"),
        (["brownian-bench", "--vbt-eps", "1"],
         "vbt_eps must lie in 0 < eps < 1, got 1.0"),
        (["brownian-bench", "--cache-capacity", "0"],
         "cache_capacity must be >= 1, got 0"),
    ], ids=["negative-step", "nan-step", "unknown-case", "unknown-pattern",
            "zero-vbt-eps", "negative-vbt-eps", "vbt-eps-at-horizon",
            "zero-cache-capacity"])
    def test_cli_rejects_bad_entries_before_any_work(self, argv, message,
                                                      tmp_path, monkeypatch):
        # Before: the good entries' solves or timings (or the OU moment
        # simulation) ran first, and the error named an internal setting
        # or came after the work.
        built = []
        monkeypatch.setattr(harness, "BrownianInterval",
                            lambda *args, **kwargs: built.append(args))
        out = tmp_path / "x.csv"
        with pytest.raises(ValueError) as err:
            main(argv + ["--out", str(out)])
        assert str(err.value) == message
        assert not out.exists()
        assert not built

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "seed = 7\n"
            "# a comment\n"
            "cache-capacity = 64\n"
            "step_sizes = 1.0,0.5\n"
            "methods = midpoint\n"
        )
        values = load_config_file(path)
        assert values == {"seed": "7", "cache_capacity": "64",
                          "step_sizes": "1.0,0.5", "methods": "midpoint"}

    def test_config_file_rejects_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("steps without equals\n")
        with pytest.raises(ValueError):
            load_config_file(path)

    def test_config_file_overrides_flags(self, tmp_path):
        # fit-toy reads the seed (initial weights and noise), so the CSV
        # shows which seed won.
        def run(name, *extra):
            out = tmp_path / f"{name}.csv"
            code = main(["fit-toy", "--batch", "4", "--iters", "1",
                         "--out", str(out), *extra])
            assert code == 0
            return out.read_text()

        path = tmp_path / "run.cfg"
        path.write_text("seed = 2\n")
        merged = run("merged", "--seed", "1", "--config", str(path))
        assert merged == run("config_seed", "--seed", "2")
        assert merged != run("flag_seed", "--seed", "1")

    def test_config_key_not_read_by_subcommand_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\n")
        with pytest.raises(ValueError,
                           match="'seed' is not read by stability"):
            main(["stability", "--out", str(tmp_path / "stab.csv"),
                  "--config", str(path)])

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sede = 1\n")
        with pytest.raises(ValueError, match="unknown config key 'sede'"):
            main(["stability", "--out", str(tmp_path / "stab.csv"),
                  "--config", str(path)])

    @pytest.mark.parametrize("command, flag", [
        ("stability", "--seed"), ("stability", "--batch"),
        ("gradient-error", "--paths"), ("convergence", "--batch"),
        ("brownian-bench", "--steps"), ("fit-toy", "--vbt-eps"),
        ("gradient-error", "--cache-capacity"),
        ("fit-toy", "--cache-capacity"),
    ])
    def test_flag_not_read_by_subcommand_rejected(self, command, flag,
                                                  tmp_path):
        with pytest.raises(SystemExit):
            main([command, flag, "1", "--out", str(tmp_path / "x.csv")])


class TestGradientError:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            run_gradient_error(ExperimentConfig(methods=["rk4"]))

    def test_reversible_rows_at_machine_precision(self):
        cfg = ExperimentConfig(seed=0, methods=["reversible_heun"],
                               step_sizes=[1.0, 0.25])
        rows = run_gradient_error(cfg)
        for r in rows:
            assert r["rel_l1_error"] <= 1e-12

    def test_baseline_error_decreases(self):
        cfg = ExperimentConfig(seed=0, methods=["midpoint"],
                               step_sizes=[1.0, 0.25, 0.0625])
        rows = run_gradient_error(cfg)
        errs = [r["rel_l1_error"] for r in rows]
        assert errs[0] > errs[1] > errs[2]
        assert not check_gradient_error(rows)

    def test_deterministic_rows(self):
        cfg = ExperimentConfig(seed=5, methods=["midpoint"],
                               step_sizes=[0.5])
        a = run_gradient_error(cfg)
        b = run_gradient_error(cfg)
        assert a == b

    def test_problem_shapes(self):
        field, z0 = build_gradient_test_problem(0)
        assert z0.shape == (8, 8)
        assert field.noise_dim == 4
        assert field.drift_net.weights[0].shape == (8, 9)

    def test_relative_l1_formula(self):
        a, pa = np.array([[1.0, 2.0]]), np.array([0.5])
        b, pb = np.array([[1.0, 1.0]]), np.array([0.0])
        assert relative_l1(a, pa, b, pb) == pytest.approx(1.5 / 3.5)

    def test_relative_l1_of_all_zero_sides_is_zero(self):
        zero = np.zeros(3)
        assert relative_l1(zero, zero, zero, zero) == 0.0

    @pytest.mark.parametrize("method, errors, failures", [
        ("reversible_heun", [(0.5, 2e-12)],
         ["reversible_heun error 2.000e-12 at dt=0.5 exceeds 1e-12"]),
        ("heun", [(0.25, 0.1), (1.0, 0.1)],
         ["heun errors not decreasing",
          "heun error ratio 1.00 below 2 per step refinement"]),
        ("midpoint", [(1.0, 0.3), (0.5, 0.2)],
         ["midpoint error ratio 1.50 below 2 per step refinement"]),
    ], ids=["reversible-above-1e-12", "not-decreasing", "ratio-below-2"])
    def test_check_flags_each_failure(self, method, errors, failures):
        rows = [{"method": method, "step_size": h, "rel_l1_error": e}
                for h, e in errors]
        assert check_gradient_error(rows) == failures


class TestConvergence:
    def test_slope_fit(self):
        hs = [0.5, 0.25, 0.125]
        errs = [h ** 1.5 for h in hs]
        slope, resid = fit_slope(hs, errs)
        assert slope == pytest.approx(1.5, abs=1e-12)
        assert resid == pytest.approx(0.0, abs=1e-20)

    def test_small_run_orders(self):
        cfg = ExperimentConfig(seed=3, paths=4000, weak_paths=4000,
                               step_sizes=[2.0 ** -k for k in range(3, 6)],
                               weak_step_sizes=[0.25, 0.125])
        rows, slopes = run_convergence(cfg)
        by = {(s["case"], s["metric"]): s["slope"] for s in slopes}
        assert 0.7 <= by[("additive", "strong")] <= 1.3
        assert 0.35 <= by[("multiplicative", "strong")] <= 0.75
        assert ("additive", "weak_second") in by
        # 3 strong rows per case + 2 weak rows for the additive case.
        assert len(rows) == 8
        assert sum(r["sweep"] == "weak" for r in rows) == 2

    def test_warns_on_few_paths(self, capsys):
        cfg = ExperimentConfig(seed=1, paths=200, weak_paths=200,
                               step_sizes=[0.125, 0.0625],
                               weak_step_sizes=[0.25, 0.125],
                               cases=["additive"])
        run_convergence(cfg)
        assert "warning" in capsys.readouterr().err

    def test_cli_rejects_a_single_step_size(self, tmp_path):
        # Before: a minimum-norm fit through one point wrote slope 0.493,
        # inside the multiplicative band, and --check exited 0.
        out = tmp_path / "conv.csv"
        with pytest.raises(ValueError, match=r"^the strong sweep needs at "
                           r"least two distinct step sizes .* step_sizes = "
                           r"\[0.125\]"):
            main(["convergence", "--steps", "0.125", "--cases",
                  "multiplicative", "--check", "--out", str(out)])
        assert not out.exists()

    def test_weak_sweep_needs_two_distinct_step_sizes(self):
        cfg = ExperimentConfig(seed=1, paths=200, weak_paths=200,
                               step_sizes=[0.125, 0.0625],
                               weak_step_sizes=[0.25, 0.25],
                               cases=["additive"])
        with pytest.raises(ValueError, match=r"^the weak sweep .* "
                           r"weak_step_sizes = \[0.25, 0.25\]"):
            run_convergence(cfg)

    @pytest.mark.parametrize("coarse_dt, message", [
        (0.5, "fine increments do not telescope at coarse step 0"),
        (1.0, "final coarse step inconsistent beyond rounding"),
    ])
    def test_coupling_check_rejects_increments_that_do_not_add_up(
            self, coarse_dt, message):
        class UnitNoise:  # every interval's increment is 1
            def query(self, s, t):
                return np.ones((1, 1))

        noise = UnitNoise()
        fine = SolveConfig("heun", coarse_dt / harness.FINE_PER_COARSE, 1.0,
                           noise)
        coarse = SolveConfig("reversible_heun", coarse_dt, 1.0, noise)
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            harness._check_coupling(noise, fine.grid(), coarse.grid())

    def test_check_bands(self):
        slopes = [{"case": "additive", "metric": "strong", "slope": 1.0},
                  {"case": "multiplicative", "metric": "strong", "slope": 0.9}]
        failures = check_convergence(slopes)
        assert len(failures) == 1
        assert "multiplicative" in failures[0]


class TestBrownianBench:
    def test_small_bench_rows(self):
        cfg = ExperimentConfig(seed=2, batch=8, subintervals=[10],
                               patterns=["sequential", "random"], repeats=3)
        rows = run_brownian_bench(cfg)
        assert len(rows) == 4
        for r in rows:
            assert r["deterministic"]
            assert r["min_time_s"] > 0
        assert not check_brownian_bench(rows)

    def test_check_flags_slow_interval(self):
        rows = [
            {"structure": "brownian_interval", "pattern": "doubly_sequential",
             "subintervals": 100, "min_time_s": 1.0, "deterministic": True},
            {"structure": "virtual_brownian_tree",
             "pattern": "doubly_sequential", "subintervals": 100,
             "min_time_s": 1.2, "deterministic": True},
        ]
        failures = check_brownian_bench(rows)
        assert any("speedup" in f for f in failures)

    def test_check_flags_nondeterministic_row(self):
        rows = [{"structure": "brownian_interval", "pattern": "random",
                 "subintervals": 10, "min_time_s": 1.0,
                 "deterministic": False}]
        assert check_brownian_bench(rows) == [
            "brownian_interval nondeterministic on random/10"]


class TestStability:
    def test_sweep_classifications(self):
        rows = run_stability(ExperimentConfig())
        assert not check_stability(rows)
        bounded = {(r["re_lambda_h"], r["im_lambda_h"]): r["bounded"]
                   for r in rows}
        assert bounded[(0.0, 0.5)] and bounded[(0.0, -0.5)]
        assert bounded[(0.0, 0.99)] and bounded[(0.0, -0.99)]
        assert not bounded[(-0.5, 0.0)]
        assert not bounded[(-0.1, 0.5)]


class TestFitToy:
    def test_ou_moments_track_closed_form(self):
        # Euler-Maruyama on dY = (rho t - kappa Y) dt + chi dW from Y0 = 0,
        # 40,000 paths at dt 1/32, read at t = 1, ..., 8.
        rho, kappa, chi, dt, paths = 0.02, 0.1, 0.4, 1.0 / 32, 40_000
        rng = np.random.default_rng(0)
        y = np.zeros(paths)
        sim_means, sim_seconds = [], []
        for i in range(256):
            y = y + (rho * i * dt - kappa * y) * dt \
                + chi * np.sqrt(dt) * rng.standard_normal(paths)
            if (i + 1) % 32 == 0:
                sim_means.append(y.mean())
                sim_seconds.append(np.mean(y ** 2))
        means, seconds = ou_moments()
        assert means.shape == seconds.shape == (8,)
        for k in range(8):
            assert abs(means[k] - sim_means[k]) < 0.02
            assert abs(seconds[k] - sim_seconds[k]) < 0.03

    def test_zero_learning_rate_flat_loss(self):
        cfg = ExperimentConfig(seed=1, batch=32, iters=4, lr=0.0)
        rows = fit_toy_sde(cfg, grad_check_every=0)
        losses = [r["loss"] for r in rows]
        assert losses == [losses[0]] * len(losses)

    def test_short_fit_reduces_loss_and_matches_oracle(self):
        cfg = ExperimentConfig(seed=0, batch=128, iters=60, lr=0.02)
        rows = fit_toy_sde(cfg, grad_check_every=30)
        assert rows[-1]["loss"] < 0.2 * rows[0]["loss"]
        gaps = [r["oracle_rel_l1_gap"] for r in rows
                if r["oracle_rel_l1_gap"] != ""]
        assert gaps and all(g <= 1e-12 for g in gaps)
        assert not check_fit_toy(rows)

    def test_one_forward_pass_per_iteration(self, monkeypatch):
        # 32 steps: the forward solve evaluates the drift at the start
        # (eval_drift) and after each step (evaluate); the backward pass
        # runs one vjp at the terminal tuple and at each reconstruction,
        # and linearizes nothing. Before, a second forward solve made 66.
        calls = {"eval_drift": 0, "evaluate": 0, "linearize": 0, "vjp": 0}
        for name in calls:
            def counted(self, *args, _real=getattr(NeuralField, name),
                        _name=name):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(NeuralField, name, counted)
        fit_toy_sde(ExperimentConfig(seed=0, batch=4, iters=1),
                    grad_check_every=0)
        assert calls == {"eval_drift": 1, "evaluate": 32, "linearize": 0,
                         "vjp": 33}

    def test_noise_tree_is_keyed_on_the_grid(self, monkeypatch):
        # A keyed tree stores no split points (node_count 1); a lazy one
        # holds 63 nodes after one iteration's 32 steps.
        trees = []

        class Recorded(harness.BrownianInterval):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                trees.append(self)

        monkeypatch.setattr(harness, "BrownianInterval", Recorded)
        fit_toy_sde(ExperimentConfig(seed=0, batch=4, iters=1),
                    grad_check_every=0)
        assert len(trees) == 1
        assert trees[0].stats().node_count == 1

    def test_check_flags_oracle_gap_above_1e_12(self):
        rows = [{"iteration": 0, "loss": 1.0, "oracle_rel_l1_gap": 3e-12},
                {"iteration": 1, "loss": 0.1, "oracle_rel_l1_gap": ""}]
        assert check_fit_toy(rows) == [
            "gradient gap 3.000e-12 at iteration 0"]


class TestCli:
    def test_stability_end_to_end(self, tmp_path, monkeypatch):
        # Two short points test the plumbing; TestStability runs the sweep.
        monkeypatch.setattr(harness, "STABILITY_POINTS",
                            [(0.0, 0.5, 1000, True), (-0.5, 0.0, 1000, False)])
        out = tmp_path / "stability.csv"
        code = main(["stability", "--out", str(out), "--check"])
        assert code == 0
        text = out.read_text().splitlines()
        assert text[0].startswith("re_lambda_h,im_lambda_h")
        assert len(text) == 3

    def test_gradient_error_csv_deterministic(self, tmp_path):
        args = ["gradient-error", "--seed", "4", "--methods", "midpoint",
                "--steps", "1.0,0.25"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_check_failure_exit_code(self, tmp_path, capsys):
        # Zero learning rate cannot reduce the loss, so --check must fail.
        out = tmp_path / "toy.csv"
        code = main(["fit-toy", "--out", str(out), "--seed", "3",
                     "--batch", "16", "--iters", "2", "--lr", "0.0",
                     "--check"])
        assert code == 1
        assert "CHECK FAILED" in capsys.readouterr().err

    def test_convergence_cli_writes_rows_and_slopes(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = main(["convergence", "--paths", "50", "--weak-paths", "50",
                     "--steps", "0.5,0.25", "--cases", "additive",
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == ("case,sweep,h,paths,strong_err,weak_mean_err,"
                           "weak_second_err")
        assert len(rows) == 1 + 2 + 3  # two strong and three weak sizes
        slopes = (tmp_path / "conv_slopes.csv").read_text().splitlines()
        assert slopes[0] == "case,metric,slope,residual"
        assert len(slopes) == 1 + 3
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if " slope " in line]
        assert [line.split()[:2] for line in printed] == [
            row.split(",")[:2] for row in slopes[1:]]

    def test_brownian_bench_cli_prints_each_speedup(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["brownian-bench", "--subintervals", "4,8", "--patterns",
                     "sequential,random", "--repeats", "1", "--batch", "2",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 2 * 2
        printed = [line.split(":")[0] for line in
                   capsys.readouterr().out.splitlines()
                   if line.startswith("speedup")]
        assert printed == ["speedup random n=4", "speedup random n=8",
                           "speedup sequential n=4", "speedup sequential n=8"]

    def test_fit_toy_cli(self, tmp_path):
        out = tmp_path / "toy.csv"
        code = main(["fit-toy", "--out", str(out), "--seed", "2",
                     "--batch", "16", "--iters", "3", "--lr", "0.01"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,loss,oracle_rel_l1_gap"
        assert len(lines) == 4
