import csv
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import modalfuse
from modalfuse import (
    ConfigError,
    GaussianPrior,
    ObservationFrame,
    default_config,
    init_particles,
    init_prior,
    load_config,
    make_dataset,
    per_step_error,
    rmse,
    run_experiment,
    run_filter,
    stream_rng,
)
from modalfuse.bench import (
    BIAS_OFFSET,
    PRIOR_COV_DIAG,
    main,
    read_runs,
    run_table1,
    write_experiment,
    write_summary,
    write_table1,
)
from modalfuse.tracksim import builtin_scenario

from conftest import point_prior

DESK = dict(n_particles=100, runs=3, master_seed=5)


class TestRmse:
    def test_perfect_estimates(self, rng):
        truth = rng.normal(size=(20, 4))
        assert rmse(truth, truth) == 0.0

    def test_constant_pythagorean_error(self):
        truth = np.zeros((10, 4))
        est = truth + np.array([0.0, 0.0, 3.0, 4.0])
        assert rmse(est, truth) == pytest.approx(5.0, abs=1e-12)

    def test_two_step_hand_case(self):
        # oracle: sqrt((2 + 8) / 2) = sqrt(5)
        truth = np.zeros((2, 2))
        est = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert rmse(est, truth) == pytest.approx(np.sqrt(5.0), abs=1e-12)
        assert np.sqrt(5.0) == pytest.approx(2.2361, abs=1e-4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((3, 4)), np.zeros((4, 4)))

    def test_position_mode_ignores_velocities(self):
        truth = np.zeros((5, 4))
        est = truth + np.array([9.0, 9.0, 3.0, 4.0])
        assert rmse(est, truth, mode="position") == pytest.approx(5.0, abs=1e-12)

    def test_rmse_consistent_with_per_step_error(self, rng):
        est, truth = rng.normal(size=(30, 4)), rng.normal(size=(30, 4))
        err = per_step_error(est, truth)
        assert rmse(est, truth) == pytest.approx(np.sqrt(np.mean(err ** 2)), abs=1e-9)


class TestInitPrior:
    def test_accurate_zero_cov_limit(self, rng):
        x0 = np.array([1.0, 2.0, 3.0, 4.0])
        prior = GaussianPrior(x0, np.zeros(4))
        draws = prior(50, rng)
        assert np.all(draws == x0)

    def test_bias_offset_by_construction(self):
        x0 = np.array([1.0, 1.0, 200.0, 200.0])
        acc = init_prior("accurate", x0)
        bias = init_prior("biased", x0)
        np.testing.assert_array_equal(bias.mean - acc.mean, BIAS_OFFSET)
        np.testing.assert_array_equal(acc.cov_diag, PRIOR_COV_DIAG)
        np.testing.assert_array_equal(bias.cov_diag, PRIOR_COV_DIAG)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            init_prior("sloppy", np.zeros(4))


class TestRunExperiment:
    def test_determinism_byte_for_byte(self):
        a = run_experiment("dma", 2, **DESK)
        b = run_experiment("dma", 2, **DESK)
        # everything except wall-clock measurements must reproduce exactly
        assert a.summary.mean_rmse == b.summary.mean_rmse
        assert a.summary.var_rmse == b.summary.var_rmse
        for ra, rb in zip(a.results, b.results):
            assert ra.rmse == rb.rmse
            np.testing.assert_array_equal(ra.per_step_error, rb.per_step_error)
            np.testing.assert_array_equal(ra.estimates, rb.estimates)
            np.testing.assert_array_equal(ra.weight_trace, rb.weight_trace)

    def test_data_identity_across_algorithms(self):
        cfg = default_config()
        spec = builtin_scenario(2)
        for r in range(3):
            a = make_dataset(spec, cfg, 5, r)
            b = make_dataset(spec, cfg, 5, r)
            np.testing.assert_array_equal(a.states, b.states)
            np.testing.assert_array_equal(a.failure_log, b.failure_log)

    def test_initial_particles_algorithm_independent(self):
        cfg = default_config()
        from modalfuse import init_particles

        prior = init_prior("accurate", cfg.x0)
        p1 = init_particles(prior, 200, stream_rng(5, 1, 1))
        p2 = init_particles(prior, 200, stream_rng(5, 1, 1))
        np.testing.assert_array_equal(p1.states, p2.states)

    def test_summary_variance_recomputable(self):
        out = run_experiment("pf", 1, n_particles=100, runs=5, master_seed=9)
        rmses = np.array([r.rmse for r in out.results])
        assert out.summary.mean_rmse == pytest.approx(rmses.mean(), abs=1e-12)
        assert out.summary.var_rmse == pytest.approx(rmses.var(ddof=1), abs=1e-12)

    def test_parallel_matches_sequential(self):
        seq = run_experiment("pf", 1, **DESK)
        par = run_experiment("pf", 1, **DESK, jobs=2)
        assert seq.summary.mean_rmse == par.summary.mean_rmse
        for ra, rb in zip(seq.results, par.results):
            assert ra.rmse == rb.rmse

    def test_weight_trace_shapes(self):
        dma = run_experiment("dma", 1, **DESK)
        ts = run_experiment("ts", 1, **DESK)
        pf = run_experiment("pf", 1, **DESK)
        assert dma.results[0].weight_trace.shape == (300, 4)
        assert ts.results[0].weight_trace.shape == (300, 2)
        assert pf.results[0].weight_trace is None

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("nope", 1, **DESK)
        with pytest.raises(ValueError):
            run_experiment("pf", 1, n_particles=0, runs=1, master_seed=0)
        with pytest.raises(ValueError):
            run_experiment("pf", 1, n_particles=10, runs=1, master_seed=0, prior="x")

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs, tmp_path, capsys):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            run_experiment("pf", 1, n_particles=10, runs=1, master_seed=0, jobs=jobs)
        code = main(["--algorithm", "pf", "--scenario", "1", "--particles", "10", "--runs", "1",
                     "--jobs", str(jobs), "--out", str(tmp_path)])
        assert code == 2
        assert "error: jobs must be >= 1" in capsys.readouterr().err


class TestCsvRoundTrip:
    def test_run_results_round_trip_exactly(self, tmp_path):
        cfg = default_config()
        spec = builtin_scenario(2)
        exp = run_experiment("dma", 2, **DESK)
        datasets = {r: make_dataset(spec, cfg, DESK["master_seed"], r) for r in range(DESK["runs"])}
        write_experiment(tmp_path, exp, datasets=datasets)
        back = read_runs(tmp_path)
        assert len(back) == len(exp.results)
        for orig, got in zip(exp.results, back):
            assert got.algorithm == orig.algorithm
            assert got.scenario == orig.scenario
            assert got.run_index == orig.run_index
            assert got.rmse == orig.rmse
            assert got.wall_time_seconds == orig.wall_time_seconds
            assert got.n_flagged_steps == orig.n_flagged_steps
            np.testing.assert_array_equal(got.per_step_error, orig.per_step_error)
            np.testing.assert_array_equal(got.estimates, orig.estimates)
            np.testing.assert_array_equal(got.weight_trace, orig.weight_trace)

    def test_summary_csv_shape(self, tmp_path):
        exp = run_experiment("pf", 1, **DESK)
        write_summary(tmp_path / "summary.csv", [exp.summary])
        with open(tmp_path / "summary.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 1
        assert rows[0]["algorithm"] == "pf" and rows[0]["scenario"] == "1"
        assert float(rows[0]["mean_rmse"]) == exp.summary.mean_rmse

    def test_dataset_replay_files(self, tmp_path):
        cfg = default_config()
        spec = builtin_scenario(1)
        exp = run_experiment("pf", 1, **DESK)
        datasets = {r: make_dataset(spec, cfg, DESK["master_seed"], r) for r in range(DESK["runs"])}
        write_experiment(tmp_path, exp, datasets=datasets)
        from modalfuse import GroundTruthRun

        replay = GroundTruthRun.load(tmp_path / "dataset_0.ndjson")
        np.testing.assert_array_equal(replay.states, datasets[0].states)


class TestConfigFile:
    def test_defaults_without_file(self):
        cfg = default_config()
        assert cfg.horizon == 300
        np.testing.assert_array_equal(cfg.x0, [1.0, 1.0, 200.0, 200.0])
        assert cfg.truth_noise_scale == 1e-4
        assert cfg.scenario is None

    def test_truth_transition_scaling(self):
        cfg = default_config()
        np.testing.assert_allclose(cfg.truth_transition().Q, cfg.model.transition.Q * 1e-4)

    def test_load_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[model]\n"
            "sigma_angle = 0.2\n"
            "range_max = 500\n"
            "Q = 1 0 0 0; 0 1 0 0; 0 0 5 0; 0 0 0 5\n"
            "[simulation]\n"
            "horizon = 50\n"
            "x0 = 0 0 100 100\n"
            "truth_noise_scale = 1.0\n"
            "[scenario]\n"
            "failures = 0 10 20 0.8\n"
            "losses = 1 30 40\n"
        )
        cfg = load_config(path)
        assert cfg.model.modalities[0].sigma == 0.2
        assert cfg.model.modalities[1].r_max == 500.0
        assert cfg.model.transition.Q[2, 2] == 5.0
        assert cfg.horizon == 50
        np.testing.assert_array_equal(cfg.x0, [0, 0, 100, 100])
        assert cfg.truth_noise_scale == 1.0
        assert cfg.scenario.failure_windows[0].probability == 0.8
        assert cfg.scenario.loss_windows[0].modality == 1
        assert cfg.truth_transition() is cfg.model.transition

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    def test_malformed_scenario_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nfailures = 0 10\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nA = 1 0; 0\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("line", ["sigma_angle = 0", "sigma_range = 0.0", "sigma_angle = -0.1"])
    def test_non_positive_sigma_rejected(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[model]\n{line}\n")
        with pytest.raises(ConfigError, match="sigma must be finite and > 0"):
            load_config(path)
        code = main([
            "--algorithm", "pf", "--scenario", "1", "--out", str(tmp_path / "o"),
            "--config", str(path), "--particles", "10", "--runs", "1",
        ])
        assert code == 2


class TestCli:
    def test_run_command_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = main([
            "--algorithm", "dma", "--scenario", "2", "--particles", "100",
            "--runs", "2", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert (out / "summary.csv").exists()
        assert (out / "runs.csv").exists()
        assert (out / "weights_0.csv").exists()
        assert (out / "trajectory_0.csv").exists()
        assert (out / "dataset_0.ndjson").exists()
        assert "dma scenario 2" in capsys.readouterr().out

    def test_table1_command(self, tmp_path, capsys):
        out = tmp_path / "grid"
        code = main([
            "table1", "--particles", "60", "--runs", "2", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "table1.csv").exists()
        assert (out / "summary.csv").exists()
        with open(out / "summary.csv") as f:
            assert len(list(csv.DictReader(f))) == 16
        text = capsys.readouterr().out
        assert "Scenario 4" in text and "averaged over scenarios" in text

    def test_missing_required_flags_exit_2(self, tmp_path, capsys):
        assert main(["--algorithm", "pf", "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[model]\nsigma_angle = not_a_number\n")
        code = main([
            "--algorithm", "pf", "--scenario", "1", "--out", str(tmp_path / "o"),
            "--config", str(cfg), "--particles", "10", "--runs", "1",
        ])
        assert code == 2

    def test_config_scenario_replaces_flag(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[simulation]\nhorizon = 40\n[scenario]\nfailures = 0 10 20 1.0\n")
        out = tmp_path / "res"
        code = main([
            "--algorithm", "pf", "--particles", "50", "--runs", "1", "--seed", "1",
            "--out", str(out), "--config", str(cfg),
        ])
        assert code == 0
        with open(out / "runs.csv") as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["scenario"] == "custom"

    def test_rmse_position_flag(self, tmp_path):
        out = tmp_path / "res"
        code = main([
            "--algorithm", "pf", "--scenario", "1", "--particles", "50",
            "--runs", "1", "--seed", "2", "--out", str(out), "--rmse", "position",
        ])
        assert code == 0


def test_table1_grid_structure():
    grid = run_table1(50, 1, 7, scenarios=(1,))
    assert set(grid) == {("pf", 1), ("ts", 1), ("sma", 1), ("dma", 1)}
    for exp in grid.values():
        assert exp.summary.runs == 1


class TestReadingValueSpace:
    @staticmethod
    def _run(model, values, algorithm):
        frames = [ObservationFrame.of(1, [0.78, 283.0]), ObservationFrame.of(2, values)]
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 32, np.random.default_rng(3))
        return run_filter(algorithm, frames, p0, model.transition, model.modalities, np.random.default_rng(4))

    @pytest.mark.parametrize("algorithm", ["pf", "ts", "sma", "dma"])
    @pytest.mark.parametrize(
        "values, modality, space",
        [
            ([4.0, 283.0], 0, r"\[-3.14159\d*, 3.14159\d*\]"),   # bearing outside [-pi, pi]
            ([0.78, 2500.0], 1, r"\[0.0, 2000.0\]"),            # range above r_max
            ([0.78, -5.0], 1, r"\[0.0, 2000.0\]"),              # negative range
        ],
        ids=["bearing_4", "range_2500", "range_minus_5"],
    )
    def test_reading_outside_value_space_rejected(self, model, algorithm, values, modality, space):
        value = values[modality]
        with pytest.raises(ValueError, match=rf"step 2: modality {modality} reading {value!r} .*{space}"):
            self._run(model, values, algorithm)

    @pytest.mark.parametrize("algorithm", ["pf", "ts", "sma", "dma"])
    @pytest.mark.parametrize("values", [[np.pi, 0.0], [-np.pi, 2000.0], [None, 2000.0], [np.pi, None]])
    def test_boundary_readings_accepted(self, model, algorithm, values):
        estimates, _ = self._run(model, values, algorithm)
        assert estimates.shape == (2, 4) and np.all(np.isfinite(estimates))


def _load_tracer():
    """perfbench/tracer.py, loaded by path as the benchmark loads it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkTracerSeams:
    """The benchmark's tracer patches modalfuse functions by name: each
    must exist, the filters must reach them, and none may stay patched."""

    def test_traced_runs_reach_the_seams(self):
        tracer_mod = _load_tracer()
        cfg = default_config()
        model = cfg.model
        frames = make_dataset(builtin_scenario(2), cfg, 1, 0).frames[:5]
        tracer = tracer_mod.Tracer(modalfuse)
        spans = {}
        for run_id, algorithm in enumerate(("pf", "ts", "dma")):
            p0 = init_particles(init_prior("accurate", cfg.x0), 50, np.random.default_rng(0))
            with tracer.installed(run_id):
                modalfuse.bench.run_filter(algorithm, frames, p0, model.transition, model.modalities,
                                           np.random.default_rng(1))
            spans[algorithm] = {rec[tracer_mod.NAME] for rec in tracer.take_spans()}
        assert tracer_mod.leftover_wrappers() == []
        assert {"baselines.pf_step", "dma.candidate_reweight"} <= spans["pf"]
        assert "baselines.ts_step" in spans["ts"]
        assert {"dma.dma_step", "dma.candidate_loglik_matrix", "dma.candidate_reweight"} <= spans["dma"]
