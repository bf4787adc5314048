import csv
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modalfuse
from modalfuse import (
    ConfigError,
    ExperimentConfig,
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
    RunResult,
    format_table1,
    main,
    run_table1,
    write_summary,
)
from modalfuse.ssm import DEFAULT_Q, LinearGaussianTransition
from modalfuse.tracksim import FailureWindow, ScenarioSpec, builtin_scenario, generate_run

from conftest import point_prior


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace bench's process pool with one that maps in this process;
    returns the list of ``max_workers`` each pool was opened with."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(modalfuse.bench, "ProcessPoolExecutor", InlinePool)
    return sizes


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
        assert a.mean_rmse == b.mean_rmse
        assert a.var_rmse == b.var_rmse
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
        assert out.mean_rmse == pytest.approx(rmses.mean(), abs=1e-12)
        assert out.var_rmse == pytest.approx(rmses.var(ddof=1), abs=1e-12)

    def test_parallel_matches_sequential(self):
        seq = run_experiment("pf", 1, **DESK)
        par = run_experiment("pf", 1, **DESK, jobs=2)
        assert seq.mean_rmse == par.mean_rmse
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

    def test_pool_never_larger_than_runs(self, pool_sizes):
        run_experiment("pf", 1, n_particles=10, runs=2, master_seed=0, jobs=8)
        assert pool_sizes == [min(2, os.cpu_count() or 1)]

    def test_pool_never_larger_than_cpus(self, pool_sizes):
        cpus = os.cpu_count() or 1
        run_experiment("pf", 1, n_particles=5, runs=cpus + 1, master_seed=0, jobs=10**6)
        assert pool_sizes == [cpus]

    @pytest.mark.parametrize("name, value", [("particles", 10.5), ("runs", 2.5), ("jobs", 2.0), ("runs", True)])
    def test_counts_not_integers_rejected(self, name, value):
        # a float particle or run count failed inside numpy with a bare TypeError
        counts = {"n_particles": 10, "runs": 1, "jobs": 1, "n_particles" if name == "particles" else name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            run_experiment("pf", 1, master_seed=0, **counts)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs, tmp_path, capsys):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            run_experiment("pf", 1, n_particles=10, runs=1, master_seed=0, jobs=jobs)
        code = main(["--algorithm", "pf", "--scenario", "1", "--particles", "10", "--runs", "1",
                     "--jobs", str(jobs), "--out", str(tmp_path)])
        assert code == 2
        assert "error: jobs must be >= 1" in capsys.readouterr().err


def _read_runs(outdir) -> list[RunResult]:
    """RunResults parsed back from the files run_experiment writes to outdir."""
    out = []
    with open(outdir / "runs.csv", newline="") as f:
        for row in csv.DictReader(f):
            ri = int(row["run"])
            wpath = outdir / f"weights_{ri}.csv"
            weight_trace = np.loadtxt(wpath, delimiter=",", skiprows=1, ndmin=2)[:, 1:] if wpath.exists() else None
            trajectory = np.loadtxt(outdir / f"trajectory_{ri}.csv", delimiter=",", skiprows=1, ndmin=2)
            dim = (trajectory.shape[1] - 2) // 2
            out.append(RunResult(
                algorithm=row["algorithm"],
                scenario=row["scenario"],
                run_index=ri,
                rmse=float(row["rmse"]),
                per_step_error=trajectory[:, -1],
                wall_time_seconds=float(row["wall_time_seconds"]),
                estimates=trajectory[:, 1 + dim:1 + 2 * dim],
                weight_trace=weight_trace,
                n_flagged_steps=int(row["n_flagged_steps"]),
            ))
    return out


class TestCsvRoundTrip:
    def test_run_results_round_trip_exactly(self, tmp_path):
        exp = run_experiment("dma", 2, **DESK, outdir=tmp_path)
        back = _read_runs(tmp_path)
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
        write_summary(tmp_path / "summary.csv", [exp])
        with open(tmp_path / "summary.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 1
        assert rows[0]["algorithm"] == "pf" and rows[0]["scenario"] == "1"
        assert float(rows[0]["mean_rmse"]) == exp.mean_rmse

    def test_dataset_replay_files(self, tmp_path):
        cfg = default_config()
        spec = builtin_scenario(1)
        run_experiment("pf", 1, **DESK, outdir=tmp_path)
        from modalfuse import GroundTruthRun

        replay = GroundTruthRun.load(tmp_path / "dataset_0.ndjson")
        np.testing.assert_array_equal(replay.states, make_dataset(spec, cfg, DESK["master_seed"], 0).states)


class TestConfigFile:
    def test_defaults_without_file(self):
        cfg = default_config()
        assert cfg.horizon == 300
        np.testing.assert_array_equal(cfg.x0, [1.0, 1.0, 200.0, 200.0])
        assert cfg.truth_noise_scale == 1e-4
        assert cfg.scenario is None

    def test_truth_transition_scaling(self):
        cfg = default_config()
        np.testing.assert_allclose(cfg.truth_transition.Q, cfg.model.transition.Q * 1e-4)
        # built once per config, not once per dataset
        assert cfg.truth_transition is cfg.truth_transition

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
        assert cfg.truth_transition is cfg.model.transition

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        path = tmp_path / "readme.cfg"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        cfg = load_config(path)
        assert len(cfg.scenario.failure_windows) == 2 and len(cfg.scenario.loss_windows) == 1

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

    @pytest.mark.parametrize("text, message", [
        ("garbage without section\n", "no section headers"),
        ("[model]\nsigma_angle = 0.1\nsigma_angle = 0.2\n", "already exists"),
    ], ids=["no_section_header", "duplicate_option"])
    def test_unparsable_file_rejected(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        code = main(["--algorithm", "pf", "--scenario", "1", "--out", str(tmp_path / "o"),
                     "--config", str(path), "--particles", "10", "--runs", "1"])
        assert code == 2
        assert f"error: malformed config file {str(path)!r}" in capsys.readouterr().err

    def test_non_4x4_dynamics_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nA = 1 0; 0 1\nQ = 1 0; 0 1\n[simulation]\nx0 = 1 1\n")
        with pytest.raises(ConfigError, match=r"A must be 4 x 4 .*shape \(2, 2\)"):
            load_config(path)
        code = main(["--algorithm", "pf", "--scenario", "1", "--out", str(tmp_path / "o"),
                     "--config", str(path), "--particles", "10", "--runs", "1"])
        assert code == 2
        assert "error: A must be 4 x 4" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("[simulation]\nx0 = nan 1 200 200\n", "x0"),
        ("[model]\nA = nan 0 0 0; 0 1 0 0; 1 0 1 0; 0 1 0 1\n", "A"),
        ("[model]\nQ = inf 0 0 0; 0 1 0 0; 0 0 10 0; 0 0 0 10\n", "Q"),
    ], ids=["x0", "A", "Q"])
    def test_non_finite_value_names_its_key(self, tmp_path, text, key):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            load_config(path)

    @pytest.mark.parametrize("text, message", [
        ("[model]\nsigma_angel = 0.5\n", r"unknown key 'sigma_angel' in section \[model\]"),
        ("[simulaton]\nhorizon = 10\n", r"unknown section \[simulaton\] \(keys: horizon\)"),
        ("[model]\nsigma_angle = 0.5\n[extra]\n", r"unknown section \[extra\] \(keys: none\)"),
        ("[DEFAULT]\nhorizon = 10\n[simulation]\n", r"unknown section \[DEFAULT\] \(keys: horizon\)"),
        ("[scenario]\nfailure = 0 10 20 1.0\n", r"unknown key 'failure' in section \[scenario\]"),
    ], ids=["key_typo", "section_typo", "empty_unknown_section", "default_key", "scenario_key_typo"])
    def test_unknown_section_or_key_rejected(self, tmp_path, capsys, text, message):
        # unchecked, each would load and silently keep the default it meant to change
        path = tmp_path / "typo.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        code = main(["--algorithm", "pf", "--scenario", "1", "--out", str(tmp_path / "o"),
                     "--config", str(path), "--particles", "10", "--runs", "1"])
        assert code == 2
        assert "error: unknown" in capsys.readouterr().err

    def test_empty_default_section_accepted(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("[DEFAULT]\n[model]\nA = 1 0 0 0; 0 1 0 0; 1 0 1 0; 0 1 0 1\n")
        assert load_config(path).model.transition.A[2, 0] == 1.0

    def test_window_on_missing_modality_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nfailures = 5 1 300 1.0\n")
        code = main(["--algorithm", "pf", "--out", str(tmp_path / "o"),
                     "--config", str(path), "--particles", "10", "--runs", "1"])
        assert code == 2
        assert "names modality 5, outside [0, 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_truth_noise_scale_outside_range_rejected(self, tmp_path, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[simulation]\ntruth_noise_scale = {value}\n")
        with pytest.raises(ConfigError, match="truth_noise_scale must be finite and >= 0"):
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


class TestConfigChecks:
    @pytest.mark.parametrize("line, message", [
        ("failures = 0 10 20 0.8 99", r"'failures' .*entry '0 10 20 0.8 99': expected 4 numbers, got 5"),
        ("failures = 0.5 10.7 20.2 1.0", r"'failures' .*entry '0.5 10.7 20.2 1.0': '0.5' is not a whole number"),
        ("losses = 1 30", r"'losses' .*entry '1 30': expected 3 numbers, got 2"),
        ("losses = 1 30 40; 0 nan 50", r"'losses' .*entry '0 nan 50': 'nan' is not a whole number"),
    ], ids=["extra_number", "fractional", "missing_number", "nan_time"])
    def test_malformed_window_names_its_entry(self, tmp_path, line, message):
        # a stray or fractional number must not be truncated into another window
        path = tmp_path / "bad.cfg"
        path.write_text(f"[scenario]\n{line}\n")
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_whole_numbers_in_float_notation_accepted(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("[scenario]\nfailures = 0 1e1 20.0 1\n")
        assert load_config(path).scenario.failure_windows[0] == FailureWindow(0, 10, 20, 1.0)

    @pytest.mark.parametrize("scenario", ["", "[scenario]\nlosses = 1 3 4\n"], ids=["alone", "with_scenario"])
    @pytest.mark.parametrize("horizon", ["0", "-5"])
    def test_horizon_below_one_rejected(self, tmp_path, capsys, horizon, scenario):
        # ExperimentConfig names horizon before the [scenario] section is built
        path = tmp_path / "bad.cfg"
        path.write_text(f"[simulation]\nhorizon = {horizon}\n{scenario}")
        with pytest.raises(ConfigError, match=f"^horizon must be >= 1, got {horizon}$"):
            load_config(path)
        code = main(["--algorithm", "pf", "--scenario", "1", "--out", str(tmp_path / "o"),
                     "--config", str(path), "--particles", "10", "--runs", "1"])
        assert code == 2
        assert "error: horizon must be >= 1" in capsys.readouterr().err

    def test_missing_keys_keep_the_constructors_defaults(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("[model]\n[simulation]\n[scenario]\n")
        cfg, default = load_config(path), default_config()
        assert cfg.model.modalities == default.model.modalities
        np.testing.assert_array_equal(cfg.model.transition.A, default.model.transition.A)
        np.testing.assert_array_equal(cfg.model.transition.Q, default.model.transition.Q)
        np.testing.assert_array_equal(cfg.x0, default.x0)
        assert (cfg.horizon, cfg.truth_noise_scale) == (default.horizon, default.truth_noise_scale)
        assert cfg.scenario == ScenarioSpec()

    @pytest.mark.parametrize("kwargs, message", [
        ({"x0": [np.nan, 1.0, 200.0, 200.0]}, "^x0 must be finite"),
        ({"x0": [1.0, 1.0]}, "^x0 must be finite with 4 entries"),
        ({"horizon": 0}, "^horizon must be >= 1"),
        ({"horizon": 2.5}, "^horizon must be an integer, got 2.5$"),
        ({"horizon": True}, "^horizon must be an integer, got True$"),
        ({"truth_noise_scale": -1.0}, "^truth_noise_scale must be finite and >= 0"),
    ], ids=["nan_x0", "short_x0", "horizon_0", "horizon_float", "horizon_bool", "negative_truth_noise_scale"])
    def test_config_built_in_code_checked(self, kwargs, message):
        # checked at construction, not first inside a run under another message
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(default_config().model, **kwargs)

    def test_scenario_horizon_must_match(self):
        # a run would take the scenario's 120 steps and ignore horizon=50
        with pytest.raises(ValueError, match="^the scenario's horizon 120 differs from the config's horizon 50$"):
            ExperimentConfig(default_config().model, horizon=50, scenario=ScenarioSpec(120))

    def test_matching_scenario_horizon_accepted(self, tmp_path):
        # as the benchmark builds its wide-6mod config: both horizons 300
        assert ExperimentConfig(model=default_config().model, scenario=ScenarioSpec()).horizon == 300
        path = tmp_path / "ok.cfg"
        path.write_text("[simulation]\nhorizon = 50\n[scenario]\nlosses = 1 3 4\n")
        assert load_config(path).scenario.horizon == 50

    def test_x0_is_a_float_copy(self):
        x0 = np.array([1, 1, 200, 200])
        cfg = ExperimentConfig(default_config().model, x0=x0)
        x0[0] = 5
        assert cfg.x0.dtype == float and cfg.x0[0] == 1.0


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

    def test_run_command_builds_each_dataset_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_generate_run(*args):
            calls.append(args)
            return generate_run(*args)

        monkeypatch.setattr(modalfuse.bench, "generate_run", counting_generate_run)
        code = main(["--algorithm", "pf", "--scenario", "2", "--particles", "20", "--runs", "3",
                     "--seed", "3", "--jobs", "1", "--out", str(tmp_path)])
        assert code == 0
        assert len(calls) == 3

    def test_parallel_run_files_byte_identical(self, tmp_path):
        outs = {}
        for jobs in (1, 2):
            outs[jobs] = tmp_path / f"jobs{jobs}"
            code = main(["--algorithm", "dma", "--scenario", "2", "--particles", "50", "--runs", "3",
                         "--seed", "3", "--jobs", str(jobs), "--out", str(outs[jobs])])
            assert code == 0
        names = sorted(p.name for pattern in ("weights_*.csv", "trajectory_*.csv", "dataset_*.ndjson")
                       for p in outs[1].glob(pattern))
        assert len(names) == 9
        assert sorted(p.name for p in outs[2].iterdir()) == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[2] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_module_entry_runs_without_warnings(self):
        src = str(Path(modalfuse.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "modalfuse", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stdout.startswith("usage: bench")

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
        assert exp.runs == 1


class TestTable1SharesRunInputs:
    """run_table1 builds each (scenario, run) dataset and initial particle
    set once and steps all four filters on them."""

    def test_every_cell_equals_its_own_experiment(self):
        grid = run_table1(60, 2, 7)
        assert list(grid) == [(a, k) for k in (1, 2, 3, 4) for a in ("pf", "ts", "sma", "dma")]
        for (algorithm, k), cell in grid.items():
            alone = run_experiment(algorithm, k, 60, 2, 7)
            assert (cell.algorithm, cell.scenario, cell.runs) == (alone.algorithm, alone.scenario, 2)
            assert (cell.mean_rmse, cell.var_rmse) == (alone.mean_rmse, alone.var_rmse)
            for a, b in zip(cell.results, alone.results, strict=True):
                assert (a.algorithm, a.run_index, a.rmse, a.n_flagged_steps) == \
                    (b.algorithm, b.run_index, b.rmse, b.n_flagged_steps)
                np.testing.assert_array_equal(a.estimates, b.estimates)
                np.testing.assert_array_equal(a.per_step_error, b.per_step_error)
                np.testing.assert_array_equal(a.weight_trace, b.weight_trace)

    def test_each_dataset_built_once_in_one_pool_per_scenario(self, monkeypatch, pool_sizes):
        calls = []

        def counting_make_dataset(*args):
            calls.append(args[2:])
            return make_dataset(*args)

        monkeypatch.setattr(modalfuse.bench, "make_dataset", counting_make_dataset)
        grid = run_table1(20, 3, 7, scenarios=(1, 3), jobs=2)
        assert len(grid) == 8
        assert sorted(calls) == [(7, r) for r in range(3) for _ in range(2)]
        assert pool_sizes == [min(2, os.cpu_count() or 1)] * 2

    def test_partial_grid_formats_its_own_scenarios(self):
        text = format_table1(run_table1(50, 1, 7, scenarios=(1,)))
        rows = [line for line in text.splitlines() if line.startswith("Scenario")]
        assert len(rows) == 1 and rows[0].startswith("Scenario 1 ")
        assert "averaged over scenarios" in text


class TestScenarioGivenTwice:
    @staticmethod
    def _config(tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[simulation]\nhorizon = 30\n[scenario]\nfailures = 0 10 20 1.0\n")
        return path

    def test_builtin_index_with_config_scenario_rejected(self, tmp_path):
        cfg = load_config(self._config(tmp_path))
        with pytest.raises(ValueError, match=r"scenario 2 and the config's \[scenario\] section"):
            run_experiment("pf", 2, 30, 1, 7, config=cfg)
        with pytest.raises(ValueError, match=r"scenario 1 and the config's \[scenario\] section"):
            run_table1(30, 1, 7, config=cfg, scenarios=(1, 2))

    def test_other_spec_with_config_scenario_rejected(self, tmp_path):
        cfg = load_config(self._config(tmp_path))
        with pytest.raises(ValueError, match=r"both give the scenario"):
            run_experiment("pf", builtin_scenario(1), 30, 1, 7, config=cfg)

    def test_config_own_spec_accepted(self, tmp_path):
        cfg = load_config(self._config(tmp_path))
        assert run_experiment("pf", cfg.scenario, 30, 1, 7, config=cfg).scenario == "custom"

    def test_cli_flag_with_config_scenario_exits_2(self, tmp_path, capsys):
        code = main(["--algorithm", "pf", "--scenario", "2", "--particles", "20", "--runs", "1",
                     "--out", str(tmp_path / "o"), "--config", str(self._config(tmp_path))])
        assert code == 2
        assert "error: scenario 2 and the config's [scenario] section" in capsys.readouterr().err
        assert not (tmp_path / "o" / "runs.csv").exists()


class TestReadingValueSpace:
    @staticmethod
    def _run(model, values, algorithm):
        frames = [ObservationFrame(1, [0.78, 283.0]), ObservationFrame(2, values)]
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

    @pytest.mark.parametrize("algorithm", ["pf", "ts", "sma", "dma"])
    def test_reading_count_rejected_before_the_first_step(self, model, algorithm):
        class NeverSampled:
            def sample(self, x_prev, rng):
                raise AssertionError("a step ran before the frames were checked")

        frames = [ObservationFrame(t, [0.78, 283.0]) for t in (1, 2, 3)]
        frames.append(ObservationFrame(4, [0.78, 283.0, 1.0]))
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 32, np.random.default_rng(3))
        with pytest.raises(ValueError, match=r"^step 4: frame has 3 modality readings, model has 2$"):
            run_filter(algorithm, frames, p0, NeverSampled(), model.modalities, np.random.default_rng(4))


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
        algorithms = ("pf", "ts", "sma", "dma")
        for run_id, algorithm in enumerate(algorithms):
            p0 = init_particles(init_prior("accurate", cfg.x0), 50, np.random.default_rng(0))
            with tracer.installed(run_id):
                modalfuse.bench.run_filter(algorithm, frames, p0, model.transition, model.modalities,
                                           np.random.default_rng(1))
            spans[algorithm] = {rec[tracer_mod.NAME] for rec in tracer.take_spans()}
        assert tracer_mod.leftover_wrappers() == []
        assert {"baselines.pf_step", "dma.candidate_reweight"} <= spans["pf"]
        assert "baselines.ts_step" in spans["ts"]
        # SMA batches its members' weight work: it propagates and resamples
        # each member through the particle primitives, not through pf_step
        assert {"baselines.sma_step", "particles.propagate", "particles.residual_resample"} <= spans["sma"]
        assert {"dma.dma_step", "dma.candidate_loglik_matrix", "dma.candidate_reweight"} <= spans["dma"]
        # one health reading per resample: the benchmark's health.* figures
        # take np.min of these lists, read off residual_resample's ParticleSet
        for run_id, algorithm in enumerate(algorithms):
            resamples = len(frames) * (len(model.modalities) if algorithm == "sma" else 1)
            health = tracer.health[run_id]
            assert len(health["ess_frac"]) == len(health["unique_frac"]) == resamples, algorithm
            assert all(0.0 < f <= 1.0 for f in health["ess_frac"] + health["unique_frac"]), algorithm


# the NDJSON digests at seeds 7 and 4242 recorded in BENCH_22.json to BENCH_24.json
BENCHMARK_NDJSON_DIGESTS = {
    7: {"track-n10k": "36e75970eed2867a", "replay-n1k": "809ab3fb554e3c74", "wide-6mod": "83baf01bf74e89b8"},
    4242: {"track-n10k": "b2db5a6bef84e27d", "replay-n1k": "8c2de91e0f9a7c16", "wide-6mod": "fc55a066c2813b75"},
}


@pytest.fixture(scope="module")
def digests():
    """tools/digests.py loaded by path, with the benchmark's run.py and this
    checkout's modalfuse it loads; the paths and module it registers are
    taken out again afterwards."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("tools_digests", root / "tools" / "digests.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))
        mp.setitem(sys.modules, "perfbench_run", None)
        spec.loader.exec_module(module)
        run, mf = module._load_run(root)
        yield module, run, mf


class TestBenchmarkDatasetBytes:
    """Every benchmark workload's datasets, built by the benchmark's own
    set-up and written to NDJSON, keep their recorded bytes."""

    @pytest.mark.parametrize("seed, workload", [(seed, w) for seed, table in BENCHMARK_NDJSON_DIGESTS.items()
                                                for w in table])
    def test_ndjson_digest(self, digests, seed, workload):
        module, run, mf = digests
        assert mf is modalfuse
        assert module.ndjson_digest(run, mf, run.WORKLOADS[workload], seed) == BENCHMARK_NDJSON_DIGESTS[seed][workload]


# the seed-7 run_filter digests recorded in BENCH_22.json and BENCH_23.json:
# all four filters on every dataset of the 2-modality NDJSON replay, whose
# garbage readings sit near -1e8 log-likelihood, and of the 6-modality model
BENCHMARK_RUN_FILTER_DIGESTS = {
    "replay-n1k": "b531b8c7d17d11db",
    "wide-6mod": "d6a0c6bfab976990",
}


class TestBenchmarkFilterOutputs:
    """The filters' estimates, weight traces and flags on the benchmark's
    own inputs keep their recorded bytes, so a step change that moves a
    rounding fails here."""

    @pytest.mark.parametrize("workload", list(BENCHMARK_RUN_FILTER_DIGESTS))
    def test_seed_7_run_filter_digest(self, digests, workload):
        module, run, mf = digests
        assert mf is modalfuse
        got = module.run_filter_digest(run, mf, run.WORKLOADS[workload], 7)
        assert got == BENCHMARK_RUN_FILTER_DIGESTS[workload]


class TestNonFiniteStatesFailFast:
    """A transition that overflows to non-finite states stops the run at
    once; in-loop particle sets are trusted, so the mixture's estimate is
    where it shows."""

    @pytest.mark.parametrize("algorithm", ["pf", "ts", "sma", "dma"])
    def test_overflowing_transition_raises(self, model, algorithm):
        transition = LinearGaussianTransition(1e200 * np.eye(4), DEFAULT_Q)
        frames = [ObservationFrame(k, [0.78, 283.0]) for k in range(1, 11)]
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 32, np.random.default_rng(3))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="particle states must be finite"):
            run_filter(algorithm, frames, p0, transition, model.modalities, np.random.default_rng(4))
