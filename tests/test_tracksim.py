import json

import numpy as np
import pytest
from scipy import stats

from modalfuse import (
    DEFAULT_X0,
    FailureWindow,
    GroundTruthRun,
    LossWindow,
    ObservationStatus,
    ScenarioSpec,
    builtin_scenario,
    generate_run,
    observe,
    simulate_truth,
    tracking_model_2d,
)
from modalfuse.ssm import DEFAULT_A, DEFAULT_Q, LinearGaussianTransition, ObservationFrame


class TestBuiltinScenarios:
    def test_scenario1_empty(self):
        spec = builtin_scenario(1)
        assert spec.failure_windows == () and spec.loss_windows == ()
        assert spec.horizon == 300

    def test_scenario2_windows(self):
        spec = builtin_scenario(2)
        assert spec.failure_windows[0] == FailureWindow(0, 190, 210, 1.0)
        assert FailureWindow(0, 220, 230, 0.8) in spec.failure_windows
        assert FailureWindow(1, 235, 245, 1.0) in spec.failure_windows
        assert FailureWindow(1, 250, 260, 0.8) in spec.failure_windows
        assert spec.loss_windows == ()

    def test_scenario3_losses(self):
        spec = builtin_scenario(3)
        assert set(spec.loss_windows) == {LossWindow(0, 190, 200), LossWindow(1, 250, 260)}
        assert spec.failure_windows == ()

    def test_scenario4_shared_windows(self):
        spec = builtin_scenario(4)
        for m in (0, 1):
            assert FailureWindow(m, 190, 200, 1.0) in spec.failure_windows
            assert FailureWindow(m, 210, 240, 0.8) in spec.failure_windows
            assert FailureWindow(m, 250, 260, 1.0) in spec.failure_windows

    @pytest.mark.parametrize("k", [0, 5, -1])
    def test_out_of_range(self, k):
        with pytest.raises(ValueError):
            builtin_scenario(k)


class TestScenarioSpecValidation:
    def test_window_outside_horizon(self):
        with pytest.raises(ValueError):
            ScenarioSpec(horizon=100, failure_windows=(FailureWindow(0, 90, 110, 1.0),))

    def test_probability_range(self):
        with pytest.raises(ValueError):
            ScenarioSpec(failure_windows=(FailureWindow(0, 10, 20, 1.5),))

    def test_loss_failure_overlap_same_modality(self):
        with pytest.raises(ValueError):
            ScenarioSpec(
                failure_windows=(FailureWindow(0, 10, 20, 1.0),),
                loss_windows=(LossWindow(0, 15, 25),),
            )

    def test_loss_failure_overlap_other_modality_ok(self):
        spec = ScenarioSpec(
            failure_windows=(FailureWindow(0, 10, 20, 1.0),),
            loss_windows=(LossWindow(1, 15, 25),),
        )
        assert spec.status_at(17, 0)[0] == ObservationStatus.FAILED
        assert spec.status_at(17, 1)[0] == ObservationStatus.LOST


class TestSimulateTruth:
    def test_deterministic_kinematics(self, rng):
        tm = LinearGaussianTransition(DEFAULT_A, np.zeros((4, 4)))
        states = simulate_truth(3, np.array([1.0, 1.0, 0.0, 0.0]), tm, rng)
        np.testing.assert_allclose(states[:, 2:], [[1, 1], [2, 2], [3, 3]])

    def test_horizon_length(self, rng):
        tm = LinearGaussianTransition(DEFAULT_A, DEFAULT_Q)
        assert simulate_truth(300, DEFAULT_X0, tm, rng).shape == (300, 4)

    def test_variance_matches_covariance_propagation(self, rng):
        # oracle: Sigma_t = A Sigma_{t-1} A^T + Q from Sigma_0 = 0
        tm = LinearGaussianTransition(DEFAULT_A, DEFAULT_Q)
        sigma = np.zeros((4, 4))
        for _ in range(2):
            sigma = DEFAULT_A @ sigma @ DEFAULT_A.T + DEFAULT_Q
        expected_var_dx = sigma[2, 2]
        assert expected_var_dx == pytest.approx(21.0)
        n = 20_000
        second = np.array([simulate_truth(2, DEFAULT_X0, tm, rng)[1, 2] for _ in range(n)])
        var = second.var(ddof=1)
        se = var * np.sqrt(2.0 / (n - 1))
        assert abs(var - expected_var_dx) < 3 * se

    def test_zero_horizon_rejected(self, rng):
        tm = LinearGaussianTransition(DEFAULT_A, DEFAULT_Q)
        with pytest.raises(ValueError):
            simulate_truth(0, DEFAULT_X0, tm, rng)


class TestObserve:
    def test_noiseless_geometry(self, model, rng):
        # sigma must be > 0; noise at 1e-300 rounds away
        quiet = tracking_model_2d(sigma_angle=1e-300, sigma_range=1e-300)
        x = np.array([0.0, 0.0, 3.0, 4.0])
        frame = observe(1, x, [ObservationStatus.NORMAL] * 2, quiet.modalities, rng)
        assert frame.value(0) == pytest.approx(np.arctan(0.75), abs=1e-12)
        assert frame.value(1) == pytest.approx(5.0, abs=1e-12)

    def test_lost_maps_to_absent(self, model, rng):
        x = np.array([0.0, 0.0, 3.0, 4.0])
        frame = observe(1, x, [ObservationStatus.NORMAL, ObservationStatus.LOST], model.modalities, rng)
        assert frame.value(0) is not None
        assert frame.value(1) is None

    def test_failed_angle_uniform_chi_square(self, model):
        rng = np.random.default_rng(2024)
        draws = model.modalities[0].sample_failed(rng, size=100_000)
        hist, _ = np.histogram(draws, bins=20, range=(-np.pi, np.pi))
        assert stats.chisquare(hist).pvalue > 0.001

    def test_failed_range_uniform_chi_square(self, model):
        rng = np.random.default_rng(2025)
        draws = model.modalities[1].sample_failed(rng, size=100_000)
        hist, _ = np.histogram(draws, bins=20, range=(0.0, 2000.0))
        assert stats.chisquare(hist).pvalue > 0.001


class TestGenerateRun:
    def test_scenario1_all_normal(self, model, rng):
        run = generate_run(builtin_scenario(1), DEFAULT_X0, model.transition, model.modalities, rng)
        assert np.all(run.failure_log == ObservationStatus.NORMAL)
        assert run.horizon == 300 and run.n_modalities == 2

    def test_scenario3_losses_at_t195(self, model, rng):
        run = generate_run(builtin_scenario(3), DEFAULT_X0, model.transition, model.modalities, rng)
        assert run.failure_log[194, 0] == ObservationStatus.LOST
        assert run.frames[194].value(0) is None
        assert run.failure_log[194, 1] == ObservationStatus.NORMAL

    def test_bernoulli_failure_frequency(self, model):
        # oracle: inside a p=0.8 window each step fails independently
        rng = np.random.default_rng(77)
        spec = builtin_scenario(2)
        hits = total = 0
        for _ in range(400):
            run = generate_run(spec, DEFAULT_X0, model.transition, model.modalities, rng)
            window = run.failure_log[219:230, 0]  # t in [220, 230], modality 0
            hits += np.sum(window == ObservationStatus.FAILED)
            total += window.size
        assert abs(hits / total - 0.8) < 0.02

    def test_failure_log_consistency(self, model, rng):
        spec = ScenarioSpec(
            horizon=60,
            failure_windows=(FailureWindow(0, 10, 30, 1.0),),
            loss_windows=(LossWindow(1, 20, 40),),
        )
        run = generate_run(spec, DEFAULT_X0, model.transition, model.modalities, rng)
        for k, frame in enumerate(run.frames):
            for i in range(2):
                status = run.failure_log[k, i]
                if status == ObservationStatus.LOST:
                    assert frame.value(i) is None
                else:
                    assert frame.value(i) is not None
            t = k + 1
            assert (run.failure_log[k, 0] == ObservationStatus.FAILED) == (10 <= t <= 30)
            assert (run.failure_log[k, 1] == ObservationStatus.LOST) == (20 <= t <= 40)

    def test_scenario2_modalities_never_fail_together(self, model, rng):
        for _ in range(5):
            run = generate_run(builtin_scenario(2), DEFAULT_X0, model.transition, model.modalities, rng)
            both_bad = np.sum(np.all(run.failure_log != ObservationStatus.NORMAL, axis=1))
            assert both_bad == 0

    def test_seed_determinism(self, model):
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(31337)
            runs.append(generate_run(builtin_scenario(4), DEFAULT_X0, model.transition, model.modalities, rng))
        a, b = runs
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.failure_log, b.failure_log)
        for fa, fb in zip(a.frames, b.frames):
            for oa, ob in zip(fa.observations, fb.observations):
                assert (oa.value is None and ob.value is None) or oa.value == ob.value


class TestSerialization:
    def test_round_trip_exact(self, model, rng, tmp_path):
        run = generate_run(builtin_scenario(3), DEFAULT_X0, model.transition, model.modalities, rng)
        path = tmp_path / "run.ndjson"
        run.save(path)
        back = GroundTruthRun.load(path)
        np.testing.assert_array_equal(run.states, back.states)
        np.testing.assert_array_equal(run.failure_log, back.failure_log)
        assert len(back.frames) == run.horizon
        for fa, fb in zip(run.frames, back.frames):
            assert fa.time_index == fb.time_index
            for oa, ob in zip(fa.observations, fb.observations):
                if oa.value is None:
                    assert ob.value is None
                else:
                    assert oa.value == ob.value  # exact float round trip


def _replace_frame6(frames, frame):
    return frames[:5] + (frame,) + frames[6:]


# fault applied to a valid run's (states, frames, failure_log), and the
# mismatch the error must name
MALFORMED = {
    "time index out of order": (
        lambda s, f, log: (s, _replace_frame6(f, ObservationFrame(99, f[5].observations)), log),
        "frame 6 has time index 99"),
    "states not (T, d)": (lambda s, f, log: (s[:-1], f, log), r"states are shaped \(9, 4\)"),
    "failure_log not (T, n)": (lambda s, f, log: (s, f, log[:, 0]), r"failure_log is shaped \(10,\)"),
    "frame one reading short": (
        lambda s, f, log: (s, _replace_frame6(f, ObservationFrame.of(6, [f[5].value(0)])), log),
        "frame 6 has 1 readings"),
}


class TestMalformedRun:
    @pytest.fixture
    def run(self, model, rng):
        return generate_run(ScenarioSpec(horizon=10), DEFAULT_X0, model.transition, model.modalities, rng)

    @pytest.mark.parametrize("fault", list(MALFORMED))
    def test_rejected_naming_first_mismatch(self, run, fault):
        corrupt, message = MALFORMED[fault]
        with pytest.raises(ValueError, match=message):
            GroundTruthRun(*corrupt(run.states, run.frames, run.failure_log))

    @pytest.mark.parametrize("key, value, message", [
        ("t", 99, "frame 6 has time index 99"),
        ("observations", [0.5], "frame 6 has 1 readings"),
    ])
    def test_load_rejects_malformed_replay(self, run, tmp_path, key, value, message):
        path = tmp_path / "run.ndjson"
        run.save(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[5][key] = value
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ValueError, match=message):
            GroundTruthRun.load(path)
