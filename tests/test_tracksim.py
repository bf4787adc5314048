import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
    tracking_model_2d,
)
from modalfuse.ssm import DEFAULT_A, DEFAULT_Q, LinearGaussianTransition, ObservationFrame

import reference


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
        status, prob = spec.script(2)
        # reference: FAILED with probability 1.0 on modality 0, LOST on modality 1
        for i in (0, 1):
            assert (status[16, i], prob[16, i]) == reference.status_at(spec, 17, i)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            ScenarioSpec(horizon=0)

    @pytest.mark.parametrize("horizon", [2.5, True, 300.0])
    def test_horizon_not_an_integer_rejected(self, horizon):
        # it was accepted, and the run failed inside script with numpy's bare
        # "'float' object cannot be interpreted as an integer"
        with pytest.raises(ValueError, match=f"^horizon must be an integer, got {re.escape(repr(horizon))}$"):
            ScenarioSpec(horizon)

    @pytest.mark.parametrize("window", [FailureWindow(-1, 2, 4, 0.5), LossWindow(-1, 2, 4)], ids=repr)
    def test_window_on_negative_modality_rejected(self, window):
        kind = "loss_windows" if isinstance(window, LossWindow) else "failure_windows"
        with pytest.raises(ValueError, match=rf"{re.escape(repr(window))} names modality -1, below 0"):
            ScenarioSpec(horizon=10, **{kind: (window,)})

    @pytest.mark.parametrize("kind", [FailureWindow, LossWindow], ids=lambda k: k.__name__)
    @pytest.mark.parametrize("field, value", [
        ("modality", 0.5), ("t_start", 10.5), ("t_end", np.float64(20.0)), ("modality", True),
        ("modality", np.int64(1)), ("t_start", np.int32(10)),
    ], ids=["modality_half", "t_start_half", "t_end_float64", "modality_true", "modality_int64", "t_start_int32"])
    def test_window_fields_must_be_integers(self, model, kind, field, value):
        # a float modality or time died in generate_run with numpy's bare
        # IndexError or TypeError, and modality True marked every modality
        fields = {"modality": 1, "t_start": 10, "t_end": 20, field: value}
        window = kind(**fields, probability=1.0) if kind is FailureWindow else kind(**fields)
        windows = {"failure_windows" if kind is FailureWindow else "loss_windows": (window,)}
        if isinstance(value, (bool, float)):
            with pytest.raises(ValueError, match=rf"{re.escape(repr(window))} has {field} {re.escape(repr(value))}, "
                                                 "not an integer"):
                ScenarioSpec(horizon=30, **windows)
            return
        spec = ScenarioSpec(horizon=30, **windows)
        run = generate_run(spec, DEFAULT_X0, model.transition, model.modalities, np.random.default_rng(0))
        code = ObservationStatus.FAILED if kind is FailureWindow else ObservationStatus.LOST
        assert (run.failure_log == code).sum(axis=0).tolist() == [0, 11]


class TestSimulateTruth:
    def test_deterministic_kinematics(self, rng):
        tm = LinearGaussianTransition(DEFAULT_A, np.zeros((4, 4)))
        states = tm.rollout(np.array([1.0, 1.0, 0.0, 0.0]), 3, rng)
        np.testing.assert_allclose(states[:, 2:], [[1, 1], [2, 2], [3, 3]])

    def test_horizon_length(self, rng):
        tm = LinearGaussianTransition(DEFAULT_A, DEFAULT_Q)
        assert tm.rollout(DEFAULT_X0, 300, rng).shape == (300, 4)

    def test_variance_matches_covariance_propagation(self, rng):
        # oracle: Sigma_t = A Sigma_{t-1} A^T + Q from Sigma_0 = 0
        tm = LinearGaussianTransition(DEFAULT_A, DEFAULT_Q)
        sigma = np.zeros((4, 4))
        for _ in range(2):
            sigma = DEFAULT_A @ sigma @ DEFAULT_A.T + DEFAULT_Q
        expected_var_dx = sigma[2, 2]
        assert expected_var_dx == pytest.approx(21.0)
        n = 20_000
        second = np.array([tm.rollout(DEFAULT_X0, 2, rng)[1, 2] for _ in range(n)])
        var = second.var(ddof=1)
        se = var * np.sqrt(2.0 / (n - 1))
        assert abs(var - expected_var_dx) < 3 * se


class TestReadings:
    STILL = LinearGaussianTransition(np.eye(4), np.zeros((4, 4)))   # the truth stays at x0

    def test_noiseless_geometry(self, rng):
        # sigma must be > 0; noise at 1e-300 rounds away
        quiet = tracking_model_2d(sigma_angle=1e-300, sigma_range=1e-300)
        run = generate_run(ScenarioSpec(horizon=1), [0.0, 0.0, 3.0, 4.0], self.STILL, quiet.modalities, rng)
        frame, = run.frames
        assert frame.observations[0].value == pytest.approx(np.arctan(0.75), abs=1e-12)
        assert frame.observations[1].value == pytest.approx(5.0, abs=1e-12)

    def test_lost_maps_to_absent(self, model, rng):
        spec = ScenarioSpec(horizon=1, loss_windows=(LossWindow(1, 1, 1),))
        frame, = generate_run(spec, [0.0, 0.0, 3.0, 4.0], self.STILL, model.modalities, rng).frames
        assert frame.observations[0].value is not None
        assert frame.observations[1].value is None

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
        assert run.horizon == 300 and run.failure_log.shape[1] == 2

    def test_scenario3_losses_at_t195(self, model, rng):
        run = generate_run(builtin_scenario(3), DEFAULT_X0, model.transition, model.modalities, rng)
        assert run.failure_log[194, 0] == ObservationStatus.LOST
        assert run.frames[194].observations[0].value is None
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
                    assert frame.observations[i].value is None
                else:
                    assert frame.observations[i].value is not None
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


    @pytest.mark.parametrize("window", [FailureWindow(5, 1, 10, 1.0), LossWindow(2, 1, 10)], ids=repr)
    def test_window_on_missing_modality_rejected(self, model, rng, window):
        if isinstance(window, LossWindow):
            spec = ScenarioSpec(horizon=10, loss_windows=(window,))
        else:
            spec = ScenarioSpec(horizon=10, failure_windows=(window,))
        message = rf"{re.escape(repr(window))} names modality {window.modality}, outside \[0, 2\) for 2"
        with pytest.raises(ValueError, match=message):
            generate_run(spec, DEFAULT_X0, model.transition, model.modalities, rng)

    def test_first_window_on_a_missing_modality_is_named_before_any_draw(self, model):
        # failure windows are checked before loss windows, as the per-step reference does
        spec = ScenarioSpec(horizon=10, failure_windows=(FailureWindow(0, 1, 3, 0.5), FailureWindow(4, 1, 10, 1.0)),
                            loss_windows=(LossWindow(2, 1, 10),))
        rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
        with pytest.raises(ValueError) as ref_exc:
            reference.generate_run(spec, DEFAULT_X0, model.transition, model.modalities, ref_rng)
        with pytest.raises(ValueError, match=re.escape(str(ref_exc.value))):
            generate_run(spec, DEFAULT_X0, model.transition, model.modalities, rng)
        assert rng.random() == np.random.default_rng(0).random()


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
        lambda s, f, log: (s, _replace_frame6(f, ObservationFrame(99, [o.value for o in f[5].observations])), log),
        "frame 6 has time index 99"),
    "states not (T, d)": (lambda s, f, log: (s[:-1], f, log), r"states are shaped \(9, 4\)"),
    "failure_log not (T, n)": (lambda s, f, log: (s, f, log[:, 0]), r"failure_log is shaped \(10,\)"),
    "failure_log code not a status": (lambda s, f, log: (s, f, log + 3), r"failure_log holds a code outside 0\.\.2"),
    "frame one reading short": (
        lambda s, f, log: (s, _replace_frame6(f, ObservationFrame(6, [f[5].observations[0].value])), log),
        "frame 6 has 1 readings"),
    "states not finite": (lambda s, f, log: (_with(s, [(5, 2, np.nan), (7, 0, np.inf)]), f, log),
                          r"state at step 6 is not finite: \[.*nan"),
    "state overflowed": (lambda s, f, log: (_with(s, [(9, 3, -np.inf)]), f, log), "state at step 10 is not finite"),
}


def _with(states, entries):
    """A copy of states with (row, column, value) entries set."""
    out = states.copy()
    for row, col, value in entries:
        out[row, col] = value
    return out


class TestMalformedRun:
    @pytest.fixture
    def run(self, model, rng):
        return generate_run(ScenarioSpec(horizon=10), DEFAULT_X0, model.transition, model.modalities, rng)

    @pytest.mark.parametrize("fault", list(MALFORMED))
    def test_rejected_naming_first_mismatch(self, run, fault):
        corrupt, message = MALFORMED[fault]
        with pytest.raises(ValueError, match=message):
            GroundTruthRun(*corrupt(run.states, run.frames, run.failure_log))

    @pytest.mark.parametrize("states", [np.empty((0, 4)), np.empty(0)], ids=["0_by_d", "flat"])
    def test_run_with_no_steps_rejected(self, states):
        with pytest.raises(ValueError, match="a run needs one or more steps, got none"):
            GroundTruthRun(states, (), np.empty((0, 2), dtype=np.int64))

    def test_load_of_an_empty_file_names_it(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))} holds no records"):
            GroundTruthRun.load(path)

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

    # each turns line 6 of a valid file into a record save never writes
    @pytest.mark.parametrize("corrupt, message", [
        (lambda r: {k: v for k, v in r.items() if k != "status"}, "record lacks status"),
        (lambda r: {**r, "status": ["NORMAL", "BROKEN"]}, r"status \['NORMAL', 'BROKEN'\] is not a list of"),
        (lambda r: {**r, "status": [["NORMAL"], "LOST"]}, r"status \[\['NORMAL'\], 'LOST'\] is not a list of"),
        (lambda r: {**r, "observations": ["0.5", 283.0]}, "observations .* are not a list of numbers or nulls"),
        (lambda r: list(r.values()), "record is a list, not an object"),
        (lambda r: {**r, "observations": [[0.1, 0.2], 283.0]}, "observations .* are not a list of numbers or nulls"),
        (lambda r: {**r, "observations": [True, 283.0]}, "observations .* are not a list of numbers or nulls"),
        (lambda r: {**r, "state": [1, 1, 10 ** 400, 200]}, "int too large to convert to float"),
        (lambda r: {**r, "t": 6.0}, r"t 6.0 is not an integer"),
    ], ids=["missing_key", "unknown_status", "list_status", "string_reading", "not_an_object", "list_reading",
            "bool_reading", "int_past_float_range", "float_t"])
    def test_load_names_the_line_of_a_malformed_record(self, run, tmp_path, corrupt, message):
        path = tmp_path / "run.ndjson"
        run.save(path)
        lines = path.read_text().splitlines()
        lines[5] = json.dumps(corrupt(json.loads(lines[5])))
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError, match=rf"line 6: {message}"):
            GroundTruthRun.load(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_load_rejects_a_non_finite_state(self, run, tmp_path, token):
        # json reads these tokens as floats; the run would replay with every
        # error against its truth reading NaN
        path = tmp_path / "run.ndjson"
        run.save(path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[5])
        record["state"][1] = float(token.replace("Infinity", "inf"))
        lines[5] = json.dumps(record)
        assert token in lines[5]
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError, match="state at step 6 is not finite"):
            GroundTruthRun.load(path)

    def test_load_accepts_integer_values(self, run, tmp_path):
        # JSON written by other tools may drop the ".0" of whole numbers
        path = tmp_path / "run.ndjson"
        run.save(path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[5])
        record.update(state=[1, 1, 200, 200], observations=[0, 283])
        lines[5] = json.dumps(record)
        path.write_text("".join(line + "\n" for line in lines))
        back = GroundTruthRun.load(path)
        np.testing.assert_array_equal(back.states[5], [1.0, 1.0, 200.0, 200.0])
        assert [type(v) for v in (obs.value for obs in back.frames[5].observations)] == [float, float]


# floats whose shortest repr takes each of its forms: signed zeros, the
# smallest subnormal, exponent notation from 1e16 and below 1e-4, a whole
# number past 2**53's exact integers and the largest float
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, -1e-5, 1e-4, 2.0 ** 53, 2.0 ** 53 + 2.0,
               np.finfo(float).max, -np.finfo(float).max, 0.1, 1 / 3]
STATE_ENTRIES = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
READINGS = st.one_of(STATE_ENTRIES, st.none(), st.integers(-2 ** 60, 2 ** 60), st.sampled_from([0, 3, -7]))


@st.composite
def ground_truth_runs(draw):
    """A GroundTruthRun of 1-4 steps, d = 1-5 and 0-3 modalities; readings
    and statuses are drawn independently of each other."""
    T, d, n = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(0, 3))
    states = np.array(draw(st.lists(st.lists(STATE_ENTRIES, min_size=d, max_size=d), min_size=T, max_size=T)),
                      dtype=float).reshape(T, d)
    frames = tuple(ObservationFrame(t, draw(st.lists(READINGS, min_size=n, max_size=n))) for t in range(1, T + 1))
    log = np.array(draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=T, max_size=T)),
                   dtype=np.int64).reshape(T, n)
    return GroundTruthRun(states, frames, log)


class TestSaveMatchesJsonDumps:
    """save lays records out from one template; its bytes must be those of
    the per-record ``json.dumps`` writer in tests/reference.py."""

    @settings(max_examples=300, deadline=None)
    @given(run=ground_truth_runs())
    @example(run=GroundTruthRun(np.array([EDGE_FLOATS[:7], EDGE_FLOATS[7:]]),
                                (ObservationFrame(1, [None, 3, -0.0]), ObservationFrame(2, [5e-324, None, 1e16])),
                                np.array([[2, 0, 1], [0, 2, 1]])))
    @example(run=GroundTruthRun(np.array([[2.0 ** 53]]), (ObservationFrame(1, []),), np.empty((1, 0), dtype=np.int64)))
    def test_bytes_equal_the_reference(self, tmp_path_factory, run):
        tmp = tmp_path_factory.mktemp("save")
        run.save(tmp / "run.ndjson")
        reference.save(run, tmp / "ref.ndjson")
        assert (tmp / "run.ndjson").read_bytes() == (tmp / "ref.ndjson").read_bytes()
        back = GroundTruthRun.load(tmp / "run.ndjson")
        assert back.states.tobytes() == run.states.tobytes()
        assert [[repr(o.value) for o in f.observations] for f in back.frames] == \
            [[repr(o.value if o.value is None else float(o.value)) for o in f.observations] for f in run.frames]


def _staggered_six():
    """wide-6mod's shape: the two sensors three times over, each failing on
    its own 15-step window."""
    base = tracking_model_2d()
    spec = ScenarioSpec(failure_windows=tuple(FailureWindow(i, 150 + 20 * i, 164 + 20 * i, 1.0) for i in range(6)))
    return spec, base.transition, base.modalities * 3


def _mixed_windows():
    """Windows with p in (0, 1), overlapping failure windows on one modality
    (the first listed wins), and loss windows on both modalities."""
    model = tracking_model_2d()
    spec = ScenarioSpec(
        horizon=80,
        failure_windows=(FailureWindow(0, 5, 30, 0.3), FailureWindow(0, 20, 40, 0.9),
                         FailureWindow(1, 10, 12, 0.5), FailureWindow(1, 60, 80, 0.7)),
        loss_windows=(LossWindow(1, 1, 4), LossWindow(0, 50, 55), LossWindow(0, 53, 70)),
    )
    return spec, model.transition, model.modalities


def _random_psd_q():
    """A random full-rank PSD Q and a random A near the identity."""
    g = np.random.default_rng(99)
    B = g.standard_normal((4, 4))
    transition = LinearGaussianTransition(np.eye(4) + 0.05 * g.standard_normal((4, 4)), B @ B.T)
    model = tracking_model_2d()
    return builtin_scenario(2), transition, model.modalities


def _builtin(k, truth_scale):
    def case():
        model = tracking_model_2d()
        transition = LinearGaussianTransition(DEFAULT_A, DEFAULT_Q * truth_scale)
        return builtin_scenario(k), transition, model.modalities
    return case


def _edges_six():
    """Six modalities over 12 steps, with every status deterministic:
    coin rows at t = 1, 2, 3 (adjacent) and t = 12 = T, windows of
    probability 0 (the coin is drawn, the reading stays NORMAL) and 1,
    a coin row with a lost cell, and an all-LOST row at t = 7 inside a
    run of coinless steps."""
    base = tracking_model_2d()
    spec = ScenarioSpec(
        horizon=12,
        failure_windows=(FailureWindow(0, 1, 2, 1.0), FailureWindow(3, 1, 1, 0.0), FailureWindow(1, 3, 3, 0.0),
                         FailureWindow(5, 12, 12, 1.0), FailureWindow(2, 12, 12, 0.0)),
        loss_windows=(LossWindow(4, 2, 2), *(LossWindow(i, 7, 7) for i in range(6))),
    )
    return spec, base.transition, base.modalities * 3


# edges_six's realised failure log, row t-1 at time t: N(ORMAL), F(AILED), L(OST)
EDGES_SIX_LOG = ["FNNNNN", "FNNNLN", *["NNNNNN"] * 4, "LLLLLL", *["NNNNNN"] * 4, "NNNNNF"]


def _one_modality(horizon, windows, k):
    """One sensor alone: the bearing (k = 0) or the range (k = 1)."""
    def case():
        model = tracking_model_2d()
        return ScenarioSpec(horizon=horizon, failure_windows=windows), model.transition, model.modalities[k:k + 1]
    return case


SAME_STREAM_CASES = {
    **{f"builtin{k}": _builtin(k, 1e-4) for k in (1, 2, 3, 4)},
    "builtin4_unscaled_q": _builtin(4, 1.0),
    "staggered_six": _staggered_six,
    "mixed_windows": _mixed_windows,
    "random_psd_q": _random_psd_q,
    "edges_six": _edges_six,
    "bearing_alone": _one_modality(40, (FailureWindow(0, 1, 1, 1.0), FailureWindow(0, 20, 21, 0.5),
                                        FailureWindow(0, 40, 40, 0.0)), 0),
    "range_alone_horizon_one_coin": _one_modality(1, (FailureWindow(0, 1, 1, 0.0),), 1),
    "bearing_alone_horizon_one": _one_modality(1, (), 0),
    "no_modalities": lambda: (ScenarioSpec(horizon=5), tracking_model_2d().transition, ()),
}


class TestSameStreamAsPerStep:
    """generate_run draws the truth's normals in one call and reads its
    statuses off a table; save writes the file in one go. Each must give,
    bit for bit, what the per-step forms in tests/reference.py give from
    the same seed, and leave the stream where they leave it."""

    @pytest.mark.parametrize("seed", [0, 7, 11, 20240501])
    @pytest.mark.parametrize("case", list(SAME_STREAM_CASES))
    def test_dataset_and_bytes_match_the_per_step_reference(self, tmp_path, case, seed):
        spec, transition, models = SAME_STREAM_CASES[case]()
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        run = generate_run(spec, DEFAULT_X0, transition, models, rng)
        ref = reference.generate_run(spec, DEFAULT_X0, transition, models, ref_rng)
        assert reference.run_values(run) == reference.run_values(ref)
        assert rng.random() == ref_rng.random()
        run.save(tmp_path / "run.ndjson")
        reference.save(ref, tmp_path / "ref.ndjson")
        assert (tmp_path / "run.ndjson").read_bytes() == (tmp_path / "ref.ndjson").read_bytes()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_edge_statuses(self, seed):
        spec, transition, models = _edges_six()
        run = generate_run(spec, DEFAULT_X0, transition, models, np.random.default_rng(seed))
        assert ["".join(ObservationStatus(s).name[0] for s in row) for row in run.failure_log] == EDGES_SIX_LOG
        lost = ["".join("L" if obs.value is None else "." for obs in frame.observations) for frame in run.frames]
        assert lost == [row.replace("N", ".").replace("F", ".") for row in EDGES_SIX_LOG]

    def test_no_modalities_give_empty_frames(self):
        spec, transition, models = SAME_STREAM_CASES["no_modalities"]()
        rng, truth_rng = np.random.default_rng(3), np.random.default_rng(3)
        run = generate_run(spec, DEFAULT_X0, transition, models, rng)
        assert run.failure_log.shape == (5, 0)
        assert [frame.observations for frame in run.frames] == [()] * 5
        # the truth's normals are the only draws
        np.testing.assert_array_equal(run.states, transition.rollout(DEFAULT_X0, 5, truth_rng))
        assert rng.random() == truth_rng.random()

    @pytest.mark.parametrize("horizon", [1, 2, 300])
    @pytest.mark.parametrize("seed", range(10))
    def test_truth_matches_the_per_step_reference(self, seed, horizon):
        # a full Q and an A off the identity: here one (T, d) noise product
        # differs from T (1, d) products in the last bit of some rows, and
        # the path shows it at 3 of these 10 seeds at T = 2 and 6 at T = 300
        _, transition, _ = _random_psd_q()
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        path = transition.rollout(DEFAULT_X0, horizon, rng)
        ref = reference.simulate_truth(horizon, DEFAULT_X0, transition, ref_rng)
        assert path.shape == (horizon, 4)
        np.testing.assert_array_equal(reference.as_bits(path), reference.as_bits(ref))
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("horizon", [2, 3, 50])
    def test_overflowing_truth_raises(self, horizon):
        # the state reaches 2e402 = inf at t = 2
        transition = LinearGaussianTransition(1e200 * np.eye(4), DEFAULT_Q)
        with pytest.raises(ValueError, match="non-finite state"):
            transition.rollout(DEFAULT_X0, horizon, np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-finite state"):
            generate_run(ScenarioSpec(horizon), DEFAULT_X0, transition, tracking_model_2d().modalities,
                         np.random.default_rng(0))

    @pytest.mark.parametrize("x0", [[1.0, 1.0, np.nan, 200.0], [1.0, 1.0, 200.0]], ids=["nan", "short"])
    def test_bad_start_state_raises(self, x0):
        with pytest.raises(ValueError, match="start state must be finite with 4 entries"):
            LinearGaussianTransition(DEFAULT_A, DEFAULT_Q).rollout(x0, 5, np.random.default_rng(0))

    @pytest.mark.parametrize("horizon, message", [(0, "horizon must be >= 1, got 0"),
                                                  (-1, "horizon must be >= 1, got -1"),
                                                  (2.5, "horizon must be an integer, got 2.5"),
                                                  (True, "horizon must be an integer, got True")])
    def test_bad_horizon_raises(self, horizon, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            LinearGaussianTransition(DEFAULT_A, DEFAULT_Q).rollout(DEFAULT_X0, horizon, np.random.default_rng(0))

    @pytest.mark.parametrize("case", ["mixed_windows", "staggered_six", "builtin2", "builtin3"])
    def test_script_matches_the_per_window_reference(self, case):
        spec, _, models = SAME_STREAM_CASES[case]()
        # one column more than the models: a modality no window names is NORMAL
        status, prob = spec.script(len(models) + 1)
        for t in range(1, spec.horizon + 1):
            for i in range(len(models) + 1):
                assert (status[t - 1, i], prob[t - 1, i]) == reference.status_at(spec, t, i), (t, i)

    def test_script_precedence(self):
        spec, _, _ = _mixed_windows()
        status, prob = spec.script(3)
        assert status.shape == prob.shape == (80, 3)
        assert (status[:, 2] == ObservationStatus.NORMAL).all() and (prob[:, 2] == 0.0).all()
        # the first listed of two overlapping failure windows sets the probability
        assert (status[21, 0], prob[21, 0]) == (ObservationStatus.FAILED, 0.3)
        assert (status[35, 0], prob[35, 0]) == (ObservationStatus.FAILED, 0.9)
