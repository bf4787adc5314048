import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from modalfuse import (
    AngleModality,
    LinearGaussianTransition,
    ModalityObservation,
    ObservationFrame,
    RangeModality,
    tracking_model_2d,
    wrap_angle,
)
import modalfuse.ssm as ssm_mod
from modalfuse.ssm import DEFAULT_A, DEFAULT_Q, DEFAULT_SIGMA_ANGLE, _gauss_loglik, null_loglik

from reference import restrict_to

A = DEFAULT_A
Q = DEFAULT_Q


class TestWrapAngle:
    def test_range(self, rng):
        a = rng.uniform(-50, 50, size=1000)
        w = wrap_angle(a)
        assert np.all(w > -np.pi) and np.all(w <= np.pi)

    def test_seam(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(0.0) == pytest.approx(0.0)
        # next to a seam the result can round onto -pi (the value space is closed)
        seams = [np.pi, -np.pi, 0.0, -0.0, 2.0 * np.pi, -2.0 * np.pi, 3.0 * np.pi, -3.0 * np.pi]
        near = [np.nextafter(s, direction) for s in seams for direction in (-np.inf, np.inf)]
        w = wrap_angle(np.array(seams + near + [1e300, -1e300, 5e-324]))
        assert np.all(w >= -np.pi) and np.all(w <= np.pi)
        assert wrap_angle(np.nextafter(np.pi, 4.0)) == -np.pi

    def test_scalars_nan_and_empty(self):
        for theta in (np.pi, -np.pi, 0.0, 7.0, 3, np.float64(-2.5), np.array(1.0)):
            assert type(wrap_angle(theta)) is np.float64
        assert np.isnan(wrap_angle(np.nan))
        got = wrap_angle(np.array([0.5, np.nan, -0.5]))
        assert np.isnan(got[1]) and np.array_equal(got[[0, 2]], [0.5, -0.5])
        assert wrap_angle(np.empty(0)).shape == (0,)


class TestTransition:
    def test_noiseless_adds_velocity_into_position(self, rng):
        tm = LinearGaussianTransition(A, np.zeros((4, 4)))
        out = tm.sample(np.array([1.0, 1.0, 0.0, 0.0]), rng)
        np.testing.assert_allclose(out, [1.0, 1.0, 1.0, 1.0])

    def test_zero_velocity_is_position_fixed_point(self, rng):
        tm = LinearGaussianTransition(A, np.zeros((4, 4)))
        out = tm.sample(np.array([0.0, 0.0, 5.0, 5.0]), rng)
        np.testing.assert_allclose(out, [0.0, 0.0, 5.0, 5.0])

    def test_monte_carlo_mean_matches_analytic(self, rng):
        # oracle: E[x_t] = A x_prev
        tm = LinearGaussianTransition(A, Q)
        x_prev = np.array([1.0, 0.0, 0.0, 0.0])
        n = 100_000
        draws = tm.sample(np.tile(x_prev, (n, 1)), rng)
        expected = A @ x_prev
        se = draws.std(axis=0, ddof=1) / np.sqrt(n)
        np.testing.assert_allclose(expected, [1.0, 0.0, 1.0, 0.0])
        assert np.all(np.abs(draws.mean(axis=0) - expected) < 3 * se + 1e-12)

    def test_dimension_mismatch_raises(self, rng):
        tm = LinearGaussianTransition(A, Q)
        for x in (np.array([1.0, 2.0]), np.ones((5, 2))):
            with pytest.raises(ValueError, match="state dimension 2 != model dimension 4"):
                tm.sample(x, rng)

    def test_non_finite_state_raises(self, rng):
        tm = LinearGaussianTransition(A, Q)
        for x in (np.array([1.0, np.nan, 0.0, 0.0]), np.array([[0.0] * 4, [0.0, np.inf, 0.0, 0.0]])):
            with pytest.raises(ValueError, match="non-finite state passed to transition"):
                tm.sample(x, rng)

    def test_asymmetric_q_rejected(self):
        bad = Q.copy()
        bad[0, 1] = 5.0
        with pytest.raises(ValueError):
            LinearGaussianTransition(A, bad)

    def test_indefinite_q_rejected(self):
        with pytest.raises(ValueError):
            LinearGaussianTransition(A, np.diag([1.0, -1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("name, bad", [("A", np.nan), ("Q", np.inf)])
    def test_non_finite_dynamics_rejected(self, name, bad):
        mats = {"A": A.copy(), "Q": Q.copy()}
        mats[name][0, 0] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LinearGaussianTransition(mats["A"], mats["Q"])

    def test_batch_sampling_shape(self, rng):
        tm = LinearGaussianTransition(A, Q)
        out = tm.sample(rng.normal(size=(50, 4)), rng)
        assert out.shape == (50, 4)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("shape", [(2, 4, 4), (2, 4, 3), ()])
    def test_state_neither_one_nor_a_batch_rejected(self, rng, shape):
        # the width was read off axis 1: (2, 4, 4) ran, (2, 4, 3) failed in
        # numpy's matmul and a 0-d state read "state dimension 1"
        with pytest.raises(ValueError, match=re.escape(f"state must be shaped (d,) or (N, d), got shape {shape}")):
            LinearGaussianTransition(A, Q).sample(np.ones(shape), rng)

    @pytest.mark.parametrize("x", [np.array([1.0, -2.0, 150.0, 30.0]), np.arange(40.0).reshape(10, 4)],
                             ids=["one_state", "batch"])
    def test_sample_is_the_product_sum(self, x):
        # the noise product is added into the x @ A^T buffer: the same sum,
        # with the normals drawn in the same order
        tm = LinearGaussianTransition(A, Q)
        rng, old = np.random.default_rng(9), np.random.default_rng(9)
        x2 = np.atleast_2d(x)
        want = x2 @ tm._A_t + old.standard_normal(x2.shape) @ tm._noise_factor_t
        got = tm.sample(x, rng)
        assert got.shape == x.shape
        assert np.array_equal(got.view(np.int64), want.reshape(x.shape).view(np.int64))
        assert rng.random() == old.random()


class TestAngleModality:
    def test_loglik_at_mode(self):
        # oracle: Gaussian density at its mode, log(1 / (sigma sqrt(2 pi)))
        mod = AngleModality(sigma=0.1)
        x = np.array([0.0, 0.0, 10.0, 10.0])
        expected = -np.log(0.1) - 0.5 * np.log(2.0 * np.pi)
        assert expected == pytest.approx(1.3836, abs=1e-4)
        assert mod.loglik(np.arctan(1.0), x) == pytest.approx(expected, abs=1e-12)

    def test_periodicity(self, rng):
        mod = AngleModality()
        for _ in range(100):
            y = rng.uniform(-np.pi, np.pi)
            x = rng.normal(scale=100.0, size=4)
            assert mod.loglik(y, x) == pytest.approx(mod.loglik(y + 2 * np.pi, x), abs=1e-12)

    def test_mean_quadrant_convention(self):
        mod = AngleModality()
        # single-argument arctan: range (-pi/2, pi/2)
        assert mod.mean(np.array([0, 0, 3.0, 4.0])) == pytest.approx(np.arctan(0.75))
        assert mod.mean(np.array([0, 0, -3.0, 4.0])) == pytest.approx(-np.arctan(0.75))
        # d_y = 0 maps to sign(d_x) * pi/2; the origin maps to 0
        assert mod.mean(np.array([0, 0, 2.0, 0.0])) == pytest.approx(np.pi / 2)
        assert mod.mean(np.array([0, 0, -2.0, 0.0])) == pytest.approx(-np.pi / 2)
        assert mod.mean(np.array([0, 0, 0.0, 0.0])) == 0.0

    def test_density_integrates_to_one(self):
        mod = AngleModality()
        x = np.array([0.0, 0.0, 30.0, 40.0])
        grid = np.linspace(-np.pi, np.pi, 20001)
        dens = np.exp([mod.loglik(y, x) for y in grid])
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)

    def test_null_loglik(self):
        mod = AngleModality()
        assert null_loglik(mod) == pytest.approx(-np.log(2 * np.pi), abs=1e-12)
        assert null_loglik(mod) == pytest.approx(-1.8379, abs=1e-4)
        # constant: does not depend on sigma or any observation
        assert null_loglik(AngleModality(sigma=5.0)) == null_loglik(mod)

    def test_reading_stays_in_value_space(self, rng):
        mod = AngleModality(sigma=2.0)
        x = np.tile([0.0, 0.0, 1.0, 1.0], (5000, 1))
        draws = mod.reading(x, rng.standard_normal(5000))
        assert np.all(draws > -np.pi) and np.all(draws <= np.pi)


class TestRangeModality:
    def test_loglik_at_mode(self):
        # oracle: log(1 / sqrt(2 pi)) for sigma = 1
        mod = RangeModality(sigma=1.0)
        x = np.array([0.0, 0.0, 3.0, 4.0])
        expected = -0.5 * np.log(2.0 * np.pi)
        assert expected == pytest.approx(-0.9189, abs=1e-4)
        assert mod.loglik(5.0, x) == pytest.approx(expected, abs=1e-12)

    def test_density_integrates_to_one(self):
        mod = RangeModality()
        x = np.array([0.0, 0.0, 30.0, 40.0])
        grid = np.linspace(0.0, 2000.0, 200001)
        dens = np.exp(mod.loglik(grid, np.tile(x, (grid.shape[0], 1))))
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)

    def test_null_loglik(self):
        mod = RangeModality(r_max=2000.0)
        assert null_loglik(mod) == pytest.approx(-np.log(2000.0), abs=1e-12)
        assert null_loglik(mod) == pytest.approx(-7.6009, abs=1e-4)
        assert null_loglik(RangeModality(r_max=123.0)) == -np.log(123.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RangeModality(r_max=0.0)
        with pytest.raises(ValueError):
            RangeModality(r_max=-10.0)
        for sigma in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="sigma must be finite and > 0"):
                RangeModality(sigma=sigma)
            with pytest.raises(ValueError, match="sigma must be finite and > 0"):
                AngleModality(sigma=sigma)

    def test_reading_clipped_to_value_space(self, rng):
        mod = RangeModality(sigma=50.0, r_max=100.0)
        x = np.tile([0.0, 0.0, 60.0, 80.0], (5000, 1))
        draws = mod.reading(x, rng.standard_normal(5000))
        assert np.all(draws >= 0.0) and np.all(draws <= 100.0)


# near 0, past r_max = 300 and in between, and bearings near +-pi/2, whose
# noisy readings wrap at +-pi under sigma 2
READING_STATES = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 280.0, 50.0], [0.0, 0.0, 100.0, 100.0],
                           [0.0, 0.0, 300.0, 1.0], [0.0, 0.0, -300.0, 1.0]] * 40)


class TestReadingIsTheOldDraw:
    """``reading(x, z)`` with z from ``rng.standard_normal`` equals, bit for
    bit, the ``rng.normal(mean(x), sigma)`` draw the modalities used to
    take, wrapped for the bearing and clipped for the range."""

    @pytest.mark.parametrize("mod, fold", [
        (AngleModality(sigma=2.0), wrap_angle),
        (RangeModality(sigma=50.0, r_max=300.0), lambda y: np.clip(y, 0.0, 300.0)),
    ], ids=["angle", "range"])
    @pytest.mark.parametrize("x", [READING_STATES, READING_STATES[1], READING_STATES[3]],
                             ids=["batch", "one_state", "one_state_near_the_seam"])
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_reading_equals_the_folded_normal_draw(self, mod, fold, x, seed):
        rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = mod.reading(x, rng.standard_normal(np.shape(mod.mean(x))))
        want = fold(old.normal(mod.mean(x), mod.sigma))
        assert np.shape(got) == np.shape(want)
        np.testing.assert_array_equal(got, want)
        assert rng.random() == old.random()

    def test_the_batch_reaches_the_folds(self):
        z = np.random.default_rng(0).standard_normal(len(READING_STATES))
        ranges = RangeModality(sigma=50.0, r_max=300.0).reading(READING_STATES, z)
        assert {0.0, 300.0} <= set(ranges.tolist())
        raw = AngleModality(sigma=2.0).mean(READING_STATES) + 2.0 * z
        assert np.any(raw > np.pi) and np.any(raw < -np.pi)


@settings(max_examples=50, deadline=None)
@given(
    y=st.floats(-3.0, 3.0),
    k=st.integers(-3, 3),
    dx=st.floats(-100.0, 100.0),
    dy=st.floats(1.0, 100.0),
)
def test_angle_loglik_periodic_property(y, k, dx, dy):
    mod = AngleModality()
    x = np.array([0.0, 0.0, dx, dy])
    assert mod.loglik(y, x) == pytest.approx(mod.loglik(y + 2 * np.pi * k, x), abs=1e-9)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestGaussLoglik:
    @staticmethod
    def _expression(resid, sigma):
        return -0.5 * (resid / sigma) ** 2 - np.log(sigma) - 0.5 * np.log(2.0 * np.pi)

    @pytest.mark.parametrize("resid", [0.3, -2, np.float64(-2.5), np.array(1.5)], ids=repr)
    def test_scalar_residual_gives_a_numpy_scalar(self, resid):
        got = _gauss_loglik(resid, 0.7)
        assert type(got) is np.float64
        assert _bits(got) == _bits(self._expression(resid, 0.7))


# bearing-sensor coordinates, with d_y = 0 (a bearing of +-pi/2) and 0/0 (a bearing of 0)
COORDS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e4, 1e4))
# readings in the value space, on its ends, just outside it and far outside
READINGS = st.one_of(
    st.floats(-np.pi, np.pi),
    st.sampled_from([-np.pi, np.pi, np.nextafter(np.pi, 4.0), np.nextafter(-np.pi, -4.0), 0.0, -0.0]),
    st.floats(-1e3, 1e3),
    st.integers(-30, 30),
    st.floats(-np.pi, np.pi).map(np.float64),
)


class TestAngleLoglikFastPath:
    """A bearing log-likelihood equals, bit for bit, the Gaussian of
    ``wrap_angle``'s residual, whether it folds the residual in place or
    calls ``wrap_angle``."""

    @staticmethod
    def _assert_as_wrap_angle(y, x, sigma=DEFAULT_SIGMA_ANGLE):
        mod = AngleModality(sigma)
        want = _gauss_loglik(wrap_angle(np.asarray(y, dtype=float) - mod.mean(x)), sigma)
        got = mod.loglik(y, x)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(_bits(got), _bits(want))

    @settings(max_examples=300, deadline=None)
    @given(y=READINGS, x=hnp.arrays(float, st.tuples(st.integers(1, 20), st.just(4)), elements=COORDS))
    @example(y=np.pi, x=np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, -5.0, 1e-10]]))
    @example(y=-np.pi, x=np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 5.0, -1e-10]]))
    @example(y=20.0, x=np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]]))
    @example(y=-7.0, x=np.array([[0.0, 0.0, -1.0, 1.0], [0.0, 0.0, 0.0, -0.0]]))
    @example(y=3, x=np.array([[0.0, 0.0, -1.0, 1.0], [0.0, 0.0, 1.0, 0.0]]))
    @example(y=np.float64(np.pi), x=np.array([[0.0, 0.0, 1.0, 1.0]]))
    def test_batch_equals_wrap_angle(self, y, x):
        self._assert_as_wrap_angle(y, x)

    @pytest.mark.parametrize("y", [np.pi, -np.pi, 0.5, 20.0, 3])
    def test_single_state_equals_wrap_angle(self, y):
        self._assert_as_wrap_angle(y, np.array([0.0, 0.0, -3.0, 0.0]))
        self._assert_as_wrap_angle(y, np.array([0.0, 0.0, 4.0, 2.0]))

    @pytest.mark.parametrize("x, want", [
        (np.array([0.0, 0.0, 1e4, 1e-305]), np.pi / 2),
        (np.array([[0.0, 0.0, -1e4, 1e-305], [0.0, 0.0, 1e300, 1e-300]]), np.array([-np.pi / 2, np.pi / 2])),
    ], ids=["single", "batch"])
    def test_mean_of_an_overflowing_ratio_is_silent(self, x, want):
        # d_x / d_y overflows to +-inf, whose arctan is the bearing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(AngleModality().mean(x), want)

    def test_wrap_angle_runs_only_off_the_fast_path(self, monkeypatch):
        x = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, -2.0, 0.5]])
        mod = AngleModality()

        def refused(theta):
            raise AssertionError("wrap_angle called")

        monkeypatch.setattr(ssm_mod, "wrap_angle", refused)
        for y in (np.pi, -np.pi, 0.25, np.float64(1.0)):
            mod.loglik(y, x)
        for y in (np.nextafter(np.pi, 4.0), 7.0, 1, np.nan):
            with pytest.raises(AssertionError, match="wrap_angle called"):
                mod.loglik(y, x)
        with pytest.raises(AssertionError, match="wrap_angle called"):
            mod.loglik(0.25, x[0])


class TestObservationFrame:
    def test_of_and_accessors(self):
        frame = ObservationFrame.of(3, [0.5, None])
        assert frame.time_index == 3
        assert len(frame.observations) == 2
        assert frame.observations[0].value == 0.5
        assert frame.observations[1].value is None
        assert frame.observations[0].present
        assert not frame.observations[1].present

    def test_time_index_starts_at_one(self):
        with pytest.raises(ValueError):
            ObservationFrame.of(0, [0.5, 0.7])

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError):
            ObservationFrame.of(1, [np.inf, 0.7])
        with pytest.raises(ValueError):
            ModalityObservation(np.nan)

    @pytest.mark.parametrize("value", [float("nan"), -np.inf, np.float64(np.inf)],
                             ids=["float_nan", "float_minus_inf", "float64_inf"])
    def test_non_finite_value_rejected_for_each_value_type(self, value):
        with pytest.raises(ValueError, match="observation values must be finite"):
            ModalityObservation(value)

    @pytest.mark.parametrize("value", [0.5, np.float64(-3.0), 7])
    def test_finite_value_accepted_for_each_value_type(self, value):
        assert ModalityObservation(value).present

    @pytest.mark.parametrize("value", [np.array([1.0, 2.0]), np.array([1.0]), [0.5], "0.5", 1 + 2j],
                             ids=["array", "one_element_array", "list", "str", "complex"])
    def test_non_scalar_value_rejected(self, value):
        # a reading is one real number: later stages compare it with the
        # value space's bounds and write it with float()
        with pytest.raises(ValueError, match="is not a real number"):
            ModalityObservation(value)
        with pytest.raises(ValueError, match="is not a real number"):
            ObservationFrame.of(1, [0.5, value])

    def test_of_builds_the_observations_the_constructor_builds(self):
        values = [0.5, None, np.float64(-3.0), 7]
        frame = ObservationFrame.of(2, values)
        assert frame == ObservationFrame(2, tuple(ModalityObservation(v) for v in values))
        assert [type(o) for o in frame.observations] == [ModalityObservation] * 4
        assert [o.value for o in frame.observations] == values

    @pytest.mark.parametrize("entry", [283.0, None, (283.0,)], ids=["float", "none", "tuple"])
    def test_entry_that_is_not_an_observation_rejected(self, entry):
        # the raw constructor used to accept it, and the run then failed
        # with "'float' object has no attribute 'present'"
        with pytest.raises(ValueError, match=r"observation 1 is .*, not a ModalityObservation"):
            ObservationFrame(1, (ModalityObservation(0.78), entry))

    def test_restrict_to(self):
        frame = ObservationFrame.of(2, [0.5, 0.7])
        only1 = restrict_to(frame, 1)
        assert only1.observations[0].value is None
        assert only1.observations[1].value == 0.7
        assert only1.time_index == 2


def test_tracking_model_2d_defaults(model):
    assert len(model.modalities) == 2
    np.testing.assert_array_equal(model.transition.A, A)
    np.testing.assert_array_equal(model.transition.Q, Q)
    assert isinstance(model.modalities[0], AngleModality)
    assert isinstance(model.modalities[1], RangeModality)
    assert model.modalities[0].sigma == 0.1
    assert model.modalities[1].sigma == 1.0
    assert model.modalities[1].r_max == 2000.0


def test_tracking_model_2d_overrides():
    model = tracking_model_2d(sigma_angle=0.2, sigma_range=3.0, range_max=500.0)
    assert model.modalities[0].sigma == 0.2
    assert model.modalities[1].sigma == 3.0
    assert model.modalities[1].value_space == (0.0, 500.0)


@pytest.mark.parametrize("A, Q, name, shape", [
    (np.eye(2), np.eye(2), "A", r"\(2, 2\)"),
    (None, np.eye(3), "Q", r"\(3, 3\)"),
    (np.eye(4)[:, :3], None, "A", r"\(4, 3\)"),
])
def test_tracking_model_2d_rejects_non_4x4_dynamics(A, Q, name, shape):
    # both sensors read state components 2 and 3
    with pytest.raises(ValueError, match=rf"{name} must be 4 x 4 .*shape {shape}"):
        tracking_model_2d(A=A, Q=Q)
