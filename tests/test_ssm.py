import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalfuse import (
    AngleModality,
    LinearGaussianTransition,
    ModalityObservation,
    ObservationFrame,
    RangeModality,
    tracking_model_2d,
    wrap_angle,
)
from modalfuse.ssm import DEFAULT_A, DEFAULT_Q

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
        with pytest.raises(ValueError):
            tm.sample(np.array([1.0, 2.0]), rng)

    def test_non_finite_state_raises(self, rng):
        tm = LinearGaussianTransition(A, Q)
        with pytest.raises(ValueError):
            tm.sample(np.array([1.0, np.nan, 0.0, 0.0]), rng)

    def test_asymmetric_q_rejected(self):
        bad = Q.copy()
        bad[0, 1] = 5.0
        with pytest.raises(ValueError):
            LinearGaussianTransition(A, bad)

    def test_indefinite_q_rejected(self):
        with pytest.raises(ValueError):
            LinearGaussianTransition(A, np.diag([1.0, -1.0, 1.0, 1.0]))

    def test_batch_sampling_shape(self, rng):
        tm = LinearGaussianTransition(A, Q)
        out = tm.sample(rng.normal(size=(50, 4)), rng)
        assert out.shape == (50, 4)
        assert np.all(np.isfinite(out))


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
        assert mod.null_loglik() == pytest.approx(-np.log(2 * np.pi), abs=1e-12)
        assert mod.null_loglik() == pytest.approx(-1.8379, abs=1e-4)
        # constant: does not depend on sigma or any observation
        assert AngleModality(sigma=5.0).null_loglik() == mod.null_loglik()

    def test_sample_stays_in_value_space(self, rng):
        mod = AngleModality(sigma=2.0)
        x = np.tile([0.0, 0.0, 1.0, 1.0], (5000, 1))
        draws = mod.sample(x, rng)
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
        assert mod.null_loglik() == pytest.approx(-np.log(2000.0), abs=1e-12)
        assert mod.null_loglik() == pytest.approx(-7.6009, abs=1e-4)
        hypothetical_ys = [0.0, 5.0, 1999.0]
        assert len({mod.null_loglik() for _ in hypothetical_ys}) == 1

    def test_volume_is_r_max(self):
        assert RangeModality(r_max=123.0).volume == 123.0

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

    def test_sample_clipped_to_value_space(self, rng):
        mod = RangeModality(sigma=50.0, r_max=100.0)
        x = np.tile([0.0, 0.0, 60.0, 80.0], (5000, 1))
        draws = mod.sample(x, rng)
        assert np.all(draws >= 0.0) and np.all(draws <= 100.0)


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


class TestObservationFrame:
    def test_of_and_accessors(self):
        frame = ObservationFrame.of(3, [0.5, None])
        assert frame.time_index == 3
        assert frame.n_modalities == 2
        assert frame.value(0) == 0.5
        assert frame.value(1) is None
        assert frame.observations[0].present
        assert not frame.observations[1].present

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ObservationFrame(1, (ModalityObservation(1, 0.5), ModalityObservation(0, 1.0)))

    def test_time_index_starts_at_one(self):
        with pytest.raises(ValueError):
            ObservationFrame.of(0, [0.5, 0.7])

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError):
            ObservationFrame.of(1, [np.inf, 0.7])
        with pytest.raises(ValueError):
            ModalityObservation(0, np.nan)

    def test_restrict_to(self):
        frame = ObservationFrame.of(2, [0.5, 0.7])
        only1 = frame.restrict_to(1)
        assert only1.value(0) is None
        assert only1.value(1) == 0.7
        assert only1.time_index == 2


def test_tracking_model_2d_defaults(model):
    assert model.n_modalities == 2
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
    assert model.modalities[1].volume == 500.0
