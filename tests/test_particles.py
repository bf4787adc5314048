import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalfuse import (
    ObservationFrame,
    ParticleSet,
    estimate_mean,
    init_particles,
    pf_step,
    propagate,
    residual_resample,
    tracking_model_2d,
)
from modalfuse.dma import reweight_rows
from modalfuse.particles import uniform_log_weights
from modalfuse.ssm import DEFAULT_A, DEFAULT_Q, LinearGaussianTransition

from conftest import point_prior
from reference import logsumexp, mix_one


def make_set(states, weights):
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    w = np.asarray(weights, dtype=float)
    return ParticleSet(states, np.log(w / w.sum()))


def reweight(p, log_lik):
    """One row through the reweighting kernel, normalised as
    ``mix_and_resample`` normalises it with pi = [1.0]."""
    _, E, scale = reweight_rows(p.log_weights, np.array(log_lik, dtype=float)[None, :])
    w = scale[0] * E[0]
    return ParticleSet(p.states, np.log(w / w.sum()))


class TestLogsumexp:
    def test_matches_direct_arithmetic(self, rng):
        a = rng.normal(size=40)
        assert logsumexp(a) == pytest.approx(np.log(np.exp(a).sum()), abs=1e-12)

    def test_all_minus_inf(self):
        assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf

    def test_axis(self, rng):
        a = rng.normal(size=(3, 7))
        got = logsumexp(a, axis=1)
        want = np.log(np.exp(a).sum(axis=1))
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestInit:
    def test_equal_weights(self, rng):
        p = init_particles(point_prior([1.0, 2.0]), 4, rng)
        np.testing.assert_allclose(p.weights, [0.25, 0.25, 0.25, 0.25])

    def test_large_n_normalised(self, rng):
        p = init_particles(lambda n, r: r.normal(size=(n, 4)), 10_000, rng)
        assert abs(p.weights.sum() - 1.0) < 1e-9

    def test_point_prior_degenerate(self, rng):
        x0 = [3.0, -1.0, 0.5, 2.0]
        p = init_particles(point_prior(x0), 7, rng)
        assert np.all(p.states == np.asarray(x0))

    def test_zero_particles_rejected(self, rng):
        with pytest.raises(ValueError):
            init_particles(point_prior([0.0]), 0, rng)

    def test_one_dimensional_prior_sample_rejected(self, rng):
        # a prior returns one (d,) row per particle; an (n,) sample is refused, not reshaped
        with pytest.raises(ValueError, match=r"non-empty \(N, d\) array"):
            init_particles(lambda n, r: r.normal(size=n), 5, rng)


class TestParticleSetInvariants:
    def test_unnormalised_rejected(self):
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((2, 1)), np.array([0.0, 0.0]))

    def test_nan_state_rejected(self):
        with pytest.raises(ValueError):
            ParticleSet(np.array([[np.nan]]), np.array([0.0]))

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((2, 1)), np.array([np.nan, 0.0]))


class TestPropagate:
    def test_identity_dynamics(self, rng):
        tm = LinearGaussianTransition(np.eye(4), np.zeros((4, 4)))
        p = init_particles(point_prior([1.0, 2.0, 3.0, 4.0]), 5, rng)
        out = propagate(p, tm, rng)
        np.testing.assert_array_equal(out.states, p.states)

    def test_weights_untouched_bit_exact(self, rng):
        tm = LinearGaussianTransition(DEFAULT_A, DEFAULT_Q)
        p = make_set(np.zeros((6, 4)), [0.3, 0.1, 0.15, 0.2, 0.05, 0.2])
        out = propagate(p, tm, rng)
        assert np.array_equal(out.log_weights, p.log_weights)

    def test_position_gains_velocity_in_expectation(self, rng):
        # oracle: E[x'] = A x, so positions move by the velocity components
        tm = LinearGaussianTransition(DEFAULT_A, DEFAULT_Q)
        n = 50_000
        p = init_particles(point_prior([2.0, -1.0, 10.0, 20.0]), n, rng)
        out = propagate(p, tm, rng)
        se = out.states.std(axis=0, ddof=1) / np.sqrt(n)
        np.testing.assert_array_less(
            np.abs(out.states.mean(axis=0) - [2.0, -1.0, 12.0, 19.0]), 3 * se + 1e-12
        )


class TestReweight:
    def test_constant_loglik_leaves_weights(self):
        p = make_set([0.0, 1.0, 2.0], [0.5, 0.25, 0.25])
        out = reweight(p, np.full(3, -7.3))
        np.testing.assert_allclose(out.weights, p.weights, atol=1e-12)

    def test_two_particle_hand_case(self):
        # oracle: w_i = L_i / sum(L); likelihoods e^1 and e^0
        p = make_set([0.0, 1.0], [0.5, 0.5])
        out = reweight(p, np.array([1.0, 0.0]))
        expected = np.array([np.e / (np.e + 1.0), 1.0 / (np.e + 1.0)])
        np.testing.assert_allclose(expected, [0.7310585786300049, 0.2689414213699951])
        np.testing.assert_allclose(out.weights, expected, atol=1e-12)

    def test_composition_equals_joint(self, rng):
        p = make_set(rng.normal(size=5), rng.uniform(0.1, 1.0, size=5))
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        two_step = reweight(reweight(p, a), b)
        one_step = reweight(p, a + b)
        np.testing.assert_allclose(two_step.log_weights, one_step.log_weights, atol=1e-12)

    def test_total_underflow_collapses(self, rng):
        # zero evidence: the marginal is -inf and the mixture keeps the
        # incoming weights, here read off the mean of states 0 and 1
        p = make_set([0.0, 1.0], [0.7, 0.3])
        log_g, E, scale = reweight_rows(p.log_weights, np.array([[-np.inf, -np.inf]]))
        assert log_g[0] == -np.inf and scale[0] == 0.0
        _, est = mix_one(p, np.ones(1), E, scale, rng)
        np.testing.assert_allclose(est, [0.3], atol=1e-15)

    def test_nan_loglik_rejected(self):
        # a NaN row has no marginal and never reaches the mixture
        p = make_set([0.0, 1.0], [0.5, 0.5])
        log_g, E, scale = reweight_rows(p.log_weights, np.array([[np.nan, 0.0]]))
        assert not np.isfinite(log_g[0])
        assert scale[0] == 0.0 and not E.any()

    def test_extreme_logliks_stay_normalised(self):
        p = make_set([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3])
        out = reweight(p, np.array([-2.0e8, -2.0e8 + 1.0, -2.0e8 + 0.5]))
        assert abs(logsumexp(out.log_weights)) < 1e-9
        direct = np.exp([0.0, 1.0, 0.5])
        np.testing.assert_allclose(out.weights, direct / direct.sum(), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(c=st.floats(-500.0, 500.0))
def test_reweight_shift_invariance(c):
    p = make_set([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
    ll = np.array([0.4, -1.2, 2.0])
    base = reweight(p, ll)
    shifted = reweight(p, ll + c)
    np.testing.assert_allclose(shifted.weights, base.weights, atol=1e-12)


class TestResidualResample:
    def test_uniform_weights_identity(self, rng):
        p = make_set(np.arange(8.0), np.full(8, 1 / 8))
        out = residual_resample(p, rng)
        np.testing.assert_array_equal(np.sort(out.states[:, 0]), np.arange(8.0))
        np.testing.assert_allclose(out.weights, np.full(8, 1 / 8))

    def test_degenerate_weight_copies_everywhere(self, rng):
        p = ParticleSet(
            np.array([[1.0], [2.0], [3.0]]),
            np.log(np.array([1e-300, 1.0, 1e-300])),
        )
        out = residual_resample(p, rng)
        assert np.all(out.states == 2.0)

    @staticmethod
    def _three_value_ten_particle_set():
        # 10 particles carrying values 10/20/30 with total weights .5/.3/.2
        states = np.array([10.0, 20.0, 30.0] + [99.0] * 7)[:, None]
        w = np.array([0.5, 0.3, 0.2] + [0.0] * 7)
        with np.errstate(divide="ignore"):
            return ParticleSet(states, np.log(w))

    def test_deterministic_floor_counts(self, rng):
        p = self._three_value_ten_particle_set()
        floors = np.floor(10 * p.weights[:3])
        for _ in range(50):
            out = residual_resample(p, rng)
            for v, f in zip([10.0, 20.0, 30.0], floors):
                assert np.sum(out.states[:, 0] == v) >= f

    def test_unbiasedness_monte_carlo(self, rng):
        # oracle: E[count_i] = N * w_i for residual resampling
        p = self._three_value_ten_particle_set()
        n_rep = 100_000
        counts = np.zeros((n_rep, 3))
        for k in range(n_rep):
            out = residual_resample(p, rng)
            for j, v in enumerate([10.0, 20.0, 30.0]):
                counts[k, j] = np.sum(out.states[:, 0] == v)
        mean = counts.mean(axis=0)
        se = counts.std(axis=0, ddof=1) / np.sqrt(n_rep)
        np.testing.assert_array_less(np.abs(mean - [5.0, 3.0, 2.0]), 3 * se + 1e-9)

    def test_mean_preserved_in_expectation(self, rng):
        p = make_set(np.linspace(-3, 3, 10), np.arange(1.0, 11.0))
        target = estimate_mean(p)
        n_rep = 10_000
        means = np.empty(n_rep)
        for k in range(n_rep):
            means[k] = estimate_mean(residual_resample(p, rng))[0]
        se = means.std(ddof=1) / np.sqrt(n_rep)
        assert abs(means.mean() - target[0]) < 3 * se + 1e-12

    def test_residue_fill_is_multinomial_over_residuals(self, rng):
        # N * w: integers (4, 3, 1), zero weights, residual ties (0.5, 0.5)
        # and near-ties (0.5 +- 1e-9, 1 - 1e-9, 1 + 1e-9); 4 slots to fill
        n = 16
        scaled = np.array([4.0, 3.0, 0.0, 2.5, 1.5, 0.5 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-9,
                           0.75, 0.25, 0.5 - 1e-9, 1.0, 0.0, 0.0, 0.0, 0.0])
        with np.errstate(divide="ignore"):
            p = ParticleSet(np.arange(float(n))[:, None], np.log(scaled / n))
        floor = np.floor(n * p.weights)
        resid = n * p.weights - floor
        short = n - int(floor.sum())
        assert short == 4 and np.all(resid[[0, 1, 2, 11]] == 0.0)
        prob = resid / resid.sum()
        n_rep = 20_000
        counts = np.empty((n_rep, n))
        for k in range(n_rep):
            out = residual_resample(p, rng)
            assert out.n == n
            counts[k] = np.bincount(out.states[:, 0].astype(int), minlength=n)
        fill = counts - floor
        # a particle with zero residual is copied exactly floor(N * w) times
        assert np.all(fill[:, resid == 0.0] == 0)
        assert np.all(fill >= 0) and np.all(fill.sum(axis=1) == short)
        # oracle: E[count_i] = N * w_i; bound 4 standard errors of the mean
        var = short * prob * (1.0 - prob)
        np.testing.assert_array_less(np.abs(counts.mean(axis=0) - n * p.weights),
                                     4.0 * np.sqrt(var / n_rep) + 1e-12)
        # oracle: Var[fill_i] = short * p_i * (1 - p_i), multinomial; with
        # these p_i (0.0625 to 0.25) the sample variance has a relative
        # standard error of at most 1.6%, so 6% is a bound of about 4 of them
        drawn = var > 1e-3
        np.testing.assert_allclose(fill[:, drawn].var(axis=0, ddof=1), var[drawn], rtol=0.06)

    def test_output_weights_uniform(self, rng):
        p = make_set(np.arange(5.0), [0.4, 0.3, 0.15, 0.1, 0.05])
        out = residual_resample(p, rng)
        np.testing.assert_allclose(out.log_weights, uniform_log_weights(5))

    def test_a_set_built_from_its_weights_derives_its_log_weights(self):
        w = np.array([0.5, 0.25, 0.25, 0.0])
        p = ParticleSet._trusted(np.arange(4.0)[:, None], weights=w.copy())
        assert "log_weights" not in vars(p)
        with np.errstate(divide="ignore"):
            assert np.array_equal(p.log_weights, np.log(w))
        assert vars(p)["log_weights"] is p.log_weights and not p.log_weights.flags.writeable
        assert np.array_equal(residual_resample(p, np.random.default_rng(0)).states[:, 0], [0.0, 0.0, 1.0, 2.0])
        with pytest.raises(AttributeError, match="no attribute 'other'"):
            p.other
        # without weights there is nothing to derive the log-weights from
        with pytest.raises(AttributeError, match="no attribute 'log_weights'"):
            ParticleSet._trusted(np.zeros((2, 1))).log_weights

    def test_resampled_sets_share_one_read_only_uniform_row(self, rng):
        p = make_set(np.arange(5.0), [0.4, 0.3, 0.15, 0.1, 0.05])
        a, b = residual_resample(p, rng), residual_resample(residual_resample(p, rng), rng)
        assert a.log_weights is b.log_weights and not a.log_weights.flags.writeable
        assert np.array_equal(a.log_weights, uniform_log_weights(5))
        # the public function still hands out a fresh, writable array
        fresh = uniform_log_weights(5)
        assert fresh.flags.writeable and fresh is not uniform_log_weights(5)

    # N * w_i: whole numbers, some 0; N = 16 scales the weights exactly
    WHOLE = np.array([4, 3, 0, 2, 1, 1, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0])

    @pytest.mark.parametrize("below", [False, True], ids=["whole", "just_below_whole"])
    def test_whole_counts_copy_without_a_draw(self, below):
        # truncation counts floor(N * w_i * (1 + FLOOR_SLACK)) copies: k for
        # N * w_i = k and for the float just below k, so no slot is left to draw
        scaled = self.WHOLE.astype(float)
        if below:
            scaled = np.nextafter(scaled, 0.0)
            assert np.all(np.floor(scaled[self.WHOLE > 0]) == self.WHOLE[self.WHOLE > 0] - 1)
        n = len(scaled)
        w = scaled / n
        with np.errstate(divide="ignore"):
            p = ParticleSet._trusted(np.arange(float(n))[:, None], np.log(w), weights=w)
        assert np.array_equal(n * p.weights, scaled)
        out = residual_resample(p, NoDraws())
        assert np.array_equal(out.states[:, 0], np.repeat(np.arange(float(n)), self.WHOLE))


class NoDraws:
    """Test double: a random stream that must not be drawn from."""

    def __getattr__(self, name):
        raise AssertionError(f"unexpected draw: rng.{name}")


class StillTransition:
    """Test double: particles stay where they are, whatever the stream."""

    def sample(self, x, rng):
        return x


class TestUniformWeightsCopyOnce:
    """Exactly uniform weights copy every particle once, in order, with no
    multinomial draw, at every N up to 3,000 and at N = 10,000. At 1,279
    of those N (100 and 10,000 among them) N * exp(-log N) rounds to just
    below 1, which a literal floor counts as no copy at all."""

    NS = [*range(1, 3001), 10_000]

    def test_literal_floor_undercounts_here(self):
        # the cases the two tests below must cover
        for n in (100, 10_000):
            assert np.floor(n * np.exp(uniform_log_weights(n)))[0] == 0.0

    def test_residual_resample(self):
        for n in self.NS:
            states = np.arange(float(n))[:, None]
            out = residual_resample(ParticleSet(states, uniform_log_weights(n)), NoDraws())
            assert np.array_equal(out.states, states), n

    def test_pf_step_with_every_reading_lost(self):
        models = tracking_model_2d().modalities
        frame = ObservationFrame.of(1, [None, None])
        for n in self.NS:
            states = np.arange(4.0 * n).reshape(n, 4)
            out, _ = pf_step(ParticleSet(states, uniform_log_weights(n)), frame, StillTransition(), models,
                             NoDraws())
            assert np.array_equal(out.states, states), n


class TestCachedWeights:
    def test_computed_once_and_read_only(self):
        p = make_set([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        assert p.weights is p.weights
        with pytest.raises(ValueError, match="read-only"):
            p.weights[0] = 1.0

    def test_seeded_by_trusted_build(self):
        w = np.array([0.25, 0.75])
        p = ParticleSet._trusted(np.zeros((2, 1)), np.log(w), weights=w)
        assert p.weights is w


class TestEstimateMean:
    def test_single_particle(self):
        p = make_set([[1.0, 2.0, 3.0, 4.0]], [1.0])
        np.testing.assert_allclose(estimate_mean(p), [1.0, 2.0, 3.0, 4.0])

    def test_symmetric_pair_cancels(self):
        x = np.array([1.0, -2.0, 3.0, -4.0])
        p = ParticleSet(np.stack([x, -x]), np.log([0.5, 0.5]))
        np.testing.assert_allclose(estimate_mean(p), np.zeros(4), atol=1e-15)

    def test_weighted_sum_hand_case(self):
        # oracle: 0.75 * 0 + 0.25 * 4 = 1
        p = make_set([0.0, 4.0], [0.75, 0.25])
        np.testing.assert_allclose(estimate_mean(p), [1.0], atol=1e-15)


def test_normalisation_after_every_operation(rng):
    tm = LinearGaussianTransition(DEFAULT_A, DEFAULT_Q)
    p = init_particles(lambda n, r: r.normal(size=(n, 4)), 64, rng)
    assert abs(logsumexp(p.log_weights)) < 1e-9
    p = propagate(p, tm, rng)
    assert abs(logsumexp(p.log_weights)) < 1e-9
    p = reweight(p, rng.normal(size=64))
    assert abs(logsumexp(p.log_weights)) < 1e-9
    p = residual_resample(p, rng)
    assert abs(logsumexp(p.log_weights)) < 1e-9
