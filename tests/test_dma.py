import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import modalfuse.dma as dma_mod
import modalfuse.ssm as ssm_mod
from modalfuse import (
    AngleModality,
    ModelUpdateDegenerate,
    ObservationFrame,
    ParticleSet,
    candidate_reweight,
    dma_step,
    enumerate_candidates,
    estimate_mean,
    init_dma,
    init_particles,
    init_sma,
    init_ts,
    pf_step,
    propagate,
    ts_step,
    update_model_posterior,
)
from modalfuse.bench import run_filter
from modalfuse.diagnostics import RunTrace
from modalfuse.dma import DmaState, candidate_label, candidate_loglik_matrix, modality_logliks, reweight_rows
from modalfuse.ssm import null_loglik

from conftest import point_prior
from reference import (
    CountingModality,
    as_bits,
    candidate_loglik,
    log_domain_mixture,
    log_domain_reweight,
    logsumexp,
    mix_one,
    modality_logliks_per_reading,
    reweight_rows_with_dead_rows,
)


class TestEnumerateCandidates:
    def test_two_modalities_exact_order(self):
        np.testing.assert_array_equal(
            enumerate_candidates(2), [[1, 1], [1, 0], [0, 1], [0, 0]]
        )

    def test_one_modality(self):
        np.testing.assert_array_equal(enumerate_candidates(1), [[1], [0]])

    def test_three_modalities_brute_force(self):
        # oracle: all binary vectors, enumerated explicitly
        got = enumerate_candidates(3)
        assert got.shape == (8, 3)
        assert len({tuple(row) for row in got}) == 8
        assert set(map(tuple, got)) == set(itertools.product([0, 1], repeat=3))
        np.testing.assert_array_equal(got[0], [1, 1, 1])
        np.testing.assert_array_equal(got[-1], [0, 0, 0])

    @pytest.mark.parametrize("n", [0, 40, -2])
    def test_out_of_range_rejected(self, n):
        with pytest.raises(ValueError):
            enumerate_candidates(n)

    def test_labels(self):
        assert [candidate_label(b) for b in enumerate_candidates(2)] == ["11", "10", "01", "00"]


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 10))
def test_enumerate_candidates_properties(n):
    got = enumerate_candidates(n)
    assert got.shape == (2 ** n, n)
    assert np.all(got[0] == 1) and np.all(got[-1] == 0)
    assert len({tuple(r) for r in got}) == 2 ** n


class TestCandidateLoglik:
    def test_all_ones_is_joint(self, model, rng):
        x = np.array([1.0, 1.0, 150.0, 250.0])
        frame = ObservationFrame(1, [0.6, 290.0])
        want = model.modalities[0].loglik(0.6, x) + model.modalities[1].loglik(290.0, x)
        assert candidate_loglik([1, 1], frame, x, model.modalities) == pytest.approx(want, abs=1e-12)

    def test_all_zeros_is_null_product(self, model):
        frame = ObservationFrame(1, [0.6, 290.0])
        want = -np.log(2 * np.pi) - np.log(2000.0)
        for x in (np.zeros(4), np.array([5.0, -3.0, 80.0, 60.0])):
            assert candidate_loglik([0, 0], frame, x, model.modalities) == pytest.approx(want, abs=1e-12)

    def test_absent_modality_contributes_nothing(self, model):
        x = np.array([1.0, 1.0, 150.0, 250.0])
        frame = ObservationFrame(1, [0.6, None])
        want = model.modalities[0].loglik(0.6, x)
        assert candidate_loglik([1, 0], frame, x, model.modalities) == pytest.approx(want, abs=1e-12)
        # candidates differing only in the absent modality's bit agree
        assert candidate_loglik([1, 1], frame, x, model.modalities) == pytest.approx(
            candidate_loglik([1, 0], frame, x, model.modalities), abs=1e-15
        )

    def test_batch_matches_scalar(self, model, rng):
        states = rng.normal(loc=[0, 0, 100, 200], scale=10.0, size=(6, 4))
        frame = ObservationFrame(1, [0.4, 230.0])
        batch = candidate_loglik([1, 0], frame, states, model.modalities)
        for j in range(6):
            assert batch[j] == pytest.approx(
                candidate_loglik([1, 0], frame, states[j], model.modalities), abs=1e-12
            )


def marginal_loglik(p, ll):
    """The reweighting kernel's marginal of one row."""
    return reweight_rows(p.log_weights, np.array(ll, dtype=float)[None, :])[0][0]


class TestMarginalLoglik:
    def test_constant_loglik_passthrough(self):
        p = ParticleSet(np.zeros((4, 1)), np.log(np.full(4, 0.25)))
        assert marginal_loglik(p, np.full(4, 2.5)) == pytest.approx(2.5, abs=1e-12)

    def test_three_particle_hand_case(self):
        # oracle: direct sum, log(0.5*2 + 0.3*1 + 0.2*4) = log(2.1)
        p = ParticleSet(np.zeros((3, 1)), np.log([0.5, 0.3, 0.2]))
        got = marginal_loglik(p, np.log([2.0, 1.0, 4.0]))
        assert np.log(2.1) == pytest.approx(0.7419, abs=1e-4)
        assert got == pytest.approx(np.log(2.1), abs=1e-12)

    def test_shift_property(self, rng):
        p = ParticleSet(np.zeros((5, 1)), np.log(np.full(5, 0.2)))
        ll = rng.normal(size=5)
        c = 3.7
        assert marginal_loglik(p, ll + c) == pytest.approx(marginal_loglik(p, ll) + c, abs=1e-12)

    def test_all_underflow_returns_minus_inf(self):
        p = ParticleSet(np.zeros((2, 1)), np.log([0.5, 0.5]))
        assert marginal_loglik(p, np.array([-np.inf, -np.inf])) == -np.inf


class TestUpdateModelPosterior:
    def test_equal_marginals_leave_posterior(self):
        prev = np.array([0.4, 0.3, 0.2, 0.1])
        out = update_model_posterior(prev, np.full(4, -1.3))
        np.testing.assert_allclose(out, prev, atol=1e-12)

    def test_uniform_prior_hand_case(self):
        # oracle: direct Bayes arithmetic, pi_m ∝ (1/4) g_m with g = (2,1,1,0)
        prev = np.full(4, 0.25)
        with np.errstate(divide="ignore"):
            log_g = np.log(np.array([2.0, 1.0, 1.0, 0.0]))
        out = update_model_posterior(prev, log_g)
        np.testing.assert_allclose(out, [0.5, 0.25, 0.25, 0.0], atol=1e-5)
        # the floor keeps the dead model recoverable
        assert out[3] > 0.0

    def test_scaling_invariance(self, rng):
        prev = np.array([0.7, 0.2, 0.1])
        log_g = rng.normal(size=3)
        a = update_model_posterior(prev, log_g)
        b = update_model_posterior(prev, log_g + 11.3)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_all_zero_marginals_degenerate(self):
        prev = np.full(3, 1 / 3)
        with pytest.raises(ModelUpdateDegenerate):
            update_model_posterior(prev, np.full(3, -np.inf))

    def test_nan_marginal_is_zero_evidence(self):
        out = update_model_posterior(np.full(4, 0.25), np.array([0.0, np.nan, -1.0, -2.0]))
        with np.errstate(divide="ignore"):
            want = update_model_posterior(np.full(4, 0.25), np.array([0.0, -np.inf, -1.0, -2.0]))
        assert np.array_equal(np.log(out), np.log(want))
        assert out[1] == pytest.approx(dma_mod.PI_FLOOR, rel=1e-5)
        assert abs(out.sum() - 1.0) < 1e-12

    def test_all_nan_marginals_degenerate(self):
        with pytest.raises(ModelUpdateDegenerate, match="no candidate has a finite marginal"):
            update_model_posterior(np.full(3, 1 / 3), np.full(3, np.nan))

    def test_floor_applied(self):
        prev = np.full(2, 0.5)
        out = update_model_posterior(prev, np.array([0.0, -200.0]))
        assert out[1] >= 1e-6 / (1.0 + 2e-6)
        assert np.all(np.isfinite(np.log(out)))


def _setup(model, rng, n=64, x0=(1.0, 1.0, 200.0, 200.0)):
    p0 = init_particles(point_prior(x0), n, rng)
    frame = ObservationFrame(1, [np.arctan(1.0) + 0.05, np.hypot(200.0, 200.0) + 0.5])
    return p0, frame


class TestDmaStep:
    def test_restricted_to_all_ones_equals_pf(self, model, rng):
        p0, frame = _setup(model, rng)
        rng_pf = np.random.default_rng(7)
        rng_dma = np.random.default_rng(7)
        state = init_dma(p0, candidates=np.ones((1, 2), dtype=np.int64))
        pf_particles = p0
        for t in range(1, 31):
            f = ObservationFrame(t, [obs.value for obs in frame.observations])
            pf_particles, est_pf = pf_step(pf_particles, f, model.transition, model.modalities, rng_pf)
            state, est_dma, post = dma_step(state, f, model.transition, model.modalities, rng_dma)
            assert np.array_equal(est_pf, est_dma)
            assert np.array_equal(pf_particles.states, state.particles.states)
        np.testing.assert_array_equal(post, [1.0])

    def test_mixture_mean_identity(self, model, rng):
        # estimate from mixture weights == sum_m pi_m * per-model mean
        p0, frame = _setup(model, rng, n=128)
        state = init_dma(p0, 2)
        prop = propagate(p0, model.transition, np.random.default_rng(3))
        log_g, E, scale = candidate_reweight(prop, frame, model.modalities, state.candidates)
        posterior = update_model_posterior(state.pi, log_g)
        per_model = (scale[:, None] * E) @ prop.states
        _, mixture_mean = mix_one(prop, posterior, E, scale, rng)
        np.testing.assert_allclose(mixture_mean, posterior @ per_model, atol=1e-10)

    def test_all_zeros_candidate_keeps_incoming_weights(self, model, rng):
        p0, frame = _setup(model, rng)
        lw = np.log(np.arange(1.0, 65.0) / np.arange(1.0, 65.0).sum())
        p = ParticleSet(p0.states, lw)
        _, E, scale = candidate_reweight(p, frame, model.modalities, enumerate_candidates(2))
        row = candidate_loglik([0, 0], frame, p.states, model.modalities)
        assert np.ptp(row) == 0.0  # constant across particles
        np.testing.assert_allclose(np.log(scale[3] * E[3]), p.log_weights, atol=1e-12)

    def test_marginals_match_brute_force(self, model, rng):
        # oracle: direct probability-domain sums on a 5-particle set
        states = rng.normal(loc=[1, 1, 200, 200], scale=[1, 1, 5, 5], size=(5, 4))
        w = rng.uniform(0.1, 1.0, size=5)
        w /= w.sum()
        p = ParticleSet(states, np.log(w))
        frame = ObservationFrame(1, [0.8, 285.0])
        cands = enumerate_candidates(2)
        log_g, _, _ = candidate_reweight(p, frame, model.modalities, cands)
        for m, bits in enumerate(cands):
            direct = 0.0
            for j in range(5):
                lik = 1.0
                for i, mod in enumerate(model.modalities):
                    lik *= (
                        np.exp(mod.loglik(frame.observations[i].value, states[j]))
                        if bits[i]
                        else 1.0 / np.ptp(mod.value_space)
                    )
                direct += w[j] * lik
            assert log_g[m] == pytest.approx(np.log(direct), abs=1e-10)

    def test_normalisation_invariants_each_step(self, model, rng):
        p0, _ = _setup(model, rng)
        state = init_dma(p0, 2)
        step_rng = np.random.default_rng(5)
        for t in range(1, 21):
            frame = ObservationFrame(t, [0.78, 283.0])
            state, est, post = dma_step(state, frame, model.transition, model.modalities, step_rng)
            assert abs(post.sum() - 1.0) < 1e-9
            assert abs(logsumexp(state.particles.log_weights)) < 1e-9

    def test_determinism_byte_for_byte(self, model):
        results = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            p0 = init_particles(lambda n, r: r.normal([1, 1, 200, 200], [1, 1, 3, 3], (n, 4)), 50, rng)
            state = init_dma(p0, 2)
            ests = []
            for t in range(1, 16):
                frame = ObservationFrame(t, [0.78 + 0.001 * t, 283.0 + t])
                state, est, post = dma_step(state, frame, model.transition, model.modalities, rng)
                ests.append(est)
            results.append((np.array(ests), state.particles.states.copy(), post.copy()))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])
        np.testing.assert_array_equal(results[0][2], results[1][2])

    def test_non_consecutive_frame_rejected(self, model, rng):
        p0, frame = _setup(model, rng)
        state = init_dma(p0, 2)
        bad = ObservationFrame(5, [0.7, 280.0])
        with pytest.raises(ValueError):
            dma_step(state, bad, model.transition, model.modalities, rng)

    def test_absent_everything_keeps_posterior(self, model, rng):
        p0, _ = _setup(model, rng)
        state = init_dma(p0, 2)
        frame = ObservationFrame(1, [None, None])
        new_state, est, post = dma_step(state, frame, model.transition, model.modalities, rng)
        np.testing.assert_allclose(post, state.pi, atol=1e-12)

    def test_degenerate_update_resets_uniform_and_flags(self, model, rng, monkeypatch):
        p0, frame = _setup(model, rng)
        state = init_dma(p0, 2)

        def boom(prev, log_g):
            raise ModelUpdateDegenerate("forced")

        monkeypatch.setattr(dma_mod, "update_model_posterior", boom)
        trace = RunTrace()
        _, _, post = dma_mod.dma_step(state, frame, model.transition, model.modalities, rng, trace=trace)
        np.testing.assert_allclose(post, np.full(4, 0.25), atol=1e-12)
        assert trace.flags == ["model_update_degenerate"]
        assert trace.n_flagged == 1

    def test_trace_records_one_posterior_per_step(self, model, rng):
        p0, frame = _setup(model, rng)
        state = init_dma(p0, 2)
        trace = RunTrace()
        _, _, post = dma_step(state, frame, model.transition, model.modalities, rng, trace=trace)
        assert trace.weight_matrix().shape == (1, 4)
        assert np.array_equal(trace.weight_matrix()[0], post)
        assert trace.flags == [None]


class TestMixAndResample:
    @staticmethod
    def _row_ll(rng, n=256):
        states = rng.normal([1.0, 1.0, 200.0, 200.0], [1.0, 1.0, 5.0, 5.0], (n, 4))
        w = rng.uniform(0.1, 1.0, n)
        p = ParticleSet(states, np.log(w / w.sum()))
        row_ll = np.stack([
            -0.5 * ((states[:, 2] - 200.0) / 5.0) ** 2,
            -1.0e8 - 0.5 * ((states[:, 3] - 195.0) / 5.0) ** 2,  # garbage observation
            np.full(n, -np.inf),      # underflowed: keeps the incoming weights
            np.full(n, -3.0),
        ])
        return p, row_ll

    def test_matches_log_domain_mixture(self, rng):
        p, row_ll = self._row_ll(rng)
        ref_g, log_w = log_domain_reweight(p, row_ll)
        assert not np.isfinite(ref_g[2]) and np.array_equal(log_w[2], p.log_weights)
        log_pi = np.log([0.4, 0.3, 0.2, 0.1])
        log_g, E, scale = reweight_rows(p.log_weights, row_ll)
        resampled, est = mix_one(p, np.exp(log_pi), E, scale, np.random.default_rng(1))
        np.testing.assert_allclose(log_g, ref_g, rtol=0.0, atol=1e-10)
        want = estimate_mean(ParticleSet(p.states, log_domain_mixture(log_pi, log_w)))
        np.testing.assert_allclose(est, want, rtol=0.0, atol=1e-10)
        assert resampled.n == p.n

    def test_one_row_is_its_own_mixture(self, rng):
        # one row with pi = [1.0] equals that row picked out of all four
        p, row_ll = self._row_ll(rng)
        _, E, scale = reweight_rows(p.log_weights, row_ll.copy())
        for m in range(row_ll.shape[0]):
            _, E_m, scale_m = reweight_rows(p.log_weights, row_ll[m:m + 1].copy())
            resampled, est = mix_one(p, np.ones(1), E_m, scale_m, np.random.default_rng(1))
            picked, want = mix_one(p, np.eye(4)[m], E, scale, np.random.default_rng(1))
            assert np.array_equal(est, want)
            assert np.array_equal(resampled.states, picked.states)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_state_at_zero_weight_raises(self, bad):
        # an in-loop set is trusted, so a non-finite state reaches the mixture;
        # at weight exactly 0 it still poisons the estimate (0 * inf is NaN)
        states = np.tile([1.0, 1.0, 200.0, 200.0], (8, 1))
        states[3, 2] = bad
        p = ParticleSet._trusted(states, np.full(8, -np.log(8)))
        row = np.zeros((1, 8))
        row[0, 3] = -np.inf
        _, E, scale = reweight_rows(p.log_weights, row)
        assert E[0, 3] == 0.0 and scale[0] > 0.0
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="particle states must be finite"):
            mix_one(p, np.ones(1), E, scale, np.random.default_rng(1))


# log-likelihood entries: ordinary values, garbage readings near -1e8, and
# -inf, NaN and +inf that kill a particle or a whole row
LOGLIK_ENTRIES = st.one_of(st.floats(-50.0, 5.0), st.floats(-2e8, -1e7),
                           st.sampled_from([-np.inf, np.nan, np.inf, -1e308]))


@st.composite
def reweight_inputs(draw):
    """(log_weights, ll): an (M, N) log-likelihood matrix, some rows of it
    all -inf or all NaN, and normalised log-weights, (N,) or one row per
    set, some of them -inf (weight 0)."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    ll = draw(hnp.arrays(float, (m, n), elements=LOGLIK_ENTRIES))
    for row in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        ll[row] = draw(st.sampled_from([-np.inf, np.nan]))
    w = draw(hnp.arrays(float, (draw(st.sampled_from([(n,), (m, n)]))),
                        elements=st.one_of(st.just(0.0), st.floats(1e-3, 1.0))))
    w[..., 0] += 1.0  # no all-zero set
    with np.errstate(divide="ignore"):
        return np.log(w / w.sum(axis=-1, keepdims=True)), ll


class TestReweightRowsFastPath:
    """``reweight_rows`` takes every row's scale without the dead-row
    handling when every row maximum is finite; it equals, bit for bit, the
    general path that handles dead rows, with and without -inf and NaN
    entries and rows."""

    @staticmethod
    def _assert_as_general_path(log_weights, ll):
        want = reweight_rows_with_dead_rows(log_weights, ll)
        with np.errstate(invalid="ignore"):  # inf - inf in a +inf row, on both paths
            got = reweight_rows(log_weights, ll.copy())
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_array_equal(g, w)
            assert np.array_equal(np.signbit(g), np.signbit(w))

    @settings(max_examples=200, deadline=None)
    @given(reweight_inputs())
    def test_equals_the_general_path(self, inputs):
        with np.errstate(invalid="ignore"):
            self._assert_as_general_path(*inputs)

    @pytest.mark.parametrize("dead", [None, -np.inf, np.nan])
    def test_rows_with_and_without_a_dead_row(self, rng, dead):
        ll = np.stack([rng.normal(-3.0, 1.0, 64), -1e8 + rng.normal(0.0, 1.0, 64), np.full(64, -1.0)])
        ll[0, :10] = -np.inf
        if dead is not None:
            ll[1] = dead
        self._assert_as_general_path(np.log(np.full(64, 1 / 64)), ll)


class OffsetModality:
    """Test double: a real modality's log-likelihood plus a constant;
    -1e8 mimics a garbage reading, and two readings at -1e308 sum to a
    candidate row that is -inf on every particle."""

    def __init__(self, inner, offset):
        self.inner = inner
        self.offset = offset

    def loglik(self, y, x):
        return self.inner.loglik(y, x) + self.offset

    @property
    def value_space(self):
        return self.inner.value_space


def _log_domain_step(state, frame, transition, models, seed):
    """Reference DMA step: the log-domain oracle's normalised rows, mixed
    by logsumexp; returns (log_g, mixed log-weights, estimate, propagated)."""
    prop = propagate(state.particles, transition, np.random.default_rng(seed))
    log_g, log_w = log_domain_reweight(prop, candidate_loglik_matrix(state.candidates, frame, prop.states, models))
    try:
        log_pi = np.log(update_model_posterior(state.pi, log_g))
    except ModelUpdateDegenerate:
        log_pi = np.full(len(state.pi), -np.log(len(state.pi)))
    mix = log_domain_mixture(log_pi, log_w)
    return log_g, mix, estimate_mean(ParticleSet(prop.states, mix)), prop


class TestInPlaceCandidateKernel:
    """dma_step against the log-domain reference, for one candidate (PF)
    and for several."""

    @staticmethod
    def _case(model, name):
        angle, rng_mod = model.modalities
        values, candidates, models = [0.8, 285.0], None, (angle, rng_mod)
        if name == "garbage_row":
            models = (angle, OffsetModality(rng_mod, -1.0e8))
        elif name == "minus_inf_row":
            models = (OffsetModality(angle, -1.0e308), OffsetModality(rng_mod, -1.0e308))
        elif name == "m64_one_lost":
            models = (angle, rng_mod) * 3
            values = [0.8, 285.0, 0.79, None, 0.81, 284.0]
        elif name == "explicit_all_underflow":
            # every row trusts at least two of the three -1e308 readings
            models = (OffsetModality(angle, -1.0e308), OffsetModality(rng_mod, -1.0e308),
                      OffsetModality(angle, -1.0e308))
            values = [0.8, 285.0, 0.79]
            candidates = np.array([[1, 1, 1], [1, 1, 0], [0, 1, 1]])
        elif name == "single_row_pf":
            candidates = np.ones((1, 2), dtype=np.int64)
        return models, ObservationFrame(1, values), candidates

    @pytest.mark.parametrize(
        "name",
        ["non_uniform_weights", "garbage_row", "minus_inf_row", "m64_one_lost", "explicit_all_underflow",
         "single_row_pf"],
    )
    def test_matches_log_domain_reference(self, model, rng, monkeypatch, name):
        models, frame, candidates = self._case(model, name)
        n = 256
        states = rng.normal([1.0, 1.0, 200.0, 200.0], [1.0, 1.0, 5.0, 5.0], (n, 4))
        w = rng.uniform(0.1, 1.0, n)
        state = init_dma(ParticleSet(states, np.log(w / w.sum())), len(models), candidates)

        mixed = []
        resample = dma_mod.residual_resample
        monkeypatch.setattr(dma_mod, "residual_resample", lambda p, r: mixed.append(np.log(p.weights)) or resample(p, r))
        trace = RunTrace()
        with np.errstate(over="ignore"):  # -1e308 readings overflow to -inf rows
            _, est, _ = dma_step(state, frame, model.transition, models, np.random.default_rng(11), trace=trace)
            log_g, mix, want, prop = _log_domain_step(state, frame, model.transition, models, 11)
            got_g = candidate_reweight(prop, frame, models, state.candidates)[0]
        np.testing.assert_allclose(got_g, log_g, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(mixed[0], mix, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(est, want, rtol=0.0, atol=1e-10)
        if name == "minus_inf_row":
            assert np.array_equal(np.isfinite(log_g), [False, True, True, True])
        if name == "explicit_all_underflow":
            assert not np.any(np.isfinite(log_g))
            assert trace.flags == ["model_update_degenerate"]
            np.testing.assert_allclose(mixed[0], prop.log_weights, rtol=0.0, atol=1e-10)


class MinusInfModality(OffsetModality):
    """Test double: a reading with zero likelihood at every particle."""

    def loglik(self, y, x):
        return np.full(np.asarray(x).shape[0], -np.inf)


class TestMinusInfLoglik:
    """A -inf modality log-likelihood counts only in the candidates that
    trust that modality; the others take its null."""

    def test_candidates_that_distrust_it_take_its_null(self, model, rng):
        angle, rng_mod = model.modalities
        models = (angle, MinusInfModality(rng_mod, 0.0))
        states = rng.normal([1.0, 1.0, 200.0, 200.0], [1.0, 1.0, 5.0, 5.0], (16, 4))
        frame = ObservationFrame(1, [0.8, 285.0])
        got = candidate_loglik_matrix(enumerate_candidates(2), frame, states, models)
        a = angle.loglik(0.8, states)
        assert np.all(got[[0, 2]] == -np.inf)
        np.testing.assert_allclose(got[1], a + null_loglik(rng_mod), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got[3], null_loglik(angle) + null_loglik(rng_mod), rtol=0.0, atol=1e-12)

    def test_one_step_demotes_it(self, model, rng):
        angle, rng_mod = model.modalities
        models = (angle, MinusInfModality(rng_mod, 0.0))
        states = rng.normal([1.0, 1.0, 200.0, 200.0], [1.0, 1.0, 5.0, 5.0], (256, 4))
        state = init_dma(ParticleSet(states, np.full(256, -np.log(256))), 2)
        frame = ObservationFrame(1, [0.8, 285.0])
        trace = RunTrace()
        _, est, post = dma_step(state, frame, model.transition, models, np.random.default_rng(11), trace=trace)
        log_g, mix, want, prop = _log_domain_step(state, frame, model.transition, models, 11)
        assert trace.flags == [None]
        got_g = candidate_reweight(prop, frame, models, state.candidates)[0]
        np.testing.assert_allclose(got_g, log_g, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(est, want, rtol=0.0, atol=1e-10)
        # [1,1] and [0,1] trust the dead reading: demoted to the floor
        assert post[0] + post[2] < 1e-5
        assert np.isfinite(log_g[[1, 3]]).all()


class TestSharedModelObjects:
    """wide-6mod's layout lists one bearing and one range model object
    three times each: ``modality_logliks`` calls each object once, with a
    (k, 1) column of its k present readings, and gives the rows and nulls
    of one call per reading, bit for bit."""

    FRAMES = {
        "all_present": [0.8, 285.0, 0.79, 284.0, 0.81, 283.0],
        # the bearing model's middle reading lost: its readings at positions 0 and 4 fill rows 0 and 3
        "one_lost": [0.8, 285.0, None, 284.0, 0.81, 283.0],
        "two_of_a_model_lost": [None, 285.0, 0.79, None, None, 283.0],
        "first_lost": [None, 285.0, 0.79, 284.0, 0.81, 283.0],
        "all_lost": [None] * 6,
        "bearings_at_pi": [np.pi, 285.0, -np.pi, 284.0, 0.0, 283.0],
        "bearing_outside_pi": [0.8, 285.0, 7.0, 284.0, -0.8, 283.0],
    }

    @staticmethod
    def _states(rng, n=257):
        # bearings across (-pi/2, pi/2], d_y = 0 and 0/0 included
        states = rng.normal([1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 300.0, 300.0], (n, 4))
        states[:4, 2:] = [[0.0, 0.0], [5.0, 0.0], [-5.0, 0.0], [3.0, 3.0]]
        return states

    @pytest.mark.parametrize("name", list(FRAMES))
    def test_equals_the_per_reading_loop(self, model, rng, name):
        models = model.modalities * 3
        frame = ObservationFrame(1, self.FRAMES[name])
        states = self._states(rng)
        present, L, nulls = modality_logliks(frame, states, models)
        want_present, want_L, want_nulls = modality_logliks_per_reading(frame, states, models)
        assert present == want_present
        assert L.shape == want_L.shape and np.array_equal(as_bits(L), as_bits(want_L))
        assert np.array_equal(as_bits(nulls), as_bits(want_nulls))

    def test_bearing_outside_pi_goes_through_wrap_angle(self, model, rng, monkeypatch):
        # the column holding 7.0 takes wrap_angle's path, and still matches
        wrapped = []
        wrap = ssm_mod.wrap_angle
        monkeypatch.setattr(ssm_mod, "wrap_angle", lambda theta: wrapped.append(np.shape(theta)) or wrap(theta))
        models = model.modalities * 3
        states = self._states(rng)
        modality_logliks(ObservationFrame(1, self.FRAMES["bearing_outside_pi"]), states, models)
        assert wrapped == [(3, len(states))]
        wrapped.clear()
        modality_logliks(ObservationFrame(1, self.FRAMES["bearings_at_pi"]), states, models)
        assert wrapped == []

    @pytest.mark.parametrize("step", ["pf", "ts", "dma"])
    @pytest.mark.parametrize("name, angle_shapes, range_shapes", [
        ("all_present", [(3, 1)], [(3, 1)]),
        ("one_lost", [(2, 1)], [(3, 1)]),
        ("two_of_a_model_lost", [()], [(2, 1)]),
        ("all_lost", [], []),
    ])
    def test_each_object_called_once_per_step(self, model, rng, step, name, angle_shapes, range_shapes):
        angle, range_ = (CountingModality(m) for m in model.modalities)
        models = (angle, range_) * 3
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 20, rng)
        frame = ObservationFrame(1, self.FRAMES[name])
        if step == "pf":
            pf_step(p0, frame, model.transition, models, rng)
        elif step == "ts":
            ts_step(init_ts(p0, 6), frame, model.transition, models, rng)
        else:
            dma_step(init_dma(p0, 6), frame, model.transition, models, rng)
        assert angle.shapes == angle_shapes and range_.shapes == range_shapes

    def test_nulls_built_once_per_models_tuple(self, model, rng):
        reads = []

        class Counted(CountingModality):
            @property
            def value_space(self):
                reads.append(1)
                return self.inner.value_space

        models = tuple(Counted(m) for m in model.modalities) * 3
        frame = ObservationFrame(1, self.FRAMES["one_lost"])
        for _ in range(3):
            modality_logliks(frame, self._states(rng), models)
        assert len(reads) == 6

    def test_a_list_is_planned_per_call(self, model, rng):
        # a list can change between calls; each call plans the list as it is then
        angle, range_ = model.modalities
        models = [angle, range_] * 3
        frame = ObservationFrame(1, self.FRAMES["one_lost"])
        states = self._states(rng)
        modality_logliks(frame, states, models)
        models[2] = AngleModality(0.3)
        _, L, nulls = modality_logliks(frame, states, models)
        _, want_L, want_nulls = modality_logliks_per_reading(frame, states, models)
        assert np.array_equal(as_bits(L), as_bits(want_L)) and np.array_equal(as_bits(nulls), as_bits(want_nulls))


class TestDmaStateValidates:
    """A filter state is checked where it starts, in ``init_*``; the steps
    build every later state from checked parts."""

    @staticmethod
    def _particles():
        return ParticleSet(np.zeros((4, 4)), np.full(4, -np.log(4)))

    def test_integer_time_indices_accepted(self):
        for t in (0, 7, np.int64(3)):
            assert DmaState(self._particles(), np.full(4, 0.25), enumerate_candidates(2), t=t).t == t

    INITS = {
        "dma": lambda p: init_dma(p, 2),
        "sma": lambda p: init_sma(p, 2, np.random.default_rng(0)),
        "ts": lambda p: init_ts(p, 2),
    }

    @pytest.mark.parametrize("init", list(INITS))
    @pytest.mark.parametrize("particles", [1.0, np.zeros((4, 4))], ids=["float", "array"])
    def test_particles_not_a_particle_set_rejected(self, init, particles):
        # unchecked, init_dma failed on ``particles.n`` with an AttributeError
        with pytest.raises(ValueError, match="particles must be a ParticleSet"):
            self.INITS[init](particles)

    @pytest.mark.parametrize("algorithm", ["pf", "ts", "sma", "dma"])
    def test_run_filter_rejects_particles_not_a_particle_set(self, model, algorithm):
        # PF's state is its particle set: unchecked, its run failed on
        # ``particles0.dim`` with a bare AttributeError
        frames = [ObservationFrame(1, [0.79, 284.0])]
        with pytest.raises(ValueError, match="particles must be a ParticleSet, got ndarray"):
            run_filter(algorithm, frames, np.zeros((4, 4)), model.transition, model.modalities,
                       np.random.default_rng(0))

    def test_posterior_is_read_only(self, model):
        state = init_dma(self._particles(), 2)
        assert not state.pi.flags.writeable
        stepped = dma_step(state, ObservationFrame(1, [0.79, 284.0]), model.transition, model.modalities,
                           np.random.default_rng(3))[0]
        assert not stepped.pi.flags.writeable


class TestCandidateSetChecked:
    @staticmethod
    def _particles():
        return ParticleSet(np.zeros((4, 4)), np.full(4, -np.log(4)))

    def test_width_other_than_the_modality_count_rejected(self):
        # a third column on the 2-modality model used to be ignored
        with pytest.raises(ValueError, match="candidates cover 3 modalities, model has 2"):
            init_dma(self._particles(), 2, candidates=np.ones((2, 3), dtype=np.int64))

    def test_narrow_set_fails_with_both_counts_in_the_step(self, model, rng):
        # given no n_modalities, init_dma cannot know the width is short; the
        # step names both counts where it used to raise a bare IndexError
        state = init_dma(self._particles(), candidates=np.array([[1], [0]]))
        with pytest.raises(ValueError, match="candidates cover 1 modalities, model has 2"):
            dma_step(state, ObservationFrame(1, [0.79, 284.0]), model.transition, model.modalities, rng)

    @pytest.mark.parametrize("candidates", [[[1, 2], [0, 1]], [[5, 1]], [[1, 0.5]], [[-1, 1]], np.ones((0, 2)),
                                            [1, 1], np.ones((1, 1, 2)), [[2, 1], [5, 0]]],
                             ids=["two", "five", "half", "minus_one", "empty", "one_dim", "three_dim", "two_five"])
    def test_not_a_0_1_matrix_rejected(self, candidates):
        # an entry of 2 or 5 made the null term (1 - bits) @ nulls negative
        with pytest.raises(ValueError, match=r"non-empty \(M, n\) array of 0/1 entries"):
            init_dma(self._particles(), candidates=candidates)

    def test_all_ones_row_accepted(self):
        # the A9 oracle's single candidate, as ints, floats and bools
        for ones in (np.ones((1, 2), dtype=np.int64), np.ones((1, 2)), np.ones((1, 2), dtype=bool)):
            assert init_dma(self._particles(), 2, candidates=ones).pi.shape == (1,)


class TestCandidateMemoryBudget:
    @staticmethod
    def _particles(n):
        return ParticleSet(np.zeros((n, 4)), np.full(n, -np.log(n)))

    def test_too_many_candidates_for_memory_rejected(self):
        with pytest.raises(
            ValueError,
            match=r"65536 candidates x 10000 particles need a 5,242,880,000-byte .* 1,073,741,824-byte budget",
        ):
            init_dma(self._particles(10_000), 16)

    def test_budget_checked_before_enumerating(self):
        # 2^40 candidates: the (M, n) array alone would be 352 TB
        budget = r"over the 1,073,741,824-byte budget"
        with pytest.raises(ValueError, match=r"1099511627776 candidates x 1 particles .* " + budget):
            init_dma(self._particles(1), 40)
        with pytest.raises(ValueError, match=r"40 modalities need a 351,843,720,888,320-byte .* " + budget):
            enumerate_candidates(40)

    def test_six_modalities_at_2000_particles_accepted(self):
        assert init_dma(self._particles(2_000), 6).candidates.shape == (64, 6)
