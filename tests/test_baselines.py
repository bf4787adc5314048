import numpy as np
import pytest

import modalfuse.baselines as baselines_mod
from modalfuse import (
    ObservationFrame,
    ParticleSet,
    dma_step,
    estimate_mean,
    init_dma,
    init_particles,
    init_sma,
    init_ts,
    pf_step,
    propagate,
    sma_step,
    ts_step,
)
from modalfuse.diagnostics import RunTrace
from modalfuse.dma import mix_and_resample, reweight_rows

from conftest import point_prior
from reference import estimate_failure_prob, log_domain_reweight


class ConstantModality:
    """Test double: fixed log-likelihood everywhere, unit-volume space."""

    dim = 1

    def __init__(self, value, volume=1.0):
        self.value = value
        self.volume = volume

    def loglik(self, y, x):
        return np.full(np.asarray(x).shape[0], self.value)

    def null_loglik(self):
        return -np.log(self.volume)


def frames_from(model, rng, t_max, x0=(1.0, 1.0, 200.0, 200.0)):
    x = np.asarray(x0, dtype=float)
    frames = []
    for t in range(1, t_max + 1):
        x = model.transition.sample(x, rng)
        frames.append(
            ObservationFrame.of(
                t,
                [float(model.modalities[0].sample(x, rng)), float(model.modalities[1].sample(x, rng))],
            )
        )
    return frames


class TestPfStep:
    def test_equals_single_candidate_dma(self, model, rng):
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 80, rng)
        frames = frames_from(model, np.random.default_rng(1), 40)
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        pf_p, dma_s = p0, init_dma(p0, candidates=np.ones((1, 2), dtype=np.int64))
        for f in frames:
            pf_p, est_pf = pf_step(pf_p, f, model.transition, model.modalities, rng_a)
            dma_s, est_dma, _ = dma_step(dma_s, f, model.transition, model.modalities, rng_b)
            assert np.array_equal(est_pf, est_dma)
            assert np.array_equal(pf_p.states, dma_s.particles.states)

    def test_absent_modalities_ignored(self, model, rng):
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 40, rng)
        f_full = ObservationFrame.of(1, [0.78, None])
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        _, est_a = pf_step(p0, f_full, model.transition, model.modalities, rng_a)
        # a hand-built step using only the angle modality
        prop = propagate(p0, model.transition, rng_b)
        _, E, scale = reweight_rows(prop, model.modalities[0].loglik(0.78, prop.states)[None, :])
        _, est_b = mix_and_resample(prop, np.ones(1), E, scale, rng_b)
        np.testing.assert_array_equal(est_a, est_b)

    def test_weight_collapse_resets_and_flags(self, model, rng):
        p0 = init_particles(point_prior([0.0, 0.0, 1.0, 1.0]), 10, rng)
        dead = ConstantModality(-np.inf)
        frame = ObservationFrame.of(1, [0.5])
        trace = RunTrace()
        out, est = pf_step(p0, frame, model.transition, (dead,), rng, trace=trace)
        assert trace.flags == ["weight_collapse"]
        assert np.all(np.isfinite(est))


class TestSmaStep:
    def test_estimate_is_mean_of_sub_estimates(self, model, rng, monkeypatch):
        fixed = {0: np.array([0.0, 0.0, 10.0, 10.0]), 1: np.array([0.0, 0.0, 20.0, 20.0])}
        p0 = init_particles(point_prior([0.0, 0.0, 15.0, 15.0]), 4, rng)
        state = init_sma(p0, 2)

        calls = []

        def fake_pf(particles, frame, tm, models, sub_rng, trace=None):
            idx = next(i for i, obs in enumerate(frame.observations) if obs.present)
            calls.append(idx)
            return particles, fixed[idx]

        monkeypatch.setattr(baselines_mod, "pf_step", fake_pf)
        frame = ObservationFrame.of(1, [0.5, 21.0])
        _, est = sma_step(state, frame, model.transition, model.modalities, rng)
        np.testing.assert_allclose(est, [0.0, 0.0, 15.0, 15.0])
        assert calls == [0, 1]

    def test_identical_sub_estimates_pass_through(self, model, rng, monkeypatch):
        same = np.array([1.0, 2.0, 3.0, 4.0])
        monkeypatch.setattr(baselines_mod, "pf_step", lambda *a, **k: (a[0], same))
        p0 = init_particles(point_prior([0.0, 0.0, 1.0, 1.0]), 4, rng)
        _, est = sma_step(init_sma(p0, 2), ObservationFrame.of(1, [0.5, 2.0]),
                          model.transition, model.modalities, rng)
        np.testing.assert_allclose(est, same, atol=1e-15)

    def test_matches_manual_decomposition(self, model):
        # same spawn rule, sub-filters evaluated in reversed order
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 60, np.random.default_rng(0))
        frame = ObservationFrame.of(1, [0.79, 284.0])
        rng_a = np.random.default_rng(42)
        state, est = sma_step(init_sma(p0, 2), frame, model.transition, model.modalities, rng_a)

        rng_b = np.random.default_rng(42)
        rngs = rng_b.spawn(2)
        subs, ests = {}, {}
        for i in (1, 0):  # reversed evaluation order
            subs[i], ests[i] = pf_step(p0, frame.restrict_to(i), model.transition,
                                       model.modalities, rngs[i])
        np.testing.assert_allclose(est, np.mean([ests[0], ests[1]], axis=0), atol=1e-12)
        for i in (0, 1):
            np.testing.assert_array_equal(state.sub_filters[i].states, subs[i].states)

    def test_sub_filters_see_only_their_modality(self, model, rng, monkeypatch):
        seen = []

        def fake_pf(particles, frame, tm, models, sub_rng, trace=None):
            seen.append(tuple(obs.present for obs in frame.observations))
            return particles, np.zeros(4)

        monkeypatch.setattr(baselines_mod, "pf_step", fake_pf)
        p0 = init_particles(point_prior([0.0, 0.0, 1.0, 1.0]), 4, rng)
        sma_step(init_sma(p0, 2), ObservationFrame.of(1, [0.5, 2.0]),
                 model.transition, model.modalities, rng)
        assert seen == [(True, False), (False, True)]

    def test_lost_reading_leaves_sub_filter_unweighted(self, model):
        # A lost reading adds no evidence, so its sub-filter keeps uniform
        # weights, and residual resampling of uniform weights copies every
        # propagated particle once, in order.
        p0 = init_particles(lambda n, r: r.normal([1.0, 1.0, 200.0, 200.0], [1.0, 1.0, 20.0, 20.0], (n, 4)),
                            200, np.random.default_rng(0))
        for lost in (0, 1):
            values = [0.79, 284.0]
            values[lost] = None
            state, _ = sma_step(init_sma(p0, 2), ObservationFrame.of(1, values),
                                model.transition, model.modalities, np.random.default_rng(7))
            expected = propagate(p0, model.transition, np.random.default_rng(7).spawn(2)[lost])
            np.testing.assert_array_equal(state.sub_filters[lost].states, expected.states)


class TestEstimateFailureProb:
    def test_indifference_point(self, rng):
        # marginal equal to the null density => raw failure prob 0.5
        mod = ConstantModality(0.0, volume=1.0)  # loglik == null_loglik == 0
        p = ParticleSet(np.zeros((4, 1)), np.log(np.full(4, 0.25)))
        frame = ObservationFrame.of(1, [0.3])
        alpha = estimate_failure_prob(np.zeros(1), p, frame, (mod,), smoothing=0.0)
        assert alpha[0] == pytest.approx(0.5, abs=1e-12)

    def test_strong_evidence_drives_alpha_to_zero(self):
        mod = ConstantModality(40.0, volume=1.0)
        p = ParticleSet(np.zeros((4, 1)), np.log(np.full(4, 0.25)))
        frame = ObservationFrame.of(1, [0.3])
        alpha = estimate_failure_prob(np.ones(1), p, frame, (mod,), smoothing=0.0)
        assert alpha[0] == pytest.approx(0.0, abs=1e-12)

    def test_three_particle_arithmetic_oracle(self, model):
        # oracle: alpha = 0.5 prev + 0.5 * g0 / (g0 + g), g computed directly
        states = np.array([[1, 1, 200, 200], [1, 1, 210, 190], [1, 1, 195, 205]], dtype=float)
        w = np.array([0.5, 0.3, 0.2])
        p = ParticleSet(states, np.log(w))
        frame = ObservationFrame.of(1, [0.8, 287.0])
        prev = np.array([0.3, 0.6])
        got = estimate_failure_prob(prev, p, frame, model.modalities, smoothing=0.5)
        for i, mod in enumerate(model.modalities):
            g = sum(w[j] * np.exp(mod.loglik(frame.value(i), states[j])) for j in range(3))
            g0 = 1.0 / mod.volume
            raw = g0 / (g0 + g)
            assert got[i] == pytest.approx(0.5 * prev[i] + 0.5 * raw, abs=1e-12)

    def test_absent_modality_unchanged(self, model):
        p = ParticleSet(np.zeros((3, 4)), np.log(np.full(3, 1 / 3)))
        frame = ObservationFrame.of(1, [None, 100.0])
        prev = np.array([0.77, 0.2])
        got = estimate_failure_prob(prev, p, frame, model.modalities, smoothing=0.5)
        assert got[0] == 0.77
        assert got[1] != 0.2


class TestTsStep:
    def test_alpha_pinned_zero_equals_pf(self, model):
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 80, np.random.default_rng(0))
        frames = frames_from(model, np.random.default_rng(1), 40)
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        pf_p = p0
        ts_s = init_ts(p0, 2, smoothing=1.0)  # alpha frozen at its initial zeros
        for f in frames:
            pf_p, est_pf = pf_step(pf_p, f, model.transition, model.modalities, rng_a)
            ts_s, est_ts = ts_step(ts_s, f, model.transition, model.modalities, rng_b)
            assert np.array_equal(est_pf, est_ts)
            assert np.array_equal(pf_p.states, ts_s.particles.states)
        np.testing.assert_array_equal(ts_s.alpha, [0.0, 0.0])

    def test_alpha_pinned_one_means_no_update(self, model):
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 50, np.random.default_rng(0))
        state = baselines_mod.TsState(p0, np.ones(2), smoothing=1.0)
        frame = ObservationFrame.of(1, [0.78, 283.0])
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        _, est = ts_step(state, frame, model.transition, model.modalities, rng_a)
        prop = propagate(p0, model.transition, rng_b)
        np.testing.assert_array_equal(est, estimate_mean(prop))

    def test_tempered_row_matches_loop_reference(self, model):
        # reference: the tempered sum accumulated modality by modality; the
        # step takes it as one matmul, so only the summation order differs
        p0 = init_particles(lambda n, r: r.normal([1.0, 1.0, 200.0, 200.0], [1.0, 1.0, 5.0, 5.0], (n, 4)),
                            100, np.random.default_rng(0))
        alpha = np.array([0.3, 0.6])
        frame = ObservationFrame.of(1, [0.78, 283.0])
        state = baselines_mod.TsState(p0, alpha, smoothing=1.0)  # alpha frozen
        _, est = ts_step(state, frame, model.transition, model.modalities, np.random.default_rng(5))
        prop = propagate(p0, model.transition, np.random.default_rng(5))
        tempered = np.zeros(prop.n)
        for i, mod in enumerate(model.modalities):
            tempered += (1.0 - alpha[i]) * mod.loglik(frame.value(i), prop.states)
        _, log_w = log_domain_reweight(prop, tempered[None, :])
        np.testing.assert_allclose(est, estimate_mean(ParticleSet(prop.states, log_w[0])), rtol=1e-12)

    def test_dead_modality_at_alpha_one_drops_out(self, model):
        # alpha = 1 on a -inf modality: its term is dropped, not 0 * -inf = NaN
        p0 = init_particles(lambda n, r: r.normal([1.0, 1.0, 200.0, 200.0], [1.0, 1.0, 5.0, 5.0], (n, 4)),
                            100, np.random.default_rng(0))
        models = (model.modalities[0], ConstantModality(-np.inf))
        frame = ObservationFrame.of(1, [0.78, 283.0])
        state = baselines_mod.TsState(p0, np.array([0.3, 1.0]), smoothing=1.0)  # alpha frozen
        trace = RunTrace()
        _, est = ts_step(state, frame, model.transition, models, np.random.default_rng(5), trace=trace)
        prop = propagate(p0, model.transition, np.random.default_rng(5))
        _, log_w = log_domain_reweight(prop, 0.7 * model.modalities[0].loglik(0.78, prop.states)[None, :])
        assert trace.flags == [None]
        np.testing.assert_allclose(est, estimate_mean(ParticleSet(prop.states, log_w[0])), rtol=1e-12)

    def test_alpha_stays_in_unit_interval(self, model):
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 60, np.random.default_rng(0))
        frames = frames_from(model, np.random.default_rng(4), 60)
        state = init_ts(p0, 2)
        step_rng = np.random.default_rng(6)
        trace = RunTrace()
        for f in frames:
            state, _ = ts_step(state, f, model.transition, model.modalities, step_rng, trace=trace)
            assert np.all(state.alpha >= 0.0) and np.all(state.alpha <= 1.0)
        assert trace.weight_matrix().shape == (60, 2)

    def test_dead_modality_flags_weight_collapse(self, model, rng):
        p0 = init_particles(point_prior([0.0, 0.0, 1.0, 1.0]), 10, rng)
        dead = ConstantModality(-np.inf)
        trace = RunTrace()
        state, est = ts_step(init_ts(p0, 1), ObservationFrame.of(1, [0.5]), model.transition,
                             (dead,), rng, trace=trace)
        assert trace.flags == ["weight_collapse"]
        assert np.all(np.isfinite(est))
        assert 0.0 <= state.alpha[0] <= 1.0

    def test_invalid_alpha_rejected(self, model, rng):
        p0 = init_particles(point_prior([0.0, 0.0, 1.0, 1.0]), 4, rng)
        with pytest.raises(ValueError):
            baselines_mod.TsState(p0, np.array([0.5, 1.5]))


class CountingModality:
    """Test double: delegates to a real modality and counts loglik calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def loglik(self, y, x):
        self.calls += 1
        return self.inner.loglik(y, x)

    def null_loglik(self):
        return self.inner.null_loglik()


def _step_once(name, p0, frame, transition, models, rng):
    if name == "pf":
        return pf_step(p0, frame, transition, models, rng)
    if name == "ts":
        return ts_step(init_ts(p0, len(models)), frame, transition, models, rng)
    return dma_step(init_dma(p0, len(models)), frame, transition, models, rng)


class TestSharedReweightPath:
    @pytest.mark.parametrize("step", ["pf", "ts", "dma"])
    @pytest.mark.parametrize("values", [[0.78], [0.78, 283.0, 1.0]])
    def test_frame_arity_mismatch_rejected(self, model, rng, step, values):
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 20, rng)
        frame = ObservationFrame.of(1, values)
        with pytest.raises(ValueError, match=f"frame has {len(values)} modality readings, model has 2"):
            _step_once(step, p0, frame, model.transition, model.modalities, rng)

    @pytest.mark.parametrize("step", ["pf", "ts", "dma"])
    @pytest.mark.parametrize("values", [[0.78, 283.0], [None, 283.0], [None, None]])
    def test_each_present_loglik_evaluated_once(self, model, rng, step, values):
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 20, rng)
        counting = tuple(CountingModality(m) for m in model.modalities)
        _step_once(step, p0, ObservationFrame.of(1, values), model.transition, counting, rng)
        assert [m.calls for m in counting] == [int(v is not None) for v in values]
