import importlib
import pkgutil
import re
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import modalfuse
import modalfuse.baselines as baselines_mod
import modalfuse.dma as dma_mod
import modalfuse.particles as particles_mod
from modalfuse import (
    ObservationFrame,
    ParticleSet,
    builtin_scenario,
    default_config,
    dma_step,
    estimate_mean,
    init_dma,
    init_particles,
    init_prior,
    init_sma,
    init_ts,
    make_dataset,
    pf_step,
    propagate,
    run_filter,
    sma_step,
    tracking_model_2d,
    ts_step,
)
from modalfuse.diagnostics import RunTrace
from modalfuse.dma import enumerate_candidates, reweight_rows
from modalfuse.particles import WEIGHT_TOL
from modalfuse.ssm import null_loglik

from conftest import point_prior
import reference
from reference import (CountingModality, estimate_failure_prob, log_domain_reweight, logsumexp, mix_one, restrict_to,
                       sma_by_member)


class ConstantModality:
    """Test double: fixed log-likelihood everywhere, on the value space [0, 1]."""

    value_space = (0.0, 1.0)

    def __init__(self, value):
        self.value = value

    def loglik(self, y, x):
        return np.full(np.asarray(x).shape[0], self.value)


def frames_from(model, rng, t_max, x0=(1.0, 1.0, 200.0, 200.0)):
    x = np.asarray(x0, dtype=float)
    frames = []
    for t in range(1, t_max + 1):
        x = model.transition.sample(x, rng)
        frames.append(
            ObservationFrame(
                t,
                [float(model.modalities[0].reading(x, rng.standard_normal())),
                 float(model.modalities[1].reading(x, rng.standard_normal()))],
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
        f_full = ObservationFrame(1, [0.78, None])
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        _, est_a = pf_step(p0, f_full, model.transition, model.modalities, rng_a)
        # a hand-built step using only the angle modality
        prop = propagate(p0, model.transition, rng_b)
        _, E, scale = reweight_rows(prop.log_weights, model.modalities[0].loglik(0.78, prop.states)[None, :])
        _, est_b = mix_one(prop, np.ones(1), E, scale, rng_b)
        np.testing.assert_array_equal(est_a, est_b)

    def test_weight_collapse_resets_and_flags(self, model, rng):
        p0 = init_particles(point_prior([0.0, 0.0, 1.0, 1.0]), 10, rng)
        dead = ConstantModality(-np.inf)
        frame = ObservationFrame(1, [0.5])
        trace = RunTrace()
        out, est = pf_step(p0, frame, model.transition, (dead,), rng, trace=trace)
        assert trace.flags == ["weight_collapse"]
        assert np.all(np.isfinite(est))


class StillTransition:
    """Test double: particles stay where they are, whatever the stream."""

    def sample(self, x, rng):
        return np.array(x, dtype=float)


class NanOnFirstParticle:
    """Test double: a real modality's log-likelihood, NaN on particle 0."""

    def __init__(self, inner):
        self.inner = inner

    def loglik(self, y, x):
        out = self.inner.loglik(y, x)
        out[0] = np.nan
        return out

    @property
    def value_space(self):
        return self.inner.value_space


def spread_prior(n, r):
    return r.normal([1.0, 1.0, 200.0, 200.0], [1.0, 1.0, 20.0, 20.0], (n, 4))


class TestSmaStep:
    def test_estimate_is_mean_of_sub_estimates(self, model):
        p0 = init_particles(spread_prior, 60, np.random.default_rng(0))
        frame = ObservationFrame(1, [0.79, 284.0])
        _, est = sma_step(init_sma(p0, 2, np.random.default_rng(3)), frame, model.transition, model.modalities, None)
        _, _, member_ests = sma_by_member(init_sma(p0, 2, np.random.default_rng(3)), frame, model.transition,
                                          model.modalities)
        assert not np.array_equal(member_ests[0], member_ests[1])
        np.testing.assert_allclose(est, (member_ests[0] + member_ests[1]) / 2.0)

    def test_dead_member_flags_weight_collapse(self, model):
        # the second member's modality is -inf everywhere: flagged as PF and
        # TS flag it, and flagged only in the step whose reading is present
        p0 = init_particles(spread_prior, 20, np.random.default_rng(0))
        models = (model.modalities[0], ConstantModality(-np.inf))
        state, trace = init_sma(p0, 2, np.random.default_rng(3)), RunTrace()
        for t, values in enumerate(([0.79, 0.5], [0.79, None]), start=1):
            state, est = sma_step(state, ObservationFrame(t, values), model.transition, models, None, trace=trace)
            assert np.all(np.isfinite(est))
        assert trace.flags == ["weight_collapse", None]

    def test_identical_sub_estimates_pass_through(self, model):
        # two members weighing the same reading under the same modality on
        # particles that do not move: identical weights, identical estimates
        p0 = init_particles(spread_prior, 40, np.random.default_rng(0))
        models = (model.modalities[0],) * 2
        frame = ObservationFrame(1, [0.79, 0.79])
        _, est = sma_step(init_sma(p0, 2, np.random.default_rng(3)), frame, StillTransition(), models, None)
        _, _, member_ests = sma_by_member(init_sma(p0, 2, np.random.default_rng(3)), frame, StillTransition(),
                                          models)
        np.testing.assert_array_equal(member_ests[0], member_ests[1])
        np.testing.assert_allclose(est, member_ests[0], atol=1e-15)

    def test_matches_manual_decomposition(self, model):
        # the same stored streams, sub-filters evaluated in reversed order
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 60, np.random.default_rng(0))
        frame = ObservationFrame(1, [0.79, 284.0])
        state, est = sma_step(init_sma(p0, 2, np.random.default_rng(42)), frame, model.transition,
                              model.modalities, None)

        rngs = init_sma(p0, 2, np.random.default_rng(42)).rngs
        subs, ests = {}, {}
        for i in (1, 0):  # reversed evaluation order
            subs[i], ests[i] = pf_step(p0, restrict_to(frame, i), model.transition,
                                       model.modalities, rngs[i])
        np.testing.assert_allclose(est, np.mean([ests[0], ests[1]], axis=0), atol=1e-12)
        for i in (0, 1):
            np.testing.assert_array_equal(state.sub_filters[i].states, subs[i].states)

    def test_sub_filters_see_only_their_modality(self, model):
        # member i's likelihood is evaluated once, on reading i alone, and
        # changing reading 1 leaves member 0 untouched
        p0 = init_particles(spread_prior, 40, np.random.default_rng(0))
        seen = []

        class Recording:
            def __init__(self, i):
                self.i = i

            def loglik(self, y, x):
                seen.append((self.i, y))
                return model.modalities[self.i].loglik(y, x)

        models = (Recording(0), Recording(1))
        a, _ = sma_step(init_sma(p0, 2, np.random.default_rng(3)), ObservationFrame(1, [0.79, 284.0]),
                        model.transition, models, None)
        assert seen == [(0, 0.79), (1, 284.0)]
        b, _ = sma_step(init_sma(p0, 2, np.random.default_rng(3)), ObservationFrame(1, [0.79, 250.0]),
                        model.transition, models, None)
        np.testing.assert_array_equal(a.sub_filters[0].states, b.sub_filters[0].states)
        assert not np.array_equal(a.sub_filters[1].states, b.sub_filters[1].states)

    def test_lost_reading_leaves_sub_filter_unweighted(self, model):
        # A lost reading adds no evidence, so its sub-filter keeps uniform
        # weights, and residual resampling of uniform weights copies every
        # propagated particle once, in order.
        p0 = init_particles(lambda n, r: r.normal([1.0, 1.0, 200.0, 200.0], [1.0, 1.0, 20.0, 20.0], (n, 4)),
                            200, np.random.default_rng(0))
        for lost in (0, 1):
            values = [0.79, 284.0]
            values[lost] = None
            state, _ = sma_step(init_sma(p0, 2, np.random.default_rng(7)), ObservationFrame(1, values),
                                model.transition, model.modalities, None)
            expected = propagate(p0, model.transition, init_sma(p0, 2, np.random.default_rng(7)).rngs[lost])
            np.testing.assert_array_equal(state.sub_filters[lost].states, expected.states)


def _frames(models, transition, rng, t_max, x0=(1.0, 1.0, 200.0, 200.0)):
    x = np.asarray(x0, dtype=float)
    frames = []
    for t in range(1, t_max + 1):
        x = transition.sample(x, rng)
        frames.append(ObservationFrame(t, [float(m.reading(x, rng.standard_normal())) for m in models]))
    return frames


def _lose(frames, lost):
    """Frames with reading i of step t lost wherever ``lost(t, i)``."""
    return [ObservationFrame(f.time_index, [None if lost(f.time_index, i) else obs.value
                                               for i, obs in enumerate(f.observations)]) for f in frames]


class TestSmaBatchGate:
    """``sma_step`` runs its B members as one batch; each member must equal
    ``pf_step`` on its restricted frame, bit for bit, step after step."""

    @pytest.mark.parametrize("n_copies", [1, 3], ids=["2mod", "6mod"])
    @pytest.mark.parametrize("case", ["clean", "one_lost", "all_lost", "dead_member", "nan_particle",
                                      "weighted_p0"])
    def test_members_match_per_member_reference(self, model, n_copies, case):
        models = model.modalities * n_copies
        frames = _frames(models, model.transition, np.random.default_rng(1), 24)
        p0 = init_particles(spread_prior, 64, np.random.default_rng(0))
        if case == "one_lost":
            frames = _lose(frames, lambda t, i: i == t % len(models))
        elif case == "all_lost":
            frames = _lose(frames, lambda t, i: t % 4 == 0)
        elif case == "dead_member":
            models = models[:1] + (ConstantModality(-np.inf),) + models[2:]
        elif case == "nan_particle":
            models = (NanOnFirstParticle(models[0]),) + models[1:]
        elif case == "weighted_p0":
            # non-uniform step-1 weights, which init_sma gives every member
            lw = np.random.default_rng(2).normal(0.0, 2.0, p0.n)
            p0 = ParticleSet(p0.states, lw - logsumexp(lw))
        # two states on equal streams: each state's generators advance as it steps
        batch, ref = (init_sma(p0, len(models), np.random.default_rng(5)) for _ in range(2))
        for f in frames:
            batch, est = sma_step(batch, f, model.transition, models, None)
            ref, ref_est, _ = sma_by_member(ref, f, model.transition, models)
            np.testing.assert_array_equal(est, ref_est)
            for got, want in zip(batch.sub_filters, ref.sub_filters):
                np.testing.assert_array_equal(got.states, want.states)
                np.testing.assert_array_equal(got.log_weights, want.log_weights)


class TestEstimateFailureProb:
    def test_indifference_point(self, rng, monkeypatch):
        # marginal equal to the null density => raw failure prob 0.5
        monkeypatch.setattr(baselines_mod, "TS_SMOOTHING", 0.0)
        mod = ConstantModality(0.0)  # loglik == null_loglik == 0
        p = ParticleSet(np.zeros((4, 1)), np.log(np.full(4, 0.25)))
        frame = ObservationFrame(1, [0.3])
        alpha = estimate_failure_prob(np.zeros(1), p, frame, (mod,))
        assert alpha[0] == pytest.approx(0.5, abs=1e-12)

    def test_strong_evidence_drives_alpha_to_zero(self, monkeypatch):
        monkeypatch.setattr(baselines_mod, "TS_SMOOTHING", 0.0)
        mod = ConstantModality(40.0)
        p = ParticleSet(np.zeros((4, 1)), np.log(np.full(4, 0.25)))
        frame = ObservationFrame(1, [0.3])
        alpha = estimate_failure_prob(np.ones(1), p, frame, (mod,))
        assert alpha[0] == pytest.approx(0.0, abs=1e-12)

    def test_three_particle_arithmetic_oracle(self, model):
        # oracle: alpha = 0.5 prev + 0.5 * g0 / (g0 + g), g computed directly
        states = np.array([[1, 1, 200, 200], [1, 1, 210, 190], [1, 1, 195, 205]], dtype=float)
        w = np.array([0.5, 0.3, 0.2])
        p = ParticleSet(states, np.log(w))
        frame = ObservationFrame(1, [0.8, 287.0])
        prev = np.array([0.3, 0.6])
        got = estimate_failure_prob(prev, p, frame, model.modalities)
        for i, mod in enumerate(model.modalities):
            g = sum(w[j] * np.exp(mod.loglik(frame.observations[i].value, states[j])) for j in range(3))
            g0 = 1.0 / np.ptp(mod.value_space)
            raw = g0 / (g0 + g)
            assert got[i] == pytest.approx(0.5 * prev[i] + 0.5 * raw, abs=1e-12)

    def test_marginals_bit_exact_with_logsumexp(self, model, monkeypatch):
        # one lost reading and one modality at -inf everywhere: the kernel's
        # marginals are the same operations as logsumexp(lw + L), bit for bit
        rng = np.random.default_rng(0)
        w = rng.random(50)
        p = ParticleSet(spread_prior(50, rng), np.log(w / w.sum()))
        models = (*model.modalities, ConstantModality(-np.inf))
        frame = ObservationFrame(1, [None, 283.0, 0.5])
        seen, real = [], dma_mod.reweight_rows

        def spy(*args):
            out = real(*args)
            seen.append(out[0])
            return out

        monkeypatch.setattr(dma_mod, "reweight_rows", spy)
        prev = np.array([0.77, 0.2, 0.4])
        got = estimate_failure_prob(prev, p, frame, models)
        L = np.stack([models[i].loglik(frame.observations[i].value, p.states) for i in (1, 2)])
        want = logsumexp(p.log_weights + L, axis=1)
        assert want[1] == -np.inf
        assert np.array_equal(seen[0], want)
        raw = np.exp(-np.logaddexp(0.0, want - [null_loglik(models[i]) for i in (1, 2)]))
        assert np.array_equal(got, np.r_[0.77, 0.5 * prev[1:] + 0.5 * raw])
        assert got[2] == 0.5 * 0.4 + 0.5  # no evidence at all: raw failure probability 1

    def test_absent_modality_unchanged(self, model):
        p = ParticleSet(np.zeros((3, 4)), np.log(np.full(3, 1 / 3)))
        frame = ObservationFrame(1, [None, 100.0])
        prev = np.array([0.77, 0.2])
        got = estimate_failure_prob(prev, p, frame, model.modalities)
        assert got[0] == 0.77
        assert got[1] != 0.2


class TestTsStep:
    def test_alpha_pinned_zero_equals_pf(self, model, monkeypatch):
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 80, np.random.default_rng(0))
        frames = frames_from(model, np.random.default_rng(1), 40)
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        pf_p = p0
        monkeypatch.setattr(baselines_mod, "TS_SMOOTHING", 1.0)  # alpha frozen at its initial zeros
        ts_s = init_ts(p0, 2)
        for f in frames:
            pf_p, est_pf = pf_step(pf_p, f, model.transition, model.modalities, rng_a)
            ts_s, est_ts = ts_step(ts_s, f, model.transition, model.modalities, rng_b)
            assert np.array_equal(est_pf, est_ts)
            assert np.array_equal(pf_p.states, ts_s.particles.states)
        np.testing.assert_array_equal(ts_s.alpha, [0.0, 0.0])

    def test_alpha_pinned_one_means_no_update(self, model, monkeypatch):
        monkeypatch.setattr(baselines_mod, "TS_SMOOTHING", 1.0)
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 50, np.random.default_rng(0))
        state = baselines_mod.TsState(p0, np.ones(2))
        frame = ObservationFrame(1, [0.78, 283.0])
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        _, est = ts_step(state, frame, model.transition, model.modalities, rng_a)
        prop = propagate(p0, model.transition, rng_b)
        np.testing.assert_array_equal(est, estimate_mean(prop))

    def test_tempered_row_matches_loop_reference(self, model, monkeypatch):
        # reference: the tempered sum accumulated modality by modality; the
        # step takes it as one matmul, so only the summation order differs
        p0 = init_particles(lambda n, r: r.normal([1.0, 1.0, 200.0, 200.0], [1.0, 1.0, 5.0, 5.0], (n, 4)),
                            100, np.random.default_rng(0))
        alpha = np.array([0.3, 0.6])
        frame = ObservationFrame(1, [0.78, 283.0])
        monkeypatch.setattr(baselines_mod, "TS_SMOOTHING", 1.0)  # alpha frozen
        state = baselines_mod.TsState(p0, alpha)
        _, est = ts_step(state, frame, model.transition, model.modalities, np.random.default_rng(5))
        prop = propagate(p0, model.transition, np.random.default_rng(5))
        tempered = np.zeros(prop.n)
        for i, mod in enumerate(model.modalities):
            tempered += (1.0 - alpha[i]) * mod.loglik(frame.observations[i].value, prop.states)
        _, log_w = log_domain_reweight(prop, tempered[None, :])
        np.testing.assert_allclose(est, estimate_mean(ParticleSet(prop.states, log_w[0])), rtol=1e-12)

    def test_dead_modality_at_alpha_one_drops_out(self, model, monkeypatch):
        # alpha = 1 on a -inf modality: its term is dropped, not 0 * -inf = NaN
        p0 = init_particles(lambda n, r: r.normal([1.0, 1.0, 200.0, 200.0], [1.0, 1.0, 5.0, 5.0], (n, 4)),
                            100, np.random.default_rng(0))
        models = (model.modalities[0], ConstantModality(-np.inf))
        frame = ObservationFrame(1, [0.78, 283.0])
        monkeypatch.setattr(baselines_mod, "TS_SMOOTHING", 1.0)  # alpha frozen
        state = baselines_mod.TsState(p0, np.array([0.3, 1.0]))
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
        state, est = ts_step(init_ts(p0, 1), ObservationFrame(1, [0.5]), model.transition,
                             (dead,), rng, trace=trace)
        assert trace.flags == ["weight_collapse"]
        assert np.all(np.isfinite(est))
        assert 0.0 <= state.alpha[0] <= 1.0

    def test_alpha_is_read_only(self, model, rng):
        # as DmaState.pi: init_ts's zeros and every stepped alpha
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 4, rng)
        state = init_ts(p0, 2)
        assert not state.alpha.flags.writeable
        np.testing.assert_array_equal(state.alpha, [0.0, 0.0])
        stepped, _ = ts_step(state, ObservationFrame(1, [0.78, 283.0]), model.transition, model.modalities, rng)
        assert not stepped.alpha.flags.writeable

    def test_stepped_alpha_cannot_rewrite_the_trace(self, model):
        # the trace holds the state's alpha object, so the state must not be writable
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 40, np.random.default_rng(0))
        trace = RunTrace()
        state, _ = ts_step(init_ts(p0, 2), ObservationFrame(1, [0.78, 283.0]), model.transition,
                           model.modalities, np.random.default_rng(5), trace=trace)
        recorded = trace.weight_matrix().copy()
        assert not state.alpha.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            state.alpha[0] = 0.9
        np.testing.assert_array_equal(trace.weight_matrix(), recorded)

    @pytest.mark.parametrize("count", [1, 3])
    def test_alpha_count_other_than_the_modality_count_rejected(self, model, rng, count):
        # three entries on the 2-modality model ran silently, one raised a bare IndexError
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 4, rng)
        with pytest.raises(ValueError, match=f"TS state has {count} failure probabilities, model has 2 modalities"):
            ts_step(init_ts(p0, count), ObservationFrame(1, [0.79, 284.0]), model.transition, model.modalities,
                    rng)


def _step_once(name, p0, frame, transition, models, rng):
    if name == "pf":
        return pf_step(p0, frame, transition, models, rng)
    if name == "sma":
        return sma_step(init_sma(p0, len(models), rng), frame, transition, models, rng)
    if name == "ts":
        return ts_step(init_ts(p0, len(models)), frame, transition, models, rng)
    return dma_step(init_dma(p0, len(models)), frame, transition, models, rng)


class TestSharedReweightPath:
    @pytest.mark.parametrize("step", ["pf", "ts", "sma", "dma"])
    @pytest.mark.parametrize("values", [[0.78], [0.78, 283.0, 1.0]])
    def test_frame_arity_mismatch_rejected(self, model, rng, step, values):
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 20, rng)
        frame = ObservationFrame(1, values)
        with pytest.raises(ValueError, match=f"frame has {len(values)} modality readings, model has 2"):
            _step_once(step, p0, frame, model.transition, model.modalities, rng)

    @pytest.mark.parametrize("step", ["pf", "ts", "sma", "dma"])
    @pytest.mark.parametrize("values", [[0.78, 283.0], [None, 283.0], [None, None]])
    def test_each_present_loglik_evaluated_once(self, model, rng, step, values):
        p0 = init_particles(point_prior([1.0, 1.0, 200.0, 200.0]), 20, rng)
        counting = tuple(CountingModality(m) for m in model.modalities)
        _step_once(step, p0, ObservationFrame(1, values), model.transition, counting, rng)
        assert [len(m.shapes) for m in counting] == [int(v is not None) for v in values]


class SpawnCounter:
    """Test double: a generator that counts its ``spawn`` calls."""

    def __init__(self, rng):
        self.rng = rng
        self.spawns = 0

    def spawn(self, n):
        self.spawns += 1
        return self.rng.spawn(n)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestSmaStreams:
    def test_run_spawns_member_streams_once(self, model):
        frames = frames_from(model, np.random.default_rng(1), 6)
        p0 = init_particles(spread_prior, 32, np.random.default_rng(0))
        rng = SpawnCounter(np.random.default_rng(5))
        run_filter("sma", frames, p0, model.transition, model.modalities, rng)
        assert rng.spawns == 1

    @pytest.mark.parametrize("members", [3, 1])
    def test_member_count_other_than_the_modality_count_rejected(self, model, members):
        # more members than modalities ran the extra ones unweighted; fewer
        # left the extra modalities out
        p0 = init_particles(spread_prior, 20, np.random.default_rng(0))
        state = init_sma(p0, members, np.random.default_rng(3))
        with pytest.raises(ValueError, match=f"SMA state has {members} members, model has 2 modalities"):
            sma_step(state, ObservationFrame(1, [0.79, 284.0]), model.transition, model.modalities, None)


# what each init takes besides the particle set
INITS = {"TS": init_ts, "SMA": lambda p0, n: init_sma(p0, n, np.random.default_rng(3)), "DMA": init_dma}
# the modality count of each init's state
COUNTS = {"TS": lambda s: len(s.alpha), "SMA": lambda s: len(s.sub_filters), "DMA": lambda s: s.candidates.shape[1]}


class TestModalityCountChecked:
    @pytest.mark.parametrize("name", list(INITS))
    @pytest.mark.parametrize("count", [0, -1, np.int64(0)], ids=["zero", "negative", "numpy_zero"])
    def test_below_one_rejected(self, name, count):
        p0 = init_particles(spread_prior, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match=f"{name} needs one or more modalities, got {count}$"):
            INITS[name](p0, count)

    @pytest.mark.parametrize("name", list(INITS))
    @pytest.mark.parametrize("count", [2.5, 2.0, np.float64(2.0), "2", True, None],
                             ids=["fraction", "whole_float", "numpy_float", "string", "bool", "none"])
    def test_not_an_integer_rejected(self, name, count):
        p0 = init_particles(spread_prior, 4, np.random.default_rng(0))
        message = rf"{name} needs an integer modality count, got {re.escape(repr(count))}$"
        if name == "DMA" and count is None:  # None asks for an explicit candidate set
            message = "give either n_modalities or an explicit candidate set"
        with pytest.raises(ValueError, match=message):
            INITS[name](p0, count)

    @pytest.mark.parametrize("name", list(INITS))
    @pytest.mark.parametrize("count", [1, 3, np.int32(2)], ids=["one", "three", "numpy_int"])
    def test_integers_from_one_accepted(self, name, count):
        p0 = init_particles(spread_prior, 4, np.random.default_rng(0))
        assert COUNTS[name](INITS[name](p0, count)) == count


class TestTailCostShape:
    """The shared tail normalises once, in the probability domain: no
    module of the package has a ``logsumexp`` (every marginal comes from
    ``reweight_rows``), the estimate and the resample read the mixture the
    tail normalised, and the filter states are plain records, checked
    only in ``init_*``."""

    @staticmethod
    def _states(p0, models, step):
        if step == "pf":
            return p0
        if step == "sma":
            return init_sma(p0, len(models), np.random.default_rng(4))
        if step == "ts":
            return init_ts(p0, len(models))
        return init_dma(p0, len(models))

    STEPS = {"pf": pf_step, "sma": sma_step, "ts": ts_step, "dma": dma_step}
    FRAMES = ([0.79, 284.0], [None, 284.0], [None, None])

    @pytest.mark.parametrize("step", ["pf", "sma", "dma"])
    def test_no_logsumexp_in_a_step(self, model, monkeypatch, step):
        # a tripwire in every namespace a step reads: a step that looked up a
        # ``logsumexp`` (its own module's or the test oracle) would call it
        p0 = init_particles(spread_prior, 64, np.random.default_rng(0))
        state = self._states(p0, model.modalities, step)
        calls = []
        for module in (particles_mod, dma_mod, baselines_mod, reference):
            monkeypatch.setattr(module, "logsumexp", lambda *a, **k: calls.append(1) or pytest.fail("logsumexp"),
                                raising=False)
        rng = np.random.default_rng(3)
        for t, values in enumerate(self.FRAMES, start=1):
            state = self.STEPS[step](state, ObservationFrame(t, values), model.transition, model.modalities,
                                     rng)[0]
        assert calls == []

    def test_no_module_defines_or_imports_logsumexp(self):
        names = [m.name for m in pkgutil.iter_modules(modalfuse.__path__)]
        assert {"particles", "dma", "baselines"} <= set(names)
        for module in [modalfuse] + [importlib.import_module(f"modalfuse.{name}") for name in names]:
            assert "logsumexp" not in vars(module), module.__name__

    @pytest.mark.parametrize("step", ["pf", "ts", "dma", "sma"])
    def test_estimate_and_resample_read_the_normalised_mixture(self, model, monkeypatch, step):
        # one set per filter, SMA's B members included: B estimates, then B
        # resamples, each reading the set its estimate read
        p0 = init_particles(spread_prior, 64, np.random.default_rng(0))
        seen = []
        for name in ("estimate_mean", "residual_resample"):
            real = getattr(dma_mod, name)
            monkeypatch.setattr(dma_mod, name,
                                lambda p, *a, _real=real, _name=name: seen.append((_name, p)) or _real(p, *a))
        self.STEPS[step](self._states(p0, model.modalities, step), ObservationFrame(1, [0.79, 284.0]),
                         model.transition, model.modalities, np.random.default_rng(3))
        sets = 2 if step == "sma" else 1
        assert [name for name, _ in seen] == ["estimate_mean"] * sets + ["residual_resample"] * sets
        for (_, estimated), (_, resampled) in zip(seen[:sets], seen[sets:]):
            assert estimated is resampled and "weights" in vars(estimated)  # seeded, not re-exponentiated
            assert not estimated.weights.flags.writeable
            assert estimated.weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("step", ["sma", "ts", "dma"])
    def test_in_loop_states_skip_the_checks(self, model, step):
        p0 = init_particles(spread_prior, 64, np.random.default_rng(0))
        state = self._states(p0, model.modalities, step)
        assert not hasattr(type(state), "__post_init__")
        new = self.STEPS[step](state, ObservationFrame(1, [0.79, 284.0]), model.transition, model.modalities,
                               np.random.default_rng(3))[0]
        assert type(new) is type(state)


@pytest.fixture(scope="module")
def scenario2():
    cfg = default_config()
    return cfg, make_dataset(builtin_scenario(2), cfg, 7, 0).frames


def _members(name, state, rng):
    """(particle sets, their streams) of a filter state; SMA's members each
    draw from their own stream, the other filters' one set from ``rng``."""
    if name == "sma":
        return state.sub_filters, state.rngs
    return [state if name == "pf" else state.particles], [rng]


class TestAllLostFrame:
    """ROADMAP item 7's R3: a step on a frame whose every reading is lost
    is a pure propagate. Each particle is copied once, in order, with no
    resample draw (residual resampling's FLOOR_SLACK), the estimate is the
    propagated mean, TS keeps its alpha and DMA's posterior moves only by
    the floor's renormalisation."""

    STEPS = {"pf": pf_step, "ts": ts_step, "sma": sma_step, "dma": dma_step}

    @pytest.mark.parametrize("name", list(STEPS))
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 3000), lead=st.integers(1, 6))
    @example(n=37, lead=3)
    @example(n=100, lead=3)
    @example(n=1000, lead=3)
    @example(n=2000, lead=3)
    @example(n=10_000, lead=3)
    def test_step_is_a_pure_propagate(self, scenario2, name, n, lead):
        cfg, frames = scenario2
        transition, models = cfg.model.transition, cfg.model.modalities
        step = self.STEPS[name]
        rng = np.random.default_rng(n + 7919 * lead)
        p0 = init_particles(init_prior("accurate", cfg.x0), n, np.random.default_rng(n))
        state = {"pf": p0, "ts": init_ts(p0, 2), "sma": init_sma(p0, 2, rng), "dma": init_dma(p0, 2)}[name]
        for frame in frames[:lead]:
            state = step(state, frame, transition, models, rng)[0]
        sets, streams = _members(name, state, rng)
        clones = [deepcopy(r) for r in streams]
        props = [propagate(p, transition, c) for p, c in zip(sets, clones)]

        new_state, estimate = step(state, ObservationFrame(lead + 1, [None, None]), transition, models, rng)[:2]

        for new, prop in zip(_members(name, new_state, rng)[0], props):
            assert np.array_equal(new.states, prop.states)
        assert [r.random() for r in streams] == [c.random() for c in clones]
        expected = np.mean([estimate_mean(p) for p in props], axis=0)
        assert np.linalg.norm(estimate - expected) <= 1e-12 * np.linalg.norm(expected)
        if name == "ts":
            assert np.array_equal(new_state.alpha, state.alpha)
        if name == "dma":
            assert np.abs(new_state.pi - state.pi).max() < 1e-10


# a drawn reading: the dataset's own, lost, or garbage at fraction u of the
# modality's value space. Under a range sigma of 0.1 a garbage range reads
# a log-likelihood near -1e8 (-1.5e8 at the far end)
READINGS = st.one_of(st.just("reading"), st.just("lost"), st.floats(0.0, 1.0))
TIGHT_MODELS = tracking_model_2d(sigma_range=0.1).modalities


def _redraw(frame, kinds, models):
    """``frame`` with reading i kept, lost or made garbage as ``kinds[i]`` says."""
    values = []
    for obs, kind, m in zip(frame.observations, kinds, models):
        if kind == "reading":
            values.append(obs.value)
        elif kind == "lost":
            values.append(None)
        else:
            low, high = m.value_space
            values.append(low + kind * (high - low))
    return ObservationFrame(frame.time_index, values)


class TestLibraryStatesMeetTheInvariants:
    """The state types check nothing: ``init_*`` check what a run starts
    from, and the steps build every later state from checked parts. So
    every state the library builds must meet the invariants: DMA's
    posterior is read-only, holds M entries > 0 summing to 1 within
    WEIGHT_TOL, and ``t`` is the last frame's time index; TS's alpha is a
    read-only (n,) vector in [0, 1]; SMA's members are ParticleSets of one
    size, with one stream each."""

    STEPS = {"ts": ts_step, "sma": sma_step, "dma": dma_step}

    @staticmethod
    def _check(name, state, t):
        if name == "dma":
            assert isinstance(state.particles, ParticleSet)
            assert not state.pi.flags.writeable and state.pi.shape == (4,)
            assert (state.pi > 0.0).all() and abs(state.pi.sum() - 1.0) <= WEIGHT_TOL
            assert state.t == t
        elif name == "ts":
            assert isinstance(state.particles, ParticleSet)
            assert not state.alpha.flags.writeable and state.alpha.shape == (2,)
            assert ((state.alpha >= 0.0) & (state.alpha <= 1.0)).all()
        else:
            assert all(isinstance(p, ParticleSet) for p in state.sub_filters)
            assert len({p.n for p in state.sub_filters}) == 1
            assert len(state.sub_filters) == len(state.rngs) == 2

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 3000), steps=st.lists(st.tuples(READINGS, READINGS), min_size=1, max_size=10))
    @example(n=200, steps=[(1.0, "reading")] * 5)
    @example(n=200, steps=[("reading", 1.0)] * 5)
    @example(n=1000, steps=[("lost", 0.5), (0.0, "lost"), ("lost", "lost"), ("reading", "reading")])
    def test_every_state_meets_the_invariants(self, scenario2, n, steps):
        cfg, frames = scenario2
        transition = cfg.model.transition
        rng = np.random.default_rng(n)
        p0 = init_particles(init_prior("accurate", cfg.x0), n, rng)
        states = {"ts": init_ts(p0, 2), "sma": init_sma(p0, 2, rng), "dma": init_dma(p0, 2)}
        for name, state in states.items():
            self._check(name, state, 0)
        for kinds, frame in zip(steps, frames):
            frame = _redraw(frame, kinds, TIGHT_MODELS)
            for name, state in states.items():
                states[name] = self.STEPS[name](state, frame, transition, TIGHT_MODELS, rng)[0]
                self._check(name, states[name], frame.time_index)


class TestReorderedModalities:
    """ROADMAP item 7's R2: swapping the two modalities in the models, in
    every frame and in the columns of DMA's candidates changes only the
    order of the sums over modalities. PF is bit-identical over a whole
    scenario-2 run. TS and DMA, stepped from a shared state (the swapped
    one holds alpha reversed, or the candidate columns swapped), agree to
    1e-12 per step on drawn frames with lost readings; DMA's frames hold
    garbage readings too. TS's garbage readings are kept readings here:
    its tempered row (1 - alpha) @ L is a BLAS product whose rounding
    depends on the order of its terms (DMA's and PF's 0/1 weights make
    every product exact), and at a log-likelihood near -1e8 one ulp of
    the row is 3e-8, which moved a TS estimate by 2e-12 (N = 2,164)."""

    @staticmethod
    def _swap(frame):
        return ObservationFrame(frame.time_index, [o.value for o in frame.observations[::-1]])

    def test_pf_run_is_bit_identical(self, scenario2):
        cfg, frames = scenario2
        transition, models = cfg.model.transition, cfg.model.modalities
        p0 = init_particles(init_prior("accurate", cfg.x0), 500, np.random.default_rng(7))
        est, trace = run_filter("pf", frames, p0, transition, models, np.random.default_rng(8))
        swapped, _ = run_filter("pf", [self._swap(f) for f in frames], p0, transition, models[::-1],
                                np.random.default_rng(8))
        assert len(est) == 300 and trace.n_flagged == 0
        assert np.array_equal(est, swapped)

    STEPS = {"ts": ts_step, "dma": dma_step}
    SWAPPED = {
        "ts": lambda state: replace(state, alpha=state.alpha[::-1]),
        "dma": lambda state: replace(state, candidates=state.candidates[:, ::-1]),
    }

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 3000), steps=st.lists(st.tuples(READINGS, READINGS), min_size=1, max_size=10))
    @example(n=500, steps=[("reading", "reading")] * 3 + [("lost", "reading"), ("reading", "lost"), (1.0, 0.3)])
    def test_ts_and_dma_agree_per_step(self, scenario2, n, steps):
        cfg, frames = scenario2
        transition = cfg.model.transition
        rng = np.random.default_rng(n)
        p0 = init_particles(init_prior("accurate", cfg.x0), n, rng)
        states = {"ts": init_ts(p0, 2), "dma": init_dma(p0, 2)}
        for kinds, dataset_frame in zip(steps, frames):
            for name, state in states.items():
                drawn = ["reading" if name == "ts" and isinstance(k, float) else k for k in kinds]
                frame = _redraw(dataset_frame, drawn, TIGHT_MODELS)
                step, twin = self.STEPS[name], deepcopy(rng)
                new, estimate = step(state, frame, transition, TIGHT_MODELS, rng)[:2]
                new_swapped, estimate_swapped = step(self.SWAPPED[name](state), self._swap(frame), transition,
                                                     TIGHT_MODELS[::-1], twin)[:2]
                assert np.linalg.norm(estimate_swapped - estimate) <= 1e-12 * np.linalg.norm(estimate)
                if name == "ts":
                    np.testing.assert_allclose(new_swapped.alpha[::-1], new.alpha, rtol=0.0, atol=1e-12)
                else:
                    np.testing.assert_allclose(new_swapped.pi, new.pi, rtol=0.0, atol=1e-12)
                states[name] = new


class TestAlwaysLostModality:
    """ROADMAP item 7's R1: a modality whose every reading is lost carries
    no information. Added to the models and as a lost reading to every
    frame, appended or put first (the relation holds at any position, and
    first it shifts every other modality's index), it leaves PF and TS
    bit-identical over a whole scenario-2 run, with TS's failure
    probability of the lost modality at its initial 0. DMA then has two
    twins per candidate, which differ only in the lost bit and have one
    log-likelihood row. Stepped from a shared state (each twin holding half
    its candidate's mass), DMA agrees to 1e-12 on its estimate and on its
    posterior summed over each pair of twins, once ``PI_FLOOR`` is
    negligible: the floor applies per candidate, so the twins hold twice a
    pattern's floor mass (see the note at ``dma.PI_FLOOR``)."""

    LOST = tracking_model_2d().modalities[0]

    @staticmethod
    def _with_lost(seq, at, lost):
        out = list(seq)
        out.insert(at, lost)
        return tuple(out)

    def _frame(self, frame, at):
        return ObservationFrame(frame.time_index, self._with_lost([o.value for o in frame.observations], at, None))

    @pytest.mark.parametrize("at", [2, 0], ids=["appended", "first"])
    @pytest.mark.parametrize("name", ["pf", "ts"])
    def test_pf_and_ts_runs_are_bit_identical(self, scenario2, name, at):
        cfg, frames = scenario2
        transition, models = cfg.model.transition, cfg.model.modalities
        p0 = init_particles(init_prior("accurate", cfg.x0), 500, np.random.default_rng(7))
        est, trace = run_filter(name, frames, p0, transition, models, np.random.default_rng(8))
        est_lost, trace_lost = run_filter(name, [self._frame(f, at) for f in frames], p0, transition,
                                          self._with_lost(models, at, self.LOST), np.random.default_rng(8))
        assert len(est) == 300
        assert np.array_equal(est, est_lost)
        assert trace_lost.flags == trace.flags
        if name == "ts":
            alpha = trace_lost.weight_matrix()
            assert np.array_equal(np.delete(alpha, at, axis=1), trace.weight_matrix())
            assert not alpha[:, at].any()

    @staticmethod
    def _twin_of(at):
        """For each of the 8 candidates over the three modalities, the index
        among the 4 over the two real ones of its bits without the lost one."""
        index = {tuple(c): j for j, c in enumerate(enumerate_candidates(2).tolist())}
        return np.array([index[tuple(np.delete(c, at))] for c in enumerate_candidates(3)])

    @pytest.mark.parametrize("at", [2, 0], ids=["appended", "first"])
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 3000), steps=st.lists(st.tuples(READINGS, READINGS), min_size=1, max_size=10))
    @example(n=500, steps=[("reading", "reading")] * 3 + [("lost", "reading"), ("reading", "lost"), (1.0, 0.3)])
    def test_dma_agrees_per_step(self, scenario2, at, n, steps):
        cfg, frames = scenario2
        transition = cfg.model.transition
        models_lost = self._with_lost(TIGHT_MODELS, at, self.LOST)
        twin_of, candidates_lost = self._twin_of(at), enumerate_candidates(3)
        rng = np.random.default_rng(n)
        state = init_dma(init_particles(init_prior("accurate", cfg.x0), n, rng), 2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dma_mod, "PI_FLOOR", 1e-300)
            for kinds, dataset_frame in zip(steps, frames):
                frame = _redraw(dataset_frame, kinds, TIGHT_MODELS)
                lifted = replace(state, pi=state.pi[twin_of] / 2.0, candidates=candidates_lost)
                twin = deepcopy(rng)
                new, estimate, pi = dma_step(state, frame, transition, TIGHT_MODELS, rng)
                _, estimate_lost, pi_lost = dma_step(lifted, self._frame(frame, at), transition, models_lost, twin)
                assert np.linalg.norm(estimate_lost - estimate) <= 1e-12 * np.linalg.norm(estimate)
                np.testing.assert_allclose(np.bincount(twin_of, weights=pi_lost), pi, rtol=0.0, atol=1e-12)
                state = new
