"""Comparison filters: plain PF, static model averaging, two-stage.

* ``pf_step`` -- bootstrap PF that always trusts every present modality.
* ``sma_step`` -- one independent single-modality PF per channel, with
  the unweighted mean of their estimates as the output.
* ``ts_step`` -- detect-then-fuse: a running per-modality failure
  probability alpha tempers each likelihood to L^(1-alpha) before
  fusing in a single PF.

PF and TS reweight through the DMA filter's path as one weighting row,
the all-ones candidate or the tempered row (1 - alpha) @ L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dma
from .particles import ParticleSet, logsumexp, propagate

TS_SMOOTHING = 0.5
# log_pi of a single weighting row: the mixture is an exact identity
ONE_ROW = np.zeros(1)


def pf_step(particles: ParticleSet, frame, transition, models, rng, trace=None):
    """One bootstrap-PF step; returns (particles, estimate).

    Propagate, reweight with the all-ones candidate (every present
    modality useful, lost ones contribute nothing), estimate, resample.
    If every particle's likelihood underflows, the weights stay as they
    were and the step is flagged.
    """
    prop = propagate(particles, transition, rng)
    log_g, log_w = dma.candidate_reweight(prop, frame, models, np.ones((1, len(models)), dtype=np.int64))
    resampled, estimate = dma.mix_and_resample(prop, ONE_ROW, log_w, rng)
    if trace is not None:
        trace.record(frame.time_index, estimate, flag=_collapse_flag(log_g))
    return resampled, estimate


def _collapse_flag(log_g):
    return None if np.isfinite(log_g[0]) else "weight_collapse"


@dataclass(frozen=True)
class SmaState:
    """One particle set per modality, indexed by modality."""

    sub_filters: tuple[ParticleSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "sub_filters", tuple(self.sub_filters))


def init_sma(particles: ParticleSet, n_modalities: int) -> SmaState:
    """All sub-filters start from the same initial particle set."""
    return SmaState((particles,) * n_modalities)


def sma_step(state: SmaState, frame, transition, models, rng, trace=None):
    """One static-model-averaging step; returns (state, estimate).

    Each sub-filter sees only its own modality's observation and runs on
    its own child stream spawned from ``rng`` (keyed by modality index,
    so the result does not depend on evaluation order); the estimate is
    the unweighted mean of the sub-filter estimates.
    """
    n = len(state.sub_filters)
    rngs = rng.spawn(n)
    subs = []
    estimates = []
    for i in range(n):
        sub, est = pf_step(state.sub_filters[i], frame.restrict_to(i), transition, models, rngs[i])
        subs.append(sub)
        estimates.append(est)
    estimate = np.mean(estimates, axis=0)
    if trace is not None:
        trace.record(frame.time_index, estimate)
    return SmaState(tuple(subs)), estimate


@dataclass(frozen=True)
class TsState:
    """Particles plus per-modality failure-probability estimates."""

    particles: ParticleSet
    alpha: np.ndarray
    smoothing: float = TS_SMOOTHING

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if np.any(alpha < 0.0) or np.any(alpha > 1.0):
            raise ValueError("failure probabilities must lie in [0, 1]")
        if not 0.0 <= self.smoothing <= 1.0:
            raise ValueError("smoothing must lie in [0, 1]")
        object.__setattr__(self, "alpha", alpha)


def init_ts(particles: ParticleSet, n_modalities: int, smoothing: float = TS_SMOOTHING) -> TsState:
    return TsState(particles, np.zeros(n_modalities), smoothing)


def _failure_prob(prev_alpha, p: ParticleSet, frame, models, smoothing):
    """Smoothed failure probabilities plus the ``(present, L)`` they came from."""
    present, L, nulls = dma.modality_logliks(frame, p.states, models)
    log_g = logsumexp(p.log_weights + L, axis=1)
    # raw = g0 / (g0 + g), evaluated stably in the log domain
    raw = np.exp(-np.logaddexp(0.0, log_g - nulls))
    alpha = np.array(prev_alpha, dtype=float)
    alpha[present] = smoothing * alpha[present] + (1.0 - smoothing) * raw
    return alpha, present, L


def estimate_failure_prob(prev_alpha, p: ParticleSet, frame, models, smoothing: float = TS_SMOOTHING):
    """Exponentially smoothed two-hypothesis failure probabilities.

    For each present modality the raw failure probability compares the
    marginal likelihood of the observation under the particle cloud
    against the uniform-failure density 1/V: raw = g0 / (g0 + g). A lost
    modality keeps its previous value. Expects propagated particles
    still carrying the pre-update weights.
    """
    return _failure_prob(prev_alpha, p, frame, models, smoothing)[0]


def ts_step(state: TsState, frame, transition, models, rng, trace=None):
    """One two-stage step; returns (state, estimate).

    Propagate, refresh the failure probabilities, reweight with the
    single row sum_i (1 - alpha_i) * loglik_i over present modalities,
    estimate, resample.
    """
    prop = propagate(state.particles, transition, rng)
    alpha, present, L = _failure_prob(state.alpha, prop, frame, models, state.smoothing)
    log_g, log_w = dma.reweight_rows(prop, (1.0 - alpha[present])[None, :] @ L)
    resampled, estimate = dma.mix_and_resample(prop, ONE_ROW, log_w, rng)
    if trace is not None:
        trace.record(frame.time_index, estimate, model_weights=alpha, flag=_collapse_flag(log_g))
    return TsState(resampled, alpha, state.smoothing), estimate
