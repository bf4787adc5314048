"""Comparison filters: plain PF, static model averaging, two-stage.

* ``pf_step`` -- bootstrap PF that always trusts every present modality.
* ``sma_step`` -- one independent single-modality PF per channel, with
  the unweighted mean of their estimates as the output.
* ``ts_step`` -- detect-then-fuse: a running per-modality failure
  probability alpha tempers each likelihood to L^(1-alpha) before
  fusing in a single PF. Alpha is smoothed exponentially with the one
  weight ``TS_SMOOTHING`` on its previous value, read at call time.

PF and TS run DMA's reweighting kernel and tail on one set and one
weighting row with W = [[1.0]]: the all-ones candidate, or TS's tempered
row (1 - alpha) @ L. SMA's B members are B sets of the same kernel and
tail in one call each: row i is member i's likelihood of reading i, and
``dma.mix_and_resample`` mixes it with W = eye(B), so each member's
mixture is its own row. Each SMA member draws from its own random
stream, spawned once per run by ``init_sma`` and kept in the
``SmaState``. TS's per-modality marginals come from the same kernel.

``SmaState`` and ``TsState`` are plain frozen records that only
``init_sma``, ``init_ts`` and the steps build: the inits check what the
caller passes in, and every later state is built valid from its
predecessor. The steps still check a state against the models and the
frame, which come from outside on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dma
from .particles import ParticleSet, _check_modality_count, _check_particle_set, _read_only, propagate

TS_SMOOTHING = 0.5
# PF's and TS's mixing weights: one set, one row
_ONE_ROW = _read_only(np.ones((1, 1)))


@lru_cache(maxsize=8)
def _all_ones_candidate(n: int) -> np.ndarray:
    """PF's one candidate over n modalities, (1, n) and read-only. Built
    once per n: a new one each step made replay-n1k's PF runs 1.02 times
    as long."""
    return _read_only(np.ones((1, n), dtype=np.int64))


@lru_cache(maxsize=8)
def _identity(b: int) -> np.ndarray:
    """SMA's mixing weights over b members, eye(b) and read-only."""
    return _read_only(np.eye(b))


def pf_step(particles: ParticleSet, frame, transition, models, rng, trace=None):
    """One bootstrap-PF step; returns (particles, estimate).

    Propagate, reweight with the all-ones candidate (every present
    modality useful, lost ones contribute nothing), estimate, resample.
    If every particle's likelihood underflows, the weights stay as they
    were and the step is flagged.
    """
    prop = propagate(particles, transition, rng)
    log_g, E, scale = dma.candidate_reweight(prop, frame, models, _all_ones_candidate(len(models)))
    (resampled,), (estimate,) = dma.mix_and_resample([prop], _ONE_ROW, E, scale, [rng])
    if trace is not None:
        trace.record(flag=_collapse_flag(log_g))
    return resampled, estimate


def _collapse_flag(log_g):
    return None if np.isfinite(log_g).all() else "weight_collapse"


@dataclass(frozen=True)
class SmaState:
    """One particle set and one random stream per modality, indexed by
    modality: ParticleSets of one size that share one log-weight row, one
    stream each. The streams are generators that advance as the members
    step, so a state is stepped once. Built by ``init_sma`` and
    ``sma_step`` only."""

    sub_filters: tuple[ParticleSet, ...]
    rngs: tuple[np.random.Generator, ...]


def init_sma(particles: ParticleSet, n_modalities: int, rng) -> SmaState:
    """All sub-filters start from the same initial particle set; member i
    draws from child stream i of ``rng.spawn(n_modalities)`` for the
    whole run (keyed by modality index, so the result does not depend on
    evaluation order)."""
    _check_particle_set(particles)
    n = _check_modality_count("SMA", n_modalities)
    return SmaState((particles,) * n, tuple(rng.spawn(n)))


def sma_step(state: SmaState, frame, transition, models, rng, trace=None):
    """One static-model-averaging step; returns (state, estimate).

    Member i is a single-modality PF that weighs only reading i, on its
    own stream ``state.rngs[i]``; ``rng`` is not drawn from (it is in the
    signature every step function shares). The estimate is the
    unweighted mean of the member estimates. Each member propagates and
    resamples on its own stream, and the B members' weight work is one
    batch through the shared kernel: a (B, N) log-likelihood matrix (row
    i is reading i on member i's states, zeros when it is lost), one
    ``dma.reweight_rows`` call with the members' shared log-weight row,
    and one ``dma.mix_and_resample`` call over the B members with
    W = eye(B). Member i equals ``pf_step`` on the frame with every other
    reading lost, on stream i, bit for bit. A step with a member whose
    every weight underflowed is flagged.
    """
    n = len(models)
    if len(frame.observations) != n:
        raise ValueError(f"frame has {len(frame.observations)} modality readings, model has {n}")
    if len(state.sub_filters) != n:
        raise ValueError(f"SMA state has {len(state.sub_filters)} members, model has {n} modalities")
    props = [propagate(p, transition, r) for p, r in zip(state.sub_filters, state.rngs)]
    ll = np.zeros((len(props), props[0].n))
    for i, p in enumerate(props):
        obs = frame.observations[i]
        if obs.present:
            ll[i] = models[i].loglik(obs.value, p.states)
    # the members share one log-weight row: init_sma starts them from one set,
    # and residual_resample gives each the one cached uniform row per N
    log_g, E, scale = dma.reweight_rows(props[0].log_weights, ll)
    subs, estimates = dma.mix_and_resample(props, _identity(n), E, scale, state.rngs)
    if trace is not None:
        trace.record(flag=_collapse_flag(log_g))
    # np.mean's own arithmetic: the sum, then one division by the count
    return SmaState(tuple(subs), state.rngs), estimates.sum(axis=0) / n


@dataclass(frozen=True)
class TsState:
    """Particles plus per-modality failure-probability estimates. Built
    by ``init_ts`` and ``ts_step`` only, each with a fresh read-only
    ``alpha``."""

    particles: ParticleSet
    alpha: np.ndarray  # (n,) failure probabilities in [0, 1], read-only


def init_ts(particles: ParticleSet, n_modalities: int) -> TsState:
    """Every modality starts with failure probability alpha = 0."""
    _check_particle_set(particles)
    return TsState(particles, _read_only(np.zeros(_check_modality_count("TS", n_modalities))))


def _failure_prob(prev_alpha, p: ParticleSet, frame, models):
    """Smoothed failure probabilities, a new read-only vector, plus the
    ``(present, L)`` they came from. Per present modality, raw = g0 /
    (g0 + g) compares the marginal g of the reading under the pre-update
    particle cloud with the failure density g0 (``ssm.null_loglik``); a
    lost modality keeps its previous value.
    """
    present, L, nulls = dma.modality_logliks(frame, p.states, models)
    log_g = dma.reweight_rows(p.log_weights, L.copy())[0]
    # raw = g0 / (g0 + g), evaluated stably in the log domain
    raw = np.exp(-np.logaddexp(0.0, log_g - nulls))
    alpha = np.array(prev_alpha, dtype=float)
    alpha[present] = TS_SMOOTHING * alpha[present] + (1.0 - TS_SMOOTHING) * raw
    return _read_only(alpha), present, L


def ts_step(state: TsState, frame, transition, models, rng, trace=None):
    """One two-stage step; returns (state, estimate).

    Propagate, refresh the failure probabilities, reweight with the
    single row sum_i (1 - alpha_i) * loglik_i over present modalities,
    estimate, resample.
    """
    if len(state.alpha) != len(models):
        raise ValueError(f"TS state has {len(state.alpha)} failure probabilities, model has {len(models)} modalities")
    prop = propagate(state.particles, transition, rng)
    alpha, present, L = _failure_prob(state.alpha, prop, frame, models)
    log_g, E, scale = dma.reweight_rows(prop.log_weights, dma.weighted_logliks((1.0 - alpha[present])[None, :], L))
    (resampled,), (estimate,) = dma.mix_and_resample([prop], _ONE_ROW, E, scale, [rng])
    if trace is not None:
        trace.record(model_weights=alpha, flag=_collapse_flag(log_g))
    return TsState(resampled, alpha), estimate
