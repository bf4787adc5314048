"""Bootstrap particle-filter primitives.

Initialisation, propagation, residual resampling and posterior means,
shared by every filter in the package. Weights are stored in the log
domain: with large particle counts raw likelihood products underflow.
Reweighting lives in ``dma.reweight_rows`` and ``dma.mix_and_resample``,
the one kernel every filter runs: it exponentiates each weighted
log-likelihood row once, shifted by the row maximum so that no value
exceeds 1 and none can overflow, and takes both the marginals and the
mixture from that one buffer in the probability domain.

ParticleSet is a value type; none of the operations mutate their
inputs, and every operation that returns a ParticleSet returns one with
normalised weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEIGHT_TOL = 1e-9


class WeightCollapse(RuntimeError):
    """Every particle's likelihood underflowed to zero. No step raises it (a
    collapsed step is flagged in its RunTrace); perfbench's tracer counts it."""


def logsumexp(a, axis=None):
    """log(sum(exp(a))) computed stably; -inf entries are allowed."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    if axis is None:
        return out.item()
    return np.squeeze(out, axis=axis)


def uniform_log_weights(n: int) -> np.ndarray:
    return np.full(n, -np.log(n))


@dataclass(frozen=True)
class ParticleSet:
    """N weighted state samples {x^i, w^i} with log-normalised weights."""

    states: np.ndarray      # (N, d)
    log_weights: np.ndarray  # (N,), logsumexp == 0 within WEIGHT_TOL

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        lw = np.asarray(self.log_weights, dtype=float)
        if states.ndim != 2 or states.shape[0] == 0:
            raise ValueError("states must be a non-empty (N, d) array")
        if lw.shape != (states.shape[0],):
            raise ValueError("log_weights must be shaped (N,)")
        if not np.all(np.isfinite(states)):
            raise ValueError("particle states must be finite")
        if np.any(np.isnan(lw)) or np.any(lw == np.inf):
            raise ValueError("log_weights must not contain NaN or +inf")
        if abs(logsumexp(lw)) > WEIGHT_TOL:
            raise ValueError("log_weights are not normalised")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "log_weights", lw)

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


def init_particles(prior, n: int, rng) -> ParticleSet:
    """Draw n equally weighted particles from ``prior(n, rng)``."""
    if n < 1:
        raise ValueError("particle count must be >= 1")
    states = np.asarray(prior(n, rng), dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    if states.shape[0] != n:
        raise ValueError("prior returned the wrong number of samples")
    return ParticleSet(states, uniform_log_weights(n))


def propagate(p: ParticleSet, transition, rng) -> ParticleSet:
    """Advance every particle through the transition prior; weights unchanged."""
    return ParticleSet(transition.sample(p.states, rng), p.log_weights)


def residual_resample(p: ParticleSet, rng) -> ParticleSet:
    """Residual resampling to N equally weighted particles.

    Particle i is copied floor(N * w_i) times deterministically; the
    remaining slots are filled with multinomial draws over the residual
    weights, by inverse-CDF search over sorted uniforms.
    """
    n = p.n
    scaled = n * p.weights
    # N * w_i can round to just below a whole number (uniform weights give
    # 1 - 1e-16 at some N); it still earns that many deterministic copies
    counts = np.floor(scaled).astype(np.int64)
    short = n - int(counts.sum())
    if short > 0:
        cdf = np.cumsum(np.maximum(scaled - counts, 0.0))
        if cdf[-1] <= 0.0:
            cdf = np.arange(1.0, n + 1.0)
        # inverse-CDF search over sorted uniforms: the same multinomial
        # fill, and a slot whose residual is zero spans an empty interval
        u = rng.random(short)
        u.sort()
        counts += np.bincount(np.searchsorted(cdf, u * cdf[-1], side="right"), minlength=n)
    idx = np.repeat(np.arange(n), counts)
    # float dust can overshoot the deterministic copies by one slot
    if idx.shape[0] != n:
        idx = idx[:n]
    return ParticleSet(np.take(p.states, idx, axis=0), uniform_log_weights(n))


def estimate_mean(p: ParticleSet) -> np.ndarray:
    """Posterior mean sum_i w_i x^i."""
    return p.weights @ p.states
