"""Dynamic model averaging over modality-usefulness hypotheses.

Each modality is either useful (its observation informs the state) or
useless (its observation is noise, uniform over the value space). With
n modalities that gives 2^n candidate likelihoods; which one generated
the data is unknown and can change every step. The filter keeps a
posterior over the candidates and mixes the per-candidate particle
weightings with it, so a modality that starts emitting garbage is
demoted within a step or two and re-admitted as soon as it recovers.

One step:

1. propagate the shared particle set once;
2. for every candidate, evaluate its composed log-likelihood on each
   particle, its marginal likelihood (the particle-weighted likelihood
   sum), and its normalised particle weighting;
3. update the candidate posterior by Bayes' rule from the marginals,
   with the previous posterior carried over unchanged as the predictive
   weight (identity hypothesis-transition);
4. mix the per-candidate weightings with the updated posterior;
5. take the mixture-weighted mean as the point estimate;
6. residual-resample back to uniform weights.

A posterior floor keeps every candidate at weight >= PI_FLOOR: under
the identity hypothesis-transition a candidate whose weight reaches
exactly zero could never recover, which would be fatal once a failed
modality comes back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .particles import ParticleSet, estimate_mean, logsumexp, propagate, residual_resample

PI_FLOOR = 1e-6
MAX_MODALITIES = 16


class ModelUpdateDegenerate(RuntimeError):
    """Every candidate's marginal likelihood underflowed to zero."""


def enumerate_candidates(n: int) -> np.ndarray:
    """All 2^n usefulness vectors as an (M, n) 0/1 array.

    Row m reads the complement of m as a binary number with modality 0
    in the most significant position, so the all-ones vector comes
    first and the all-zeros vector last. For n = 2 the order is
    [1,1], [1,0], [0,1], [0,0].
    """
    if not 1 <= n <= MAX_MODALITIES:
        raise ValueError(f"modality count must be in [1, {MAX_MODALITIES}]")
    m = 2 ** n
    codes = (m - 1) - np.arange(m)
    shifts = np.arange(n - 1, -1, -1)
    return ((codes[:, None] >> shifts[None, :]) & 1).astype(np.int64)


def candidate_label(bits) -> str:
    """Bit-string label for a usefulness vector, e.g. '10'."""
    return "".join(str(int(b)) for b in np.asarray(bits).ravel())


def modality_logliks(frame, states: np.ndarray, models):
    """``(present, L, nulls)``: the present modalities' indices, their
    (P, N) log-likelihoods at ``states`` and their (P,) null
    log-likelihoods. The filters' one call site of ``Modality.loglik``;
    a lost reading gets no row, since a missing value supports no
    hypothesis.
    """
    if len(frame.observations) != len(models):
        raise ValueError(f"frame has {len(frame.observations)} modality readings, model has {len(models)}")
    present = [i for i, obs in enumerate(frame.observations) if obs.present]
    L = np.empty((len(present), states.shape[0]))
    for row, i in enumerate(present):
        L[row] = models[i].loglik(frame.observations[i].value, states)
    return present, L, np.array([models[i].null_loglik() for i in present], dtype=float)


def candidate_loglik_matrix(candidates: np.ndarray, frame, states: np.ndarray, models) -> np.ndarray:
    """(M, N) log-likelihood of every candidate at every state.

    Per present modality, a 1-bit contributes the modality
    log-likelihood and a 0-bit the constant null log-likelihood, so
    candidates differing only in a lost reading's bit agree.
    """
    present, L, nulls = modality_logliks(frame, states, models)
    bits = np.asarray(candidates)[:, present].astype(float)
    return bits @ L + ((1.0 - bits) @ nulls)[:, None]


def candidate_loglik(u, frame, x, models):
    """Composed log-likelihood of one usefulness vector at x.

    x may be a single state (d,) or a batch (N, d); the result is a
    float or an (N,) array accordingly.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    states = np.atleast_2d(x)
    row = candidate_loglik_matrix(np.atleast_2d(np.asarray(u)), frame, states, models)[0]
    return float(row[0]) if single else row


def marginal_loglik(p: ParticleSet, log_lik_per_particle) -> float:
    """log of the particle-weighted likelihood sum, log(sum_i w_i L(x^i)).

    With pre-update weights on propagated particles this is the
    candidate's marginal (predictive) likelihood of the current frame.
    Returns -inf when every term underflows.
    """
    ll = np.asarray(log_lik_per_particle, dtype=float)
    if ll.shape != (p.n,):
        raise ValueError("log-likelihoods must be shaped (N,)")
    return logsumexp(p.log_weights + ll)


@dataclass(frozen=True)
class ModelPosterior:
    """Log-weights over the M candidate models, normalised and finite."""

    log_pi: np.ndarray

    def __post_init__(self):
        log_pi = np.asarray(self.log_pi, dtype=float)
        if log_pi.ndim != 1 or log_pi.shape[0] == 0:
            raise ValueError("log_pi must be a non-empty vector")
        if not np.all(np.isfinite(log_pi)):
            raise ValueError("log_pi must be finite (apply the floor rule first)")
        if abs(logsumexp(log_pi)) > 1e-9:
            raise ValueError("log_pi is not normalised")
        object.__setattr__(self, "log_pi", log_pi)

    @classmethod
    def uniform(cls, m: int) -> "ModelPosterior":
        return cls(np.full(m, -np.log(m)))

    @property
    def n_models(self) -> int:
        return self.log_pi.shape[0]

    @property
    def pi(self) -> np.ndarray:
        return np.exp(self.log_pi)


def update_model_posterior(prev: ModelPosterior, log_g) -> ModelPosterior:
    """Bayes update of the candidate posterior from marginal likelihoods.

    The predictive weights equal the previous posterior (identity
    hypothesis-transition), so the update is pi_m ∝ pi_m * g_m, floored
    at PI_FLOOR and renormalised. Raises ModelUpdateDegenerate when all
    marginals are zero; callers typically reset to uniform and flag the
    step.
    """
    log_g = np.asarray(log_g, dtype=float)
    if log_g.shape != prev.log_pi.shape:
        raise ValueError("log_g must match the posterior's length")
    lw = prev.log_pi + log_g
    norm = logsumexp(lw)
    if not np.isfinite(norm):
        raise ModelUpdateDegenerate("all candidate marginal likelihoods are zero")
    pi = np.exp(lw - norm)
    pi = np.maximum(pi, PI_FLOOR)
    log_pi = np.log(pi)
    return ModelPosterior(log_pi - logsumexp(log_pi))


@dataclass(frozen=True)
class DmaState:
    """Shared particle set plus the posterior over candidate models."""

    particles: ParticleSet
    posterior: ModelPosterior
    candidates: np.ndarray  # (M, n) usefulness vectors
    t: int = 0              # time index of the last processed frame

    def __post_init__(self):
        candidates = np.asarray(self.candidates)
        if candidates.ndim != 2:
            raise ValueError("candidates must be an (M, n) array")
        if candidates.shape[0] != self.posterior.n_models:
            raise ValueError("posterior length must match the candidate count")
        object.__setattr__(self, "candidates", candidates)


def init_dma(particles: ParticleSet, n_modalities: int | None = None, candidates=None) -> DmaState:
    """Fresh DMA state: uniform candidate posterior at time 0.

    Pass ``candidates`` to restrict the hypothesis set (e.g. a single
    all-ones row reduces the filter to a plain PF).
    """
    if candidates is None:
        if n_modalities is None:
            raise ValueError("give either n_modalities or an explicit candidate set")
        candidates = enumerate_candidates(n_modalities)
    candidates = np.atleast_2d(np.asarray(candidates))
    return DmaState(particles, ModelPosterior.uniform(candidates.shape[0]), candidates)


def reweight_rows(p: ParticleSet, row_ll: np.ndarray):
    """Marginals ``log_g`` (M,) and normalised weightings ``log_w``
    (M, N) of the rows of an (M, N) log-likelihood matrix, from
    pre-update particles. A row whose marginal underflowed keeps the
    incoming weights: zero evidence updates nothing.
    """
    m = row_ll.shape[0]
    log_g = np.empty(m)
    log_w = np.empty_like(row_ll)
    for j in range(m):
        lw = p.log_weights + row_ll[j]
        g = logsumexp(lw)
        log_g[j] = g
        log_w[j] = lw - g if np.isfinite(g) else p.log_weights
    return log_g, log_w


def candidate_reweight(p: ParticleSet, frame, models, candidates):
    """``reweight_rows`` of the candidate log-likelihood matrix; the
    posterior floor keeps an underflowed candidate's mixture share negligible."""
    return reweight_rows(p, candidate_loglik_matrix(candidates, frame, p.states, models))


def mix_and_resample(p: ParticleSet, log_pi, log_w: np.ndarray, rng):
    """Mix the row weightings with ``log_pi``, estimate, resample; returns
    (resampled, estimate).

    One row is its own mixture (``log_pi`` is then [0.0]), so PF, TS at
    alpha = 0 and single-candidate DMA agree bit for bit. More rows mix
    in the probability domain, log(pi @ exp(log_w)): each row is
    normalised, so exp(log_w) <= 1 cannot overflow, and a mixed weight
    underflows to -inf only where it lies below the smallest double,
    which the weights, the estimate and the resample count as 0 anyway.
    """
    if log_w.shape[0] == 1:
        mix_lw = log_w[0]
    else:
        with np.errstate(divide="ignore"):
            mix_lw = np.log(np.exp(log_pi) @ np.exp(log_w))
    # second pass: the row normalisation can leave residue ~ulp(|loglik|)
    # when likelihoods are astronomically small (e.g. garbage observations)
    mixed = ParticleSet(p.states, mix_lw - logsumexp(mix_lw))
    estimate = estimate_mean(mixed)
    return residual_resample(mixed, rng), estimate


def dma_step(state: DmaState, frame, transition, models, rng, trace=None):
    """One filtering step; returns (new_state, estimate, posterior).

    The candidate evaluations share a single propagation of the
    particle set and are reduced in candidate-index order, so the
    output is deterministic for a given randomness stream.
    """
    if frame.time_index != state.t + 1:
        raise ValueError(f"expected frame {state.t + 1}, got {frame.time_index}")
    prop = propagate(state.particles, transition, rng)
    log_g, log_w = candidate_reweight(prop, frame, models, state.candidates)
    flag = None
    try:
        posterior = update_model_posterior(state.posterior, log_g)
    except ModelUpdateDegenerate:
        posterior = ModelPosterior.uniform(state.posterior.n_models)
        flag = "model_update_degenerate"
    resampled, estimate = mix_and_resample(prop, posterior.log_pi, log_w, rng)
    new_state = DmaState(resampled, posterior, state.candidates, t=frame.time_index)
    if trace is not None:
        trace.record(frame.time_index, estimate, model_weights=posterior.pi,
                     marginals=log_g, flag=flag)
    return new_state, estimate, posterior
