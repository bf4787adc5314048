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
2. build the (M, N) matrix of every candidate's composed
   log-likelihood on each particle, then turn it in place, by one
   max-shifted ``exp`` against the incoming weights, into unnormalised
   weightings E[m] whose row sums give every marginal likelihood (the
   particle-weighted likelihood sum);
3. update the candidate posterior by Bayes' rule from the marginals,
   with the previous posterior carried over unchanged as the predictive
   weight (identity hypothesis-transition);
4. mix the weightings straight from that buffer,
   sum_m pi_m * E[m] / sum(E[m]), without forming the M normalised
   log-weight rows;
5. take the mixture-weighted mean as the point estimate;
6. residual-resample back to uniform weights.

Steps 2 and 4 are ``reweight_rows`` and ``mix_and_resample``, the
package's one reweighting kernel: PF and TS run them on a single row
with pi = [1.0], so PF is DMA restricted to the all-ones candidate, bit
for bit, because the same code runs the same row.

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
# bytes one step's (M, N) float64 candidate matrix may take; init_dma
# rejects a larger candidate set before any step allocates it
CANDIDATE_MATRIX_BUDGET = 1 << 30


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
    out = weighted_logliks(bits, L)
    out += ((1.0 - bits) @ nulls)[:, None]
    return out


def weighted_logliks(W: np.ndarray, L: np.ndarray) -> np.ndarray:
    """``W @ L`` for non-negative (R, P) row weights over (P, N)
    log-likelihoods, where a zero weight drops a -inf term (not 0 * -inf = NaN)."""
    dead = L == -np.inf
    if not dead.any():
        return W @ L
    out = W @ np.where(dead, 0.0, L)
    out[(W @ dead) > 0.0] = -np.inf
    return out


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
    need = candidates.shape[0] * particles.n * 8
    if need > CANDIDATE_MATRIX_BUDGET:
        raise ValueError(
            f"{candidates.shape[0]} candidates x {particles.n} particles need a {need:,}-byte "
            f"candidate matrix per step, over the {CANDIDATE_MATRIX_BUDGET:,}-byte budget"
        )
    return DmaState(particles, ModelPosterior.uniform(candidates.shape[0]), candidates)


def reweight_rows(p: ParticleSet, ll: np.ndarray):
    """Reweight pre-update particles by each row of an (M, N)
    log-likelihood matrix; returns ``(log_g, E, scale)``.

    ``log_g`` (M,) holds the rows' marginals log(sum_i w_i L_m(x^i)),
    and scale[m] * E[m] is row m's normalised weighting. One max-shifted
    ``exp``, which overwrites ``ll`` with E, gives both: no value exceeds
    1, so none can overflow. A row whose marginal underflowed gets scale
    0 and a zero E row.
    """
    ll += p.log_weights
    mx = ll.max(axis=1)
    mx[~np.isfinite(mx)] = 0.0
    ll -= mx[:, None]
    E = np.exp(ll, out=ll)
    with np.errstate(divide="ignore"):
        log_g = np.log(E.sum(axis=1)) + mx
    live = np.isfinite(log_g)
    if not live.all():
        E[~live] = 0.0  # a NaN row must not reach the mixture's product
    # exp(mx - log_g) rather than 1 / sum: each row is normalised by its
    # rounded marginal, the value the posterior update sees
    scale = np.exp(np.where(live, mx - log_g, -np.inf))
    return log_g, E, scale


def candidate_reweight(p: ParticleSet, frame, models, candidates):
    """``reweight_rows`` of the candidate log-likelihood matrix; the
    posterior floor keeps an underflowed candidate's mixture share negligible."""
    return reweight_rows(p, candidate_loglik_matrix(candidates, frame, p.states, models))


def mix_and_resample(p: ParticleSet, pi: np.ndarray, E: np.ndarray, scale, rng):
    """Mix the weightings scale[m] * E[m] of ``reweight_rows`` with the
    probabilities ``pi``, estimate, resample; returns (resampled, estimate).

    A row whose marginal underflowed keeps the incoming weights: zero
    evidence updates nothing. One row with pi = [1.0] is its own
    mixture, which is how PF and TS use it.
    """
    mixed = (pi * scale) @ E
    dead = scale == 0.0
    if dead.any():
        mixed += pi[dead].sum() * p.weights
    with np.errstate(divide="ignore"):
        mix_lw = np.log(mixed)
    # normalised once more: the row scales leave residue ~ulp(|loglik|)
    # when likelihoods are astronomically small (e.g. garbage readings); in
    # the log domain, where uniform weights with no evidence stay exact
    mixed_set = ParticleSet(p.states, mix_lw - logsumexp(mix_lw))
    estimate = estimate_mean(mixed_set)
    return residual_resample(mixed_set, rng), estimate


def dma_step(state: DmaState, frame, transition, models, rng, trace=None):
    """One filtering step; returns (new_state, estimate, posterior).

    The candidate evaluations share a single propagation of the
    particle set and are reduced in candidate-index order, so the
    output is deterministic for a given randomness stream.
    """
    if frame.time_index != state.t + 1:
        raise ValueError(f"expected frame {state.t + 1}, got {frame.time_index}")
    prop = propagate(state.particles, transition, rng)
    log_g, E, scale = candidate_reweight(prop, frame, models, state.candidates)
    flag = None
    try:
        posterior = update_model_posterior(state.posterior, log_g)
    except ModelUpdateDegenerate:
        posterior = ModelPosterior.uniform(state.posterior.n_models)
        flag = "model_update_degenerate"
    resampled, estimate = mix_and_resample(prop, posterior.pi, E, scale, rng)
    new_state = DmaState(resampled, posterior, state.candidates, t=frame.time_index)
    if trace is not None:
        trace.record(frame.time_index, estimate, model_weights=posterior.pi,
                     marginals=log_g, flag=flag)
    return new_state, estimate, posterior
