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
   log-weight rows, and divide the mixture by its sum once, in the
   probability domain;
5. take the mixture-weighted mean as the point estimate;
6. residual-resample back to uniform weights.

Steps 5 and 6 read the normalised mixture as the set's cached
``weights``, so the step exponentiates each weight once.

Step 2 is ``reweight_rows`` and steps 4-6 are ``mix_and_resample``, the
package's one reweighting kernel and its one tail. The tail takes a
leading set axis: B particle sets, each mixed from the rows by its own
row of a (B, R) weight matrix W, estimated and resampled on its own
stream. DMA passes its one set with W = pi[None]; PF and TS pass one
set and one row with W = [[1.0]], so PF is DMA restricted to the
all-ones candidate, bit for bit, because the same code runs the same
row; SMA passes its B members with W = eye(B). No other code in a
filter step computes a marginal likelihood, an estimate or a resample
(TS's and SMA's included).

The candidate posterior is a plain read-only (M,) probability vector:
``DmaState.pi`` holds it and ``dma_step`` returns it. ``init_dma`` is
where a state's inputs are checked (the particle set, the modality count
and the candidates); every later state is built valid by ``dma_step``,
which still checks the frame and the models it is given against the
state.

A posterior floor keeps every one of the M candidates at weight
>= PI_FLOOR / (1 + M * PI_FLOOR): the update raises each entry to at
least PI_FLOOR and renormalises by the sum S <= 1 + M * PI_FLOOR, so a
floored entry ends at PI_FLOOR / S, just below PI_FLOOR. Under the
identity hypothesis-transition a candidate whose weight reaches exactly
zero could never recover, which would be fatal once a failed modality
comes back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .particles import (ParticleSet, _check_modality_count, _check_particle_set, _read_only, estimate_mean,
                        propagate, residual_resample)
from .ssm import null_loglik

# The floor applies per candidate, so a usefulness pattern's floor mass
# grows with the number of candidates that agree with it: with one
# modality always lost, each pattern of the other bits has two candidates
# (the lost bit 0 or 1), twice the floor mass, and is re-admitted sooner.
PI_FLOOR = 1e-6
# bytes one step's (M, N) float64 candidate matrix, or the (M, n) int64
# candidate array, may take; init_dma and enumerate_candidates reject a
# larger candidate set before allocating it
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
    n = _check_modality_count("DMA", n)
    m = 2 ** n
    need = m * n * 8
    if need > CANDIDATE_MATRIX_BUDGET:
        raise ValueError(f"{n} modalities need a {need:,}-byte array of {m:,} candidates, "
                         f"over the {CANDIDATE_MATRIX_BUDGET:,}-byte budget")
    codes = (m - 1) - np.arange(m)
    shifts = np.arange(n - 1, -1, -1)
    return ((codes[:, None] >> shifts[None, :]) & 1).astype(np.int64)


def candidate_label(bits) -> str:
    """Bit-string label for a usefulness vector, e.g. '10'."""
    return "".join(str(int(b)) for b in np.asarray(bits).ravel())


# one slot: (models, group_of, null_row) for the last models tuple modality_logliks was given
_last_plan = [((), (), None)]


def modality_logliks(frame, states: np.ndarray, models):
    """``(present, L, nulls)``: the present modalities' indices, their
    (P, N) log-likelihoods at ``states`` and their (P,) null
    log-likelihoods. PF, TS and DMA take their modality log-likelihoods
    from here (SMA calls ``loglik`` itself, one reading per member); a
    lost reading gets no row, since a missing value supports no
    hypothesis.

    Each model object is called once per step. An object listed at one
    position gets its reading as a float, as does an object listed at
    several positions (redundant sensors sharing one observation model)
    with one of its readings present; with k > 1 present, it gets them as
    one (k, 1) column, and its (k, N) result fills their rows of L in
    ``present`` order. The rows equal, bit for bit, one call per reading.

    The plan, which positions share an object and the read-only (n,) row
    of null log-likelihoods that ``nulls`` is taken from, depends only on
    the models, so it is kept for the last models tuple given, the one a
    run steps with: the kept tuple cannot change, and while it is kept no
    other object can take its id. Any other sequence is planned per call.
    """
    if len(frame.observations) != len(models):
        raise ValueError(f"frame has {len(frame.observations)} modality readings, model has {len(models)}")
    models = tuple(models)  # a tuple as it is, so a run's models are planned once
    plan = _last_plan[0]  # one read, so a plan is never paired with another tuple
    if plan[0] is not models:
        ids = [id(m) for m in models]
        # group_of[i]: the first position of the object at i if it is listed again, else None
        group_of = tuple(ids.index(k) if ids.count(k) > 1 else None for k in ids)
        plan = _last_plan[0] = (models, group_of, _read_only(np.array([null_loglik(m) for m in models])))
    _, group_of, null_row = plan
    present = [i for i, obs in enumerate(frame.observations) if obs.present]
    L = np.empty((len(present), states.shape[0]))
    shared = {}  # first position of a listed-again object -> its present (row, reading) pairs
    for row, i in enumerate(present):
        if group_of[i] is None:
            L[row] = models[i].loglik(frame.observations[i].value, states)
        else:
            shared.setdefault(group_of[i], []).append((row, frame.observations[i].value))
    for g, readings in shared.items():
        rows, ys = zip(*readings)
        L[list(rows)] = models[g].loglik(ys[0] if len(ys) == 1 else np.array(ys)[:, None], states)
    return present, L, null_row if len(present) == len(models) else null_row[present]


def candidate_loglik_matrix(candidates: np.ndarray, frame, states: np.ndarray, models) -> np.ndarray:
    """(M, N) log-likelihood of every candidate at every state.

    Per present modality, a 1-bit contributes the modality
    log-likelihood and a 0-bit the constant null log-likelihood, so
    candidates differing only in a lost reading's bit agree.
    """
    candidates = np.asarray(candidates)
    if candidates.shape[1] != len(models):
        raise ValueError(f"candidates cover {candidates.shape[1]} modalities, model has {len(models)}")
    present, L, nulls = modality_logliks(frame, states, models)
    bits = candidates[:, present].astype(float)
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


def update_model_posterior(prev_pi: np.ndarray, log_g) -> np.ndarray:
    """Bayes update of the (M,) candidate posterior ``prev_pi`` from
    marginal likelihoods; returns the new read-only (M,) vector.

    The predictive weights equal the previous posterior (identity
    hypothesis-transition), so the update is pi_m ∝ pi_m * g_m, floored
    at PI_FLOOR and renormalised, in the probability domain after one
    max-shift. A NaN marginal counts as zero evidence (-inf), as
    ``reweight_rows`` keeps that row out of the mixture. Raises
    ModelUpdateDegenerate when no marginal is finite; callers typically
    reset to uniform and flag the step.
    """
    log_g = np.asarray(log_g, dtype=float)
    if log_g.shape != np.shape(prev_pi):
        raise ValueError("log_g must match the posterior's length")
    lw = np.log(prev_pi) + log_g
    lw[np.isnan(lw)] = -np.inf
    mx = lw.max()
    if not np.isfinite(mx):
        raise ModelUpdateDegenerate("no candidate has a finite marginal likelihood")
    lw -= mx
    pi = np.exp(lw, out=lw)
    pi /= pi.sum()
    np.maximum(pi, PI_FLOOR, out=pi)
    pi /= pi.sum()
    # normalised by construction; a floored entry is PI_FLOOR / S, with the
    # sum S <= 1 + M * PI_FLOOR, so every entry >= PI_FLOOR / (1 + M * PI_FLOOR)
    return _read_only(pi)


def _uniform(m: int) -> np.ndarray:
    return _read_only(np.full(m, 1.0) / m)


@dataclass(frozen=True)
class DmaState:
    """Shared particle set plus the (M,) posterior ``pi`` over the M
    candidate models: entries > 0 that sum to 1. Built by ``init_dma``
    and ``dma_step`` only."""

    particles: ParticleSet
    pi: np.ndarray          # (M,) candidate posterior, read-only
    candidates: np.ndarray  # (M, n) 0/1 usefulness vectors
    t: int = 0              # time index of the last processed frame


def init_dma(particles: ParticleSet, n_modalities: int | None = None, candidates=None) -> DmaState:
    """Fresh DMA state: uniform candidate posterior at time 0.

    Pass ``candidates``, an (M, n) 0/1 array, to restrict the hypothesis
    set (e.g. a single all-ones row reduces the filter to a plain PF).
    """
    _check_particle_set(particles)
    if n_modalities is not None:
        n_modalities = _check_modality_count("DMA", n_modalities)
    if candidates is None:
        if n_modalities is None:
            raise ValueError("give either n_modalities or an explicit candidate set")
        # M from n, so the budget is checked before the candidates are enumerated
        m = 2 ** n_modalities
    else:
        candidates = np.asarray(candidates)
        if candidates.ndim != 2 or candidates.size == 0 or not np.isin(candidates, (0, 1)).all():
            raise ValueError("candidates must be a non-empty (M, n) array of 0/1 entries")
        m = len(candidates)
        if n_modalities is not None and candidates.shape[1] != n_modalities:
            raise ValueError(f"candidates cover {candidates.shape[1]} modalities, model has {n_modalities}")
    need = m * particles.n * 8
    if need > CANDIDATE_MATRIX_BUDGET:
        raise ValueError(
            f"{m} candidates x {particles.n} particles need a {need:,}-byte "
            f"candidate matrix per step, over the {CANDIDATE_MATRIX_BUDGET:,}-byte budget"
        )
    if candidates is None:
        candidates = enumerate_candidates(n_modalities)
    return DmaState(particles, _uniform(m), candidates)


def reweight_rows(log_weights: np.ndarray, ll: np.ndarray):
    """Reweight pre-update particles with one (N,) row of log-weights
    ``log_weights``, shared by every row, by each row of an (M, N)
    log-likelihood matrix; returns ``(log_g, E, scale)``.

    ``log_g`` (M,) holds the rows' marginals log(sum_i w_i L_m(x^i)),
    and scale[m] * E[m] is row m's normalised weighting. One max-shifted
    ``exp``, which overwrites ``ll`` with E, gives both: no value exceeds
    1, so none can overflow. A row whose marginal underflowed gets scale
    0 and a zero E row.

    When every row maximum is finite, each row of E holds exp(0) = 1, so
    its sum lies in [1, N] and every ``log_g`` is finite: no row is dead,
    and the row scales are taken without the dead-row handling below.
    """
    ll += log_weights
    mx = ll.max(axis=1)
    if np.isfinite(mx).all():
        ll -= mx[:, None]
        E = np.exp(ll, out=ll)
        log_g = np.log(E.sum(axis=1)) + mx
        return log_g, E, np.exp(mx - log_g)
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
    return reweight_rows(p.log_weights, candidate_loglik_matrix(candidates, frame, p.states, models))


def mix_and_resample(sets, W: np.ndarray, E: np.ndarray, scale, rngs):
    """Mix, estimate and resample B particle sets at once; returns
    (resampled sets, (B, d) estimates).

    ``E`` and ``scale`` are the R rows of ``reweight_rows`` and ``W`` is
    (B, R): set b's mixture is row b of ``(W * scale) @ E``, the rows'
    normalised weightings mixed with probabilities W[b]. A row whose
    marginal underflowed adds its share of set b's incoming weights: zero
    evidence updates nothing. PF and TS pass one set with W = [[1.0]],
    DMA one set with its posterior as W's one row, and SMA its B members
    with W = eye(B), member b's row being its own mixture.

    Each mixture is normalised by its sum, and set b is estimated and
    then resampled on its own stream ``rngs[b]``. The particle sets built
    here are trusted (see ``particles``), so this is where a transition
    that overflowed to non-finite states is caught: raises ValueError
    when an estimate is not finite. The test is exact at O(B * d) cost,
    because an inf or NaN state makes ``w @ states`` non-finite even at
    zero weight (0 * inf is NaN).
    """
    # ``dot`` rather than ``@``: the same product, bit for bit, without the
    # matmul ufunc's set-up cost, which a one-row call would pay every step
    mixed = (W * scale).dot(E)
    if not scale.all():
        dead = scale == 0.0
        mixed += W[:, dead].sum(axis=1)[:, None] * np.stack([p.weights for p in sets])
    # normalised once more, by the sum: the row scales leave residue
    # ~ulp(|loglik|) when likelihoods are astronomically small (e.g. garbage
    # readings). The normalised weights are the sets' cached ``weights``
    mixed /= mixed.sum(axis=1, keepdims=True)
    mixed_sets = [ParticleSet._trusted(p.states, weights=w) for p, w in zip(sets, mixed)]
    estimates = np.array([estimate_mean(m) for m in mixed_sets])
    if not np.isfinite(estimates).all():
        raise ValueError("particle states must be finite")
    return [residual_resample(m, r) for m, r in zip(mixed_sets, rngs)], estimates


def dma_step(state: DmaState, frame, transition, models, rng, trace=None):
    """One filtering step; returns (new_state, estimate, pi), where pi is
    the updated (M,) candidate posterior, also held as ``new_state.pi``.

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
        pi = update_model_posterior(state.pi, log_g)
    except ModelUpdateDegenerate:
        pi = _uniform(len(state.pi))
        flag = "model_update_degenerate"
    (resampled,), (estimate,) = mix_and_resample([prop], pi[None], E, scale, [rng])
    new_state = DmaState(resampled, pi, state.candidates, frame.time_index)
    if trace is not None:
        trace.record(model_weights=pi, flag=flag)
    return new_state, estimate, pi
