"""Test-side references: ``logsumexp`` and the log-domain reweighting
oracle built on it, SMA's per-member reference, and thin one-row and
one-set wrappers over production code that the tests share.
"""

import numpy as np

from modalfuse.baselines import SmaState, _failure_prob, pf_step
from modalfuse.dma import candidate_loglik_matrix, mix_and_resample
from modalfuse.ssm import ModalityObservation, ObservationFrame


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


def log_domain_reweight(p, row_ll):
    """Oracle for ``dma.reweight_rows``: marginals ``log_g`` (M,) and
    normalised log-weightings ``log_w`` (M, N), one logsumexp per row. A
    row whose marginal underflowed keeps the incoming weights.
    """
    m = row_ll.shape[0]
    log_g = np.empty(m)
    log_w = np.empty_like(row_ll, dtype=float)
    for j in range(m):
        lw = p.log_weights + row_ll[j]
        g = logsumexp(lw)
        log_g[j] = g
        log_w[j] = lw - g if np.isfinite(g) else p.log_weights
    return log_g, log_w


def log_domain_mixture(log_pi, log_w):
    """Oracle for ``dma.mix_and_resample``'s mixed log-weights."""
    mix = logsumexp(log_pi[:, None] + log_w, axis=0)
    return mix - logsumexp(mix)


def mix_one(p, pi, E, scale, rng):
    """``dma.mix_and_resample`` on the one set ``p``, mixing the rows with
    the (R,) probabilities ``pi``; returns (resampled, estimate)."""
    (resampled,), (estimate,) = mix_and_resample([p], pi[None], E, scale, [rng])
    return resampled, estimate


def candidate_loglik(u, frame, x, models):
    """Composed log-likelihood of one usefulness vector at a single
    state (d,), as a float, or at a batch (N, d), as an (N,) array."""
    x = np.asarray(x, dtype=float)
    row = candidate_loglik_matrix(np.atleast_2d(np.asarray(u)), frame, np.atleast_2d(x), models)[0]
    return float(row[0]) if x.ndim == 1 else row


def estimate_failure_prob(prev_alpha, p, frame, models):
    """TS's smoothed failure probabilities alone."""
    return _failure_prob(prev_alpha, p, frame, models)[0]


def restrict_to(frame, keep):
    """``frame`` with every reading except modality ``keep``'s marked lost."""
    obs = tuple(o if i == keep else ModalityObservation(None) for i, o in enumerate(frame.observations))
    return ObservationFrame(frame.time_index, obs)


def sma_by_member(state, frame, transition, models):
    """Reference for ``baselines.sma_step``, one member at a time: member
    i is ``pf_step`` on ``restrict_to(frame, i)`` on its stored stream
    ``state.rngs[i]``. Returns ``(state, estimate, member_estimates)``.
    """
    subs, ests = zip(*(pf_step(p, restrict_to(frame, i), transition, models, state.rngs[i])
                       for i, p in enumerate(state.sub_filters)))
    return SmaState(subs, state.rngs), np.mean(ests, axis=0), ests
