"""Test-side references: the log-domain reweighting oracle, and thin
one-row wrappers over production code that the tests share.
"""

import numpy as np

from modalfuse.baselines import TS_SMOOTHING, _failure_prob
from modalfuse.dma import candidate_loglik_matrix
from modalfuse.particles import logsumexp


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


def candidate_loglik(u, frame, x, models):
    """Composed log-likelihood of one usefulness vector at a single
    state (d,), as a float, or at a batch (N, d), as an (N,) array."""
    x = np.asarray(x, dtype=float)
    row = candidate_loglik_matrix(np.atleast_2d(np.asarray(u)), frame, np.atleast_2d(x), models)[0]
    return float(row[0]) if x.ndim == 1 else row


def estimate_failure_prob(prev_alpha, p, frame, models, smoothing=TS_SMOOTHING):
    """TS's smoothed failure probabilities alone."""
    return _failure_prob(prev_alpha, p, frame, models, smoothing)[0]
