"""Per-step diagnostics collected while a filter runs.

The trace is an in-memory record the benchmark harness reads back after
a run: one entry per time step with the model weights (candidate
posteriors for DMA, failure probabilities for the two-stage filter),
per-candidate marginal log-likelihoods where they exist, and a flag for
steps where a degeneracy fallback fired.
"""

from __future__ import annotations

import numpy as np


class RunTrace:
    def __init__(self):
        self.t: list[int] = []
        self.model_weights: list[np.ndarray | None] = []
        self.marginals: list[np.ndarray | None] = []
        self.flags: list[str | None] = []

    def record(self, t, model_weights=None, marginals=None, flag=None):
        self.t.append(int(t))
        self.model_weights.append(None if model_weights is None else np.asarray(model_weights, dtype=float))
        self.marginals.append(None if marginals is None else np.asarray(marginals, dtype=float))
        self.flags.append(flag)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def n_flagged(self) -> int:
        return sum(1 for f in self.flags if f is not None)

    def weight_matrix(self) -> np.ndarray | None:
        """Stacked (T, K) model weights, or None when nothing was recorded."""
        if not self.model_weights or self.model_weights[0] is None:
            return None
        return np.vstack(self.model_weights)
