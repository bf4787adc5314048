"""Per-step diagnostics collected while a filter runs.

The trace is an in-memory record the benchmark harness reads back after
a run: one entry per step with the model weights (candidate posteriors
for DMA, failure probabilities for the two-stage filter, none for PF
and SMA) and a flag for steps where a degeneracy fallback fired. Every
step records once, so entry k belongs to frame k + 1.
"""

from __future__ import annotations

import numpy as np


class RunTrace:
    def __init__(self):
        self.model_weights: list[np.ndarray | None] = []
        self.flags: list[str | None] = []

    def record(self, model_weights=None, flag=None):
        self.model_weights.append(None if model_weights is None else np.asarray(model_weights, dtype=float))
        self.flags.append(flag)

    @property
    def n_flagged(self) -> int:
        return sum(1 for f in self.flags if f is not None)

    def weight_matrix(self) -> np.ndarray | None:
        """Stacked (T, K) model weights, or None when nothing was recorded."""
        if not self.model_weights or self.model_weights[0] is None:
            return None
        return np.vstack(self.model_weights)
