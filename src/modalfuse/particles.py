"""Bootstrap particle-filter primitives.

Initialisation, propagation, residual resampling and posterior means,
shared by every filter in the package. Weights are stored in the log
domain: with large particle counts raw likelihood products underflow.
Reweighting lives in ``dma.reweight_rows`` and ``dma.mix_and_resample``,
the one kernel and tail every filter runs: it exponentiates each
weighted log-likelihood row once, shifted by the row maximum so that no
value exceeds 1 and none can overflow, and takes the marginals, the
mixtures and their normalisation from that one buffer in the
probability domain. The tail runs over a leading set axis (one set for
PF, TS and DMA, one per member for SMA) and is the filters' one caller
of ``estimate_mean`` and ``residual_resample``; each normalised mixture
reaches them as its set's cached ``weights``, so neither exponentiates
the log-weights again.

ParticleSet is a value type; none of the operations mutate their
inputs, and every operation that returns a ParticleSet returns one with
normalised weights.

``ParticleSet(states, log_weights)`` validates: finite (N, d) states
and log-weights whose exponentials sum to 1. The sets the library builds
inside the filter loop (``propagate``, ``residual_resample`` and the
mixture in ``dma.mix_and_resample``) go through ``ParticleSet._trusted``
and skip those O(N * d) checks. The mixture is built from its weights
alone, since the tail reads nothing else; its ``log_weights`` are
derived from them on first read. That is safe because their inputs were
checked already: the weights are either the incoming set's or built
normalised (``uniform_log_weights``, the mixture divided by its sum), and
resampling only copies states. Every set ``residual_resample`` returns
at one N shares one read-only uniform log-weight array, built once per
N; ``uniform_log_weights`` itself returns a fresh array. The one fault
the loop can still make is a transition that overflows to non-finite
states; ``mix_and_resample`` catches it at O(d) cost on the point
estimate (see there). The filter states that carry a set from step to
step are checked where they start, in the filters' ``init_*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

WEIGHT_TOL = 1e-9
# residual_resample's relative slack on N * w_i: exactly uniform weights
# give N * w_i = 1 - 1e-16 at 1,279 of the N up to 3,000 (N = 100 and
# 10,000 among them), which a literal floor would count as 0 copies. It
# stays far below a real shortfall such as N * w_i = 1 - 1e-9
FLOOR_SLACK = 1e-12


class WeightCollapse(RuntimeError):
    """Every particle's likelihood underflowed to zero. No step raises it (a
    collapsed step is flagged in its RunTrace); perfbench's tracer counts it."""


def uniform_log_weights(n: int) -> np.ndarray:
    return np.full(n, -np.log(n))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=8)
def _shared_uniform_log_weights(n: int) -> np.ndarray:
    """``uniform_log_weights(n)``, built once per N and read-only, for the
    sets ``residual_resample`` returns."""
    return _read_only(uniform_log_weights(n))


@dataclass(frozen=True)
class ParticleSet:
    """N weighted state samples {x^i, w^i} with log-normalised weights."""

    states: np.ndarray      # (N, d)
    log_weights: np.ndarray  # (N,), exp sums to 1 within WEIGHT_TOL

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        lw = np.asarray(self.log_weights, dtype=float)
        if states.ndim != 2 or states.shape[0] == 0:
            raise ValueError("states must be a non-empty (N, d) array")
        if lw.shape != (states.shape[0],):
            raise ValueError("log_weights must be shaped (N,)")
        if not np.all(np.isfinite(states)):
            raise ValueError("particle states must be finite")
        with np.errstate(over="ignore"):  # NaN and +inf fail the test too
            if not abs(np.exp(lw).sum() - 1.0) <= WEIGHT_TOL:
                raise ValueError("log_weights are not normalised (or hold NaN or +inf)")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "log_weights", lw)

    @classmethod
    def _trusted(cls, states, log_weights=None, weights=None):
        """A set whose arrays already meet the invariants, without
        __post_init__'s checks; for the library's in-loop builds only.
        ``weights``, if given, seeds the cached ``weights`` read-only; a set
        given only its weights derives ``log_weights`` on first read."""
        obj = object.__new__(cls)
        obj.__dict__["states"] = states
        if log_weights is not None:
            obj.__dict__["log_weights"] = log_weights
        if weights is not None:
            obj.__dict__["weights"] = _read_only(weights)
        return obj

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: the log-weights
        # of a set built from its weights alone
        if name != "log_weights" or "weights" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        with np.errstate(divide="ignore"):
            log_weights = _read_only(np.log(self.weights))
        self.__dict__["log_weights"] = log_weights
        return log_weights

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @cached_property
    def weights(self) -> np.ndarray:
        """exp(log_weights), computed once (or seeded by ``_trusted``); read-only."""
        return _read_only(np.exp(self.log_weights))


def _check_particle_set(particles):
    """The filters' ``init_*`` check on the set a run starts from."""
    if not isinstance(particles, ParticleSet):
        raise ValueError(f"particles must be a ParticleSet, got {type(particles).__name__}")


def _check_modality_count(name: str, n_modalities) -> int:
    """The filters' ``init_*`` check on a modality count, also
    ``dma.enumerate_candidates``': an integer (Python or numpy, not bool)
    of at least 1, returned as an int. ``name`` names the filter."""
    if isinstance(n_modalities, bool) or not isinstance(n_modalities, (int, np.integer)):
        raise ValueError(f"{name} needs an integer modality count, got {n_modalities!r}")
    if n_modalities < 1:
        raise ValueError(f"{name} needs one or more modalities, got {n_modalities}")
    return int(n_modalities)


def init_particles(prior, n: int, rng) -> ParticleSet:
    """Draw n equally weighted particles from ``prior(n, rng)``, an (n, d) array."""
    if n < 1:
        raise ValueError("particle count must be >= 1")
    states = np.asarray(prior(n, rng), dtype=float)
    if states.shape[0] != n:
        raise ValueError("prior returned the wrong number of samples")
    return ParticleSet(states, uniform_log_weights(n))


def propagate(p: ParticleSet, transition, rng) -> ParticleSet:
    """Advance every particle through the transition prior; weights unchanged."""
    return ParticleSet._trusted(transition.sample(p.states, rng), p.log_weights)


def residual_resample(p: ParticleSet, rng) -> ParticleSet:
    """Residual resampling to N equally weighted particles.

    Particle i is copied floor(N * w_i) times deterministically, counted
    with a relative slack of FLOOR_SLACK so that N * w_i rounded just
    below a whole number still counts it (uniform weights copy every
    particle once, in order, with no draw); the remaining slots are
    filled with multinomial draws over the residual weights, by
    inverse-CDF search over sorted uniforms.
    """
    n = p.n
    scaled = n * p.weights
    # truncation is floor here, since scaled >= 0
    counts = (scaled * (1.0 + FLOOR_SLACK)).astype(np.int64)
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
    states = np.repeat(p.states, counts, axis=0)
    # weights summing to just over 1 can overshoot the copies by one slot
    if states.shape[0] != n:
        states = states[:n]
    return ParticleSet._trusted(states, _shared_uniform_log_weights(n))


def estimate_mean(p: ParticleSet) -> np.ndarray:
    """Posterior mean sum_i w_i x^i."""
    return p.weights @ p.states
