"""State-space models for multi-modal fusion.

A model is a transition prior plus one observation model per modality
(a "modality" being one data channel, e.g. a bearing sensor or a range
sensor). States are plain float64 arrays: shape (d,) for a single state
or (N, d) for a batch of particles; every evaluator is vectorised over
the batch dimension and pure given an explicitly passed
``numpy.random.Generator``.

A modality model is any object exposing

    dim            -- dimension of one observation
    volume         -- volume of the observation value space (> 0)
    loglik(y, x)   -- log p(y | x), vectorised over a batch of states
    null_loglik()  -- log of the uniform density over the value space,
                      i.e. -log(volume); constant in both y and x
    value_space    -- (low, high): the closed interval a reading lies in
    sample(x, rng) -- draw an observation given a state
    sample_failed(rng) -- draw from the uniform failure distribution

The null log-likelihood is what a modality contributes when its output
carries no information about the state: the observation is then treated
as uniform noise across its value space.

The concrete 2D tracking model shipped here has state
``[v_x, v_y, d_x, d_y]`` (velocities and position offsets relative to
the observer) with constant-velocity linear-Gaussian dynamics, observed
through a bearing (angle) modality and a range modality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# 2D tracking defaults: constant-velocity kinematics, angle/range sensors.
DEFAULT_A = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
    ]
)
DEFAULT_Q = np.diag([1.0, 1.0, 10.0, 10.0])
DEFAULT_SIGMA_ANGLE = 0.1
DEFAULT_SIGMA_RANGE = 1.0
DEFAULT_RANGE_MAX = 2000.0


def wrap_angle(theta):
    """Wrap angle(s) into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=float), TWO_PI)


def _gauss_loglik(resid, sigma):
    return -0.5 * (resid / sigma) ** 2 - np.log(sigma) - 0.5 * np.log(TWO_PI)


@dataclass(frozen=True)
class AngleModality:
    """Bearing sensor: y ~ N(arctan(d_x / d_y), sigma^2) on (-pi, pi].

    The mean uses the single-argument arctangent of the coordinate
    ratio, so its range is (-pi/2, pi/2); d_y = 0 maps to
    sign(d_x) * pi/2 and the origin maps to 0. Residuals are wrapped
    into (-pi, pi] before the Gaussian evaluation, which makes the
    likelihood 2*pi-periodic in y and avoids spurious huge residuals at
    the seam. The value space is (-pi, pi], volume 2*pi.
    """

    sigma: float = DEFAULT_SIGMA_ANGLE

    dim = 1

    def __post_init__(self):
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")

    @property
    def volume(self) -> float:
        return TWO_PI

    @property
    def value_space(self) -> tuple[float, float]:
        # closed, so a reading rounded onto -pi is accepted
        return (-np.pi, np.pi)

    def mean(self, x):
        x = np.asarray(x, dtype=float)
        d_x, d_y = x[..., 2], x[..., 3]
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = np.arctan(d_x / d_y)
        # arctan(0/0) is defined as 0
        return np.where(np.isnan(theta), 0.0, theta)

    def loglik(self, y, x):
        resid = wrap_angle(np.asarray(y, dtype=float) - self.mean(x))
        return _gauss_loglik(resid, self.sigma)

    def null_loglik(self) -> float:
        return -np.log(self.volume)

    def sample(self, x, rng):
        return wrap_angle(rng.normal(self.mean(x), self.sigma))

    def sample_failed(self, rng, size=None):
        return wrap_angle(rng.uniform(-np.pi, np.pi, size=size))


@dataclass(frozen=True)
class RangeModality:
    """Range sensor: y ~ N(sqrt(d_x^2 + d_y^2), sigma^2).

    The value space is [0, r_max]: emitted samples are clipped into it
    and a failed sensor draws uniformly across it. The density itself is
    the plain Gaussian; for the intended geometries the truncated mass
    at the boundaries is negligible. r_max doubles as the value-space
    volume, so it directly sets this modality's null likelihood 1/r_max.
    """

    sigma: float = DEFAULT_SIGMA_RANGE
    r_max: float = DEFAULT_RANGE_MAX

    dim = 1

    def __post_init__(self):
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if not 0.0 < self.r_max < np.inf:
            raise ValueError("r_max must be finite and > 0")

    @property
    def volume(self) -> float:
        return self.r_max

    @property
    def value_space(self) -> tuple[float, float]:
        return (0.0, self.r_max)

    def mean(self, x):
        x = np.asarray(x, dtype=float)
        return np.hypot(x[..., 2], x[..., 3])

    def loglik(self, y, x):
        resid = np.asarray(y, dtype=float) - self.mean(x)
        return _gauss_loglik(resid, self.sigma)

    def null_loglik(self) -> float:
        return -np.log(self.volume)

    def sample(self, x, rng):
        return np.clip(rng.normal(self.mean(x), self.sigma), 0.0, self.r_max)

    def sample_failed(self, rng, size=None):
        return rng.uniform(0.0, self.r_max, size=size)


@dataclass(frozen=True)
class LinearGaussianTransition:
    """x_t = A x_{t-1} + w with w ~ N(0, Q), Q symmetric PSD.

    Q = 0 is allowed (deterministic dynamics); the noise factor is built
    from an eigendecomposition so semi-definite covariances work.
    """

    A: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        Q = np.asarray(self.Q, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be a square matrix")
        if Q.shape != A.shape:
            raise ValueError("Q must match A's shape")
        if not np.allclose(Q, Q.T):
            raise ValueError("Q must be symmetric")
        w, v = np.linalg.eigh(Q)
        if w.min() < -1e-9 * max(1.0, abs(w).max()):
            raise ValueError("Q must be positive semi-definite")
        factor = v * np.sqrt(np.clip(w, 0.0, None))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Q", Q)
        # contiguous right-hand operands for sample's batch matmuls
        object.__setattr__(self, "_A_t", np.ascontiguousarray(A.T))
        object.__setattr__(self, "_noise_factor_t", np.ascontiguousarray(factor.T))

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def sample(self, x_prev, rng):
        """One transition step for a single state (d,) or a batch (N, d)."""
        x_prev = np.asarray(x_prev, dtype=float)
        single = x_prev.ndim == 1
        x = np.atleast_2d(x_prev)
        if x.shape[1] != self.dim:
            raise ValueError(f"state dimension {x.shape[1]} != model dimension {self.dim}")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite state passed to transition")
        out = x @ self._A_t + rng.standard_normal(x.shape) @ self._noise_factor_t
        return out[0] if single else out


@dataclass(frozen=True)
class ModalityObservation:
    """One modality's reading at one step; value None marks a lost observation."""

    modality_index: int
    value: float | np.ndarray | None

    def __post_init__(self):
        if self.value is not None and not np.all(np.isfinite(self.value)):
            raise ValueError("observation values must be finite (use None for lost readings)")

    @property
    def present(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class ObservationFrame:
    """Per-timestep tuple of per-modality observations, ordered by modality."""

    time_index: int
    observations: tuple[ModalityObservation, ...]

    def __post_init__(self):
        if self.time_index < 1:
            raise ValueError("time_index starts at 1")
        object.__setattr__(self, "observations", tuple(self.observations))
        for i, obs in enumerate(self.observations):
            if obs.modality_index != i:
                raise ValueError("observations must be ordered by modality_index")

    @classmethod
    def of(cls, time_index: int, values) -> "ObservationFrame":
        """Build a frame from raw per-modality values (None = lost)."""
        return cls(time_index, tuple(ModalityObservation(i, v) for i, v in enumerate(values)))

    @property
    def n_modalities(self) -> int:
        return len(self.observations)

    def value(self, i: int):
        return self.observations[i].value

    def restrict_to(self, keep: int) -> "ObservationFrame":
        """Frame with every modality except `keep` marked lost."""
        vals = [obs.value if i == keep else None for i, obs in enumerate(self.observations)]
        return ObservationFrame.of(self.time_index, vals)


@dataclass(frozen=True)
class TrackingModel:
    """A transition prior bundled with one observation model per modality."""

    transition: LinearGaussianTransition
    modalities: tuple

    def __post_init__(self):
        object.__setattr__(self, "modalities", tuple(self.modalities))

    @property
    def n_modalities(self) -> int:
        return len(self.modalities)


def tracking_model_2d(
    sigma_angle: float = DEFAULT_SIGMA_ANGLE,
    sigma_range: float = DEFAULT_SIGMA_RANGE,
    range_max: float = DEFAULT_RANGE_MAX,
    A=None,
    Q=None,
) -> TrackingModel:
    """The 2D constant-velocity tracking setup with bearing + range sensors."""
    transition = LinearGaussianTransition(
        DEFAULT_A if A is None else A,
        DEFAULT_Q if Q is None else Q,
    )
    return TrackingModel(
        transition=transition,
        modalities=(AngleModality(sigma_angle), RangeModality(sigma_range, range_max)),
    )
