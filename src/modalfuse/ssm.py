"""State-space models for multi-modal fusion.

A model is a transition prior plus one observation model per modality
(a "modality" being one data channel, e.g. a bearing sensor or a range
sensor). States are plain float64 arrays: shape (d,) for a single state
or (N, d) for a batch of particles; every evaluator is vectorised over
the batch dimension and pure given an explicitly passed
``numpy.random.Generator``.

A modality model is any object exposing

    value_space    -- (low, high): the closed interval a reading lies in
    loglik(y, x)   -- log p(y | x), vectorised over a batch of states; a
                      (k, 1) column of readings y broadcasts against an
                      (N, d) batch, giving (k, N), row j equal to the call
                      with reading j alone
    reading(x, z)  -- the reading at state(s) x for standard-normal noise z,
                      one z per state; vectorised like loglik
    sample_failed(rng) -- draw from the uniform failure distribution

One model object may be listed at several positions of a model's
modalities (redundant sensors of one kind). The filters call it once per
step: ``dma.modality_logliks`` passes such an object a (k, 1) column of
its k present readings, or one float when only one of them is present.

``reading(x, rng.standard_normal())`` equals, bit for bit, a draw of
``rng.normal(mean(x), sigma)`` passed through the modality's fold into
its value space: numpy forms that normal as ``loc + scale * z``.

A reading is one finite real number, or None when lost, and has one
checked constructor, ``ModalityObservation(value)``. A frame has one
too, ``ObservationFrame(time_index, values)``, which builds its readings
from raw values; a reading's position in its frame is its modality
index. ``null_loglik(modality)`` is what a modality contributes when its
output carries no information about the state: the reading is then
uniform noise across the value space, whatever the state.

The concrete 2D tracking model shipped here has state
``[v_x, v_y, d_x, d_y]`` (velocities and position offsets relative to
the observer) with constant-velocity linear-Gaussian dynamics, observed
through a bearing (angle) modality and a range modality.
"""

from __future__ import annotations

import math
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


# one tuple for every call: built per call, with its np.integer lookup, it
# cost more than the two isinstance tests
_INTEGER_TYPES = (int, np.integer)


def _is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, and not a bool: the
    package's one test for a count, an index or a time."""
    return isinstance(value, _INTEGER_TYPES) and not isinstance(value, bool)


def _check_count(name: str, value) -> None:
    """Reject ``value`` unless it is an integer (``_is_integer``) of at least
    1, naming it ``name``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def wrap_angle(theta):
    """Wrap angle(s) into (-pi, pi]: a numpy float64 for a scalar, an array
    for an array. Rounding can give -pi for an angle within an ulp above
    an odd multiple of pi."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=float), TWO_PI)


_HALF_LOG_TWO_PI = 0.5 * np.log(TWO_PI)


def _gauss_loglik(resid, sigma):
    """log N(resid; 0, sigma^2), a numpy scalar for a scalar residual."""
    return -0.5 * (resid / sigma) ** 2 - np.log(sigma) - _HALF_LOG_TWO_PI


def null_loglik(modality) -> float:
    """log of the uniform density over ``modality.value_space``, which
    every reading of a useless modality gets."""
    low, high = modality.value_space
    return -np.log(high - low)


@dataclass(frozen=True)
class AngleModality:
    """Bearing sensor: y ~ N(arctan(d_x / d_y), sigma^2) on (-pi, pi].

    The mean uses the single-argument arctangent of the coordinate
    ratio, so its range is (-pi/2, pi/2); d_y = 0 maps to
    sign(d_x) * pi/2 and the origin maps to 0. Residuals are wrapped
    into (-pi, pi] before the Gaussian evaluation, which makes the
    likelihood 2*pi-periodic in y and avoids spurious huge residuals at
    the seam. The value space is (-pi, pi].
    """

    sigma: float = DEFAULT_SIGMA_ANGLE

    def __post_init__(self):
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")

    @property
    def value_space(self) -> tuple[float, float]:
        # closed, so a reading rounded onto -pi is accepted
        return (-np.pi, np.pi)

    def mean(self, x):
        x = np.asarray(x, dtype=float)
        d_x, d_y = x[..., 2], x[..., 3]
        # d_x / d_y may overflow to +-inf, whose arctan is the right +-pi/2
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            theta = np.arctan(d_x / d_y)
        # arctan(0/0) is defined as 0
        return np.where(np.isnan(theta), 0.0, theta)

    def loglik(self, y, x):
        """log p(y | x), with the residual wrapped as ``wrap_angle`` wraps
        it, bit for bit. For a batch of states and a float reading y in
        [-pi, pi], or an array of such readings such as a (k, 1) column,
        m = pi - (y - mean) lies in [-pi/2, 5 pi/2], since the mean lies in
        [-pi/2, pi/2]; there ``mod(m, 2 pi)`` is one exact fold by +-2 pi,
        taken here in m's buffer. An array with any reading outside
        [-pi, pi] (or NaN), a reading of any other type, and a single
        state go through ``wrap_angle``."""
        mean = self.mean(x)
        if mean.ndim and (-np.pi <= y <= np.pi if isinstance(y, float)
                          else isinstance(y, np.ndarray) and (np.abs(y) <= np.pi).all()):
            # fmod is exact there, and m + 2 pi is the rounding np.mod does for m < 0.
            # The fold pays: through wrap_angle, runs read 1.04 (replay-n1k PF),
            # 1.13 (wide-6mod PF) and 1.12 (track-n10k PF) times as long (tools/ab.py)
            m = np.pi - (y - mean)
            m += np.where(m < 0.0, TWO_PI, np.where(m >= TWO_PI, -TWO_PI, 0.0))
            resid = np.subtract(np.pi, m, out=m)
        else:
            resid = wrap_angle(np.asarray(y, dtype=float) - mean)
        return _gauss_loglik(resid, self.sigma)

    def reading(self, x, z):
        return wrap_angle(self.mean(x) + self.sigma * z)

    def sample_failed(self, rng, size=None):
        return wrap_angle(rng.uniform(-np.pi, np.pi, size=size))


@dataclass(frozen=True)
class RangeModality:
    """Range sensor: y ~ N(sqrt(d_x^2 + d_y^2), sigma^2).

    The value space is [0, r_max]: readings are clipped into it
    and a failed sensor draws uniformly across it. The density itself is
    the plain Gaussian; for the intended geometries the truncated mass
    at the boundaries is negligible, and the null likelihood is 1/r_max.
    """

    sigma: float = DEFAULT_SIGMA_RANGE
    r_max: float = DEFAULT_RANGE_MAX

    def __post_init__(self):
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if not 0.0 < self.r_max < np.inf:
            raise ValueError("r_max must be finite and > 0")

    @property
    def value_space(self) -> tuple[float, float]:
        return (0.0, self.r_max)

    def mean(self, x):
        x = np.asarray(x, dtype=float)
        return np.hypot(x[..., 2], x[..., 3])

    def loglik(self, y, x):
        return _gauss_loglik(np.asarray(y, dtype=float) - self.mean(x), self.sigma)

    def reading(self, x, z):
        # np.clip gives the same values; on one reading its set-up costs
        # more than the two ufuncs
        return np.minimum(np.maximum(self.mean(x) + self.sigma * z, 0.0), self.r_max)

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
        for name, mat in (("A", A), ("Q", Q)):
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} must be finite")
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
        x = np.asarray(x_prev, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None]
        elif x.ndim != 2:
            raise ValueError(f"state must be shaped (d,) or (N, d), got shape {x.shape}")
        if x.shape[1] != self.dim:
            raise ValueError(f"state dimension {x.shape[1]} != model dimension {self.dim}")
        if not np.isfinite(x).all():
            raise ValueError("non-finite state passed to transition")
        out = x @ self._A_t
        out += rng.standard_normal(x.shape) @ self._noise_factor_t
        return out[0] if single else out

    def rollout(self, x0, horizon: int, rng) -> np.ndarray:
        """(T, d) Markov path from one state (d,); row t-1 is the state at
        time t. Bit for bit what T calls of ``sample`` give on the same
        stream: the T x d normals are one draw, which yields the values of
        T draws of 1 x d, and each step forms sample's (1, d) products. A
        path that leaves the finite floats raises ValueError."""
        x = np.asarray(x0, dtype=float)
        if x.shape != (self.dim,) or not np.all(np.isfinite(x)):
            raise ValueError(f"start state must be finite with {self.dim} entries, got {x}")
        noise = rng.standard_normal((horizon, self.dim))
        x = x[None]
        path = np.empty((horizon, self.dim))
        with np.errstate(over="ignore", invalid="ignore"):  # the check below names the fault
            for t in range(horizon):
                x = x @ self._A_t + noise[t:t + 1] @ self._noise_factor_t
                path[t] = x[0]
        if not np.all(np.isfinite(path)):
            raise ValueError("non-finite state in the transition's rollout")
        return path


@dataclass(frozen=True, init=False)
class ModalityObservation:
    """One modality's reading at one step: a finite real number, or None
    for a lost observation. ``ModalityObservation(value)`` is the one
    place a reading is checked and built."""

    value: float | None

    def __init__(self, value):
        _check_reading(value)
        object.__setattr__(self, "value", value)

    @property
    def present(self) -> bool:
        return self.value is not None


def _check_reading(v) -> None:
    try:
        finite = v is None or math.isfinite(v)
    except TypeError:
        raise ValueError(f"observation value {v!r} is not a real number") from None
    if not finite:
        raise ValueError("observation values must be finite (use None for lost readings)")


@dataclass(frozen=True, init=False)
class ObservationFrame:
    """Per-timestep tuple of per-modality observations: entry i is
    modality i's reading. ``ObservationFrame(time_index, values)`` is the
    one place a frame is built: it checks the time index (an integer from
    1) and builds each raw value (None = lost) into a ModalityObservation,
    which checks it."""

    time_index: int
    observations: tuple[ModalityObservation, ...]

    def __init__(self, time_index, values):
        # a frame is built per step of every dataset generated or loaded, so
        # a plain int from 1 skips the check's two calls
        if type(time_index) is not int or time_index < 1:
            _check_count("time_index", time_index)
        object.__setattr__(self, "time_index", time_index)
        object.__setattr__(self, "observations", tuple(map(ModalityObservation, values)))


@dataclass(frozen=True)
class TrackingModel:
    """A transition prior bundled with one observation model per modality."""

    transition: LinearGaussianTransition
    modalities: tuple

    def __post_init__(self):
        object.__setattr__(self, "modalities", tuple(self.modalities))


def tracking_model_2d(
    sigma_angle: float = DEFAULT_SIGMA_ANGLE,
    sigma_range: float = DEFAULT_SIGMA_RANGE,
    range_max: float = DEFAULT_RANGE_MAX,
    A=None,
    Q=None,
) -> TrackingModel:
    """The 2D constant-velocity tracking setup with bearing + range sensors.

    A and Q must be 4 x 4: both sensors read the position offsets,
    state components 2 and 3.
    """
    for name, mat in (("A", A), ("Q", Q)):
        if mat is not None and np.shape(mat) != DEFAULT_A.shape:
            raise ValueError(f"{name} must be 4 x 4 for the 2D tracking model, got shape {np.shape(mat)}")
    transition = LinearGaussianTransition(
        DEFAULT_A if A is None else A,
        DEFAULT_Q if Q is None else Q,
    )
    return TrackingModel(
        transition=transition,
        modalities=(AngleModality(sigma_angle), RangeModality(sigma_range, range_max)),
    )
