"""Test-side references: ``logsumexp`` and the log-domain reweighting
oracle built on it, the per-reading modality log-likelihood loop and a
modality double that records its ``loglik`` calls, the reweighting
kernel's general path, SMA's per-member reference, the per-step simulator and per-record NDJSON codec
that pin a dataset's random stream and bytes, and thin one-row and
one-set wrappers over production code that the tests share.
"""

import json

import numpy as np

from modalfuse.baselines import SmaState, _failure_prob, pf_step
from modalfuse.dma import candidate_loglik_matrix, mix_and_resample
from modalfuse.ssm import ObservationFrame, null_loglik
from modalfuse.tracksim import GroundTruthRun, ObservationStatus


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


def as_bits(a):
    """``a``'s float64 values as int64 bit patterns, for bit-for-bit comparisons."""
    return np.asarray(a, dtype=float).view(np.int64)


def modality_logliks_per_reading(frame, states, models):
    """Reference for ``dma.modality_logliks``: one ``loglik`` call per
    present reading, with its float, and one ``null_loglik`` per present
    reading, whether or not a model object is listed at several positions."""
    present = [i for i, obs in enumerate(frame.observations) if obs.present]
    L = np.empty((len(present), states.shape[0]))
    for row, i in enumerate(present):
        L[row] = models[i].loglik(frame.observations[i].value, states)
    return present, L, np.array([null_loglik(models[i]) for i in present], dtype=float)


class CountingModality:
    """Test double: delegates to a real modality and records the shape of
    the reading of each ``loglik`` call (() for a float)."""

    def __init__(self, inner):
        self.inner = inner
        self.shapes = []

    def loglik(self, y, x):
        self.shapes.append(np.shape(y))
        return self.inner.loglik(y, x)

    @property
    def value_space(self):
        return self.inner.value_space


def reweight_rows_with_dead_rows(log_weights, ll):
    """``dma.reweight_rows``'s general path, which handles a row whose
    maximum is not finite, run on every input: the path its no-dead-row
    case skips, bit for bit."""
    ll = ll + log_weights
    mx = ll.max(axis=1)
    mx[~np.isfinite(mx)] = 0.0
    E = np.exp(ll - mx[:, None])
    with np.errstate(divide="ignore"):
        log_g = np.log(E.sum(axis=1)) + mx
    live = np.isfinite(log_g)
    E[~live] = 0.0
    return log_g, E, np.exp(np.where(live, mx - log_g, -np.inf))


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
    return ObservationFrame(frame.time_index, [o.value if i == keep else None
                                               for i, o in enumerate(frame.observations)])


def sma_by_member(state, frame, transition, models):
    """Reference for ``baselines.sma_step``, one member at a time: member
    i is ``pf_step`` on ``restrict_to(frame, i)`` on its stored stream
    ``state.rngs[i]``. Returns ``(state, estimate, member_estimates)``.
    """
    subs, ests = zip(*(pf_step(p, restrict_to(frame, i), transition, models, state.rngs[i])
                       for i, p in enumerate(state.sub_filters)))
    return SmaState(subs, state.rngs), np.mean(ests, axis=0), ests


# -- the simulator and codec one step, window and record at a time --------
# The library draws the truth's normals in one call, scripts statuses from
# a (T, n) table, forms each modality's readings in one call from a table of
# noise and writes a file in one go; these are the per-step forms it must
# match bit for bit, kept as they were written before those changes (one
# scalar normal per reading).


def run_values(run):
    """A run's states (as bytes, so NaN equals NaN), failure log and readings."""
    return (run.states.shape, run.states.tobytes(), run.failure_log.tolist(),
            [[obs.value for obs in frame.observations] for frame in run.frames])


def status_at(spec, t, modality):
    """Scripted status at (t, modality); FAILED comes with its probability."""
    for w in spec.loss_windows:
        if w.modality == modality and w.t_start <= t <= w.t_end:
            return ObservationStatus.LOST, 0.0
    for w in spec.failure_windows:
        if w.modality == modality and w.t_start <= t <= w.t_end:
            return ObservationStatus.FAILED, w.probability
    return ObservationStatus.NORMAL, 0.0


def simulate_truth(horizon, x0, transition, rng):
    """(T, d) Markov rollout; row t-1 is the state at time t (x0 excluded)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    states = np.empty((horizon, x0.shape[0]))
    x = x0
    for t in range(horizon):
        x = transition.sample(x, rng)
        states[t] = x
    return states


def observe(t, x, statuses, models, rng):
    """One frame at time t given per-modality statuses."""
    values = []
    for status, model in zip(statuses, models, strict=True):
        if status == ObservationStatus.LOST:
            values.append(None)
        elif status == ObservationStatus.FAILED:
            values.append(float(model.sample_failed(rng)))
        else:
            values.append(float(model.reading(x, rng.standard_normal())))
    return ObservationFrame(t, values)


def generate_run(spec, x0, transition, models, rng):
    """Roll out truth, then script statuses and draw observations."""
    n = len(models)
    for w in spec.failure_windows + spec.loss_windows:
        if not 0 <= w.modality < n:
            raise ValueError(f"{w} names modality {w.modality}, outside [0, {n}) for {n} modalities")
    states = simulate_truth(spec.horizon, x0, transition, rng)
    frames = []
    log = np.empty((spec.horizon, n), dtype=np.int64)
    for t in range(1, spec.horizon + 1):
        statuses = []
        for i in range(n):
            status, prob = status_at(spec, t, i)
            if status == ObservationStatus.FAILED and rng.random() >= prob:
                status = ObservationStatus.NORMAL
            statuses.append(status)
        log[t - 1] = statuses
        frames.append(observe(t, states[t - 1], statuses, models, rng))
    return GroundTruthRun(states, tuple(frames), log)


def save(run, path):
    """Write one JSON record per step (replayable, exact floats)."""
    with open(path, "w") as f:
        for k, frame in enumerate(run.frames):
            rec = {
                "t": frame.time_index,
                "state": [float(v) for v in run.states[k]],
                "observations": [
                    None if obs.value is None else float(obs.value)
                    for obs in frame.observations
                ],
                "status": [ObservationStatus(s).name for s in run.failure_log[k]],
            }
            f.write(json.dumps(rec) + "\n")


def load(path):
    """Read a file written by :func:`save`. A malformed record raises
    ValueError naming its line."""
    states, frames, log = [], [], []
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            try:
                t, state, readings, status = _parse_record(line)
                frames.append(ObservationFrame(t, readings))
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}, line {line_no}: {exc}") from exc
            states.append(state)
            log.append(status)
    return GroundTruthRun(np.asarray(states), tuple(frames), np.asarray(log))


_RECORD_KEYS = ("t", "state", "observations", "status")
_NUMBER_TYPES = (int, float)   # matched by exact type, so true and false are not numbers
_STATUS_CODES = {s.name: int(s) for s in ObservationStatus}


def _parse_record(line):
    """(t, state, readings, status codes) of one NDJSON line in the shape
    save writes: an integer t, a list of numbers, a list of numbers or
    nulls, and a list of status names."""
    rec = json.loads(line)
    if type(rec) is not dict:
        raise ValueError(f"record is a {type(rec).__name__}, not an object")
    missing = [k for k in _RECORD_KEYS if k not in rec]
    if missing:
        raise ValueError(f"record lacks {', '.join(missing)}")
    t, state, readings, status = (rec[k] for k in _RECORD_KEYS)
    if type(t) is not int:
        raise ValueError(f"t {t!r} is not an integer")
    if type(state) is not list or not all(type(v) in _NUMBER_TYPES for v in state):
        raise ValueError(f"state {state!r} is not a list of numbers")
    if type(readings) is not list or not all(v is None or type(v) in _NUMBER_TYPES for v in readings):
        raise ValueError(f"observations {readings!r} are not a list of numbers or nulls")
    if type(status) is not list or not all(type(s) is str and s in _STATUS_CODES for s in status):
        raise ValueError(f"status {status!r} is not a list of {', '.join(_STATUS_CODES)}")
    # float() raises OverflowError for an int past float range
    return (t, [float(v) for v in state], [v if v is None else float(v) for v in readings],
            [_STATUS_CODES[s] for s in status])
