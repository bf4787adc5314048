"""Ground-truth simulator for the 2D tracking experiments.

Generates true trajectories from the transition prior, per-modality
observations, and scripted modality-failure scenarios. Per step and
modality the sensor status is one of

* NORMAL -- observation drawn from the true observation model,
* FAILED -- observation drawn uniformly over the modality's value
  space (the sensor emits garbage that looks like a reading),
* LOST   -- no observation at all.

The four built-in scenarios cover: no failures; alternating one-sided
failures; losses; and simultaneous failures of both modalities.
Everything the simulator produces is a pure function of its seed, and
the order of the draws on that one stream is part of a dataset's
definition: first the truth's T x d transition normals, then, step by
step, a coin for each modality inside a failure window, in modality
order, followed by the step's readings in modality order (a lost
reading draws nothing). Drawing the same values in another order gives
another dataset. ``tests/reference.py`` keeps the per-step form of the
simulator and of the NDJSON writer, which the library must match bit
for bit.

A run is saved as NDJSON, one record per step in ``json.dumps``'s
layout. Every record of a run has the same shape, so ``save`` builds one
``%`` template from d and n and fills it for all records in one call,
with no JSON encoder per record; ``load`` parses each line with
``json.loads`` and checks it, naming the line of a malformed record.

A normal reading is ``model.reading(x, z)`` for one standard normal z,
which is the value ``rng.normal`` around the modality's mean would give.
``generate_run`` fills a (T, n) table of these z in the stream order
above and then forms each modality's readings in one vectorised call
over the whole truth. Steps with no failure window hold no coin, so a
run of them draws its normals in one call, which yields them in (t,
modality) order; a step with a coin draws its coins, normals and
failure draws one by one, as the order requires.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from operator import itemgetter

import numpy as np

from .ssm import ObservationFrame

DEFAULT_X0 = np.array([1.0, 1.0, 200.0, 200.0])
DEFAULT_HORIZON = 300


class ObservationStatus(IntEnum):
    NORMAL = 0
    FAILED = 1
    LOST = 2


@dataclass(frozen=True)
class FailureWindow:
    modality: int
    t_start: int
    t_end: int
    probability: float


@dataclass(frozen=True)
class LossWindow:
    modality: int
    t_start: int
    t_end: int


def _check_window(w, horizon):
    for name in ("modality", "t_start", "t_end"):
        value = getattr(w, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{w} has {name} {value!r}, not an integer")
    if w.modality < 0:
        raise ValueError(f"{w} names modality {w.modality}, below 0")
    if not 1 <= w.t_start <= w.t_end <= horizon:
        raise ValueError(f"window [{w.t_start}, {w.t_end}] outside [1, {horizon}]")


@dataclass(frozen=True)
class ScenarioSpec:
    """Failure script: horizon plus per-modality failure/loss windows."""

    horizon: int = DEFAULT_HORIZON
    failure_windows: tuple[FailureWindow, ...] = ()
    loss_windows: tuple[LossWindow, ...] = ()
    label: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "failure_windows", tuple(self.failure_windows))
        object.__setattr__(self, "loss_windows", tuple(self.loss_windows))
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for w in self.failure_windows:
            _check_window(w, self.horizon)
            if not 0.0 <= w.probability <= 1.0:
                raise ValueError("failure probability must lie in [0, 1]")
        for w in self.loss_windows:
            _check_window(w, self.horizon)
        for lw in self.loss_windows:
            for fw in self.failure_windows:
                if lw.modality == fw.modality and lw.t_start <= fw.t_end and fw.t_start <= lw.t_end:
                    raise ValueError("loss and failure windows overlap for one modality")

    def script(self, n_modalities: int) -> tuple[np.ndarray, np.ndarray]:
        """(T, n) scripted statuses and failure probabilities; row t-1 is
        time t. Loss windows come before failure windows, and the first
        window that covers a cell sets it: LOST, or FAILED with the window's
        probability. A cell no window covers is NORMAL with probability 0.
        A window on a modality outside [0, n) raises ValueError naming the
        first such window, failure windows first."""
        for w in self.failure_windows + self.loss_windows:
            if w.modality >= n_modalities:
                raise ValueError(f"{w} names modality {w.modality}, outside [0, {n_modalities}) "
                                 f"for {n_modalities} modalities")
        status = np.full((self.horizon, n_modalities), ObservationStatus.NORMAL, dtype=np.int64)
        prob = np.zeros((self.horizon, n_modalities))
        # a later write wins, so the windows are written lowest precedence first
        for w in reversed(self.loss_windows + self.failure_windows):
            rows = slice(w.t_start - 1, w.t_end)
            lost = isinstance(w, LossWindow)
            status[rows, w.modality] = ObservationStatus.LOST if lost else ObservationStatus.FAILED
            prob[rows, w.modality] = 0.0 if lost else w.probability
        return status, prob


def builtin_scenario(k: int) -> ScenarioSpec:
    """The four benchmark scenarios (modalities are 0-indexed).

    1. no failures;
    2. one modality at a time: modality 0 fails on [190, 210] with
       probability 1.0 and [220, 230] with 0.8, modality 1 on
       [235, 245] with 1.0 and [250, 260] with 0.8;
    3. losses only: modality 0 on [190, 200], modality 1 on [250, 260];
    4. both modalities fail on [190, 200] and [250, 260] with
       probability 1.0 and on [210, 240] with 0.8.
    """
    if k == 1:
        return ScenarioSpec(label="1")
    if k == 2:
        return ScenarioSpec(
            failure_windows=(
                FailureWindow(0, 190, 210, 1.0),
                FailureWindow(0, 220, 230, 0.8),
                FailureWindow(1, 235, 245, 1.0),
                FailureWindow(1, 250, 260, 0.8),
            ),
            label="2",
        )
    if k == 3:
        return ScenarioSpec(
            loss_windows=(
                LossWindow(0, 190, 200),
                LossWindow(1, 250, 260),
            ),
            label="3",
        )
    if k == 4:
        return ScenarioSpec(
            failure_windows=(
                FailureWindow(0, 190, 200, 1.0),
                FailureWindow(1, 190, 200, 1.0),
                FailureWindow(0, 210, 240, 0.8),
                FailureWindow(1, 210, 240, 0.8),
                FailureWindow(0, 250, 260, 1.0),
                FailureWindow(1, 250, 260, 1.0),
            ),
            label="4",
        )
    raise ValueError("scenario index must be 1, 2, 3 or 4")


@dataclass(frozen=True)
class GroundTruthRun:
    """True states, observation frames and the per-step failure log.

    Construction is the boundary for generated and loaded runs alike: it
    rejects a run with no steps (``save`` would write an empty file,
    which gives ``load`` no state dimension), frames whose time indices
    do not run 1..T in order, states, failure log or frames whose shapes
    disagree, and a non-finite state (every error against the truth
    would read NaN), naming the first mismatch or bad step.
    """

    states: np.ndarray                       # (T, d)
    frames: tuple[ObservationFrame, ...]     # time indices 1..T
    failure_log: np.ndarray                  # (T, n) of ObservationStatus values

    def __post_init__(self):
        frames = tuple(self.frames)
        states = np.asarray(self.states, dtype=float)
        log = np.asarray(self.failure_log, dtype=np.int64)
        T = len(frames)
        if T == 0:
            raise ValueError("a run needs one or more steps, got none")
        if states.ndim != 2 or states.shape[0] != T:
            raise ValueError(f"states are shaped {states.shape}, expected ({T}, d)")
        if log.ndim != 2 or log.shape[0] != T:
            raise ValueError(f"failure_log is shaped {log.shape}, expected ({T}, n)")
        finite = np.isfinite(states).all(axis=1)
        if not finite.all():
            k = int(np.argmin(finite))   # the first False
            raise ValueError(f"state at step {k + 1} is not finite: {states[k]}")
        if log.size and not 0 <= log.min() <= log.max() < len(_STATUS_NAMES):
            raise ValueError(f"failure_log holds a code outside 0..{len(_STATUS_NAMES) - 1}, "
                             f"the ObservationStatus values")
        for k, frame in enumerate(frames, start=1):
            if frame.time_index != k:
                raise ValueError(f"frame {k} has time index {frame.time_index}, expected {k}")
            if len(frame.observations) != log.shape[1]:
                raise ValueError(f"frame {k} has {len(frame.observations)} readings, "
                                 f"failure_log has {log.shape[1]} modalities")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "failure_log", log)

    @property
    def horizon(self) -> int:
        return len(self.frames)

    def save(self, path) -> None:
        """Write one JSON record per step (replayable, exact floats), in
        ``json.dumps``'s layout, through one ``%`` template per record. A
        state entry goes through ``float.__repr__``, which is what
        ``json.dumps`` writes for a finite float (construction rejects any
        other), a reading through ``float.__str__`` (the same text), a lost
        reading is ``null`` and a status name comes quoted from a table."""
        T, d = self.states.shape
        n = self.failure_log.shape[1]
        record = (f'{{"t": %d, "state": [{", ".join(["%r"] * d)}], '
                  f'"observations": [{", ".join(["%s"] * n)}], "status": [{", ".join(["%s"] * n)}]}}\n')
        fields = np.empty((T, 1 + d + 2 * n), dtype=object)
        fields[:, 0] = range(1, T + 1)
        fields[:, 1:1 + d] = self.states   # as Python floats
        fields[:, 1 + d:1 + d + n] = np.array([["null" if obs.value is None else float(obs.value)
                                                for obs in frame.observations] for frame in self.frames],
                                              dtype=object).reshape(T, n)
        fields[:, 1 + d + n:] = _QUOTED_STATUS_NAMES[self.failure_log]
        with open(path, "w") as f:
            f.write(record * T % tuple(fields.ravel().tolist()))

    @classmethod
    def load(cls, path) -> "GroundTruthRun":
        """Read a file written by :meth:`save`. A malformed record raises
        ValueError naming its line, and an empty file raises ValueError
        naming the file; a run the constructor rejects (a non-finite
        state, say) raises its error, naming the step."""
        states, frames, log = [], [], []
        with open(path) as f:
            for line_no, line in enumerate(f, start=1):
                try:
                    t, state, readings, status = _parse_record(line)
                    frames.append(ObservationFrame.of(t, readings))
                except (ValueError, OverflowError) as exc:
                    raise ValueError(f"{path}, line {line_no}: {exc}") from exc
                states.append(state)
                log.append(status)
        if not frames:
            raise ValueError(f"{path} holds no records, and a run has one or more steps")
        return cls(np.asarray(states), tuple(frames), np.asarray(log))


_RECORD_KEYS = ("t", "state", "observations", "status")
_record_fields = itemgetter(*_RECORD_KEYS)
# types are matched exactly, so true and false are not numbers
_NUMBER_TYPES = frozenset({int, float})
_READING_TYPES = _NUMBER_TYPES | {type(None)}
_STRING_TYPE = frozenset({str})
_STATUS_CODES = {s.name: int(s) for s in ObservationStatus}
_STATUS_NAMES = tuple(_STATUS_CODES)   # indexed by code
_STATUS_NAME_SET = frozenset(_STATUS_NAMES)
_QUOTED_STATUS_NAMES = np.array([json.dumps(name) for name in _STATUS_NAMES], dtype=object)


def _parse_record(line: str):
    """(t, state, readings, status codes) of one NDJSON line in the shape
    save writes: an integer t, a list of numbers, a list of numbers or
    nulls, and a list of status names."""
    rec = json.loads(line)
    if type(rec) is not dict:
        raise ValueError(f"record is a {type(rec).__name__}, not an object")
    try:
        t, state, readings, status = _record_fields(rec)
    except KeyError:
        raise ValueError(f"record lacks {', '.join(k for k in _RECORD_KEYS if k not in rec)}") from None
    if type(t) is not int:
        raise ValueError(f"t {t!r} is not an integer")
    if type(state) is not list or not _NUMBER_TYPES.issuperset(map(type, state)):
        raise ValueError(f"state {state!r} is not a list of numbers")
    if type(readings) is not list or not _READING_TYPES.issuperset(map(type, readings)):
        raise ValueError(f"observations {readings!r} are not a list of numbers or nulls")
    # the names are looked up only once every entry is known to be a string
    if type(status) is not list or not (_STRING_TYPE.issuperset(map(type, status))
                                        and _STATUS_NAME_SET.issuperset(status)):
        raise ValueError(f"status {status!r} is not a list of {', '.join(_STATUS_CODES)}")
    # float() raises OverflowError for an int past float range
    return (t, [*map(float, state)], [v if v is None else float(v) for v in readings],
            [*map(_STATUS_CODES.__getitem__, status)])


def generate_run(spec: ScenarioSpec, x0, transition, models, rng) -> GroundTruthRun:
    """Roll out truth, then script statuses and draw observations.

    Inside a failure window each step fails independently with the
    window's probability; the realised status of every (t, modality)
    pair is recorded in the failure log. A window on a modality outside
    [0, len(models)) is rejected by :meth:`ScenarioSpec.script`, before
    any draw.
    """
    n = len(models)
    scripted, probs = spec.script(n)
    states = transition.rollout(x0, spec.horizon, rng)
    status = scripted.copy()
    noise = np.zeros(status.shape)
    failed = []   # (t, modality, reading) of every realised failure
    normal = scripted == ObservationStatus.NORMAL
    coin_rows = np.flatnonzero((scripted == ObservationStatus.FAILED).any(axis=1)).tolist()
    start = 0
    for t in coin_rows + [spec.horizon]:
        # the coinless steps before t: one draw, read off in (t, modality) order
        cells = normal[start:t]
        noise[start:t][cells] = rng.standard_normal(np.count_nonzero(cells))
        if t == spec.horizon:
            break
        # step t + 1's failure coins in modality order, then its readings
        codes = [ObservationStatus.NORMAL if s == ObservationStatus.FAILED and rng.random() >= p else s
                 for s, p in zip(scripted[t].tolist(), probs[t].tolist())]
        for i, (code, model) in enumerate(zip(codes, models)):
            if code == ObservationStatus.NORMAL:
                noise[t, i] = rng.standard_normal()
            elif code == ObservationStatus.FAILED:
                failed.append((t, i, model.sample_failed(rng)))
        status[t] = codes
        start = t + 1
    values = np.empty(status.shape)
    for i, model in enumerate(models):
        values[:, i] = model.reading(states, noise[:, i])
    for t, i, value in failed:
        values[t, i] = value
    readings = values.tolist()
    for t, i in np.argwhere(status == ObservationStatus.LOST).tolist():
        readings[t][i] = None
    frames = tuple(ObservationFrame.of(t, row) for t, row in enumerate(readings, start=1))
    return GroundTruthRun(states, frames, status)
