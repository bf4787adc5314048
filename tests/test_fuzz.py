"""Fuzzing of the input boundaries: config files, NDJSON replay files and
the command line. Each either accepts its input or rejects it with its
documented error; nothing else may escape. Replay files are also checked
against the per-record loader in tests/reference.py, and drawn scenarios
against the per-step simulator there."""

import json
from operator import itemgetter

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from modalfuse import (
    DEFAULT_X0,
    ConfigError,
    ExperimentConfig,
    FailureWindow,
    GroundTruthRun,
    LossWindow,
    ScenarioSpec,
    default_config,
    generate_run,
    load_config,
    tracking_model_2d,
)
from modalfuse.bench import ALGORITHMS, main

import reference

FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

CONFIG_KEYS = {
    "model": ("sigma_angle", "sigma_range", "range_max", "A", "Q"),
    "simulation": ("horizon", "x0", "truth_noise_scale"),
    "scenario": ("failures", "losses"),
}
ATOMS = st.sampled_from(["0", "1", "-1", "0.5", "2", "4", "5", "20", "300", "1e-9", "1e400",
                         "nan", "inf", "-inf", "abc", "%", ""])
# a scalar, vector, matrix or window list: ';'-separated rows of atoms
VALUES = st.lists(st.lists(ATOMS, max_size=5).map(" ".join), max_size=5).map("; ".join)
KEYS = st.sampled_from([k for keys in CONFIG_KEYS.values() for k in keys] + ["junk"])
# any names: unknown sections and keys, another section's keys, repeats
ANY_SECTIONS = st.lists(
    st.tuples(st.sampled_from([*CONFIG_KEYS, "DEFAULT", "other"]),
              st.lists(st.tuples(KEYS, VALUES), max_size=5)),
    max_size=4,
)


def mostly(usual, rare):
    """``usual`` in about nine examples of ten, ``rare`` in the rest."""
    return st.integers(1, 10).flatmap(lambda k: rare if k == 1 else usual)


# window lists shaped as the [scenario] keys expect: entries of 3 to 5
# numbers, usually whole, so the count and whole-number checks are reached
WINDOW_ATOMS = mostly(st.sampled_from(["0", "1", "2", "10", "20", "300"]),
                      st.sampled_from(["0.5", "0.8", "10.7", "nan"]))
WINDOWS = st.lists(st.lists(WINDOW_ATOMS, min_size=3, max_size=5).map(" ".join),
                   min_size=1, max_size=3).map("; ".join)


def valid_windows(key):
    """Entries that pass the parser and each window's own checks for a
    horizon of 3 or more and two modalities: 1 <= t_start <= t_end <= 3
    and, for failures, a probability in [0, 1]. Two entries may still
    overlap, which ScenarioSpec rejects for a loss and a failure."""
    entry = st.tuples(st.sampled_from(["0", "1"]),
                      st.lists(st.sampled_from(["1", "2", "3"]), min_size=2, max_size=2).map(sorted),
                      st.sampled_from(["0", "0.5", "0.8", "1"]) if key == "failures" else st.just(None))
    return st.lists(entry.map(lambda e: " ".join([e[0], *e[1]] + ([e[2]] if e[2] else []))),
                    min_size=1, max_size=2).map("; ".join)


def key_value(key):
    if key in ("failures", "losses"):
        # valid windows in about half the examples, so the window checks are
        # reached as well as the parser's
        return st.tuples(st.just(key), st.booleans().flatmap(
            lambda valid: valid_windows(key) if valid else mostly(WINDOWS, VALUES)))
    return st.tuples(st.just(key), VALUES)


def known_sections(names, max_keys):
    """Known names only: each of ``names`` at most once, holding its own keys once each."""
    return st.lists(
        st.sampled_from(names).flatmap(lambda name: st.tuples(
            st.just(name),
            st.lists(st.sampled_from(CONFIG_KEYS[name]).flatmap(key_value), max_size=max_keys,
                     unique_by=itemgetter(0)))),
        max_size=len(names), unique_by=itemgetter(0),
    )


# a config with an unknown or repeated name is rejected before any value is
# parsed, so about one example in ten draws any names and the rest reach
# value parsing
SECTIONS = mostly(known_sections([*CONFIG_KEYS], 5), ANY_SECTIONS)


def config_text(sections) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries)
                   for name, entries in sections)


# the messages of ScenarioSpec's own window checks
WINDOW_CHECKS = ("outside [1,", "failure probability must lie", "windows overlap")


def _load_or_reject(path, text):
    path.write_text(text, encoding="utf-8")
    try:
        cfg = load_config(path)
    except ConfigError as exc:
        event("ConfigError, by a window check" if any(m in str(exc) for m in WINDOW_CHECKS) else "ConfigError")
        return
    windows = cfg.scenario is not None and cfg.scenario.failure_windows + cfg.scenario.loss_windows
    event("accepted, with windows" if windows else "accepted")
    assert isinstance(cfg, ExperimentConfig)


@FUZZ
@given(text=st.text())
def test_load_config_arbitrary_text(tmp_path, text):
    _load_or_reject(tmp_path / "fuzz.cfg", text)


@FUZZ
@given(sections=SECTIONS)
def test_load_config_arbitrary_sections(tmp_path, sections):
    _load_or_reject(tmp_path / "fuzz.cfg", config_text(sections))


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
NUMBER = st.floats() | st.integers()
# near-valid records: each field is usually well formed, sometimes any JSON
RECORD = st.fixed_dictionaries({
    "t": st.integers(1, 3) | JSON,
    "state": st.lists(NUMBER, min_size=4, max_size=4) | JSON,
    "observations": st.lists(st.none() | st.floats(-1.0, 1.0), min_size=2, max_size=2) | JSON,
    "status": st.lists(st.sampled_from(["NORMAL", "FAILED", "LOST", "BROKEN"]), min_size=2, max_size=2) | JSON,
})
LINE = RECORD.map(json.dumps) | st.text().filter(lambda s: "\n" not in s)
# a valid three-step file, as save writes it
VALID_LINES = [
    json.dumps({"t": t, "state": [1.0, 1.0, 200.0 + t, 200.0], "observations": [0.78, None],
                "status": ["NORMAL", "LOST"]})
    for t in (1, 2, 3)
]


EDITS = st.lists(st.tuples(st.integers(0, 3), LINE), max_size=3)


def replay_file(tmp_path, edits):
    """VALID_LINES with each (i, line) of ``edits`` put in place of line i."""
    lines = list(VALID_LINES)
    for i, line in edits:
        lines[i:i + 1] = [line]
    path = tmp_path / "fuzz.ndjson"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


@FUZZ
@given(edits=EDITS)
def test_load_replay_arbitrary_lines(tmp_path, edits):
    try:
        run = GroundTruthRun.load(replay_file(tmp_path, edits))
    except ValueError:
        event("ValueError")
        return
    event("accepted")
    assert isinstance(run, GroundTruthRun)


@FUZZ
@given(edits=EDITS)
def test_load_replay_matches_the_per_record_loader(tmp_path, edits):
    # the same run, or the same error naming the same line
    path = replay_file(tmp_path, edits)
    outcomes = []
    for load in (GroundTruthRun.load, reference.load):
        try:
            outcomes.append(reference.run_values(load(path)))
        except Exception as exc:  # compared, not swallowed
            outcomes.append((type(exc), str(exc)))
    event("accepted" if len(outcomes[0]) == 4 else outcomes[0][0].__name__)
    assert outcomes[0] == outcomes[1]


MODALITIES = tracking_model_2d().modalities


@st.composite
def scenarios(draw):
    """(ScenarioSpec, models): 1 to 4 modalities, failure windows with any
    probability in [0, 1] and loss windows, which may overlap each other
    but not a failure window on the same modality."""
    horizon, n = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    modality, times = st.integers(0, n - 1), st.lists(st.integers(1, horizon), min_size=2, max_size=2).map(sorted)
    failures = draw(st.lists(st.builds(lambda m, ts, p: FailureWindow(m, *ts, p), modality, times,
                                       st.floats(0.0, 1.0)), max_size=4))
    losses = [w for w in draw(st.lists(st.builds(lambda m, ts: LossWindow(m, *ts), modality, times), max_size=3))
              if not any(f.modality == w.modality and f.t_start <= w.t_end and w.t_start <= f.t_end
                         for f in failures)]
    return ScenarioSpec(horizon, failures, losses), (MODALITIES * 2)[:n]



@FUZZ
@given(drawn=scenarios(), seed=st.integers(0, 2 ** 32 - 1))
def test_generated_run_round_trips(tmp_path, drawn, seed):
    spec, models = drawn
    transition = default_config().truth_transition
    run = generate_run(spec, DEFAULT_X0, transition, models, np.random.default_rng(seed))
    ref = reference.generate_run(spec, DEFAULT_X0, transition, models, np.random.default_rng(seed))
    assert reference.run_values(run) == reference.run_values(ref)
    run.save(tmp_path / "run.ndjson")
    reference.save(ref, tmp_path / "ref.ndjson")
    assert (tmp_path / "run.ndjson").read_bytes() == (tmp_path / "ref.ndjson").read_bytes()
    back = GroundTruthRun.load(tmp_path / "run.ndjson")
    assert reference.run_values(back) == reference.run_values(run)
    assert all(type(obs.value) in (float, type(None)) for frame in back.frames for obs in frame.observations)


@FUZZ
@given(
    # the CLI rejects an out-of-range number or a bad config name before
    # it runs, so each argument is valid in about nine examples of ten
    horizon=mostly(st.sampled_from(["3", "12"]), st.just("0")),
    sections=mostly(known_sections(["model", "scenario"], 2),
                    st.lists(st.tuples(st.sampled_from([*CONFIG_KEYS, "other"]),
                                       st.lists(st.tuples(KEYS, VALUES), max_size=2)), max_size=2)),
    algorithm=st.sampled_from(ALGORITHMS),
    particles=mostly(st.integers(1, 4), st.just(0)),
    runs=mostly(st.integers(1, 2), st.just(0)),
    seed=mostly(st.integers(0, 3), st.just(-1)),
)
def test_cli_exits_0_or_2(tmp_path, capsys, horizon, sections, algorithm, particles, runs, seed):
    # a short horizon first keeps each accepted run small; later
    # [simulation] sections collide with it and are rejected
    path = tmp_path / "fuzz.cfg"
    path.write_text(config_text([("simulation", [("horizon", horizon)]), *sections]), encoding="utf-8")
    code = main(["--algorithm", algorithm, "--scenario", "1", "--particles", str(particles),
                 "--runs", str(runs), "--seed", str(seed), "--jobs", "1",
                 "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    event(f"exit {code}")
    assert code in (0, 2)
    assert (code == 2) == err.startswith("error: ")
