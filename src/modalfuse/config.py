"""Key-value config files for model parameters and scenarios.

INI-style text, parsed with :mod:`configparser`. Every key is optional;
a missing key keeps the default of ``tracking_model_2d``,
``ExperimentConfig`` or ``ScenarioSpec``, whichever takes it. A section
or key not listed below is an error, and so is any key in [DEFAULT],
which configparser would copy into every section. Matrices
are written as semicolon-separated rows, vectors and windows as
whitespace-separated numbers. A window takes exactly one number per
field, and its modality and times must be whole. Modality indices are
0-based.

::

    [model]
    sigma_angle = 0.1
    sigma_range = 1.0
    range_max = 2000.0
    A = 1 0 0 0; 0 1 0 0; 1 0 1 0; 0 1 0 1
    Q = 1 0 0 0; 0 1 0 0; 0 0 10 0; 0 0 0 10

    [simulation]
    horizon = 300
    x0 = 1 1 200 200
    truth_noise_scale = 1e-4

    [scenario]
    # each entry: modality t_start t_end probability
    failures = 0 190 210 1.0; 0 220 230 0.8
    # each entry: modality t_start t_end
    losses = 1 250 260
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import get_type_hints

import numpy as np

from .ssm import TrackingModel, _check_count, tracking_model_2d
from .tracksim import DEFAULT_HORIZON, DEFAULT_X0, FailureWindow, LossWindow, ScenarioSpec


class ConfigError(ValueError):
    """Malformed configuration file."""


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split()])


def _parse_matrix(text: str) -> np.ndarray:
    mat = [_parse_vector(r) for r in text.split(";") if r.strip()]
    if len({len(r) for r in mat}) != 1:
        raise ValueError(f"ragged matrix {text!r}")
    return np.array(mat)


def _whole(text: str) -> int:
    value = float(text)
    if not value.is_integer():  # also false for nan and inf
        raise ValueError(f"{text!r} is not a whole number")
    return int(value)


def _parse_windows(window, text: str) -> tuple:
    """';'-separated entries of ``window``: exactly one number per field, a
    whole one for the modality and the times."""
    parsers = [float if kind is float else _whole for kind in get_type_hints(window).values()]
    windows = []
    for entry in filter(str.strip, text.split(";")):
        numbers = entry.split()
        try:
            if len(numbers) != len(parsers):
                raise ValueError(f"expected {len(parsers)} numbers, got {len(numbers)}")
            windows.append(window(*(to_number(v) for to_number, v in zip(parsers, numbers))))
        except ValueError as exc:
            raise ValueError(f"entry {entry.strip()!r}: {exc}") from None
    return tuple(windows)


def _arguments(*pairs) -> dict:
    """{key: (argument, parser)} for (argument, parser) pairs; the key is the
    argument's name lower-cased, as configparser reads keys."""
    return {argument.lower(): (argument, parse) for argument, parse in pairs}


# every section and key a file may give: {section: {key: (argument, parser)}},
# each value parsed and passed as that argument of tracking_model_2d,
# ExperimentConfig or ScenarioSpec, so theirs are the only defaults
CONFIG_KEYS = {
    "model": _arguments(("sigma_angle", float), ("sigma_range", float), ("range_max", float),
                        ("A", _parse_matrix), ("Q", _parse_matrix)),
    "simulation": _arguments(("horizon", int), ("x0", _parse_vector), ("truth_noise_scale", float)),
    "scenario": {"failures": ("failure_windows", partial(_parse_windows, FailureWindow)),
                 "losses": ("loss_windows", partial(_parse_windows, LossWindow))},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a benchmark run needs beyond its CLI flags.

    ``truth_noise_scale`` multiplies the process covariance when rolling
    out ground truth, keeping trajectories smooth and inside the range
    sensor's value space; every filter still assumes the unscaled
    covariance. Set it to 1 to generate truth from the filters' model.
    The constructor checks ``x0`` (finite, one entry per state
    component), ``horizon`` (an integer >= 1), ``truth_noise_scale``
    (finite, >= 0) and that a scenario runs for ``horizon`` steps, so a
    config built in code fails as a config file does.
    """

    model: TrackingModel
    x0: np.ndarray = field(default_factory=DEFAULT_X0.copy)
    horizon: int = DEFAULT_HORIZON
    truth_noise_scale: float = 1e-4
    scenario: ScenarioSpec | None = None  # used in place of a built-in scenario, never beside one

    def __post_init__(self):
        x0 = np.array(self.x0, dtype=float)
        if x0.shape != (self.model.transition.dim,) or not np.isfinite(x0).all():
            raise ValueError(f"x0 must be finite with {self.model.transition.dim} entries, got {x0}")
        _check_count("horizon", self.horizon)
        if not 0.0 <= self.truth_noise_scale < np.inf:
            raise ValueError(f"truth_noise_scale must be finite and >= 0, got {self.truth_noise_scale}")
        if self.scenario is not None and self.scenario.horizon != self.horizon:
            raise ValueError(f"the scenario's horizon {self.scenario.horizon} differs from "
                             f"the config's horizon {self.horizon}")
        object.__setattr__(self, "x0", x0)

    @cached_property
    def truth_transition(self):
        """Transition used to roll out ground truth, built on first read:
        the transition's constructor runs an eigendecomposition."""
        base = self.model.transition
        return base if self.truth_noise_scale == 1.0 else type(base)(base.A, base.Q * self.truth_noise_scale)


def default_config() -> ExperimentConfig:
    return ExperimentConfig(model=tracking_model_2d())


def load_config(path) -> ExperimentConfig:
    """Parse a config file; any malformed content raises ConfigError."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path!r}")
        return _config_from(parser)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc


def _check_names(parser: configparser.ConfigParser) -> None:
    """Reject a section or key that _config_from does not read, so that a
    typo fails instead of leaving a default in place. [DEFAULT], whose keys
    configparser copies into every section, must be empty."""
    for section in parser:  # [DEFAULT] comes first
        keys = list(parser[section])
        if section not in CONFIG_KEYS and (keys or section != "DEFAULT"):
            raise ConfigError(f"unknown section [{section}] (keys: {', '.join(keys) or 'none'}); "
                              f"sections are {', '.join(f'[{s}]' for s in CONFIG_KEYS)}")
        for key in keys:
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]; "
                                  f"its keys are {', '.join(CONFIG_KEYS[section])}")


def _config_from(parser: configparser.ConfigParser) -> ExperimentConfig:
    _check_names(parser)
    given = {section: {} for section in CONFIG_KEYS}
    for section in parser.sections():
        for key, text in parser[section].items():
            argument, parse = CONFIG_KEYS[section][key]
            try:
                given[section][argument] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"bad value for key {key!r} in section [{section}]: {exc}") from exc
    try:
        cfg = ExperimentConfig(tracking_model_2d(**given["model"]), **given["simulation"])
        if parser.has_section("scenario"):
            cfg = replace(cfg, scenario=ScenarioSpec(cfg.horizon, **given["scenario"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg
