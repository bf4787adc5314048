"""Key-value config files for model parameters and scenarios.

INI-style text, parsed with :mod:`configparser`. Every key is optional;
missing keys fall back to the built-in 2D tracking defaults. A section
or key not listed below is an error, and so is any key in [DEFAULT],
which configparser would copy into every section. Matrices
are written as semicolon-separated rows, vectors and windows as
whitespace-separated numbers. Modality indices are 0-based.

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
from dataclasses import dataclass, field

import numpy as np

from .ssm import (
    DEFAULT_RANGE_MAX,
    DEFAULT_SIGMA_ANGLE,
    DEFAULT_SIGMA_RANGE,
    TrackingModel,
    tracking_model_2d,
)
from .tracksim import DEFAULT_HORIZON, DEFAULT_X0, FailureWindow, LossWindow, ScenarioSpec


class ConfigError(ValueError):
    """Malformed configuration file."""


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split()])
    except ValueError as exc:
        raise ConfigError(f"bad vector {text!r}") from exc


def _parse_matrix(text: str) -> np.ndarray:
    rows = [r.strip() for r in text.split(";") if r.strip()]
    mat = [_parse_vector(r) for r in rows]
    if len({len(r) for r in mat}) != 1:
        raise ConfigError(f"ragged matrix {text!r}")
    return np.array(mat)


def _parse_entries(text: str) -> list[list[float]]:
    return [list(_parse_vector(part)) for part in text.split(";") if part.strip()]


DEFAULT_TRUTH_NOISE_SCALE = 1e-4
# every section and key _config_from reads (configparser lower-cases keys)
CONFIG_KEYS = {
    "model": ("sigma_angle", "sigma_range", "range_max", "a", "q"),
    "simulation": ("horizon", "x0", "truth_noise_scale"),
    "scenario": ("failures", "losses"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a benchmark run needs beyond its CLI flags.

    ``truth_noise_scale`` multiplies the process covariance when rolling
    out ground truth, keeping trajectories smooth and inside the range
    sensor's value space; every filter still assumes the unscaled
    covariance. Set it to 1 to generate truth from the filters' model.
    """

    model: TrackingModel
    x0: np.ndarray = field(default_factory=lambda: DEFAULT_X0.copy())
    horizon: int = DEFAULT_HORIZON
    truth_noise_scale: float = DEFAULT_TRUTH_NOISE_SCALE
    scenario: ScenarioSpec | None = None  # used in place of a built-in scenario, never beside one

    def truth_transition(self):
        """Transition used to roll out ground truth."""
        base = self.model.transition
        if self.truth_noise_scale == 1.0:
            return base
        return type(base)(base.A, base.Q * self.truth_noise_scale)


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
    model_sec = parser["model"] if parser.has_section("model") else {}
    try:
        sigma_angle = float(model_sec.get("sigma_angle", DEFAULT_SIGMA_ANGLE))
        sigma_range = float(model_sec.get("sigma_range", DEFAULT_SIGMA_RANGE))
        range_max = float(model_sec.get("range_max", DEFAULT_RANGE_MAX))
    except ValueError as exc:
        raise ConfigError(f"bad numeric value in [model]: {exc}") from exc
    a = _parse_matrix(model_sec["a"]) if "a" in model_sec else None
    q = _parse_matrix(model_sec["q"]) if "q" in model_sec else None
    try:
        model = tracking_model_2d(sigma_angle, sigma_range, range_max, A=a, Q=q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    sim_sec = parser["simulation"] if parser.has_section("simulation") else {}
    try:
        horizon = int(sim_sec.get("horizon", DEFAULT_HORIZON))
        truth_noise_scale = float(sim_sec.get("truth_noise_scale", DEFAULT_TRUTH_NOISE_SCALE))
    except ValueError as exc:
        raise ConfigError(f"bad [simulation] value: {exc}") from exc
    if not 0.0 <= truth_noise_scale < np.inf:
        raise ConfigError(f"truth_noise_scale must be finite and >= 0, got {truth_noise_scale}")
    x0 = _parse_vector(sim_sec["x0"]) if "x0" in sim_sec else DEFAULT_X0.copy()
    if x0.shape != (model.transition.dim,):
        raise ConfigError(f"x0 must have {model.transition.dim} entries")
    if not np.all(np.isfinite(x0)):
        raise ConfigError(f"x0 must be finite, got {sim_sec['x0']!r}")

    scenario = None
    if parser.has_section("scenario"):
        sec = parser["scenario"]
        try:
            failures = tuple(
                FailureWindow(int(e[0]), int(e[1]), int(e[2]), float(e[3]))
                for e in _parse_entries(sec.get("failures", ""))
            )
            losses = tuple(
                LossWindow(int(e[0]), int(e[1]), int(e[2]))
                for e in _parse_entries(sec.get("losses", ""))
            )
            scenario = ScenarioSpec(horizon, failures, losses)
        except (ValueError, IndexError, OverflowError) as exc:
            raise ConfigError(f"bad [scenario] section: {exc}") from exc

    return ExperimentConfig(model=model, x0=x0, horizon=horizon,
                            truth_noise_scale=truth_noise_scale, scenario=scenario)
