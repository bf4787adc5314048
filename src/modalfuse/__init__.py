"""Robust multi-modal state estimation under unexpected modality failures.

A sequential Monte Carlo library built around dynamic model averaging:
every combination of per-modality "useful / useless" hypotheses defines
one candidate likelihood, a particle filter tracks the state under all
of them at once, and a recursively updated posterior over the
candidates decides how the modalities are fused at each step. Includes
the plain-PF / static-averaging / two-stage baselines, a 2D tracking
simulator with scripted sensor failures, and a benchmark harness.
"""

from .baselines import (
    SmaState,
    TsState,
    init_sma,
    init_ts,
    pf_step,
    sma_step,
    ts_step,
)
from .bench import (
    GaussianPrior,
    RunResult,
    init_prior,
    make_dataset,
    per_step_error,
    rmse,
    run_experiment,
    run_filter,
    run_table1,
    stream_rng,
)
from .config import ConfigError, ExperimentConfig, default_config, load_config
from .diagnostics import RunTrace
from .dma import (
    DmaState,
    ModelPosterior,
    ModelUpdateDegenerate,
    candidate_reweight,
    dma_step,
    enumerate_candidates,
    init_dma,
    modality_logliks,
    update_model_posterior,
)
from .particles import (
    ParticleSet,
    estimate_mean,
    init_particles,
    logsumexp,
    propagate,
    residual_resample,
)
from .ssm import (
    AngleModality,
    LinearGaussianTransition,
    ModalityObservation,
    ObservationFrame,
    RangeModality,
    TrackingModel,
    tracking_model_2d,
    wrap_angle,
)
from .tracksim import (
    DEFAULT_X0,
    FailureWindow,
    GroundTruthRun,
    LossWindow,
    ObservationStatus,
    ScenarioSpec,
    builtin_scenario,
    generate_run,
    observe,
    simulate_truth,
)

__version__ = "0.1.0"
