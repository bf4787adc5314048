"""Benchmark harness: Monte Carlo experiments, RMSE tables, CSV output.

Every run r of an experiment derives three independent random streams
from ``(master_seed, r)``: one for the dataset, one for the initial
particle set, one for the filter itself. Dataset and initial particles
are functions of ``(master_seed, r)`` only -- never of the algorithm --
so all algorithms are evaluated on identical data from identical
starting particles, and cross-algorithm RMSE comparisons are
seed-shared. ``run_table1`` holds this by construction: it builds each
run's dataset and initial particle set once and steps all four filters
on them, each from a fresh filter stream.

Usage from a shell (installed as ``bench``)::

    bench --algorithm dma --scenario 2 --particles 10000 --runs 100 \
          --seed 1 --out results/
    bench table1 --particles 10000 --runs 100 --seed 1 --out results/

Wall-clock time covers filter stepping only, excluding data generation
and I/O.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import baselines, dma
from .config import ConfigError, ExperimentConfig, default_config, load_config
from .diagnostics import RunTrace
from .particles import _check_particle_set, init_particles
from .tracksim import GroundTruthRun, ScenarioSpec, builtin_scenario, generate_run

ALGORITHMS = ("pf", "ts", "sma", "dma")
PRIOR_MODES = ("accurate", "biased")
RMSE_MODES = ("full", "position")

# stream labels for the (master_seed, run, stream) splitting rule
STREAM_DATA = 0
STREAM_INIT = 1
STREAM_FILTER = 2

PRIOR_COV_DIAG = np.array([1.0, 1.0, 10.0, 10.0])
# ~32 sigma of the d_y prior: far outside the initial particle support,
# yet small enough that the bearing stays within ~2 sigma of its noise,
# which keeps recovery by process-noise diffusion feasible
BIAS_OFFSET = np.array([0.0, 0.0, 0.0, 100.0])

# position offsets live in state components 2 and 3
POSITION_SLICE = slice(2, 4)


def stream_rng(master_seed: int, run_index: int, stream: int) -> np.random.Generator:
    """The documented splitting rule: SeedSequence(master_seed, spawn_key=(run, stream))."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(run_index, stream)))


@dataclass(frozen=True)
class GaussianPrior:
    """Diagonal-Gaussian prior sampler usable with init_particles."""

    mean: np.ndarray
    cov_diag: np.ndarray

    def __call__(self, n, rng):
        mean = np.asarray(self.mean, dtype=float)
        scale = np.sqrt(np.asarray(self.cov_diag, dtype=float))
        return mean + rng.standard_normal((n, mean.shape[0])) * scale


def init_prior(mode: str, x0_true) -> GaussianPrior:
    """Initial-particle prior: 'accurate' centres on the true initial
    state, 'biased' shifts the mean by BIAS_OFFSET (+100 in d_y); both
    use covariance diag(1, 1, 10, 10)."""
    x0_true = np.asarray(x0_true, dtype=float)
    if mode == "accurate":
        return GaussianPrior(x0_true, PRIOR_COV_DIAG)
    if mode == "biased":
        return GaussianPrior(x0_true + BIAS_OFFSET, PRIOR_COV_DIAG)
    raise ValueError(f"unknown prior mode {mode!r}")


def per_step_error(estimates, truth, mode: str = "full") -> np.ndarray:
    """Euclidean error per step, over the full state or position only."""
    estimates = np.asarray(estimates, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimates.shape != truth.shape:
        raise ValueError("estimate and truth trajectories must have equal shapes")
    diff = estimates - truth
    if mode == "position":
        diff = diff[:, POSITION_SLICE]
    elif mode != "full":
        raise ValueError(f"unknown rmse mode {mode!r}")
    return np.sqrt(np.sum(diff * diff, axis=1))


def rmse(estimates, truth, mode: str = "full") -> float:
    """Root mean squared Euclidean error over a trajectory."""
    err = per_step_error(estimates, truth, mode)
    return float(np.sqrt(np.mean(err * err)))


def _check_readings(frames, models) -> None:
    """Reject a frame whose reading count differs from the model's, and
    any present reading outside its modality's value space, naming the
    step (and the modality, the value and the space)."""
    spaces = [m.value_space for m in models]
    for frame in frames:
        if len(frame.observations) != len(spaces):
            raise ValueError(f"step {frame.time_index}: frame has {len(frame.observations)} "
                             f"modality readings, model has {len(spaces)}")
        for i, (obs, (low, high)) in enumerate(zip(frame.observations, spaces)):
            if obs.present and not low <= obs.value <= high:
                raise ValueError(
                    f"step {frame.time_index}: modality {i} reading {obs.value!r} "
                    f"lies outside its value space [{low}, {high}]"
                )


def _init_pf(particles, n_modalities):
    """PF's state is its particle set, checked as ``init_*`` check theirs."""
    _check_particle_set(particles)
    return particles


def run_filter(algorithm: str, frames, particles0, transition, models, rng):
    """Step one filter over all frames; returns (estimates, trace)."""
    # built per call, so a step function patched on its module takes effect
    filters = {
        "pf": (_init_pf, baselines.pf_step),
        "sma": (lambda p, n: baselines.init_sma(p, n, rng), baselines.sma_step),
        "ts": (baselines.init_ts, baselines.ts_step),
        "dma": (dma.init_dma, dma.dma_step),
    }
    if algorithm not in filters:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    init, step = filters[algorithm]
    _check_readings(frames, models)
    state = init(particles0, len(models))
    trace = RunTrace()
    estimates = np.empty((len(frames), particles0.dim))
    for k, frame in enumerate(frames):
        state, estimates[k] = step(state, frame, transition, models, rng, trace=trace)[:2]
    return estimates, trace


@dataclass
class RunResult:
    """Outcome of one filter run on one generated dataset."""

    algorithm: str
    scenario: str
    run_index: int
    rmse: float
    per_step_error: np.ndarray          # (T,)
    wall_time_seconds: float
    estimates: np.ndarray               # (T, d)
    weight_trace: np.ndarray | None     # (T, M) candidate posteriors or (T, n) alphas
    n_flagged_steps: int


@dataclass
class ExperimentResult:
    """One algorithm's Monte Carlo batch on one scenario: its runs and their statistics."""

    algorithm: str
    scenario: str
    n_particles: int
    runs: int
    mean_rmse: float
    var_rmse: float
    mean_time: float
    var_time: float
    results: list[RunResult]


def make_dataset(spec: ScenarioSpec, cfg: ExperimentConfig, master_seed: int, run_index: int) -> GroundTruthRun:
    """The dataset for run r -- a function of (master_seed, r) only."""
    rng = stream_rng(master_seed, run_index, STREAM_DATA)
    return generate_run(spec, cfg.x0, cfg.truth_transition(), cfg.model.modalities, rng)


def _single_run(algorithms, spec, cfg, n_particles, master_seed, prior, rmse_mode, outdir, run_index):
    dataset = make_dataset(spec, cfg, master_seed, run_index)
    particles0 = init_particles(prior, n_particles, stream_rng(master_seed, run_index, STREAM_INIT))
    results = []
    for algorithm in algorithms:
        filter_rng = stream_rng(master_seed, run_index, STREAM_FILTER)
        start = time.perf_counter()
        estimates, trace = run_filter(
            algorithm, dataset.frames, particles0, cfg.model.transition, cfg.model.modalities, filter_rng
        )
        elapsed = time.perf_counter() - start
        err = per_step_error(estimates, dataset.states, rmse_mode)
        result = RunResult(
            algorithm=algorithm,
            scenario=spec.label,
            run_index=run_index,
            rmse=float(np.sqrt(np.mean(err * err))),
            per_step_error=err,
            wall_time_seconds=elapsed,
            estimates=estimates,
            weight_trace=trace.weight_matrix(),
            n_flagged_steps=trace.n_flagged,
        )
        if outdir is not None:
            _write_run_files(outdir, result, dataset)
        results.append(result)
    return results


def _resolve_scenario(scenario, cfg: ExperimentConfig) -> ScenarioSpec:
    if cfg.scenario is not None:
        if scenario != cfg.scenario:
            raise ValueError(f"scenario {scenario!r} and the config's [scenario] section "
                             "both give the scenario; give one of them")
        return cfg.scenario
    if isinstance(scenario, ScenarioSpec):
        return scenario
    spec = builtin_scenario(int(scenario))
    if spec.horizon != cfg.horizon:
        spec = ScenarioSpec(cfg.horizon, spec.failure_windows, spec.loss_windows, spec.label)
    return spec


def run_experiment(
    algorithm: str,
    scenario,
    n_particles: int,
    runs: int,
    master_seed: int,
    prior: str = "accurate",
    rmse_mode: str = "full",
    config: ExperimentConfig | None = None,
    jobs: int = 1,
    outdir=None,
) -> ExperimentResult:
    """Monte Carlo batch of one algorithm on one scenario.

    ``scenario`` is a built-in index (1-4) or a ScenarioSpec; with a
    config that holds a [scenario] section, pass that section's spec or
    nothing else. Runs may execute in parallel, in min(jobs, runs, CPUs)
    worker processes; results are reduced in run order, so the output is
    independent of the schedule.
    Degenerate steps inside a run are flagged and counted, never fatal.

    With ``outdir`` set, each run writes its weights, trajectory and
    replayable dataset files there as it finishes, from the dataset it
    built, and the batch then writes runs.csv and summary.csv.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    [experiment] = _run_batch((algorithm,), scenario, n_particles, runs, master_seed,
                              prior, rmse_mode, config, jobs, outdir)
    if outdir is not None:
        _write_runs(Path(outdir) / "runs.csv", experiment.results)
        write_summary(Path(outdir) / "summary.csv", [experiment])
    return experiment


def _run_batch(algorithms, scenario, n_particles, runs, master_seed, prior, rmse_mode, config, jobs, outdir=None):
    """One ExperimentResult per algorithm, in order; ``outdir`` takes one algorithm's run files."""
    if n_particles < 1 or runs < 1:
        raise ValueError("particles and runs must be >= 1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if rmse_mode not in RMSE_MODES:
        raise ValueError(f"unknown rmse mode {rmse_mode!r}")
    cfg = config or default_config()
    prior = init_prior(prior, cfg.x0)
    spec = _resolve_scenario(scenario, cfg)
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
    run = partial(_single_run, algorithms, spec, cfg, n_particles, master_seed, prior, rmse_mode, outdir)
    if jobs > 1:
        # a forking pool starts all its workers at once, so no more than runs or CPUs
        with ProcessPoolExecutor(max_workers=min(jobs, runs, os.cpu_count() or 1)) as pool:
            per_run = list(pool.map(run, range(runs)))
    else:
        per_run = [run(r) for r in range(runs)]
    experiments = []
    for algorithm, results in zip(algorithms, zip(*per_run)):
        rmses = np.array([r.rmse for r in results])
        times = np.array([r.wall_time_seconds for r in results])
        experiments.append(ExperimentResult(
            algorithm=algorithm,
            scenario=spec.label,
            n_particles=n_particles,
            runs=runs,
            mean_rmse=float(rmses.mean()),
            var_rmse=float(rmses.var(ddof=1)) if runs > 1 else 0.0,
            mean_time=float(times.mean()),
            var_time=float(times.var(ddof=1)) if runs > 1 else 0.0,
            results=list(results),
        ))
    return experiments


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return repr(float(x))


def _weight_header(algorithm: str, k: int) -> list[str]:
    if algorithm == "dma":
        n = int(np.log2(k))
        return ["pi_" + dma.candidate_label(bits) for bits in dma.enumerate_candidates(n)]
    return [f"alpha_{i}" for i in range(k)]


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_summary(path, experiments: list[ExperimentResult]) -> None:
    _write_csv(path, ["algorithm", "scenario", "particles", "runs", "mean_rmse", "var_rmse", "mean_time", "var_time"],
               ([s.algorithm, s.scenario, s.n_particles, s.runs,
                 _fmt(s.mean_rmse), _fmt(s.var_rmse), _fmt(s.mean_time), _fmt(s.var_time)] for s in experiments))


def _write_runs(path, results: list[RunResult]) -> None:
    _write_csv(path, ["algorithm", "scenario", "run", "rmse", "wall_time_seconds", "n_flagged_steps"],
               ([r.algorithm, r.scenario, r.run_index, _fmt(r.rmse), _fmt(r.wall_time_seconds), r.n_flagged_steps]
                for r in results))


def _write_run_files(outdir: Path, r: RunResult, ds: GroundTruthRun) -> None:
    """weights_<r>.csv (when the run has a weight trace), trajectory_<r>.csv
    and the replayable dataset_<r>.ndjson of one finished run."""
    if r.weight_trace is not None:
        _write_csv(outdir / f"weights_{r.run_index}.csv",
                   ["t"] + _weight_header(r.algorithm, r.weight_trace.shape[1]),
                   ([k] + [_fmt(v) for v in row] for k, row in enumerate(r.weight_trace, start=1)))
    dim = ds.states.shape[1]
    _write_csv(outdir / f"trajectory_{r.run_index}.csv",
               ["t"] + [f"truth_{i}" for i in range(dim)] + [f"est_{i}" for i in range(dim)] + ["err"],
               ([k] + [_fmt(v) for v in (*truth, *est, err)]
                for k, (truth, est, err) in enumerate(zip(ds.states, r.estimates, r.per_step_error), start=1)))
    ds.save(outdir / f"dataset_{r.run_index}.ndjson")


# ---------------------------------------------------------------------------
# Table-style grid over all algorithms and scenarios
# ---------------------------------------------------------------------------

def run_table1(n_particles, runs, master_seed, config=None, rmse_mode="full",
               jobs=1, scenarios=(1, 2, 3, 4), progress=None):
    """All algorithms x the given scenarios, one batch each: {(algorithm, scenario): ExperimentResult}."""
    grid = {}
    for k in scenarios:
        for e in _run_batch(ALGORITHMS, k, n_particles, runs, master_seed, "accurate", rmse_mode, config, jobs):
            grid[(e.algorithm, k)] = e
            if progress is not None:
                progress(e.algorithm, k, e)
    return grid


def format_table1(grid) -> str:
    """Text grid: mean RMSE (variance) per scenario in the grid, then averages and timing."""
    scenarios = list(dict.fromkeys(k for _, k in grid))
    lines = [f"{'':<34}" + "".join(f"{a.upper():>22}" for a in ALGORITHMS)]
    mean_by_alg = {a: [] for a in ALGORITHMS}
    for k in scenarios:
        cells = []
        for a in ALGORITHMS:
            s = grid[(a, k)]
            mean_by_alg[a].append(s.mean_rmse)
            cells.append(f"{s.mean_rmse:.2f} ({s.var_rmse:.3f})")
        lines.append(f"{'Scenario ' + str(k):<34}" + "".join(f"{c:>22}" for c in cells))
    avg_cells = [f"{np.mean(mean_by_alg[a]):.2f}" for a in ALGORITHMS]
    lines.append(f"{'averaged over scenarios':<34}" + "".join(f"{c:>22}" for c in avg_cells))
    time_cells = [f"{np.mean([grid[(a, k)].mean_time for k in scenarios]):.3f}" for a in ALGORITHMS]
    lines.append(f"{'computing time per run (s)':<34}" + "".join(f"{c:>22}" for c in time_cells))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Monte Carlo benchmark for multi-modal fusion filters.",
    )
    parser.add_argument("command", nargs="?", default="run", choices=("run", "table1"),
                        help="'run' (default): one algorithm on one scenario; "
                             "'table1': all algorithms on all four scenarios")
    parser.add_argument("--algorithm", choices=ALGORITHMS, help="filter to benchmark")
    parser.add_argument("--scenario", type=int, choices=(1, 2, 3, 4), help="built-in scenario")
    parser.add_argument("--particles", type=int, default=10000, help="particle count N")
    parser.add_argument("--runs", type=int, default=100, help="independent Monte Carlo runs")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--prior", choices=PRIOR_MODES, default="accurate",
                        help="initial-particle prior placement")
    parser.add_argument("--rmse", choices=RMSE_MODES, default="full",
                        help="error over the full state or position only")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--config", help="key-value config file (model/simulation/scenario)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes (at most one per run and per CPU)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config()
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "table1":
            if cfg.scenario is not None:
                print("error: table1 runs the four built-in scenarios; "
                      "remove the [scenario] config section", file=sys.stderr)
                return 2

            def progress(a, k, s):
                print(f"scenario {k} {a:>4}: mean RMSE {s.mean_rmse:10.3f}  "
                      f"mean time {s.mean_time:8.3f}s", flush=True)
            grid = run_table1(args.particles, args.runs, args.seed, config=cfg,
                              rmse_mode=args.rmse, jobs=args.jobs, progress=progress)
            write_summary(outdir / "summary.csv", list(grid.values()))
            print(format_table1(grid))
            return 0
        if args.algorithm is None or (args.scenario is None and cfg.scenario is None):
            print("error: --algorithm and --scenario are required "
                  "(a [scenario] config section takes the place of --scenario)", file=sys.stderr)
            return 2
        s = run_experiment(
            args.algorithm, args.scenario if args.scenario is not None else cfg.scenario,
            args.particles, args.runs, args.seed,
            prior=args.prior, rmse_mode=args.rmse, config=cfg, jobs=args.jobs, outdir=outdir,
        )
        print(f"{s.algorithm} scenario {s.scenario}: mean RMSE {s.mean_rmse:.3f} "
              f"(var {s.var_rmse:.3f}), mean time {s.mean_time:.3f}s over {s.runs} runs")
        return 0
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
