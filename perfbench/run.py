"""modalfuse benchmark: full-horizon filter runs, timed from outside the library.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload track-n10k --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout and driven only
through its public functions (``make_dataset``, ``GroundTruthRun.save``
/ ``load``, ``init_particles``, ``bench.run_filter`` and, for the
equivalence oracle, ``init_dma`` / ``dma_step`` / ``pf_step``).

``--trace 0`` times each algorithm's 300-step ``run_filter`` call with
nothing patched and reports the end-to-end metrics: the median run time
of each algorithm and of set-up, corrected for the machine's speed at
the time (see ``speed_probe``), and the process's peak resident memory. ``--trace 1``
alternates untraced runs with runs traced layer by layer (see
``tracer.py``) and reports the per-layer metrics, filter health and the
tracing overhead. Either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it record the environment and per-metric details. The exit
code is 0 only when every operation passed its correctness check.

An operation is one filter run (warm-up runs excluded) or one oracle
check. A run fails when it raises, returns estimates that are not
finite or not shaped (T, d), or differs bit for bit from an earlier run
of the same algorithm on the same dataset and random stream.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer as tracer_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ALGORITHMS = ("pf", "ts", "sma", "dma")
SETUP_REPEATS = 9
WARMUP_STEPS = 20
# the paper's headline: DMA's mean RMSE beats PF's by at least this factor
# on the workloads whose failures PF cannot reject. The lowest PF/DMA ratio
# of the mean RMSEs seen was 1.98 over 120 seeds of track-n10k and 8.35
# over 40 seeds of wide-6mod.
GATE_FACTOR = 1.5

END_TO_END = [(f"{a}_run_s", "s") for a in ALGORITHMS] + [("setup_s", "s"), ("peak_rss_mb", "MB")]

# Per-layer times are per filter step: a span's self time summed over the
# traced runs of the listed algorithms, divided by those runs' step count.
# (span, algorithms)
PER_STEP_SELF = [
    ("ssm.transition_sample", ALGORITHMS),
    ("ssm.loglik", ALGORITHMS),
    ("particles.propagate", ALGORITHMS),
    ("particles.reweight", ALGORITHMS),
    ("particles.residual_resample", ALGORITHMS),
    ("particles.estimate_mean", ALGORITHMS),
    ("dma.candidate_loglik_matrix", ("dma",)),
    ("dma.candidate_reweight", ("dma",)),
    ("dma.update_model_posterior", ("dma",)),
    ("dma.dma_step", ("dma",)),
    ("baselines.pf_step", ("pf",)),
    ("baselines.ts_step", ("ts",)),
    ("baselines.sma_step", ("sma",)),
    ("bench.run_filter", ALGORITHMS),
    ("diagnostics.RunTrace.record", ALGORITHMS),
]
# (span, algorithm, percentiles of its per-call duration)
STEP_LATENCY = [("dma.dma_step", "dma", (50, 99)), ("baselines.pf_step", "pf", (99,)),
                ("baselines.ts_step", "ts", (99,)), ("baselines.sma_step", "sma", (99,))]
TRACKSIM_SPANS = ("tracksim.generate_run", "tracksim.save", "tracksim.load")


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every metric ``--trace 1`` prints, with its unit."""
    out = [(f"{name}.self_ms", "ms") for name, _ in PER_STEP_SELF]
    out += [("ssm.loglik.calls", "count"), ("particles.ParticleSet.builds", "count"),
            ("particles.ParticleSet.build_ms", "ms")]
    out += [(f"{name}.p{q}_ms", "ms") for name, _, qs in STEP_LATENCY for q in qs]
    out += [("dma.candidates", "count"), ("dma.candidate_matrix.computed_bytes", "bytes")]
    out += [(f"{name}.ms", "ms") for name in TRACKSIM_SPANS] + [("tracksim.ndjson_bytes", "bytes")]
    for a in ALGORITHMS:
        out += [(f"health.{a}.ess_frac.mean", "ratio"), (f"health.{a}.ess_frac.min", "ratio"),
                (f"health.{a}.unique_frac.mean", "ratio")]
    out += [("health.weight_collapse", "count"), ("health.model_update_degenerate", "count")]
    for a in ALGORITHMS:
        out += [(f"trace_overhead.{a}_run_s.untraced", "s"), (f"trace_overhead.{a}_run_s.traced", "s"),
                (f"trace_overhead.{a}_run_s.diff", "s")]
    return out


def import_modalfuse():
    """Import modalfuse from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "modalfuse" / "__init__.py").is_file():
        raise SystemExit(f"error: no modalfuse sources under {src}")
    sys.path.insert(0, str(src))
    import modalfuse
    if src not in Path(modalfuse.__file__).resolve().parents:
        raise SystemExit(f"error: modalfuse was imported from {modalfuse.__file__}, not {src}")
    return modalfuse


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    n_particles: int
    n_datasets: int
    kind: str            # "builtin2", "builtin4" or "wide6"
    replay: bool         # NDJSON round trip of every dataset inside set-up
    gate: bool           # DMA must beat PF's mean RMSE by GATE_FACTOR
    probe_s: float       # speed_probe time in the machine's fast state, see below


# Each workload stresses a different layer (BENCHMARK.json says why):
# track-n10k the particle kernels, replay-n1k the fixed per-step overhead
# and tracksim I/O, wide-6mod the 2^n candidate work of DMA.
WORKLOADS = {
    w.name: w for w in (
        Workload("track-n10k", 10_000, 3, "builtin2", replay=False, gate=True, probe_s=0.068),
        Workload("replay-n1k", 1_000, 10, "builtin4", replay=True, gate=False, probe_s=0.0127),
        Workload("wide-6mod", 2_000, 3, "wide6", replay=False, gate=True, probe_s=0.074),
    )
}


def build_config(mf, kind: str):
    """(ScenarioSpec, ExperimentConfig) of a workload."""
    if kind == "builtin2":
        return mf.builtin_scenario(2), mf.default_config()
    if kind == "builtin4":
        return mf.builtin_scenario(4), mf.default_config()
    if kind == "wide6":
        base = mf.tracking_model_2d()
        model = mf.TrackingModel(base.transition, base.modalities * 3)
        spec = mf.ScenarioSpec(
            failure_windows=tuple(mf.FailureWindow(i, 150 + 20 * i, 164 + 20 * i, 1.0) for i in range(6)),
            label="wide-6mod",
        )
        return spec, mf.ExperimentConfig(model=model, scenario=spec)
    raise ValueError(f"unknown workload kind {kind!r}")


def n_candidates(mf, wl: Workload) -> int:
    return 2 ** len(build_config(mf, wl.kind)[1].model.modalities)


@dataclass
class Inputs:
    cfg: object
    datasets: list
    particles: list
    ndjson_bytes: list


def set_up(mf, wl: Workload, seed: int, tmpdir: Path, replay: bool) -> Inputs:
    """Build the model, the datasets and the initial particle sets."""
    spec, cfg = build_config(mf, wl.kind)
    prior = mf.init_prior("accurate", cfg.x0)
    datasets, particles, sizes = [], [], []
    for k in range(wl.n_datasets):
        ds = mf.make_dataset(spec, cfg, seed, k)
        if replay:
            path = tmpdir / f"dataset_{k}.ndjson"
            ds.save(path)
            ds = mf.GroundTruthRun.load(path)
            sizes.append(path.stat().st_size)
        datasets.append(ds)
        rng = mf.stream_rng(seed, k, mf.bench.STREAM_INIT)
        particles.append(mf.init_particles(prior, wl.n_particles, rng))
    return Inputs(cfg, datasets, particles, sizes)


def same_dataset(a, b) -> bool:
    return (np.array_equal(a.states, b.states) and np.array_equal(a.failure_log, b.failure_log)
            and [[o.value for o in f.observations] for f in a.frames]
            == [[o.value for o in f.observations] for f in b.frames])


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------

class Ledger:
    """Counts operations and failures; remembers each run's output digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[tuple[str, int], str] = {}
        self.rmse: dict[tuple[str, int], float] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def check_run(self, mf, alg: str, k: int, estimates, inputs: Inputs) -> None:
        self.attempted += 1
        ds = inputs.datasets[k]
        shape = (ds.horizon, inputs.particles[k].dim)
        if estimates is None:
            return self.fail(f"{alg} on dataset {k} raised")
        if estimates.shape != shape or not np.all(np.isfinite(estimates)):
            return self.fail(f"{alg} on dataset {k}: estimates not finite or not shaped {shape}")
        digest = hashlib.blake2b(estimates.tobytes(), digest_size=16).hexdigest()
        if self.digests.setdefault((alg, k), digest) != digest:
            return self.fail(f"{alg} on dataset {k}: output differs from an identical earlier run")
        self.rmse[(alg, k)] = mf.rmse(estimates, ds.states)


def filter_run(mf, alg: str, k: int, inputs: Inputs, seed: int, frames=None):
    """A callable making one run_filter call; it returns the estimates, or None if the call raised."""
    model = inputs.cfg.model
    rng = mf.stream_rng(seed, k, mf.bench.STREAM_FILTER)
    frames = inputs.datasets[k].frames if frames is None else frames

    def call():
        try:
            return mf.bench.run_filter(alg, frames, inputs.particles[k], model.transition,
                                       model.modalities, rng)[0]
        except Exception:
            traceback.print_exc()
            return None
    return call


def oracle_a9(mf, inputs: Inputs, seed: int, ledger: Ledger) -> None:
    """DMA restricted to the all-ones candidate must equal PF bit for bit."""
    ledger.attempted += 1
    model = inputs.cfg.model
    p0 = inputs.particles[0]
    rng_pf, rng_dma = (mf.stream_rng(seed, 0, mf.bench.STREAM_FILTER) for _ in range(2))
    pf_state = p0
    dma_state = mf.init_dma(p0, candidates=np.ones((1, len(model.modalities)), dtype=np.int64))
    for frame in inputs.datasets[0].frames:
        pf_state, pf_est = mf.pf_step(pf_state, frame, model.transition, model.modalities, rng_pf)
        dma_state, dma_est, _ = mf.dma_step(dma_state, frame, model.transition, model.modalities, rng_dma)
        if not np.array_equal(pf_est, dma_est):
            return ledger.fail(f"A9 oracle: single-candidate DMA differs from PF at t={frame.time_index}")


def rmse_gate(wl: Workload, ledger: Ledger) -> dict:
    ks = range(wl.n_datasets)
    mean = {a: float(np.mean([ledger.rmse[(a, k)] for k in ks])) if all((a, k) in ledger.rmse for k in ks)
            else float("nan") for a in ALGORITHMS}
    ok = True
    if wl.gate:
        ok = bool(mean["dma"] * GATE_FACTOR < mean["pf"])
        if not ok:
            print(f"FAILED: DMA mean RMSE {mean['dma']:.2f} does not beat PF {mean['pf']:.2f} "
                  f"by a factor {GATE_FACTOR}", file=sys.stderr)
    return {"mean_rmse": mean, "gate_factor": GATE_FACTOR if wl.gate else None, "passed": ok}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(values) -> tuple[float | None, float | None]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    for q in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - q / 100) >= 10:
            return q, float(np.percentile(values, q))
    return None, None


def summary(values) -> dict:
    q, v = tail_percentile(values)
    return {"min": float(min(values)), "median": float(statistics.median(values)), "n": len(values),
            "tail_percentile": q, "tail_value": v}


def environment(mf, wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    spec, cfg = build_config(mf, wl.kind)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset")
                         for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "workload": wl.name,
        "N": wl.n_particles,
        "M": n_candidates(mf, wl),
        "n_modalities": len(cfg.model.modalities),
        "d": cfg.model.transition.dim,
        "T": spec.horizon,
        "datasets": wl.n_datasets,
    }


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

# Machine-speed correction. On a shared 2-core Xeon VM the machine switches,
# for seconds at a time, between a fast state and one about 1.7x slower, and
# its fast state drifts by ~15% over minutes; medians of raw wall time over
# 30 s runs spread by 27-42% from run to run, minima by up to 27%. So every
# timed call is bracketed by speed_probe, a fixed kernel that shares no code
# with modalfuse, and is reported as
#     wall time / mean of the two bracketing probe times * Workload.probe_s,
# the call's wall time at the machine speed where the probe takes probe_s
# (its fast-state time on that VM). Raw wall times go to the detail line.
PROBE_STEPS = 30
PROBE_A = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [1.0, 0, 1.0, 0], [0, 1.0, 0, 1.0]])


def speed_probe(n: int, m: int) -> float:
    """Seconds taken by PROBE_STEPS steps of a frozen filter-like kernel: n particles, m candidates."""
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, (m, 2)).astype(float)
    start = time.perf_counter()
    x = rng.standard_normal((n, 4)) * 10.0 + 200.0
    lw = np.full(n, -np.log(n))
    for _ in range(PROBE_STEPS):
        x = x @ PROBE_A.T + rng.standard_normal(x.shape)
        ll = np.stack([-0.5 * (np.hypot(x[:, 2], x[:, 3]) - 283.0) ** 2,
                       -0.5 * (np.arctan(x[:, 2] / x[:, 3]) - 0.785) ** 2])
        cand = lw + bits @ ll
        for j in range(m):
            top = cand[j].max()
            cand[j] -= top + np.log(np.sum(np.exp(cand[j] - top)))
        top = cand.max(axis=0)
        mix = top + np.log(np.sum(np.exp(cand - top), axis=0))
        w = np.exp(mix - mix.max())
        w /= w.sum()
        counts = np.floor(n * w).astype(np.int64)
        counts += rng.multinomial(n - int(counts.sum()), np.full(n, 1.0 / n))
        x = x[np.repeat(np.arange(n), counts)]
    return time.perf_counter() - start


class Clock:
    """Times calls between speed probes; keeps raw and speed-corrected seconds."""

    def __init__(self, wl: Workload, n_candidates: int):
        self.probe = lambda: speed_probe(wl.n_particles, n_candidates)
        self.probe_s = wl.probe_s
        self.last_probe = self.probe()
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.probes = [self.last_probe]

    def time(self, name: str, fn):
        start = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - start
        probe = self.probe()
        self.probes.append(probe)
        self.raw.setdefault(name, []).append(dt)
        self.scaled.setdefault(name, []).append(dt / ((self.last_probe + probe) / 2) * self.probe_s)
        self.last_probe = probe
        return out

    def median(self, name: str) -> float:
        return statistics.median(self.scaled[name]) if self.scaled.get(name) else float("nan")

    def detail(self) -> dict:
        out = {name: {"speed_corrected": summary(self.scaled[name]), "raw": summary(raw)}
               for name, raw in self.raw.items()}
        out["speed_probe_s"] = summary(self.probes)
        return out


def rounds(n_datasets: int, seconds: float):
    """Yield (round, dataset, algorithm order) until time is up and every dataset was run."""
    deadline = time.perf_counter() + seconds
    r = 0
    while r < n_datasets or time.perf_counter() < deadline:
        yield r, r % n_datasets, ALGORITHMS[r % 4:] + ALGORITHMS[:r % 4]
        r += 1


def warm_up(mf, inputs: Inputs, seed: int) -> None:
    frames = inputs.datasets[0].frames[:WARMUP_STEPS]
    for alg in ALGORITHMS:
        filter_run(mf, alg, 0, inputs, seed, frames)()


def measure_end_to_end(mf, wl: Workload, seed: int, seconds: float, tmpdir: Path, ledger: Ledger):
    clock = Clock(wl, n_candidates(mf, wl))
    inputs = clock.time("setup_s", lambda: set_up(mf, wl, seed, tmpdir, wl.replay))
    if wl.replay:
        check_round_trip(mf, wl, seed, inputs, ledger)
    warm_up(mf, inputs, seed)
    for _, k, order in rounds(wl.n_datasets, seconds):
        # set-up repeats are spread over the run like the filter runs
        if len(clock.raw["setup_s"]) < SETUP_REPEATS:
            again = clock.time("setup_s", lambda: set_up(mf, wl, seed, tmpdir, wl.replay))
            if not all(same_dataset(a, b) for a, b in zip(inputs.datasets, again.datasets)):
                ledger.fail("set-up is not deterministic for a fixed seed")
        for alg in order:
            est = clock.time(f"{alg}_run_s", filter_run(mf, alg, k, inputs, seed))
            ledger.check_run(mf, alg, k, est, inputs)
    oracle_a9(mf, inputs, seed, ledger)
    metrics = {name: metric(clock.median(name), "s") for name, _ in END_TO_END if name in clock.raw}
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics, clock.detail()


def check_round_trip(mf, wl: Workload, seed: int, inputs: Inputs, ledger: Ledger) -> None:
    """The NDJSON round trip must reproduce the generated datasets exactly."""
    spec, cfg = build_config(mf, wl.kind)
    for k, ds in enumerate(inputs.datasets):
        if not same_dataset(ds, mf.make_dataset(spec, cfg, seed, k)):
            ledger.fail(f"NDJSON round trip changed dataset {k}")


class LayerTotals:
    """Per-algorithm sums over traced runs, folded in one run at a time."""

    def __init__(self):
        self.self_ns: dict[tuple[str, str], int] = {}
        self.calls: dict[tuple[str, str], int] = {}
        self.durations: dict[tuple[str, str], list[int]] = {}
        self.steps = {a: 0 for a in ALGORITHMS}

    def fold(self, alg: str, spans, steps: int) -> None:
        incl, self_ = tracer_mod.self_times(spans)
        self.steps[alg] += steps
        for i, rec in enumerate(spans):
            key = (alg, rec[tracer_mod.NAME])
            self.self_ns[key] = self.self_ns.get(key, 0) + int(self_[i])
            self.calls[key] = self.calls.get(key, 0) + 1
            self.durations.setdefault(key, []).append(int(incl[i]))

    def per_step(self, table: dict, name: str, algs) -> float:
        steps = sum(self.steps[a] for a in algs)
        return sum(table.get((a, name), 0) for a in algs) / steps if steps else float("nan")


def measure_layers(mf, wl: Workload, seed: int, seconds: float, tmpdir: Path, ledger: Ledger):
    tracer = tracer_mod.Tracer(mf)
    with tracer.installed(run_id=-1):
        inputs = set_up(mf, wl, seed, tmpdir, replay=True)
    setup_spans = tracer.take_spans()
    check_round_trip(mf, wl, seed, inputs, ledger)
    warm_up(mf, inputs, seed)

    totals = LayerTotals()
    clock = Clock(wl, n_candidates(mf, wl))
    first_pass: dict[str, list[int]] = {a: [] for a in ALGORITHMS}
    run_id = 0
    for r, k, order in rounds(wl.n_datasets, seconds):
        for alg in order:
            for traced in ((False, True) if r % 2 == 0 else (True, False)):
                call = filter_run(mf, alg, k, inputs, seed)
                if traced:
                    run_id += 1
                    with tracer.installed(run_id):
                        est = clock.time(f"{alg}_run_s.traced", call)
                    totals.fold(alg, tracer.take_spans(), inputs.datasets[k].horizon)
                    if r < wl.n_datasets:
                        first_pass[alg].append(run_id)
                else:
                    est = clock.time(f"{alg}_run_s.untraced", call)
                ledger.check_run(mf, alg, k, est, inputs)
    oracle_a9(mf, inputs, seed, ledger)
    leftovers = tracer_mod.leftover_wrappers()
    if leftovers:
        ledger.fail(f"tracer wrappers left installed: {leftovers}")

    m = {}
    for name, algs in PER_STEP_SELF:
        m[f"{name}.self_ms"] = totals.per_step(totals.self_ns, name, algs) / 1e6
    build = "particles.ParticleSet.build"
    m["ssm.loglik.calls"] = totals.per_step(totals.calls, "ssm.loglik", ALGORITHMS)
    m["particles.ParticleSet.builds"] = totals.per_step(totals.calls, build, ALGORITHMS)
    m["particles.ParticleSet.build_ms"] = totals.per_step(totals.self_ns, build, ALGORITHMS) / 1e6
    for name, alg, qs in STEP_LATENCY:
        durations = totals.durations.get((alg, name), [float("nan")])
        for q in qs:
            m[f"{name}.p{q}_ms"] = float(np.percentile(durations, q)) / 1e6
    m["dma.candidates"] = n_candidates(mf, wl)
    m["dma.candidate_matrix.computed_bytes"] = m["dma.candidates"] * wl.n_particles * 8
    incl, _ = tracer_mod.self_times(setup_spans)
    for name in TRACKSIM_SPANS:
        picked = [incl[i] for i, rec in enumerate(setup_spans) if rec[tracer_mod.NAME] == name]
        m[f"{name}.ms"] = float(np.mean(picked)) / 1e6 if picked else float("nan")
    m["tracksim.ndjson_bytes"] = float(np.mean(inputs.ndjson_bytes))
    collapse = degenerate = 0
    for a in ALGORITHMS:
        ess = [v for rid in first_pass[a] for v in tracer.health[rid]["ess_frac"]]
        uniq = [v for rid in first_pass[a] for v in tracer.health[rid]["unique_frac"]]
        m[f"health.{a}.ess_frac.mean"] = float(np.mean(ess))
        m[f"health.{a}.ess_frac.min"] = float(np.min(ess))
        m[f"health.{a}.unique_frac.mean"] = float(np.mean(uniq))
        collapse += sum(tracer.counts[rid]["WeightCollapse"] for rid in first_pass[a])
        degenerate += sum(tracer.counts[rid]["ModelUpdateDegenerate"] for rid in first_pass[a])
    m["health.weight_collapse"] = collapse
    m["health.model_update_degenerate"] = degenerate
    for a in ALGORITHMS:
        u, t = clock.median(f"{a}_run_s.untraced"), clock.median(f"{a}_run_s.traced")
        m[f"trace_overhead.{a}_run_s.untraced"] = u
        m[f"trace_overhead.{a}_run_s.traced"] = t
        m[f"trace_overhead.{a}_run_s.diff"] = t - u
    units = dict(per_layer_metrics())
    return {name: metric(value, units[name]) for name, value in m.items()}, clock.detail()


def run(mf, wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
    """Measure one workload; returns (result, environment, detail)."""
    ledger = Ledger()
    env = environment(mf, wl, seed, seconds, trace)
    tmpdir = Path(tempfile.mkdtemp(prefix=".replay-", dir=HERE))
    try:
        measure = measure_layers if trace else measure_end_to_end
        metrics, detail = measure(mf, wl, seed, seconds, tmpdir, ledger)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    gate = rmse_gate(wl, ledger)
    detail["rmse"] = gate
    result = {
        "correct": ledger.failed == 0 and gate["passed"],
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    return result, env, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    mf = import_modalfuse()
    result, env, detail = run(mf, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
