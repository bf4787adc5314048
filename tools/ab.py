"""Compare the run times of two source trees in one process.

Each tree's ``src/modalfuse`` is loaded as its own package, so both sides
run side by side in one interpreter, on one heap, under one CPU state.
Its A/A intervals span a few per cent, against the 4-10 % by which
separate ``perfbench/run.py`` processes move between series.
Single runs are paired, not blocks (Kalibera & Jones, "Rigorous
Benchmarking in Reasonable Time", ISMM 2013), and the side that runs
first alternates from pair to pair, so that neither side always finds
the heap and caches the other one left (Mytkowicz et al., "Producing
Wrong Data Without Doing Anything Obviously Wrong!", ASPLOS 2009).

Usage::

    python tools/ab.py A B --workload W --seed S --pairs P [--filters pf,ts,sma,dma,setup]

A and B are each a directory holding a source tree, or a git revision of
this repository (read through ``git archive`` into a temporary
directory). An A/A run gives one tree twice: its rows are the session's
calibration, since an interval that excludes 1 can come from noise alone.

Each side's inputs are built with its ``perfbench/run.py``'s ``set_up``.
Before anything is timed, both sides must build the same datasets and
every filter asked for must return the same estimates, bit for bit, on
every dataset; if not, the first difference is printed with both sides'
digests and the exit code is 1. Then each side takes one warm-up run per
filter (``run.py``'s ``WARMUP_STEPS`` frames), and P pairs follow: pair p runs dataset p mod (the workload's
dataset count), with A first in even pairs and B first in odd ones.
``setup`` times one ``set_up`` call per side and pair.

The output is one JSON line per filter: the median over pairs of the
ratio B/A of the two run times, its 95 % bootstrap interval (2,000
resamples of the pairs, fixed seed), the number of pairs B won, both
sides' median times in seconds and both sides' median minor page faults
per timed call (``ru_minflt`` of this process, read before and after
it). A side whose runs fault far more than the other's can be slower
from its heap's layout alone.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import io
import json
import resource
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FILTERS = ("pf", "ts", "sma", "dma", "setup")
RESAMPLES = 2000
BOOTSTRAP_SEED = 20131


def resolve_tree(spec: str, scratch: Path) -> Path:
    """The directory ``spec`` names, or the tree of the git revision ``spec``."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", spec],
                             capture_output=True)
    if archive.returncode != 0:
        raise SystemExit(f"error: {spec!r} is neither a directory nor a git revision: "
                         f"{archive.stderr.decode().strip()}")
    tree = Path(tempfile.mkdtemp(prefix="tree-", dir=scratch))
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def _load_module(name: str, path: Path, package_dir: Path | None = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module   # dataclasses and relative imports look it up there
    spec.loader.exec_module(module)
    return module


class Side:
    """One tree: its modalfuse package, its ``perfbench/run.py`` and its inputs."""

    def __init__(self, label: str, tree: Path):
        tag = label.lower()   # each side's modules get names of their own, also for an A/A run
        package = tree / "src" / "modalfuse"
        if not (package / "__init__.py").is_file():
            raise SystemExit(f"error: no modalfuse sources under {tree / 'src'}")
        self.label = label
        self.mf = _load_module(f"modalfuse_{tag}", package / "__init__.py", package)
        sys.path.insert(0, str(tree / "perfbench"))   # run.py imports its sibling tracer
        try:
            self.run = _load_module(f"perfbench_run_{tag}", tree / "perfbench" / "run.py")
        finally:
            sys.path.pop(0)
        self.inputs = None

    def set_up(self, wl, seed: int, tmpdir: Path):
        return self.run.set_up(self.mf, self.run.WORKLOADS[wl], seed, tmpdir, self.run.WORKLOADS[wl].replay)

    def filter_run(self, alg: str, k: int, seed: int, frames=None):
        """One ``run_filter`` call on dataset k, on its own fresh stream; returns the estimates."""
        mf, inputs = self.mf, self.inputs
        model = inputs.cfg.model
        rng = mf.stream_rng(seed, k, mf.bench.STREAM_FILTER)
        frames = inputs.datasets[k].frames if frames is None else frames
        return mf.bench.run_filter(alg, frames, inputs.particles[k], model.transition, model.modalities, rng)[0]


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def _values(ds):
    return [[o.value for o in f.observations] for f in ds.frames]


def first_difference(a: Side, b: Side, algs, seed: int) -> str | None:
    """A message naming the first dataset or filter output that differs, or None."""
    for k, (da, db) in enumerate(zip(a.inputs.datasets, b.inputs.datasets)):
        parts_a = (da.states.tobytes(), da.failure_log.tobytes(), repr(_values(da)).encode())
        parts_b = (db.states.tobytes(), db.failure_log.tobytes(), repr(_values(db)).encode())
        if parts_a != parts_b:
            return f"dataset {k} differs: A {_digest(b''.join(parts_a))}, B {_digest(b''.join(parts_b))}"
    for alg in algs:
        for k in range(len(a.inputs.datasets)):
            ea, eb = a.filter_run(alg, k, seed), b.filter_run(alg, k, seed)
            if ea.shape != eb.shape or ea.tobytes() != eb.tobytes():
                return (f"{alg} estimates differ on dataset {k}: "
                        f"A {_digest(ea.tobytes())}, B {_digest(eb.tobytes())}")
    return None


def _timed(fn) -> tuple[float, int]:
    """The seconds one call of ``fn`` takes and the minor page faults it makes."""
    gc.collect()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    fn()
    seconds = time.perf_counter() - start
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def summarise(alg: str, runs_a, runs_b) -> dict:
    """One row from each side's (seconds, minor faults) per timed call."""
    (a, faults_a), (b, faults_b) = (np.asarray(runs, dtype=float).T for runs in (runs_a, runs_b))
    ratios = b / a
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    boot = np.median(ratios[rng.integers(0, len(ratios), size=(RESAMPLES, len(ratios)))], axis=1)
    lo, hi = np.percentile(boot, [2.5, 97.5])
    return {"filter": alg, "ratio": round(float(np.median(ratios)), 4), "lo": round(float(lo), 4),
            "hi": round(float(hi), 4), "wins": int(np.sum(b < a)), "pairs": len(ratios),
            "a_median_s": round(float(np.median(a)), 5), "b_median_s": round(float(np.median(b)), 5),
            "a_median_minflt": float(np.median(faults_a)), "b_median_minflt": float(np.median(faults_b))}


def compare(a: Side, b: Side, wl: str, seed: int, pairs: int, algs, scratch: Path) -> int:
    dirs = {side.label: Path(tempfile.mkdtemp(prefix=f"inputs-{side.label}-", dir=scratch)) for side in (a, b)}
    for side in (a, b):
        side.inputs = side.set_up(wl, seed, dirs[side.label])
    runs = [alg for alg in algs if alg != "setup"]
    diff = first_difference(a, b, runs, seed)
    if diff is not None:
        print(f"error: the two trees' outputs differ, so their times are not comparable: {diff}", file=sys.stderr)
        return 1
    warm = a.run.WARMUP_STEPS
    for side in (a, b):
        for alg in runs:
            side.filter_run(alg, 0, seed, side.inputs.datasets[0].frames[:warm])
    n_datasets = len(a.inputs.datasets)
    times = {alg: {a.label: [], b.label: []} for alg in algs}
    for p in range(pairs):
        order = (a, b) if p % 2 == 0 else (b, a)
        k = p % n_datasets
        for alg in algs:
            for side in order:
                if alg == "setup":
                    fn = lambda side=side: side.set_up(wl, seed, dirs[side.label])
                else:
                    fn = lambda side=side, alg=alg: side.filter_run(alg, k, seed)
                times[alg][side.label].append(_timed(fn))
    for alg in algs:
        row = {"workload": wl, "seed": seed, **summarise(alg, times[alg][a.label], times[alg][b.label])}
        print(json.dumps(row), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", metavar="A", help="directory or git revision (the reference side)")
    parser.add_argument("b", metavar="B", help="directory or git revision (the side whose ratio to A is printed)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--filters", default=",".join(FILTERS),
                        help=f"comma-separated subset of {','.join(FILTERS)} (default: all)")
    args = parser.parse_args(argv)
    algs = tuple(args.filters.split(","))
    unknown = sorted(set(algs) - set(FILTERS))
    if unknown or len(set(algs)) != len(algs):
        parser.error(f"--filters takes distinct names from {', '.join(FILTERS)}, got {args.filters!r}")
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        scratch = Path(tmp)
        a = Side("A", resolve_tree(args.a, scratch))
        b = Side("B", resolve_tree(args.b, scratch))
        if args.workload not in a.run.WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(sorted(a.run.WORKLOADS))}, got {args.workload!r}")
        return compare(a, b, args.workload, args.seed, args.pairs, algs, scratch)


if __name__ == "__main__":
    sys.exit(main())
