"""Print the bit-identity digests of a checkout's outputs.

A change that must leave the filters' outputs unchanged compares these
digests with its parent's. Each is an 8-byte blake2b:

* ``ndjson`` -- per benchmark workload and seed, the NDJSON bytes of
  every dataset ``perfbench/run.py``'s ``set_up`` builds, as
  ``GroundTruthRun.save`` writes them, in dataset order;
* ``run_filter`` -- per workload at the first seed, ``bench.run_filter``
  of the four filters (in ``ALGORITHMS`` order) on every dataset (in
  index order), on the workload's own datasets (replay-n1k's through
  their NDJSON round trip) and random streams: each run's estimates,
  then its weight matrix when it has one, then ``repr`` of its flags;
* ``grid`` -- the desk acceptance grid, ``run_table1(1000, 25,
  20240501, jobs=2)``: every run's estimates and then its weight trace
  (when it has one), cells in sorted key order.

The workloads, their configurations and their set-up are read from
``perfbench/run.py`` (``WORKLOADS``, ``build_config``, ``set_up``), so
the digests follow the benchmark's own inputs.

Usage: python tools/digests.py [CHECKOUT]   (default: the current directory)

CHECKOUT's ``src/`` is imported. The workloads' seeds are 7 and 4242
(``run_filter`` at 7 only). The whole run takes about 90 s on a 2-core
VM, a third of it the grid.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

SEEDS = (7, 4242)

def _load_run(checkout: Path):
    """``perfbench/run.py`` of the checkout as a module, with modalfuse
    imported from the checkout's ``src/``."""
    bench_dir = checkout / "perfbench"
    sys.path.insert(0, str(bench_dir))  # run.py imports its sibling tracer
    spec = importlib.util.spec_from_file_location("perfbench_run", bench_dir / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclasses look their module up there
    spec.loader.exec_module(run)
    return run, run.import_modalfuse()


def _digest(parts) -> str:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(part)
    return h.hexdigest()


def ndjson_digest(run, mf, wl, seed: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        inputs = run.set_up(mf, wl, seed, Path(tmp), replay=True)
        return _digest((Path(tmp) / f"dataset_{k}.ndjson").read_bytes() for k in range(len(inputs.datasets)))


def _run_parts(mf, inputs, seed: int):
    model = inputs.cfg.model
    for alg in mf.bench.ALGORITHMS:
        for k, ds in enumerate(inputs.datasets):
            rng = mf.stream_rng(seed, k, mf.bench.STREAM_FILTER)
            estimates, trace = mf.bench.run_filter(alg, ds.frames, inputs.particles[k], model.transition,
                                                   model.modalities, rng)
            yield estimates.tobytes()
            weights = trace.weight_matrix()
            if weights is not None:
                yield weights.tobytes()
            yield repr(trace.flags).encode()


def run_filter_digest(run, mf, wl, seed: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        inputs = run.set_up(mf, wl, seed, Path(tmp), replay=wl.replay)
        return _digest(_run_parts(mf, inputs, seed))


def grid_digest(grid) -> str:
    """The digest of a ``run_table1`` grid."""
    parts = []
    for key in sorted(grid):
        for r in grid[key].results:
            parts.append(r.estimates.tobytes())
            if r.weight_trace is not None:
                parts.append(r.weight_trace.tobytes())
    return _digest(parts)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python tools/digests.py [CHECKOUT]", file=sys.stderr)
        return 2
    run, mf = _load_run(Path(argv[0] if argv else ".").resolve())
    for seed in SEEDS:
        for wl in run.WORKLOADS.values():
            print(f"ndjson      seed {seed:<5} {wl.name:<11} {ndjson_digest(run, mf, wl, seed)}", flush=True)
    for wl in run.WORKLOADS.values():
        print(f"run_filter  seed {SEEDS[0]:<5} {wl.name:<11} {run_filter_digest(run, mf, wl, SEEDS[0])}", flush=True)
    print(f"grid        desk             {grid_digest(mf.bench.run_table1(1000, 25, 20240501, jobs=2))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
