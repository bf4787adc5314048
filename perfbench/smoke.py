"""Smoke test of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/smoke.py

It runs every workload at a tiny size in both modes and checks that the
result names exactly the metrics BENCHMARK.json declares, each with its
declared unit, that every operation passed, and that no tracer wrapper
is left on any modalfuse attribute after a traced run. It then checks
the command line: one real run prints the result as its last line, and
a copy of the benchmark without the program's sources exits non-zero
without printing a result. Exits non-zero on the first set of problems.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer

TINY_PARTICLES = 200
TINY_DATASETS = 2


def check_result(label: str, result: dict, expected: dict[str, str]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{label}: missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if m.get("unit") != expected.get(name):
            problems.append(f"{label}: {name} has unit {m.get('unit')!r}, declared {expected.get(name)!r}")
        if not isinstance(m.get("value"), float) or not math.isfinite(m["value"]):
            problems.append(f"{label}: {name} = {m.get('value')!r} is not a finite number")
    return problems


def check_tiny_runs(spec: dict) -> list[str]:
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    mf = run.import_modalfuse()
    for name, wl in run.WORKLOADS.items():
        tiny = dataclasses.replace(wl, n_particles=TINY_PARTICLES, n_datasets=TINY_DATASETS)
        for trace in (0, 1):
            result, _, _ = run.run(mf, tiny, seed=0, seconds=0.0, trace=bool(trace))
            problems += check_result(f"{name} trace={trace}", result, expected[trace])
            leftovers = tracer.leftover_wrappers()
            if leftovers:
                problems.append(f"{name} trace={trace}: wrappers left on {leftovers}")
    return problems


def check_command_line(spec: dict) -> list[str]:
    problems = []
    cmd = spec["command"] + ["--workload", "replay-n1k", "--seed", "0", "--seconds", "0", "--trace", "0"]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    last = json.loads(out.stdout.strip().splitlines()[-1]) if out.stdout.strip() else {}
    if out.returncode != 0 or set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"command line run: exit {out.returncode}, last line {out.stdout[-200:]!r}")
    bare = Path(tempfile.mkdtemp(prefix=".smoke-", dir=run.HERE))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns(".smoke-*", ".replay-*", "__pycache__"))
        out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        if out.returncode == 0 or out.stdout.strip():
            problems.append(f"run without sources: exit {out.returncode}, stdout {out.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = check_tiny_runs(spec) + check_command_line(spec)
    for p in problems:
        print("PROBLEM:", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
