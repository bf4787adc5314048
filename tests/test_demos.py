"""Demos 01-03 run to completion in a fresh interpreter. Demo 04 runs the
whole algorithm x scenario grid (about 23 s), so it is run by hand."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_tracking_model", "02_simulate_scenarios", "03_dma_vs_pf"])
def test_demo_exits_0(name, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    if name == "02_simulate_scenarios":
        # the replay copy lands in the working directory, not a shared path
        assert (tmp_path / "scenario2_run.ndjson").stat().st_size > 0
