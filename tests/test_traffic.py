"""``tools/traffic.py``'s collector: the whole trace stays out of tier-1
(about 90 s), so its line accounting is checked on one small call."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

import modalfuse
from modalfuse import bench

ROOT = Path(__file__).resolve().parents[1]


def _traffic():
    spec = importlib.util.spec_from_file_location("traffic", ROOT / "tools" / "traffic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_collector_lists_the_raise_a_call_skipped_and_not_the_return_it_ran():
    traffic = _traffic()
    package = Path(modalfuse.__file__).parent
    with traffic.Collector(package) as collector:
        bench.rmse(np.zeros((3, 4)), np.ones((3, 4)))
    listed = {line: mark for line, mark, _ in traffic.unrun_lines(package, collector.ran)["bench.py"]}
    source, first = inspect.getsourcelines(bench.per_step_error)
    [raise_line] = [first + k for k, text in enumerate(source) if "unknown rmse mode" in text]
    [return_line] = [first + k for k, text in enumerate(source) if text.strip().startswith("return ")]
    assert listed[raise_line] == "raise"
    assert return_line not in listed
