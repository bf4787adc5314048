"""``tools/ab.py`` run as a script: an A/A comparison of one tree exits 0
with one JSON row per filter, and two trees whose outputs differ exit 1
before anything is timed, naming the filter and the dataset."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PF_RETURN = "    return resampled, estimate\n"


def _ab(a, b):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(a), str(b), "--workload", "replay-n1k",
         "--seed", "7", "--pairs", "2", "--filters", "pf"],
        capture_output=True, text=True, timeout=600,
    )


def test_a_a_of_the_working_tree_exits_0():
    out = _ab(ROOT, ROOT)
    assert out.returncode == 0, out.stderr
    (line,) = out.stdout.splitlines()
    row = json.loads(line)
    assert row["filter"] == "pf" and row["workload"] == "replay-n1k" and row["pairs"] == 2
    assert row["lo"] <= row["ratio"] <= row["hi"] and 0 <= row["wins"] <= 2
    assert row["a_median_s"] > 0.0 and row["b_median_s"] > 0.0
    assert row["a_median_minflt"] >= 0.0 and row["b_median_minflt"] >= 0.0


def test_a_changed_pf_output_exits_1_naming_filter_and_dataset(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".replay-*", ".smoke-*"))
    baselines = tmp_path / "src" / "modalfuse" / "baselines.py"
    text = baselines.read_text()
    assert text.count(PF_RETURN) == 1  # pf_step's last line
    baselines.write_text(text.replace(PF_RETURN, "    return resampled, estimate + 1e-9\n"))
    out = _ab(ROOT, tmp_path)
    assert out.returncode == 1
    assert out.stdout == ""
    assert "pf estimates differ on dataset 0: A " in out.stderr
