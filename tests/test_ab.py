"""tools/ab.py: the summary it prints, and an A/A smoke run of HEAD."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import ab  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result(**values):
    return {"metrics": {name: {"value": value} for name, value in values.items()}}


def test_compare_counts_wins_by_each_metrics_direction():
    spec = {"end_to_end": [
        {"name": "targets_per_s", "unit": "1/s", "better": "higher"},
        {"name": "target_p50_s", "unit": "s", "better": "lower"},
    ]}
    base = [result(targets_per_s=10.0, target_p50_s=0.10 + 0.01 * i) for i in range(4)]
    change = [result(targets_per_s=12.0, target_p50_s=0.09 + 0.01 * i) for i in range(4)]
    rows = {row["metric"]: row for row in ab.compare(spec, {"base": base, "change": change})}
    faster = rows["targets_per_s"]
    assert (faster["wins"], faster["pairs"]) == (4, 4)
    assert faster["delta_pct"] == pytest.approx(20.0)
    assert faster["significant"]  # the base's interquartile range is 0
    p50 = rows["target_p50_s"]
    assert p50["wins"] == 4
    assert p50["base"][1] == pytest.approx(0.115) and p50["change"][1] == pytest.approx(0.105)
    assert not p50["significant"]  # 0.01 apart, inside the base's IQR of 0.025


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(), reason="needs a git checkout"
)
def test_quick_aa_run_of_head_prints_every_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "HEAD", "HEAD", "--workload", "onemode",
         "--pairs", "2", "--seconds", "0.2", "--quick"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for metric in SPEC["end_to_end"]:
        (line,) = [line for line in lines if line.startswith(metric["name"] + " ")]
        assert line.rstrip().endswith(("%", "*"))
    assert "were not correct" not in done.stdout
    assert list(tmp_path.iterdir()) == []  # it writes only in its own temporary directory
