"""The benchmark's own untraced run passes its check on every workload.

perfbench/run.py ends with one JSON line by which a run is judged:
`correct`, `attempted`, `failed` and the end-to-end metrics that
BENCHMARK.json names.  Each workload runs here reduced and for zero
seconds, from a temporary directory of symlinks to src, perfbench and
BENCHMARK.json with bytecode writing off, so the checkout is only read
and a run that fails, or gives wrong or malformed output, fails here
first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_reduced_run_is_correct_and_reports_the_end_to_end_metrics(workload, tmp_path):
    for name in ("src", "perfbench", "BENCHMARK.json"):
        (tmp_path / name).symlink_to(ROOT / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0", "--reduced"],
        cwd=tmp_path, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in BENCH["end_to_end"]}
