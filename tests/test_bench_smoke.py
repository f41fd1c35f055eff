"""The benchmark runs to its result line on every workload.

``perfbench/run.py`` must end its stdout with one JSON result line; a run
that dies before printing it (an exception, a command that exits non-zero,
a metric that cannot be computed) leaves the benchmark without a result.
Each case runs the benchmark for the shortest time it allows, from a copy of
the sources, the benchmark and ``BENCHMARK.json`` in a temporary directory,
so the repository's ``.bench_work`` stays untouched.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_END_TO_END = {"trials_per_s", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload,trace", [
    ("analytic_grid", 0), ("heatmap_topdown", 0), ("heatmap_bottomup", 0), ("coco_analytic", 0),
    ("heatmap_topdown", 1), ("heatmap_bottomup", 1),
])
def test_benchmark_ends_with_a_correct_result_line(tmp_path, workload, trace):
    for name in ("src", "perfbench"):
        shutil.copytree(_ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(_ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    if trace == 0:
        assert _END_TO_END <= set(result["metrics"])
