"""Committed benchmark results cover what the benchmark declares.

Each ``BENCH_*.json`` at the repository root holds, for every workload
of ``BENCHMARK.json``, the last line of standard output of

    python3 benchmarks/run.py --workload <name> --seed 20260817 --seconds 10 --trace 0|1

untraced and traced, with the command and the Python version that
wrote it. ``BENCH_baseline.json`` is the reference later runs compare
against.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_baseline_is_committed():
    assert ROOT / "BENCH_baseline.json" in FILES


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_bench_file_names_every_workload_and_metric(path):
    """End-to-end metrics from the untraced run, per-layer ones from the traced run."""
    bench = json.loads(path.read_text())
    assert "benchmarks/run.py" in bench["command"] and bench["python"]
    assert set(bench["workloads"]) == {w["name"] for w in DECLARED["workloads"]}
    for name, runs in bench["workloads"].items():
        for run, declared in (("untraced", "end_to_end"), ("traced", "per_layer")):
            assert runs[run]["correct"], (name, run)
            metrics = runs[run]["metrics"]
            for metric in DECLARED[declared]:
                got = metrics[metric["name"]]
                assert got["unit"] == metric["unit"], (name, metric["name"])
                assert isinstance(got["value"], (int, float)), (name, metric["name"])
