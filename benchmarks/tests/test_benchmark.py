"""Tests of the benchmark itself (not of reckit).

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.02


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(name, trace):
    result, lines = run.measure(name, 5, 0.01, trace, TINY)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"], lines
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[0] == m["name"] for line in lines)


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def test_same_seed_same_inputs_and_outputs():
    a = workloads.build("exact_stream", 3, TINY).run_pass()
    b = workloads.build("exact_stream", 3, TINY).run_pass()
    c = workloads.build("exact_stream", 4, TINY).run_pass()
    assert a.counts() == b.counts()
    assert a.digest() != c.digest()


def test_tail_refusals_are_counted():
    res = workloads.build("exact_stream", workloads.DEFAULT_SEED, TINY).run_pass()
    assert res.attempted == len(res.records)
    assert res.failures["DomainError"] > 0
    assert res.failed == sum(r.startswith("err:") for r in res.records)


def test_tail_refusals_do_not_move_with_the_seed():
    a = workloads.build("exact_stream", 3, TINY).run_pass()
    b = workloads.build("exact_stream", 4, TINY).run_pass()
    assert a.failed > 0
    assert (a.attempted, a.failures) == (b.attempted, b.failures)


def test_result_counts_do_not_depend_on_the_passes():
    short, _ = run.measure("mrc_select", 5, 0.01, False, TINY)
    longer, _ = run.measure("mrc_select", 5, 2.0, False, TINY)
    assert (short["attempted"], short["failed"]) == (longer["attempted"], longer["failed"])


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 100]; a [10, 40] holds g [20, 30]; b [50, 90] and c [80, 95]
    # overlap; d [95, 120] runs past its parent's end.
    parent = [-1, 0, 1, 0, 0, 0]
    start = [0, 10, 20, 50, 80, 95]
    end = [100, 40, 30, 90, 95, 120]
    assert tracing.self_times(parent, start, end) == [20, 20, 10, 40, 15, 25]


def test_self_times_of_nested_spans_add_up_to_the_root():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(200))

    wrapped_leaf = tracer.wrap(leaf, "leaf")

    def mid():
        return [wrapped_leaf() for _ in range(3)]

    wrapped_mid = tracer.wrap(mid, "mid")
    with tracer.span("root"):
        for _ in range(4):
            wrapped_mid()
    selfs = tracer.self_ns()
    assert sum(selfs) == tracer.end[0] - tracer.start[0]
    assert all(s >= 0 for s in selfs)
    assert tracer.by_name()["leaf"][0] == 12


def _bindings():
    return [(s.owner, s.attr, vars(s.owner)[s.attr]) for s in run.trace_sites()]


def test_wrappers_are_gone_after_a_traced_run():
    before = _bindings()
    untraced = workloads.build("block_codec", 2, TINY)
    reference = untraced.run_pass()
    run.measure("block_codec", 2, 0.01, True, TINY)
    assert [b[2] for b in _bindings()] == [b[2] for b in before]
    from reckit import coders, tree

    assert coders.expand is tree.expand
    assert not hasattr(coders.encode_astar, "__wrapped__")
    assert untraced.run_pass().digest() == reference.digest()


def test_wrappers_are_gone_after_an_error():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(run.trace_sites()):
            raise RuntimeError("inside the traced block")
    assert [b[2] for b in _bindings()] == [b[2] for b in before]


def test_golden_comparison():
    golden = {"symbols": ["1/1/0x1p+0", "err:DomainError"], "units": [["aa", [0]]]}
    fixed = {"symbols": ["1/1/0x1p+0", "3/2/0x1p-1"], "units": [["bb", [0, 1]]]}
    assert run.compare_golden(golden, fixed) == []
    moved = {"symbols": ["1/1/0x1.8p+0", "err:DomainError"], "units": [["aa", [0]]]}
    assert len(run.compare_golden(golden, moved)) == 1
    reframed = {"symbols": ["1/1/0x1p+0", "err:DomainError"], "units": [["cc", [0]]]}
    assert len(run.compare_golden(golden, reframed)) == 1
    broken = {"symbols": ["err:mismatch", "err:DomainError"], "units": [["aa", []]]}
    assert len(run.compare_golden(golden, broken)) == 1


def test_golden_file_matches_the_code():
    for name in workloads.NAMES:
        assert run.check_golden(workloads, name) == []


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "exact_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_self_time_under_the_timed_calls():
    # loop [0, 100] holds call a [10, 40] (child g [20, 30]), an untimed
    # span b [50, 60] and call c [70, 90]; a second loop-level call name
    # nested under b does not count on its own.
    tracer = tracing.Tracer()
    for name, parent, start, end in [("loop", -1, 0, 100), ("call", 0, 10, 40),
                                     ("g", 1, 20, 30), ("b", 0, 50, 60),
                                     ("call", 3, 52, 58), ("call", 0, 70, 90)]:
        tracer.name_id.append(tracer._intern(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    assert tracer.calls_under(0, ["call"]) == (2, 30 + 20)
    assert tracer.calls_under(0, ["missing"]) == (0, 0)
