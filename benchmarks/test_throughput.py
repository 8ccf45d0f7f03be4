"""Benchmarks: the seven layer benchmarks at ``small`` scale, default flags.

Unlike the figure/table benchmarks these have no paper counterpart — they
track the reproduction's own perf trajectory: each times a fast path
against its retained reference in the same run and pins the two bitwise
identical.  Every benchmark runs through the one driver
(:mod:`repro.experiments.throughput`, what ``repro bench <name>`` and CI
run), so exit code 0 *is* its parity gates; on top of them pytest holds the
floors a smoke-sized CI run cannot: the fast path is actually faster,
scale-out pays (the widest multi-shard config, whose fleet-aggregate LRU
holds the working set one shard's cache cannot, clears 2x single-shard
steady-state throughput), and all three pipeline-chaos scenarios ran and
recovered.  Results land in ``benchmarks/results/BENCH_<name>.json``.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.throughput import BENCHES, main


def _faster(result: dict) -> None:
    assert result["speedup"] > 1.0


def _scale_out_pays(result: dict) -> None:
    assert result["multi_shard_speedup"] is not None
    assert result["multi_shard_speedup"] >= 2.0


def _every_chaos_section_ran(result: dict) -> None:
    assert result["baseline_availability"] == 1.0
    assert result["hedging"] is not None
    pipeline = {row["scenario"]: row for row in result["pipeline"]}
    assert set(pipeline) == {"poisoned_runlog", "retrain_crash", "quarantined_planner"}
    for row in pipeline.values():
        assert row["availability"] == 1.0
        assert row["recovery"], row["scenario"]
    assert result["pipeline_all_recovered"]


#: Every other benchmark's floor is ``_faster``.
FLOORS = {"serving": _scale_out_pays, "faults": _every_chaos_section_ran}


@pytest.mark.parametrize("name", list(BENCHES))
def test_throughput(name, benchmark, results_dir):
    # Same workload preset as the figure/table benchmarks (conftest): the
    # driver's defaults are scale "small", seed 0.
    out = results_dir / BENCHES[name].out
    code = benchmark.pedantic(
        lambda: main([name, "--out", str(out)]), rounds=1, iterations=1
    )
    result = json.loads(out.read_text())
    assert BENCHES[name].failures(result) == []
    assert code == 0
    FLOORS.get(name, _faster)(result)
