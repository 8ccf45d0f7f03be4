"""Smoke test of the benchmark itself, at ``tiny`` scale.

Run as ``python -m pytest bench/tests -q`` from the repository root (numpy
and pytest only).  Not part of tier-1: ``pyproject.toml`` collects ``tests/``.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Per-layer metrics that are counts or pure functions of the inputs, and so
#: must repeat exactly from run to run and across hash seeds.
EXACT = [
    metric["name"]
    for metric in SPEC["per_layer"]
    if metric["unit"] == "count"
    or metric["name"].startswith("quality.")
    or metric["name"] in ("serving.cache.hit_rate", "serving.shard.max_shard_share")
]


def _bench(workload: str, trace: int, hashseed: str) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": hashseed},
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )  # fmt: skip
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    """Every (workload, trace, hash seed) run, two processes at a time.  The
    two hash seeds of a traced workload go in separate batches: they write
    the same trace file."""
    out = {}
    batches = [
        [(w, 1, "0") for w in WORKLOADS] + [(w, 0, "0") for w in WORKLOADS],
        [(w, 1, "42") for w in WORKLOADS],
    ]
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for batch in batches:
            for key, result in zip(batch, pool.map(lambda key: _bench(*key), batch)):
                out[key] = result
    return out


def test_spec_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(workload["why"]) <= 200 for workload in SPEC["workloads"])
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_result(results, workload):
    code, result = results[workload, 0, "0"]
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"]) and reported["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_result_repeats_exactly(results, workload):
    (code_a, a), (code_b, b) = results[workload, 1, "0"], results[workload, 1, "42"]
    assert code_a == code_b == 0
    assert a["correct"] and b["correct"]
    assert list(a["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(math.isfinite(m["value"]) for m in a["metrics"].values())
    for name in EXACT:
        assert a["metrics"][name] == b["metrics"][name], name
    spans = (ROOT / "bench" / "out" / f"trace-{workload}.jsonl").read_text().splitlines()
    assert set(json.loads(spans[0])) == {"name", "start", "end", "parent", "op"}
    assert a["metrics"]["bench.unattributed_share"]["value"] < 0.10


def test_every_layer_metric_moves_somewhere(results):
    """A misspelt span or counter name would read 0 on every workload."""
    silent = {"features.rows_dropped", "serving.shard.retries",
              "serving.shard.degraded_predictions", "bench.noisy",
              "serving.cache.evictions"}  # fmt: skip
    for metric in SPEC["per_layer"]:
        values = [results[w, 1, "0"][1]["metrics"][metric["name"]]["value"] for w in WORKLOADS]
        assert any(values) or metric["name"] in silent, metric["name"]


def test_an_oracle_mismatch_fails_the_run(monkeypatch, capsys):
    """Wrap the serving backend so that it is off by one ulp-ish: the run
    must count failures and exit non-zero."""
    from repro.serving.shard.router import ShardedCleoRouter

    import bench.__main__ as cli

    honest = ShardedCleoRouter.predict_batch
    monkeypatch.setattr(
        ShardedCleoRouter,
        "predict_batch",
        lambda self, cluster, requests: honest(self, cluster, requests) * (1 + 1e-12),
    )
    monkeypatch.setattr(
        sys, "argv",
        ["bench", "--workload", "serving_replay", "--seconds", "0.1", "--scale", "tiny"],
    )  # fmt: skip
    assert cli.main() == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
