"""Every parity gate of the layer benchmarks fires, and fires alone.

``Bench.failures`` is a pure function of the result dict, so each gate is
proven without running a benchmark: flip exactly one field of a passing
result and expect exactly that gate's message.  The driver's side of the
contract — every message on stderr, exit 1, the result still written inside
its envelope — is checked through ``main`` with a stub benchmark.
"""

from __future__ import annotations

import copy
import json
import sys
import types

import pytest

from repro.experiments.throughput import BENCHES, Bench, main

#: The gate fields of a result every gate accepts, per benchmark.
PASSING = {
    "train": {"predictions_bitwise_identical": True},
    "workload": {"runlogs_bitwise_identical": True},
    "predict": {"predictions_bitwise_identical": True},
    "plan": {"plans_bitwise_identical": True},
    "replan": {
        "plans_bitwise_identical": True,
        "lookup_accounting_identical": True,
    },
    "serving": {"predictions_bitwise_identical": True},
    "faults": {
        "zero_fault": {
            "predictions_bitwise_identical": True,
            "stats_counter_identical": True,
        },
        "all_available": True,
        "pipeline_all_recovered": True,
        "hedging": {
            "predictions_bitwise_identical": True,
            "hedges": 8,
            "availability": 1.0,
        },
    },
}

#: (benchmark, path of the one field to flip, its failing value, the message).
FLIPS = [
    ("train", ("predictions_bitwise_identical",), False,
     "columnar predictions diverged from the scalar reference"),
    ("workload", ("runlogs_bitwise_identical",), False,
     "batched run log diverged from the scalar reference"),
    ("predict", ("predictions_bitwise_identical",), False,
     "packed predictions diverged from the grouped reference"),
    ("plan", ("plans_bitwise_identical",), False,
     "batched planning diverged from the scalar planner"),
    ("replan", ("plans_bitwise_identical",), False,
     "fleet replay diverged from the per-job planner"),
    ("replan", ("lookup_accounting_identical",), False,
     "fleet replay changed per-prediction lookup accounting"),
    ("serving", ("predictions_bitwise_identical",), False,
     "sharded predictions diverged from the single-process service"),
    ("faults", ("zero_fault", "predictions_bitwise_identical"), False,
     "hardened router diverged from the fail-fast fleet"),
    ("faults", ("zero_fault", "stats_counter_identical"), False,
     "hardened router stats diverged with faults disabled"),
    ("faults", ("all_available",), False,
     "a fault scenario dropped below availability 1.0"),
    ("faults", ("pipeline_all_recovered",), False,
     "a pipeline chaos scenario failed to recover"),
    ("faults", ("hedging", "predictions_bitwise_identical"), False,
     "hedged serving diverged from the unhedged replay"),
    ("faults", ("hedging", "hedges"), 0,
     "hedging enabled but no request was hedged"),
    ("faults", ("hedging", "availability"), 0.998,
     "hedged serving dropped below availability 1.0"),
]


def test_every_declared_gate_has_a_flip():
    declared = {
        (name, message) for name, bench in BENCHES.items() for message, _ in bench.gates
    }
    assert {(name, message) for name, _, _, message in FLIPS} == declared
    assert len(declared) == len(FLIPS) == 14


@pytest.mark.parametrize("name", list(PASSING))
def test_passing_result_has_no_failures(name):
    assert BENCHES[name].failures(PASSING[name]) == []


@pytest.mark.parametrize("name, path, failing, message", FLIPS)
def test_flipping_one_field_fires_exactly_its_gate(name, path, failing, message):
    result = copy.deepcopy(PASSING[name])
    section = result
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = failing
    assert BENCHES[name].failures(result) == [message]


def test_sections_that_did_not_run_are_not_failures():
    result = {**PASSING["faults"], "hedging": None, "pipeline_all_recovered": None}
    assert BENCHES["faults"].failures(result) == []


def test_gate_failure_exits_1_with_every_message_on_stderr(
    monkeypatch, tmp_path, capsys
):
    stub = types.ModuleType("repro.experiments._stub_bench")
    stub.run_benchmark = lambda seed: {"benchmark": "stub", "seed": seed, "a": 0, "b": 0}
    stub.format_result = lambda result: f"stub summary seed={result['seed']}"
    monkeypatch.setitem(sys.modules, stub.__name__, stub)
    monkeypatch.setitem(
        BENCHES,
        "stub",
        Bench(
            module="_stub_bench",
            out="BENCH_stub.json",
            help="stub",
            flags=(("--seed", {"type": int, "default": 0}),),
            gates=(("a broke", lambda r: r["a"]), ("b broke", lambda r: r["b"])),
        ),
    )
    out_path = tmp_path / "BENCH_stub.json"
    code = main(["stub", "--seed", "7", "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == ["ERROR: a broke", "ERROR: b broke"]
    assert captured.out.splitlines() == ["stub summary seed=7", f"wrote {out_path}"]
    payload = json.loads(out_path.read_text())
    assert payload["seed"] == 7
    assert set(payload["environment"]) == {
        "python", "numpy", "platform", "machine", "cpu_count"
    }
