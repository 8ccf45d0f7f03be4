"""Guard: the layer benchmarks have one driver.

``repro.experiments.throughput`` holds the timing loop, the result envelope,
each benchmark's flag list and each benchmark's gate list; the seven
``*_throughput`` / ``fault_tolerance`` modules keep only what differs between
them, and ``repro bench <name>`` / ``scripts/bench.py`` are the entry points.
A second ``write_result``, a second host block, a private best-of-``repeats``
loop, a ``bench-*`` subcommand or a ``scripts/bench_<name>.py`` is the
hand-synchronised copy this layout exists to prevent.
"""

from __future__ import annotations

import argparse
import ast
from collections import Counter
from pathlib import Path

import repro.experiments
from repro.cli import build_parser
from repro.experiments.throughput import BENCHES

PACKAGE = Path(repro.experiments.__file__).parent
REPO = PACKAGE.parents[2]

#: Defined once, in ``throughput.py``, whatever a benchmark module needs of them.
SHARED = ("timed", "path_stats", "speedup", "plan_fingerprint", "host", "write_result")


def _trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
    }


def _calls(tree: ast.AST, attribute: str) -> int:
    return sum(
        isinstance(node, ast.Call) and getattr(node.func, "attr", None) == attribute
        for node in ast.walk(tree)
    )


def test_shared_pieces_are_defined_exactly_once():
    counts: Counter = Counter()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                # The private spellings the copies used count too.
                counts[node.name.lstrip("_")] += 1
    assert {name: counts[name] for name in SHARED} == dict.fromkeys(SHARED, 1)
    defined = {
        node.name
        for node in _trees()["throughput.py"].body
        if isinstance(node, ast.FunctionDef)
    }
    assert set(SHARED) <= defined


def test_only_the_envelope_reads_the_host():
    readers = [
        name for name, tree in _trees().items() if _calls(tree, "python_version")
    ]
    assert readers == ["throughput.py"]


def test_the_only_repeat_loop_is_timed():
    """A ``for _ in range(... repeats ...)`` around ``perf_counter`` calls.

    The load replays' per-request latency clocks (``_chaos_replay``, the
    lifecycle rows) time single requests, not repeats, and stay.
    """
    loops = []
    for name, tree in _trees().items():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.For)
                    and isinstance(node.iter, ast.Call)
                    and getattr(node.iter.func, "id", None) == "range"
                    and any(
                        isinstance(part, ast.Name) and part.id == "repeats"
                        for part in ast.walk(node.iter)
                    )
                    and _calls(node, "perf_counter")
                ):
                    loops.append((name, function.name))
    assert loops == [("throughput.py", "timed")]


def test_bench_is_the_only_benchmark_subcommand():
    (commands,) = [
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert [name for name in commands if name.startswith("bench")] == ["bench"]
    (names,) = [
        action.choices
        for action in commands["bench"]._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert list(names) == list(BENCHES) and len(BENCHES) == 7


def test_one_script_and_one_pytest_file():
    assert sorted(path.name for path in (REPO / "scripts").glob("bench*.py")) == [
        "bench.py"
    ]
    twins = sorted(
        path.name
        for pattern in ("test_*throughput*.py", "test_fault*.py")
        for path in (REPO / "benchmarks").glob(pattern)
    )
    assert twins == ["test_throughput.py"]
