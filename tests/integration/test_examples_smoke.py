"""Smoke tests: every example script runs end to end.

The examples double as executable documentation; a refactor that breaks
one breaks the README's promises.  Each example is loaded from its file
and its ``main()`` run in-process with stdout captured.  The slowest
examples (multi-week workloads) are excluded from the default run and
covered by the benchmark suite's equivalent experiments instead.
"""

from __future__ import annotations

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent.parent / "examples"

#: Examples safe to run inside the unit-test budget (seconds, not minutes).
FAST_EXAMPLES = (
    "quickstart",
    "plan_debugging",
    "cardinality_study",
    "applications_tour",
    "tpch_case_study",
)

#: ``tpch_case_study``'s full output: its training log is executed plans,
#: so a change to how plans execute shows here as a changed line.
TPCH_CASE_STUDY_OUTPUT = """\
training: 22 queries x 10 randomized runs ...
query             latency          cpu-hours  changes
Q1         6.8 ->    2.6m    20.94 ->  10.36h  local aggs 1 -> 0
Q2         5.2 ->    4.0m    12.88 ->   8.84h  join impls ['HashJoin', 'HashJoin', 'HashJoin', 'HashJoin'] -> ['HashJoin', 'HashJoin', 'HashJoin', 'MergeJoin']
Q3         8.2 ->   10.6m    23.15 ->  19.96h  join impls ['HashJoin', 'MergeJoin'] -> ['MergeJoin', 'MergeJoin']
Q4         8.1 ->    3.5m    42.31 ->  17.73h  join impls ['HashJoin'] -> ['MergeJoin']
Q5         9.7 ->    8.2m    47.35 ->  36.74h  join impls ['HashJoin', 'HashJoin', 'HashJoin', 'HashJoin', 'MergeJoin'] -> ['HashJoin', 'MergeJoin', 'MergeJoin', 'MergeJoin', 'MergeJoin']
Q6         1.8 ->    1.6m     5.50 ->   9.43h  partition counts
Q7        13.8 ->   13.1m    70.57 ->  46.51h  join impls ['HashJoin', 'HashJoin', 'HashJoin'] -> ['HashJoin', 'HashJoin', 'MergeJoin']
Q8        13.2 ->    9.4m    41.32 ->  31.49h  join impls ['HashJoin', 'HashJoin', 'HashJoin', 'HashJoin', 'MergeJoin'] -> ['HashJoin', 'HashJoin', 'MergeJoin', 'MergeJoin', 'MergeJoin']
Q9        33.2 ->   28.1m    97.42 -> 105.92h  join impls ['HashJoin', 'HashJoin', 'HashJoin', 'HashJoin', 'MergeJoin'] -> ['MergeJoin', 'MergeJoin', 'MergeJoin', 'MergeJoin', 'MergeJoin']
Q10        8.4 ->    6.9m    23.59 ->  17.39h  join impls ['HashJoin', 'HashJoin', 'MergeJoin'] -> ['MergeJoin', 'MergeJoin', 'MergeJoin']; local aggs 0 -> 1
Q11        4.7 ->    3.8m    25.55 ->  12.56h  join impls ['HashJoin', 'HashJoin'] -> ['HashJoin', 'MergeJoin']; local aggs 0 -> 1
Q12        4.1 ->    3.3m    17.35 ->  14.09h  join impls ['HashJoin'] -> ['MergeJoin']
Q13        6.5 ->    5.1m    33.41 ->  16.46h  join impls ['HashJoin'] -> ['MergeJoin']; exchanges 4 -> 5; local aggs 1 -> 2
Q15        4.5 ->    3.6m     9.09 ->   7.99h  partition counts
Q16        5.4 ->    4.2m    25.94 ->  14.62h  join impls ['HashJoin'] -> ['MergeJoin']
Q17       16.6 ->   12.8m    43.27 ->  49.76h  local aggs 1 -> 2
Q18       20.9 ->   10.4m    75.07 ->  38.84h  join impls ['HashJoin', 'HashJoin', 'MergeJoin'] -> ['HashJoin', 'MergeJoin', 'MergeJoin']; local aggs 0 -> 1
Q20        5.0 ->    4.7m    19.62 ->  15.08h  join impls ['HashJoin', 'HashJoin', 'MergeJoin'] -> ['HashJoin', 'MergeJoin', 'MergeJoin']
Q21        8.2 ->    3.9m    36.00 ->  16.90h  local aggs 0 -> 1
Q22        0.3 ->    0.3m     0.19 ->   0.24h  partition counts
"""

#: Multi-week-workload examples: still asserted importable + well-formed.
SLOW_EXAMPLES = ("resource_optimization", "robustness_study", "feedback_loop")


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    # Register so dataclasses/pickling inside the example resolve the module.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example_runs(name):
    module = load_example(name)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        module.main()
    output = buffer.getvalue()
    assert len(output.splitlines()) >= 3, f"{name} produced almost no output"


def test_tpch_case_study_output_is_pinned():
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        load_example("tpch_case_study").main()
    assert buffer.getvalue() == TPCH_CASE_STUDY_OUTPUT


@pytest.mark.parametrize("name", SLOW_EXAMPLES)
def test_slow_example_is_well_formed(name):
    module = load_example(name)
    assert callable(getattr(module, "main", None)), f"{name} lacks a main()"


def test_every_example_is_listed():
    on_disk = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(FAST_EXAMPLES) | set(SLOW_EXAMPLES)
