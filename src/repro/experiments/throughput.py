"""The one driver for the seven layer benchmarks: ``repro bench <name>``.

Each layer benchmark times a fast path against its retained reference *in
the same run* and records a bitwise-parity boolean beside the ratio — the
"judge it on the task, against a reference, in the same run" method of
Heinrich et al., "How Good are Learned Cost Models, Really?".  What differs
between them (fixture, the two paths, the parity predicate, the result
fields) lives in the seven ``*_throughput`` / ``fault_tolerance`` modules;
what they share is defined here, once: the timing loop (:func:`timed`), a
timed path's result block (:func:`path_stats`, :func:`speedup`), the result
envelope (:func:`host`, :func:`write_result`), and :data:`BENCHES` — each
benchmark's flags and parity gates — behind one command line
(:func:`configure_parser` / :func:`main`: ``repro bench``, ``scripts/bench.py``
and, at ``small`` scale under pytest, ``benchmarks/test_throughput.py``).

Exit codes: 0 every gate held; 1 a gate failed (each message on stderr, the
result file still written); 2 usage errors.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from repro.experiments.shared import SCALES
from repro.serving.faults import SCENARIOS

T = TypeVar("T")


def timed(fn: Callable[[], T], repeats: int) -> tuple[list[float], T]:
    """Call ``fn`` ``repeats`` times (at least once); seconds per call and
    the last call's result.  Whatever ``fn`` does is the timed region."""
    times: list[float] = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return times, result


def path_stats(
    times: list[float], *, path: str | None = None, first: bool = False, **counts: int
) -> dict:
    """One timed path's result block.

    ``seconds`` (every repeat) and ``seconds_best``; ``seconds_first`` for
    paths whose first repeat pays a one-time warm-up worth recording; and a
    best-of ``<unit>_per_second`` rate per ``unit=count`` given.
    """
    best = min(times)
    stats: dict = {} if path is None else {"path": path}
    stats["seconds"] = [round(t, 4) for t in times]
    stats["seconds_best"] = round(best, 4)
    if first:
        stats["seconds_first"] = round(times[0], 4)
    for unit, count in counts.items():
        stats[f"{unit}_per_second"] = round(count / best, 1)
    return stats


def speedup(reference: list[float], fast: list[float]) -> float:
    """Best reference time over best fast time."""
    return round(min(reference) / min(fast), 2)


def plan_fingerprint(planned) -> tuple:
    """Everything a plan-choice divergence would perturb."""
    return (
        tuple((op.op_type.value, op.partition_count) for op in planned.plan.walk()),
        planned.estimated_cost,
        planned.candidates_considered,
    )


def host() -> dict:
    """The machine a result was measured on (its ``environment`` block)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def write_result(result: dict, path: str | Path) -> Path:
    """Write the benchmark result as pretty JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(result, indent=2) + "\n")
    return path


#: ``(message, holds)``: the message is reported when ``holds(result)`` is falsy.
Gate = tuple[str, Callable[[dict], object]]
#: ``(option string, add_argument keywords)``.
Flag = tuple[str, dict]


@dataclass(frozen=True)
class Bench:
    """One layer benchmark: where it lives, what it accepts, what fails it."""

    #: Module under ``repro.experiments`` defining ``run_benchmark`` and
    #: ``format_result``; imported when run (the modules import this one).
    module: str
    out: str
    help: str
    flags: tuple[Flag, ...]
    gates: tuple[Gate, ...]
    #: Flag values -> ``run_benchmark`` keywords where the two differ; a
    #: ``ValueError`` is a usage error.
    arguments: Callable[[dict], dict] = dict

    def failures(self, result: dict) -> list[str]:
        """The message of every parity gate ``result`` does not hold."""
        return [message for message, holds in self.gates if not holds(result)]


def _flag(option: str, **kwargs) -> Flag:
    return option, kwargs


def _pair_configs(values: dict) -> dict:
    shards, workers = values.pop("shards"), values.pop("workers")
    if len(shards) != len(workers):
        raise ValueError("--shards and --workers must pair up")
    return {**values, "configs": tuple(zip(shards, workers))}


def _select_scenarios(values: dict) -> dict:
    from repro.experiments.fault_tolerance import list_scenarios, select_scenarios

    if values.pop("list_scenarios"):
        print(list_scenarios())
        raise SystemExit(0)  # informational, like --help: nothing runs
    only = values.pop("scenario")
    if only:
        values["scenarios"], values["pipeline_scenarios"] = select_scenarios(only)
    return values


_SCALE = _flag("--scale", default="small", choices=sorted(SCALES),
               help="workload scale (default: small)")
_SEED = _flag("--seed", type=int, default=0, help="deterministic seed (default: 0)")
_DAYS = _flag("--days", type=int, nargs="+", default=[1, 2, 3],
              help="workload days to generate (default: 1 2 3)")
_CLUSTERS = _flag("--clusters", nargs="+", default=["cluster1", "cluster2"],
                  help="clusters to serve (default: cluster1 cluster2)")
_MAX_JOBS = _flag("--max-jobs", dest="max_jobs_per_cluster", type=int, default=None,
                  metavar="N", help="cap jobs per cluster (smoke runs)")


def _repeats(default: int) -> Flag:
    return _flag("--repeats", type=int, default=default,
                 help=f"timed repeats per path (default: {default})")


def _epochs(default: int, per: str) -> Flag:
    return _flag("--epochs", type=int, default=default,
                 help=f"replay epochs per {per} (default: {default})")


BENCHES: dict[str, Bench] = {
    "train": Bench(
        module="train_throughput",
        out="BENCH_train.json",
        help="time the scalar-reference vs columnar trainer, write BENCH_train.json",
        flags=(_SCALE, _DAYS, _SEED, _repeats(3)),
        gates=(
            ("columnar predictions diverged from the scalar reference",
             lambda r: r["predictions_bitwise_identical"]),
        ),
    ),
    "workload": Bench(
        module="workload_throughput",
        out="BENCH_workload.json",
        help="time the scalar vs batched workload engine, write BENCH_workload.json",
        flags=(_SCALE, _DAYS, _SEED, _repeats(3)),
        gates=(
            ("batched run log diverged from the scalar reference",
             lambda r: r["runlogs_bitwise_identical"]),
        ),
    ),
    "predict": Bench(
        module="predict_throughput",
        out="BENCH_predict.json",
        help="time the grouped vs packed serving path, write BENCH_predict.json",
        flags=(_SCALE, _DAYS, _SEED, _repeats(5)),
        gates=(
            ("packed predictions diverged from the grouped reference",
             lambda r: r["predictions_bitwise_identical"]),
        ),
    ),
    "plan": Bench(
        module="plan_throughput",
        out="BENCH_plan.json",
        help="time scalar vs batched learned-cost planning, write BENCH_plan.json",
        flags=(_SCALE, _SEED, _repeats(5)),
        gates=(
            ("batched planning diverged from the scalar planner",
             lambda r: r["plans_bitwise_identical"]),
        ),
    ),
    "replan": Bench(
        module="replan_throughput",
        out="BENCH_replan.json",
        help="time per-job vs fleet skeleton replanning, write BENCH_replan.json",
        flags=(
            _SCALE,
            _SEED,
            _repeats(5),
            _flag("--instances", type=int, default=4,
                  help="live instances per recurring job (default: 4)"),
        ),
        gates=(
            ("fleet replay diverged from the per-job planner",
             lambda r: r["plans_bitwise_identical"]),
            ("fleet replay changed per-prediction lookup accounting",
             lambda r: r["lookup_accounting_identical"]),
        ),
    ),
    "serving": Bench(
        module="serving_throughput",
        out="BENCH_serving.json",
        help="load-test the sharded serving tier, write BENCH_serving.json",
        flags=(
            _SCALE,
            _CLUSTERS,
            _SEED,
            _epochs(4, "configuration"),
            _flag("--shards", type=int, nargs="+", default=[1, 1, 2, 4],
                  help="shard count per configuration (paired with --workers)"),
            _flag("--workers", type=int, nargs="+", default=[1, 4, 4, 4],
                  help="worker count per configuration (paired with --shards)"),
            _MAX_JOBS,
        ),
        gates=(
            ("sharded predictions diverged from the single-process service",
             lambda r: r["predictions_bitwise_identical"]),
        ),
        arguments=_pair_configs,
    ),
    "faults": Bench(
        module="fault_tolerance",
        out="BENCH_faults.json",
        help="chaos-test the fleet and the training pipeline, write BENCH_faults.json",
        flags=(
            _SCALE,
            _CLUSTERS,
            _SEED,
            _epochs(2, "scenario"),
            _flag("--shards", type=int, default=3, help="shard count (default: 3)"),
            _flag("--workers", type=int, default=1,
                  help="fan-out workers; 1 keeps breaker replay exact (default: 1)"),
            _flag("--scenarios", nargs="+", default=list(SCENARIOS),
                  choices=list(SCENARIOS), metavar="NAME",
                  help="named serving fault scenarios (see repro.serving.faults)"),
            _flag("--scenario", action="append", default=None, metavar="NAME",
                  help="run only this scenario (repeatable; serving or pipeline "
                  "names; overrides --scenarios)"),
            _flag("--list-scenarios", action="store_true",
                  help="list every serving and pipeline chaos scenario, then exit"),
            _flag("--hedge-threshold", dest="hedge_threshold_s", type=float,
                  default=0.001, metavar="SECONDS",
                  help="latency SLO for hedged requests; 0 disables (default: 0.001)"),
            _MAX_JOBS,
        ),
        gates=(
            ("hardened router diverged from the fail-fast fleet",
             lambda r: r["zero_fault"]["predictions_bitwise_identical"]),
            ("hardened router stats diverged with faults disabled",
             lambda r: r["zero_fault"]["stats_counter_identical"]),
            ("a fault scenario dropped below availability 1.0",
             lambda r: r["all_available"]),
            ("a pipeline chaos scenario failed to recover",
             lambda r: r["pipeline_all_recovered"] is not False),
            # ``hedging`` is None when disabled or latency_spikes was not replayed.
            ("hedged serving diverged from the unhedged replay",
             lambda r: not r["hedging"]
             or r["hedging"]["predictions_bitwise_identical"]),
            ("hedging enabled but no request was hedged",
             lambda r: not r["hedging"] or r["hedging"]["hedges"] > 0),
            ("hedged serving dropped below availability 1.0",
             lambda r: not r["hedging"] or r["hedging"]["availability"] == 1.0),
        ),
        arguments=_select_scenarios,
    ),
}


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach one sub-command per benchmark; shared by ``repro bench`` and
    ``scripts/bench.py``."""
    names = parser.add_subparsers(dest="name", required=True, metavar="NAME")
    for name, bench in BENCHES.items():
        sub = names.add_parser(name, help=bench.help, description=bench.help)
        dests = [
            sub.add_argument(option, **kwargs).dest for option, kwargs in bench.flags
        ]
        sub.add_argument("--out", default=bench.out,
                         help=f"output JSON path (default: {bench.out})")
        sub.set_defaults(func=run, usage_error=sub.error, dests=dests)


def run(args: argparse.Namespace) -> int:
    bench = BENCHES[args.name]
    values = {dest: getattr(args, dest) for dest in args.dests}
    try:
        kwargs = bench.arguments(values)
    except ValueError as exc:
        args.usage_error(str(exc))  # exits 2 with the usage text
    module = importlib.import_module(f"repro.experiments.{bench.module}")
    result = module.run_benchmark(**kwargs)
    result["environment"] = host()
    path = write_result(result, args.out)
    print(module.format_result(result))
    print(f"wrote {path}")
    failed = bench.failures(result)
    for message in failed:
        print(f"ERROR: {message}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="layer benchmarks: a fast path vs its reference, same run, "
        "with bitwise-parity gates",
    )
    configure_parser(parser)
    args = parser.parse_args(argv)
    return run(args)

