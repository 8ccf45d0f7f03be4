"""Spans recorded from outside: timing wrappers around public callables.

``Tracer.install`` replaces each target (a class attribute, or a module
function at the place it is looked up) with a wrapper that records a
``(name, start, end, parent, op)`` span; ``uninstall`` puts the originals
back.  Nothing under ``src/`` changes.  Spans are kept in memory and written
out once, at the end.

A span is recorded only inside a root span (``bench.op``, one per workload
op), so work the benchmark does for itself between ops (oracles, fixtures)
leaves no trace.  ``op`` is the index of the root span the span belongs to;
``parent`` the index of the span that called it (-1 for a root).  A layer's
self time is its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

import repro.core.learned_model
import repro.core.robustness
import repro.core.serialization
import repro.workload.runner
import repro.workload.templates
from repro.core.cost_model import CleoCostModel
from repro.core.packed import PackedModelBank
from repro.core.trainer import CleoTrainer
from repro.execution.batch import BatchedExecutionEngine
from repro.execution.runtime_log import RunLog
from repro.execution.simulator import ExecutionSimulator
from repro.ml.gbm import FastTreeRegressor
from repro.optimizer.partition import SamplingStrategy
from repro.optimizer.planner import QueryPlanner
from repro.optimizer.replan import FleetReplanner
from repro.optimizer.skeleton import SkeletonPlanner
from repro.serving.service import CleoService
from repro.serving.shard.router import ShardedCleoRouter
from repro.workload.runner import WorkloadRunner

import bench.clock
from bench import workloads

ROOT = "bench.op"


class Target(NamedTuple):
    owner: object  # class or module
    attribute: str
    name: str
    #: Counts something off the call's result (summed under ``name``).
    count: Callable[[object], int] | None = None


def _targets() -> list[Target]:
    router = "serving.shard.router."
    out = [
        Target(bench.clock, "spin", "bench.spin"),
        Target(WorkloadRunner, "run_days", "workload.run_days"),
        # ``instantiate`` where the runner and where the fixtures look it up.
        Target(repro.workload.runner, "instantiate", "workload.instantiate"),
        Target(repro.workload.templates, "instantiate", "workload.instantiate"),
        Target(SkeletonPlanner, "plan_job", "optimizer.skeleton.plan_job"),
        Target(FleetReplanner, "replan_jobs", "optimizer.replan.replan_jobs"),
        Target(QueryPlanner, "plan", "optimizer.planner.plan"),
        Target(SamplingStrategy, "choose", "optimizer.partition.choose"),
        Target(BatchedExecutionEngine, "add_job", "execution.batch.add_job"),
        Target(BatchedExecutionEngine, "finish", "execution.batch.finish"),
        Target(
            ExecutionSimulator, "expected_job_latency", "execution.simulator.expected_latency"
        ),
        Target(RunLog, "to_table", "features.to_table", count=len),
        Target(CleoTrainer, "train_individual", "core.trainer.train_individual"),
        Target(CleoTrainer, "train_combined", "core.trainer.train_combined"),
        Target(
            repro.core.learned_model, "fit_elastic_nets", "ml.proximal.fit_elastic_nets"
        ),
        Target(FastTreeRegressor, "fit", "ml.gbm.fit"),
        Target(PackedModelBank, "compile", "core.packed.compile"),
        Target(repro.core.serialization, "save_predictor", "core.serialization.save"),
        Target(repro.core.serialization, "load_predictor", "core.serialization.load"),
        Target(
            repro.core.robustness, "evaluate_predictor_on_log", "core.robustness.evaluate"
        ),
        Target(ShardedCleoRouter, "__init__", router + "construct"),
    ]
    for method in ("price_inputs", "price_plans", "price_stage_sweep", "price_operators"):
        out.append(Target(CleoCostModel, method, f"core.cost_model.{method}"))
    for method in ("predict_inputs", "predict_batch"):
        out.append(Target(CleoService, method, f"serving.service.{method}"))
    for method in ("predict_inputs", "predict_batch", "predict_plan"):
        out.append(Target(ShardedCleoRouter, method, router + method))
    for cls in workloads.WORKLOADS.values():
        out.append(Target(cls, "op", ROOT))
    return out


class Tracer:
    def __init__(self) -> None:
        #: ``(name, start, end, parent, op)``, in start order.
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------- #

    def install(self) -> None:
        for target in _targets():
            raw = vars(target.owner)[target.attribute]
            self._originals.append((target.owner, target.attribute, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            setattr(target.owner, target.attribute, wrapped)

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, raw = self._originals.pop()
            setattr(owner, attribute, raw)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        name, count, is_root = target.name, target.count, target.name == ROOT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack and not is_root:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)  # keeps start order; filled in on the way out
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, stack[0] if stack else index)
            if count is not None:
                counts[name] += count(result)
            return result

        return traced

    # -- reading -------------------------------------------------------- #

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds per span name: inclusive, and self (children taken out)."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent, _op), inside in zip(self.spans, covered):
            inclusive[name] += end - start
            own[name] += end - start - inside
        return inclusive, own

    def write(self, path: Path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, op in self.spans:
                span = {
                    "name": name,
                    "start": round(start - origin, 7),
                    "end": round(end - origin, 7),
                    "parent": parent,
                    "op": op,
                }
                out.write(json.dumps(span) + "\n")
