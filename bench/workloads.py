"""The four workloads.  Each is a closed loop with one client.

A workload sets up its fixtures, runs one untimed warm-up unit, then rounds.
A round is made of *ops* (a night, a cluster's retrain, a job compile, a
serving request); ``op`` is the method the tracer wraps as the root span, so
the untraced path carries no tracing code at all.  Every timed stretch runs
inside a :meth:`Meter.chunk`, which brackets it with calibration spins.

An op fails if it raises, returns a non-finite or negative cost, or disagrees
with its oracle.  Oracles run outside the timed chunks, on the retained
independent paths (scalar planner, in-memory predictor, reference trainer,
cache-less single-process service).
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import ClassVar, Iterator

import numpy as np

from repro.cardinality.estimator import CardinalityEstimator
from repro.core import robustness, serialization
from repro.core.cost_model import CleoCostModel
from repro.core.packed import PackedModelBank
from repro.core.trainer import CleoTrainer
from repro.optimizer.partition import SamplingStrategy
from repro.optimizer.planner import PlannedJob, PlannerConfig, QueryPlanner
from repro.optimizer.replan import FleetReplanner
from repro.serving.service import CleoService, ServiceStats
from repro.serving.shard.loadgen import PlanJob
from repro.serving.shard.router import ShardedCleoRouter

from bench.clock import Calibrator, Chunk
from bench.fixtures import N_SHARDS, CompileJob, Fleet, paper_split

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Share of planned jobs re-planned on the scalar path as the oracle.
ORACLE_SHARE = 0.05


class Meter:
    """Sums the chunks of one op, round or set-up."""

    def __init__(self, cal: Calibrator) -> None:
        self.cal = cal
        self.seconds = 0.0
        self.wall = 0.0

    @contextmanager
    def chunk(self) -> Iterator[Chunk]:
        with self.cal.chunk() as chunk:
            yield chunk
        self.seconds += chunk.seconds
        self.wall += chunk.wall


@dataclass
class Round:
    """What one timed round did."""

    work: float
    seconds: float  # calibrated
    wall: float
    ops_ms: list[float] = field(default_factory=list)  # calibrated, per op
    attempted: int = 0
    failed: int = 0


def _cost_ok(value: float) -> bool:
    return bool(np.isfinite(value)) and value >= 0.0


def _fingerprint(planned: PlannedJob) -> tuple:
    """What a diverging plan choice would change."""
    return (
        tuple((op.op_type.value, op.partition_count) for op in planned.plan.walk()),
        planned.estimated_cost,
    )


def _report_failure(what: str) -> None:
    print(f"bench: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    """Common shape; subclasses fill in set-up, warm-up, round and oracle."""

    name: ClassVar[str]
    #: What ``work_per_s`` counts and what one op is, for the printed report.
    work_unit: ClassVar[str]
    op_unit: ClassVar[str]
    #: Rounds of the fixed slice a traced run measures.
    trace_rounds: ClassVar[int]

    def __init__(self, seed: int, scale: str, cal: Calibrator) -> None:
        self.seed = seed
        self.scale = scale
        self.cal = cal
        self.fleet: Fleet
        #: Every router the rounds served through since ``reset_counters``.
        self.routers: list[ShardedCleoRouter] = []

    def setup(self, meter: Meter) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> Round:
        """Run timed round ``r``."""
        raise NotImplementedError

    def verify(self) -> int:
        """Run the oracles that wait until timing is over; returns the
        number of ops that disagreed."""
        return 0

    def close(self) -> None:
        for router in self.routers:
            router.close()

    def reset_counters(self) -> None:
        """Forget the warm-up, so counters cover the rounds only."""
        self.fleet.rows_dropped = 0
        for router in self.routers:
            router.reset_stats()

    def counters(self) -> dict[str, float]:
        """Exact per-layer counts since ``reset_counters``."""
        stats = ServiceStats.aggregate(router.stats() for router in self.routers)
        per_shard = [0] * N_SHARDS
        for router in self.routers:
            for shard, shard_stats in enumerate(router.shard_stats()):
                per_shard[shard] += shard_stats.predictions
        return {
            "features.rows_dropped": self.fleet.rows_dropped,
            "core.cost_model.lookups": sum(r.lookup_count for r in self.routers),
            "serving.service.predictions": stats.predictions,
            "serving.service.model_calls": stats.model_calls,
            "serving.service.in_batch_reuses": stats.in_batch_reuses,
            "serving.cache.hit_rate": stats.hit_rate,
            "serving.cache.evictions": stats.cache.evictions,
            "serving.shard.max_shard_share": max(per_shard) / max(1, sum(per_shard)),
            "serving.shard.retries": stats.retries,
            "serving.shard.degraded_predictions": stats.degraded_predictions,
        }

    def side_pass(self) -> dict[str, float]:
        """Per-layer numbers that need a run of their own, after the traced
        rounds and outside the tracer."""
        return {}

    def _build_fleet(self, meter: Meter, days: list[int]) -> None:
        """Every set-up starts here: the four clusters, ``days`` executed."""
        with meter.chunk():
            self.fleet = Fleet(self.seed, self.scale)
        for name in self.fleet.names:
            with meter.chunk():
                self.fleet.execute(name, days)

    def _train_fleet(self, meter: Meter) -> dict:
        """Set-up of the read-side workloads: models from days 1-2."""
        self._build_fleet(meter, [1, 2])
        predictors = {}
        for name in self.fleet.names:
            with meter.chunk():
                predictors[name] = self.fleet.train(name, (1, 2))
        return predictors


# --------------------------------------------------------------------- #
# nightly_loop
# --------------------------------------------------------------------- #


@dataclass
class _Night:
    """What a night leaves behind once its plans have met the oracle."""

    jobs: int = 0
    operators: int = 0
    models_trained: int = 0
    replan_stats: list = field(default_factory=list)  # SkeletonPlannerStats
    cleo_latency: float = 0.0
    default_latency: float = 0.0
    errors_pct: list[float] = field(default_factory=list)
    failed: int = 0


class NightlyLoop(Workload):
    """Day N logs -> retrain -> deploy -> day N+1 replanned, executed, scored."""

    name = "nightly_loop"
    work_unit = "jobs taken through a night"
    op_unit = "one fleet night"
    trace_rounds = 2
    #: Days 1-2 are executed in set-up and day 3 is the warm-up.
    first_night = 4

    def __init__(self, seed: int, scale: str, cal: Calibrator) -> None:
        super().__init__(seed, scale, cal)
        self.nights: list[_Night] = []
        self._rng = random.Random(seed)

    def setup(self, meter: Meter) -> None:
        self._build_fleet(meter, [1, 2])

    def warm_up(self) -> None:
        # The smallest cluster takes the whole night; the others only
        # execute the day, so that every log reaches day 3.
        *others, smallest = self.fleet.names
        self.op(3, (smallest,), Meter(self.cal))
        for name in others:
            self.fleet.execute(name, [3])

    def reset_counters(self) -> None:
        self.nights.clear()
        self.routers.clear()
        super().reset_counters()

    def round(self, r: int) -> Round:
        meter = Meter(self.cal)
        day = self.first_night + r
        fleet = self.fleet
        try:
            night, predictors, planned = self.op(day, fleet.names, meter)
            jobs = night.jobs
            failed = night.failed + self._oracle(predictors, planned)
        except Exception:
            _report_failure(f"night {day}")
            jobs = failed = sum(
                len(fleet.generators[name].jobs_for_day(day)) for name in fleet.names
            )
        return Round(
            work=jobs,
            seconds=meter.seconds,
            wall=meter.wall,
            ops_ms=[1e3 * meter.seconds],
            attempted=jobs,
            failed=failed,
        )

    def op(self, day: int, names: tuple[str, ...], meter: Meter):
        """One night; returns its record, its predictors and, per cluster,
        ``(jobs, plans)`` for the oracle."""
        fleet = self.fleet
        night = _Night()
        predictors, planned = {}, {}
        for name in names:
            with meter.chunk():
                predictors[name] = fleet.train(name, (day - 2, day - 1))
            night.models_trained += predictors[name].store.count()
        with meter.chunk():
            router = ShardedCleoRouter(predictors, n_shards=N_SHARDS, n_workers=1)
        self.routers.append(router)
        for name in names:
            with meter.chunk():
                jobs = fleet.replan_jobs(name, day)
                replanner = FleetReplanner(
                    router.cost_model(name), CardinalityEstimator(), PlannerConfig()
                )
                planned[name] = (jobs, replanner.replan_jobs(jobs))
            night.jobs += len(jobs)
            night.replan_stats.append(replanner.stats())
        for name in names:
            with meter.chunk():
                day_log = fleet.execute(name, [day])
            night.operators += day_log.operator_count
            with meter.chunk():
                simulator = fleet.runners[name].simulator
                default_plans = fleet.runners[name].plans
                for job, plan in zip(*planned[name]):
                    cleo = simulator.expected_job_latency(plan.plan)
                    default = simulator.expected_job_latency(default_plans[job.job_id])
                    if not (
                        _cost_ok(plan.estimated_cost)
                        and _cost_ok(cleo)
                        and _cost_ok(default)
                    ):
                        night.failed += 1
                    night.cleo_latency += cleo
                    night.default_latency += default
            with meter.chunk():
                quality = robustness.evaluate_predictor_on_log(predictors[name], day_log)
            night.errors_pct.append(quality.median_error_pct)
        # The counters outlive the night; cached predictions and what the
        # next night will not train on need not.
        router.clear_caches()
        for name in names:
            fleet.forget_before(name, day - 1)
        self.nights.append(night)
        return night, predictors, planned

    def _oracle(self, predictors: dict, planned: dict) -> int:
        """A seeded sample of the night's jobs, re-planned one at a time on
        the scalar path: same plan, bitwise the same cost."""
        mismatches = 0
        for name, (jobs, plans) in planned.items():
            planner = QueryPlanner(
                CleoCostModel(predictors[name], batched=False),
                CardinalityEstimator(),
                PlannerConfig(),
            )
            for i in _sample(self._rng, len(jobs)):
                planner.jitter_salt = jobs[i].salt
                oracle = planner.plan(jobs[i].logical)
                mismatches += _fingerprint(oracle) != _fingerprint(plans[i])
        return mismatches

    def counters(self) -> dict[str, float]:
        out = super().counters()
        nights = self.nights
        stats = [s for night in nights for s in night.replan_stats]
        cleo = sum(night.cleo_latency for night in nights)
        default = sum(night.default_latency for night in nights)
        errors = [e for night in nights for e in night.errors_pct]
        out.update(
            {
                "workload.jobs": sum(night.jobs for night in nights),
                "execution.operators": sum(night.operators for night in nights),
                "core.trainer.models_trained": sum(n.models_trained for n in nights),
                "optimizer.replan.skeleton_hits": sum(s.skeleton_hits for s in stats),
                "optimizer.replan.skeleton_builds": sum(s.skeleton_builds for s in stats),
                "optimizer.replan.frontier_flushes": sum(
                    s.frontier_flushes for s in stats
                ),
                "quality.loop_median_err_pct": median(errors) if errors else 0.0,
                "quality.loop_latency_gain_pct": (
                    100.0 * (1.0 - cleo / default) if default else 0.0
                ),
            }
        )
        return out


def _sample(rng: random.Random, n: int) -> list[int]:
    """Indices of the oracle's share of ``n`` ops (at least one)."""
    return sorted(rng.sample(range(n), max(1, round(ORACLE_SHARE * n))))


# --------------------------------------------------------------------- #
# retrain_window
# --------------------------------------------------------------------- #


class RetrainWindow(Workload):
    """The write side of the model store: featurize, train, pack, save, load."""

    name = "retrain_window"
    work_unit = "operator rows trained"
    op_unit = "one cluster's retrain"
    trace_rounds = 3
    #: Days executed in set-up; windows slide over all but the last, which is
    #: only ever the held-out day of the loaded-model oracle.
    log_days = 4

    def __init__(self, seed: int, scale: str, cal: Calibrator) -> None:
        super().__init__(seed, scale, cal)
        self.models_trained = 0
        self.bytes_saved = 0

    def setup(self, meter: Meter) -> None:
        self._build_fleet(meter, list(range(1, self.log_days + 1)))
        OUT_DIR.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="models-")

    def close(self) -> None:
        self._tmp.cleanup()
        super().close()

    def _window(self, r: int) -> tuple[int, int]:
        first = 1 + r % (self.log_days - 2)
        return (first, first + 1)

    def warm_up(self) -> None:
        # Held-out tables for the oracle, built where no span or chunk sees it.
        self._held_out = {
            (name, day): self.fleet.logs[name].filter(days=[day]).to_table()
            for name in self.fleet.names
            for day in range(3, self.log_days + 1)
        }
        self.op(self.fleet.names[-1], self._window(0), Meter(self.cal))

    def reset_counters(self) -> None:
        self.models_trained = self.bytes_saved = 0
        super().reset_counters()

    def round(self, r: int) -> Round:
        window = self._window(r)
        out = Round(work=0, seconds=0.0, wall=0.0)
        for name in self.fleet.names:
            meter = Meter(self.cal)
            out.attempted += 1
            try:
                rows, predictor, loaded = self.op(name, window, meter)
                table = self._held_out[name, window[-1] + 1]
                served = CleoService(loaded, prediction_cache_size=0).predict_table(table)
                expected = CleoService(predictor, prediction_cache_size=0).predict_table(table)
                ok = (
                    np.array_equal(served, expected)
                    and bool(np.isfinite(served).all())
                    and bool((served >= 0.0).all())
                )
            except Exception:
                _report_failure(f"retrain of {name} on days {window}")
                rows, ok = 0, False
            out.failed += not ok
            out.work += rows
            out.seconds += meter.seconds
            out.wall += meter.wall
            out.ops_ms.append(1e3 * meter.seconds)
        return out

    def op(self, name: str, window: tuple[int, int], meter: Meter):
        path = Path(self._tmp.name) / f"{name}.json"
        with meter.chunk():
            # A fresh filter, so the columnar table is rebuilt every time.
            log = self.fleet.logs[name].filter(days=window)
            rows = len(log.to_table())
            predictor = CleoTrainer().train(log, **paper_split(window))
        with meter.chunk():
            PackedModelBank.compile(predictor.store)
            serialization.save_predictor(predictor, path)
            loaded = serialization.load_predictor(path)
        self.models_trained += predictor.store.count()
        self.bytes_saved += path.stat().st_size
        return rows, predictor, loaded

    def verify(self) -> int:
        """The columnar trainer against ``train_reference`` on one window of
        the smallest cluster: bitwise the same predictions on the next day."""
        name = self.fleet.names[-1]
        window = self._window(0)
        log = self.fleet.logs[name].filter(days=window)
        split = paper_split(window)
        table = self._held_out[name, window[-1] + 1]
        fast, reference = (
            CleoService(predictor, prediction_cache_size=0).predict_table(table)
            for predictor in (
                CleoTrainer().train(log, **split),
                CleoTrainer().train_reference(log, **split),
            )
        )
        return int(not np.array_equal(fast, reference))

    def counters(self) -> dict[str, float]:
        out = super().counters()
        out["core.trainer.models_trained"] = self.models_trained
        out["core.serialization.bytes"] = self.bytes_saved
        return out


# --------------------------------------------------------------------- #
# online_compile
# --------------------------------------------------------------------- #


class OnlineCompile(Workload):
    """An optimizer session: every job compiled once, resource-aware."""

    name = "online_compile"
    work_unit = "jobs compiled"
    op_unit = "one plan() call"
    trace_rounds = 2
    #: The first jobs of this fleet-day (models from days 1-2), round-robin
    #: across clusters.  Every round compiles the same jobs against caches
    #: emptied beforehand, so each job is planned once per cache lifetime and
    #: the rounds are identical.
    day = 3
    round_jobs = 128
    chunk_jobs = 8

    def setup(self, meter: Meter) -> None:
        self.predictors = self._train_fleet(meter)
        with meter.chunk():
            self.router = ShardedCleoRouter(
                self.predictors, n_shards=N_SHARDS, n_workers=1
            )
            self.routers.append(self.router)
            self.planners = {
                name: QueryPlanner(
                    self.router.cost_model(name), CardinalityEstimator(), self._config()
                )
                for name in self.fleet.names
            }
            self.jobs = self.fleet.compile_jobs(self.day)[: self.round_jobs]
        #: The first round's plans: every later round must choose the same.
        self.first: list[tuple] = []
        self.candidates = 0

    @staticmethod
    def _config() -> PlannerConfig:
        return PlannerConfig(partition_strategy=SamplingStrategy(scheme="geometric"))

    def warm_up(self) -> None:
        # Jobs of a training day: their keys are not the timed day's keys.
        for job in self.fleet.compile_jobs(2)[: self.chunk_jobs]:
            self.op(job)

    def reset_counters(self) -> None:
        self.candidates = 0
        super().reset_counters()

    def round(self, r: int) -> Round:
        for planner in self.planners.values():
            planner.cost_model.clear_cache()
        meter = Meter(self.cal)
        out = Round(work=len(self.jobs), seconds=0.0, wall=0.0, attempted=len(self.jobs))
        plans = []
        for at in range(0, len(self.jobs), self.chunk_jobs):
            walls = []
            with meter.chunk() as chunk:
                for job in self.jobs[at : at + self.chunk_jobs]:
                    start = time.perf_counter()
                    try:
                        planned = self.op(job)
                    except Exception:
                        _report_failure(f"compile of {job.job_id}")
                        plans.append(None)
                        continue
                    walls.append(time.perf_counter() - start)
                    plans.append(_fingerprint(planned))
                    self.candidates += planned.candidates_considered
            out.ops_ms.extend(1e3 * wall * chunk.factor for wall in walls)
        if not self.first:
            self.first = plans
        out.failed = sum(
            plan is None or not _cost_ok(plan[1]) or plan != first
            for plan, first in zip(plans, self.first)
        )
        out.seconds, out.wall = meter.seconds, meter.wall
        return out

    def op(self, job: CompileJob) -> PlannedJob:
        planner = self.planners[job.cluster]
        planner.jitter_salt = job.job_id
        return planner.plan(job.logical)

    def verify(self) -> int:
        """A seeded sample of the jobs on the scalar planner (``batched=
        False``, no router, no cache): same plan, bitwise the same cost."""
        planners = {
            name: QueryPlanner(
                CleoCostModel(predictor, batched=False),
                CardinalityEstimator(),
                self._config(),
            )
            for name, predictor in self.predictors.items()
        }
        mismatches = 0
        for i in _sample(random.Random(self.seed), len(self.jobs)):
            job = self.jobs[i]
            planner = planners[job.cluster]
            planner.jitter_salt = job.job_id
            mismatches += _fingerprint(planner.plan(job.logical)) != self.first[i]
        return mismatches

    def counters(self) -> dict[str, float]:
        out = super().counters()
        out["workload.jobs"] = len(self.jobs)
        out["optimizer.planner.candidates_considered"] = self.candidates
        return out


# --------------------------------------------------------------------- #
# serving_replay
# --------------------------------------------------------------------- #


class ServingReplay(Workload):
    """Request-shaped traffic: each day's stream three times back to back,
    so the first pass misses, inserts and evicts and the next two hit."""

    name = "serving_replay"
    work_unit = "scalar predictions served"
    op_unit = "one request"
    trace_rounds = 4
    days = (3, 4)
    passes = 3
    #: Per shard-service.  Eight of them hold one fleet-day's keys and not
    #: two, so every round evicts; at the router's default (65 536) nothing a
    #: run of this length can issue is ever evicted.
    cache_size = 1024

    def __init__(self, seed: int, scale: str, cal: Calibrator) -> None:
        super().__init__(seed, scale, cal)
        #: Calibrated request latency by pass: first (misses) and repeats (hits).
        self.first_pass_ms: list[float] = []
        self.repeat_pass_ms: list[float] = []

    def setup(self, meter: Meter) -> None:
        self.predictors = self._train_fleet(meter)
        self.streams = []
        for day in self.days:
            with meter.chunk():
                logs = {
                    name: self.fleet.execute(name, [day]) for name in self.fleet.names
                }
                self.streams.append(self.fleet.day_requests(logs))
        with meter.chunk():
            self.router = self._router(n_workers=1)
            self.routers.append(self.router)
            #: Scalar predictions each request asks for, by stream position.
            self.sizes = [
                [
                    sum(1 for _ in request.root.walk())
                    if isinstance(request, PlanJob)
                    else len(request.requests)
                    for request in stream
                ]
                for stream in self.streams
            ]

    def _router(self, n_workers: int) -> ShardedCleoRouter:
        return ShardedCleoRouter(
            self.predictors,
            n_shards=N_SHARDS,
            n_workers=n_workers,
            prediction_cache_size=self.cache_size,
        )

    def warm_up(self) -> None:
        """Round 1, cold; its first-pass replies are kept for the oracle."""
        self._cold_replies = self._replay(self.router, Round(0, 0.0, 0.0), keep=True)
        self.first_pass_ms.clear()
        self.repeat_pass_ms.clear()

    def round(self, r: int) -> Round:
        out = Round(work=0, seconds=0.0, wall=0.0)
        self._replay(self.router, out)
        return out

    def _replay(self, router, out: Round, keep: bool = False) -> list:
        meter = Meter(self.cal)
        kept = []
        for stream, sizes in zip(self.streams, self.sizes):
            for nth in range(self.passes):
                walls, replies = [], []
                with meter.chunk() as chunk:
                    for request in stream:
                        start = time.perf_counter()
                        try:
                            reply = self.op(request, router)
                        except Exception:
                            _report_failure(f"request for {request.job_id}")
                            reply = np.nan
                        walls.append(time.perf_counter() - start)
                        replies.append(reply)
                out.failed += sum(
                    not (np.isfinite(reply).all() and (np.asarray(reply) >= 0.0).all())
                    for reply in replies
                )
                out.attempted += len(stream)
                out.work += sum(sizes)
                ms = [1e3 * wall * chunk.factor for wall in walls]
                out.ops_ms.extend(ms)
                (self.repeat_pass_ms if nth else self.first_pass_ms).extend(ms)
                if keep and nth == 0:
                    kept.extend(replies)
        out.seconds += meter.seconds
        out.wall += meter.wall
        return kept

    def _estimator(self, cluster: str) -> CardinalityEstimator:
        """A fresh one per plan request: sessions share no estimator state."""
        return CardinalityEstimator(self.fleet.runners[cluster].estimator_config)

    def op(self, request, router: ShardedCleoRouter):
        cluster = request.cluster
        if isinstance(request, PlanJob):
            return router.predict_plan(cluster, request.root, self._estimator(cluster))
        return router.predict_batch(cluster, list(request.requests))

    def verify(self) -> int:
        """Every cold-round reply against a cache-less single-process
        ``CleoService``: bitwise equal."""
        services = {
            name: CleoService(predictor, prediction_cache_size=0)
            for name, predictor in self.predictors.items()
        }
        requests = [request for stream in self.streams for request in stream]
        mismatches = 0
        for request, reply in zip(requests, self._cold_replies):
            service = services[request.cluster]
            if isinstance(request, PlanJob):
                expected = service.predict_plan(
                    request.root, self._estimator(request.cluster)
                )
            else:
                expected = service.predict_batch(list(request.requests))
            mismatches += not np.array_equal(reply, expected)
        return mismatches

    def side_pass(self) -> dict[str, float]:
        """Steady-state predictions/s with ``n_workers = nproc`` over
        ``n_workers = 1``: does thread fan-out buy anything here?"""
        rates = []
        for n_workers in (1, os.cpu_count() or 1):
            router = self._router(n_workers)
            try:
                self._replay(router, Round(0, 0.0, 0.0))
                rounds = [Round(0, 0.0, 0.0) for _ in range(2)]
                for out in rounds:
                    self._replay(router, out)
                rates.append(median([out.work / out.seconds for out in rounds]))
            finally:
                router.close()
        return {"serving.shard.workers_nproc_over_1": rates[1] / rates[0]}

    def counters(self) -> dict[str, float]:
        out = super().counters()
        out["serving.shard.first_pass_p50_ms"] = median(self.first_pass_ms)
        out["serving.shard.repeat_pass_p50_ms"] = median(self.repeat_pass_ms)
        return out


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (NightlyLoop, RetrainWindow, OnlineCompile, ServingReplay)
}
