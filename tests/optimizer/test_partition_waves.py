"""One partition-exploration pass per wave (optimizer.partition._explore).

An ``explore_partitions`` wave makes ONE strategy call
(``PartitionStrategy.stage_counts``) over its explorable stages and ONE grid
call; under ``AnalyticalStrategy`` the strategy call is ONE
``resource_profiles`` call over every explorable operator of the wave, in
stage order.  Pinned with a recording cost model and with the serving
counters (``ServiceStats``, lookups), through a ``CleoService`` and through
the sharded router, for a ``QueryPlanner`` compile and for ``FleetReplanner``
waves.  ``choose``, the one-stage use of the pass, keeps its calls and
lookups: a sweep prices its one stage's grid, the analytical pick reads one
profiles call, the heuristic reads nothing.
"""

from __future__ import annotations

import math

import pytest

from repro.cardinality.estimator import CardinalityEstimator
from repro.core.cost_model import CleoCostModel
from repro.core.predictor import CleoPredictor
from repro.optimizer import search
from repro.optimizer.partition import (
    AnalyticalStrategy,
    DefaultHeuristicStrategy,
    ExhaustiveStrategy,
    SamplingStrategy,
    _stage_is_fixed,
    _stage_total,
)
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.optimizer.replan import FleetReplanner, ReplanJob
from repro.plan.stages import build_stage_graph
from repro.serving.service import CleoService
from repro.serving.shard.router import ShardedCleoRouter
from repro.workload.templates import instantiate

ANALYTICAL = PlannerConfig(partition_strategy=AnalyticalStrategy())


@pytest.fixture()
def recorded(monkeypatch):
    """Per call of the learned cost model's profile, grid and flush entry
    points: ``(entry, rows)``, in call order."""
    calls: list[tuple[str, int]] = []

    def record(name, rows_of):
        method = getattr(CleoCostModel, name)

        def wrapper(self, *args, **kwargs):
            calls.append((name, rows_of(*args)))
            return method(self, *args, **kwargs)

        monkeypatch.setattr(CleoCostModel, name, wrapper)

    record("resource_profiles", lambda ops, estimator: len(ops))
    record(
        "price_stage_sweep",
        lambda stages, estimator, candidates: sum(
            len(ops) * len(probes) for ops, probes in zip(stages, candidates)
        ),
    )
    record("price_inputs", lambda table: len(table))
    return calls


@pytest.fixture(scope="module")
def day_jobs(tiny_bundle) -> list[ReplanJob]:
    day = tiny_bundle.log.days[-1]
    catalog = tiny_bundle.generator.catalog_for_day(day)
    return [
        ReplanJob(spec.job_id, spec.template.template_id, spec.day, instantiate(spec, catalog))
        for spec in tiny_bundle.generator.jobs_for_day(day)
    ]


def _explorable_ops(plan) -> int:
    """Operators in ``plan``'s explorable stages (exploration never changes
    which stages are fixed: only partition counts move)."""
    return sum(
        len(stage.operators)
        for stage in build_stage_graph(plan).stages
        if not _stage_is_fixed(stage.operators)
    )


def _tiers(tiny_predictor):
    """A cache-off ``CleoService`` and a 3-shard cache-off router: ``(cost
    model, lookup count reader)`` per tier, the router closed by the caller."""
    service = CleoService(tiny_predictor, prediction_cache_size=0)
    router = ShardedCleoRouter({"c": tiny_predictor}, n_shards=3, prediction_cache_size=0)
    return [
        (service.cost_model(), lambda: service.predictor.lookup_count),
        (router.cost_model("c"), lambda: router.lookup_count),
    ], service, router


class TestOneProfilesCallPerWave:
    def test_query_planner_compile(self, tiny_predictor, day_jobs, recorded):
        tiers, service, router = _tiers(tiny_predictor)
        lookups_by_tier = []
        with router:
            for model, lookups in tiers:
                planner = QueryPlanner(model, CardinalityEstimator(), ANALYTICAL)
                explored = 0
                per_job = []
                for job in day_jobs:
                    recorded.clear()
                    batches, before = service.stats().batches, lookups()
                    planner.jitter_salt = job.salt
                    planned = planner.plan(job.logical)
                    per_job.append(lookups() - before)
                    names = [name for name, _ in recorded]
                    rows = _explorable_ops(planned.plan)
                    assert names.count("price_stage_sweep") == 1
                    profiles = [n for name, n in recorded if name == "resource_profiles"]
                    assert profiles == ([rows] if rows else [])
                    # The wave comes last: after the search's flushes, one
                    # profiles read (if anything is explorable), one grid.
                    wave = ["resource_profiles"] * len(profiles) + ["price_stage_sweep"]
                    assert names[-len(wave) :] == wave
                    if model.service is service:
                        # One batch per flush and one for the grid; the
                        # profiles read is not a pricing batch.
                        flushes = names.count("price_inputs")
                        assert service.stats().batches - batches == flushes + 1
                    explored += bool(rows)
                assert explored > len(day_jobs) // 2
                lookups_by_tier.append(per_job)
        assert lookups_by_tier[0] == lookups_by_tier[1]

    def test_fleet_replanner_waves(self, tiny_predictor, day_jobs, recorded, monkeypatch):
        waves = []
        explore = search.explore_partitions

        def counting_explore(plans, *args, **kwargs):
            waves.append(sum(_explorable_ops(plan) for plan in plans))
            return explore(plans, *args, **kwargs)

        monkeypatch.setattr(search, "explore_partitions", counting_explore)
        # Several exploration waves out of one tiny fleet.
        monkeypatch.setattr(search.CascadesSearch, "_LIVE_SEARCH_LIMIT", 8)
        tiers, service, router = _tiers(tiny_predictor)
        lookups_by_tier = []
        with router:
            for model, lookups in tiers:
                waves.clear()
                recorded.clear()
                batches, before = service.stats().batches, lookups()
                FleetReplanner(model, CardinalityEstimator(), ANALYTICAL).replan_jobs(day_jobs)
                lookups_by_tier.append(lookups() - before)
                assert len(waves) == math.ceil(len(day_jobs) / 8) > 1
                assert all(waves)
                names = [name for name, _ in recorded]
                assert [n for name, n in recorded if name == "resource_profiles"] == waves
                assert names.count("price_stage_sweep") == len(waves)
                if model.service is service:
                    flushes = names.count("price_inputs")
                    assert service.stats().batches - batches == flushes + len(waves)
        assert lookups_by_tier[0] == lookups_by_tier[1]


def _stage(tiny_bundle):
    """The largest explorable stage of the test day's largest plan."""
    job = max(tiny_bundle.test_log(), key=lambda j: len(j.operators))
    stages = build_stage_graph(tiny_bundle.runner.plans[job.job_id]).stages
    return max(
        (s for s in stages if not _stage_is_fixed(s.operators)),
        key=lambda s: len(s.operators),
    ).operators


class TestChooseKeepsItsCalls:
    @pytest.mark.parametrize(
        "strategy,max_partitions",
        [
            pytest.param(SamplingStrategy(scheme="geometric"), 3000, id="geometric"),
            pytest.param(ExhaustiveStrategy(), 24, id="exhaustive"),
        ],
    )
    def test_sweep_prices_its_one_stage_grid(
        self, tiny_bundle, tiny_predictor, recorded, strategy, max_partitions
    ):
        ops = _stage(tiny_bundle)
        grid = strategy.candidates(max_partitions)
        oracle = CleoCostModel(tiny_predictor, batched=False)
        tiny_predictor.reset_lookup_count()
        totals = [
            _stage_total(
                [oracle.operator_cost(op, CardinalityEstimator(), partition_override=p)
                 for op in ops]
            )
            for p in grid
        ]  # fmt: skip
        expected = grid[min(range(len(grid)), key=totals.__getitem__)]
        expected_lookups = tiny_predictor.lookup_count
        service = CleoService(tiny_predictor, prediction_cache_size=0)
        recorded.clear()
        tiny_predictor.reset_lookup_count()
        got = strategy.choose(ops, service.cost_model(), CardinalityEstimator(), max_partitions)
        assert got == expected
        assert recorded == [("price_stage_sweep", len(ops) * len(grid))]
        assert tiny_predictor.lookup_count == expected_lookups
        assert service.stats().batches == 1

    def test_analytical_reads_one_profiles_call(self, tiny_bundle, tiny_predictor, recorded):
        ops = _stage(tiny_bundle)
        service = CleoService(tiny_predictor, prediction_cache_size=0)
        covered = sum(
            p is not None
            for p in service.cost_model().resource_profiles(ops, CardinalityEstimator())
        )
        assert covered
        strategy = AnalyticalStrategy()
        recorded.clear()
        tiny_predictor.reset_lookup_count()
        got = strategy.choose(ops, service.cost_model(), CardinalityEstimator(), 3000)
        ((wave,),) = strategy.stage_counts(
            [ops], service.cost_model(), CardinalityEstimator(), 3000
        )
        assert got == wave
        assert recorded == [("resource_profiles", len(ops))] * 2
        assert tiny_predictor.lookup_count == 2 * covered * CleoPredictor.LOOKUPS_PER_PREDICTION
        assert service.stats().batches == 0

    def test_heuristic_reads_nothing(self, tiny_bundle, tiny_predictor, recorded):
        ops = _stage(tiny_bundle)
        service = CleoService(tiny_predictor, prediction_cache_size=0)
        recorded.clear()
        tiny_predictor.reset_lookup_count()
        DefaultHeuristicStrategy().choose(ops, service.cost_model(), CardinalityEstimator(), 3000)
        assert recorded == []
        assert tiny_predictor.lookup_count == 0
        assert service.stats().batches == 0


class TestWaveSplitsPerStage:
    def test_wave_pick_equals_per_stage_choose(self, tiny_bundle, tiny_predictor):
        """The one profiles call over many stages gives each stage exactly
        the pick its own one-stage call gives."""
        stages = [
            stage.operators
            for job in list(tiny_bundle.test_log())[:6]
            for stage in build_stage_graph(tiny_bundle.runner.plans[job.job_id]).stages
            if not _stage_is_fixed(stage.operators)
        ]
        assert len(stages) > 5
        model = CleoService(tiny_predictor).cost_model()
        for strategy in (AnalyticalStrategy(), AnalyticalStrategy(trust_region=None)):
            wave = strategy.stage_counts(stages, model, CardinalityEstimator(), 3000)
            solo = [
                [strategy.choose(ops, model, CardinalityEstimator(), 3000)] for ops in stages
            ]
            assert wave == solo
