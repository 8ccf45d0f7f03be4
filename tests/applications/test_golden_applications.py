"""The applications' outputs pinned bit for bit (``golden_applications.json``).

Recorded before the applications were ported onto one stage schedule
(``repro.execution.trace``) and one pricing call
(``CleoCostModel.price_operators``); nothing in that port may move a number.
On the ``tiny`` seed-0 fixture, as ``float.hex``:

* ``predict`` / ``trace`` — every stage's seconds, CPU, start and finish and
  the job's latency and CPU, from ``JobPerformancePredictor.predict`` and
  ``trace_job``, for every test-day job;
* ``tasks`` / ``scheduling`` — ``job_to_tasks``'s estimated and actual
  seconds and ``SchedulingStudy`` outcomes (learned, default, oracle);
* ``sku``, ``allocation``, ``growth`` — ``SkuAdvisor.recommend``,
  ``ResourceAllocator.tradeoff_curve``, ``WhatIfAnalyzer.evaluate_growth``;
* ``progress``, ``calibrate``, ``calibrate_jobs`` — ``ProgressEstimator``
  and the predictor's calibration and intervals;
* ``ext_applications`` — ``ext_applications.run(scale="tiny")``'s rows.

Regenerate with ``PYTHONPATH=src python -m tests.applications.test_golden_applications``
— only when a change to an application's numbers is intended.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.applications.allocation import ResourceAllocator
from repro.applications.prediction import JobPerformancePredictor
from repro.applications.progress import ProgressEstimator, evaluate_stage_count_baseline
from repro.applications.scheduling import SchedulingStudy, job_to_tasks
from repro.applications.sku import MachineSku, SkuAdvisor
from repro.applications.whatif import WhatIfAnalyzer
from repro.cost.default_model import DefaultCostModel
from repro.execution.runtime_log import RunLog
from repro.execution.trace import trace_job
from repro.experiments import ext_applications
from repro.optimizer.partition import AnalyticalStrategy
from repro.optimizer.planner import PlannerConfig
from repro.plan.builder import PlanBuilder
from repro.serving.service import CleoService
from repro.workload.templates import instantiate
from tests.conftest import make_test_catalog

GOLDEN = Path(__file__).with_name("golden_applications.json")

SKUS = (
    MachineSku(name="standard", speed_factor=1.0, price_per_container_hour=0.10),
    MachineSku(name="fast", speed_factor=2.0, price_per_container_hour=0.25),
    MachineSku(name="slow", speed_factor=0.5, price_per_container_hour=0.04),
)
#: Jobs fed to the scheduling, SKU and progress studies.
N_JOBS = 12


def _hex(value: float) -> str:
    return float.hex(float(value))


def _timeline(timeline) -> dict:
    return {
        "stages": [
            [
                s.index,
                s.partition_count,
                _hex(s.seconds),
                _hex(s.cpu_seconds),
                _hex(s.start_seconds),
                _hex(s.finish_seconds),
                s.on_critical_path,
            ]
            for s in timeline.stages
        ],
        "latency": _hex(timeline.latency_seconds),
        "cpu": _hex(timeline.cpu_seconds),
    }


def _outcome(outcome) -> dict:
    return {
        "makespan": _hex(outcome.makespan),
        "completion": {k: _hex(v) for k, v in outcome.job_completion.items()},
        "busy": _hex(outcome.container_busy_seconds),
    }


def _digest(plan) -> str:
    shape = tuple((op.op_type.value, op.partition_count) for op in plan.walk())
    return hashlib.sha256(repr(shape).encode()).hexdigest()[:16]


def _logical_plans(bundle) -> dict:
    """The allocation test's join-aggregate plus two test-day jobs."""
    builder = PlanBuilder(make_test_catalog())
    events = builder.filter(builder.scan("events_2024_01_01"), "ts", 0.3, tag="al:f")
    users = builder.scan("users_2024_01_01")
    joined = builder.join(events, users, keys=("user_id", "user_id"), fanout=0.5, tag="al:j")
    aggregated = builder.aggregate(joined, keys=("country",), group_count=200, tag="al:a")
    out = {"report": builder.output(aggregated, name="alloc_report")}
    day = bundle.log.days[-1]
    catalog = bundle.generator.catalog_for_day(day)
    for spec in bundle.generator.jobs_for_day(day)[:2]:
        out[spec.job_id] = instantiate(spec, catalog)
    return out


def _calibration(report) -> dict:
    return {
        "n": report.n_operators,
        "quantiles": {str(q): _hex(v) for q, v in report.log_ratio_quantiles.items()},
    }


def collect(bundle, predictor) -> dict:
    jobs = list(bundle.test_log())
    plans = {job.job_id: bundle.runner.plans[job.job_id] for job in jobs}
    study = dict(list(plans.items())[:N_JOBS])
    simulator = bundle.runner.simulator
    out: dict = {}

    perf = JobPerformancePredictor(predictor, bundle.fresh_estimator())
    out["predict"] = {job_id: _timeline(perf.predict(plan)) for job_id, plan in plans.items()}
    out["trace"] = {
        job_id: _timeline(trace_job(simulator, plan)) for job_id, plan in plans.items()
    }

    models = {"learned": CleoService(predictor), "default": DefaultCostModel()}
    out["tasks"] = {
        name: {
            job_id: [
                [t.stage_index, t.containers, _hex(t.estimated_seconds),
                 _hex(t.actual_seconds), list(t.upstream)]
                for t in job_to_tasks(plan, job_id, model, bundle.fresh_estimator(), simulator)
            ]
            for job_id, plan in study.items()
        }
        for name, model in models.items()
    }
    out["scheduling"] = {}
    for policy in ("sjf", "lpt"):
        scheduling = SchedulingStudy(
            simulator=simulator,
            estimator=bundle.fresh_estimator(),
            total_containers=48,
            policy=policy,
        )
        outcomes = {name: _outcome(o) for name, o in scheduling.run(study, models).items()}
        outcomes["oracle"] = _outcome(scheduling.oracle(study))
        out["scheduling"][policy] = outcomes

    advisor = SkuAdvisor(predictor, bundle.fresh_estimator())
    out["sku"] = {}
    for job_id, plan in list(study.items())[:6]:
        standard = advisor.estimate(plan, SKUS[0]).latency_seconds
        for label, deadline in (("none", None), ("tight", 0.75 * standard), ("impossible", 1e-3)):
            recommendation = advisor.recommend(plan, list(SKUS), deadline_seconds=deadline)
            chosen = recommendation.chosen
            out["sku"][f"{job_id} {label}"] = {
                "chosen": None if chosen is None else chosen.sku.name,
                "estimates": [
                    [e.sku.name, _hex(e.dollar_cost), _timeline(e.prediction)]
                    for e in recommendation.estimates
                ],
                "frontier": [e.sku.name for e in recommendation.pareto_frontier],
            }

    logical = _logical_plans(bundle)
    allocator = ResourceAllocator(
        predictor,
        bundle.fresh_estimator(),
        base_config=PlannerConfig(max_partitions=256, partition_strategy=AnalyticalStrategy()),
    )
    out["allocation"] = {
        name: [
            [p.container_budget, _hex(p.predicted_latency), _hex(p.predicted_cpu_seconds),
             _digest(p.plan)]
            for p in allocator.tradeoff_curve(plan)
        ]
        for name, plan in logical.items()
    }
    analyzer = WhatIfAnalyzer(predictor, bundle.fresh_estimator())
    out["growth"] = {
        name: [
            [_hex(factor), _timeline(o.baseline), _timeline(o.variant)]
            for factor, o in analyzer.evaluate_growth(
                plan, next(node.table for node in plan.walk() if node.table), [1.0, 2.5, 4.0], name
            )
        ]
        for name, plan in logical.items()
    }

    out["progress"] = {}
    for job_id, plan in study.items():
        trace = trace_job(simulator, plan)
        estimator = ProgressEstimator(perf.predict(plan))
        report = estimator.evaluate(trace)
        baseline = evaluate_stage_count_baseline(trace)
        out["progress"][job_id] = {
            "weighted": [_hex(report.mean_abs_error), _hex(report.max_abs_error)],
            "baseline": [_hex(baseline.mean_abs_error), _hex(baseline.max_abs_error)],
            "curve": [[_hex(f), _hex(v)] for f, v in estimator.curve(trace, points=11)],
            "remaining": _hex(estimator.remaining_seconds(trace, trace.latency_seconds / 3)),
        }

    out["calibrate"] = _calibration(perf.calibrate(bundle.test_log()))
    calibration_log = RunLog()
    calibration_log.extend(jobs[::2])
    out["calibrate_jobs"] = _calibration(perf.calibrate_jobs(plans, calibration_log))
    out["calibrate_jobs"]["intervals"] = {
        job.job_id: [_hex(i.point), _hex(i.low), _hex(i.high)]
        for job in jobs[1::2]
        for i in [perf.predict_interval(plans[job.job_id], coverage=0.9)]
    }

    out["ext_applications"] = ext_applications.run(scale="tiny").rows
    return out


def test_applications_match_the_golden_file(tiny_bundle, tiny_predictor):
    assert collect(tiny_bundle, tiny_predictor) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    from repro.experiments.shared import get_bundle

    bundle = get_bundle("cluster1", scale="tiny", seed=0)
    GOLDEN.write_text(json.dumps(collect(bundle, bundle.predictor()), indent=1, sort_keys=True) + "\n")
