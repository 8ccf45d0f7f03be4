"""Extension: quantifying the Section 6.7 cost-model applications.

The paper closes by naming the cost-model use cases beyond plan selection
— performance prediction, resource allocation, task-runtime estimation for
scheduling, progress estimation — and leaves them as future work.  This
experiment measures each of them on the reproduction's substrate, always
comparing the learned models against the default heuristic model so the
value of accuracy (not of the surrounding machinery) is what's measured:

* **prediction**: correlation and median error of predicted vs actual
  *job-level* latencies, plus split-half calibrated 90% interval coverage;
* **scheduling**: mean job completion time and makespan under a contended
  container pool when the scheduler orders tasks by learned, default, or
  oracle runtime estimates;
* **progress**: mean deviation from ideal progress for the work-weighted
  indicator (learned predictions as weights) vs the stage-count baseline.
"""

from __future__ import annotations

import numpy as np

from repro.applications.prediction import JobPerformancePredictor
from repro.applications.progress import (
    ProgressEstimator,
    evaluate_stage_count_baseline,
)
from repro.applications.scheduling import SchedulingStudy
from repro.common.stats import median_error_pct, pearson
from repro.cost.default_model import DefaultCostModel
from repro.execution.runtime_log import RunLog
from repro.execution.trace import trace_job
from repro.experiments.harness import ExperimentResult
from repro.experiments.shared import get_bundle

#: Jobs fed to the scheduler study and the progress study.
N_STUDY_JOBS = 24


def run(scale: str = "small", seed: int = 0) -> ExperimentResult:
    bundle = get_bundle("cluster1", scale=scale, seed=seed)
    service = bundle.service()
    test_jobs = list(bundle.test_log())
    plans = {job.job_id: bundle.runner.plans[job.job_id] for job in test_jobs}

    rows: list[dict] = []

    # ---- 1. Job-level performance prediction --------------------------- #
    perf = JobPerformancePredictor(service, bundle.fresh_estimator())
    pairs = perf.validate_jobs(plans, bundle.test_log())
    predicted = np.array([p for p, _ in pairs.values()])
    actual = np.array([a for _, a in pairs.values()])
    rows.append(
        {
            "application": "prediction",
            "metric": "job-latency pearson",
            "learned": round(pearson(predicted, actual), 3),
            "default": None,
        }
    )
    rows.append(
        {
            "application": "prediction",
            "metric": "job-latency median error %",
            "learned": round(median_error_pct(predicted, actual), 1),
            "default": None,
        }
    )

    # Split-half calibration: even jobs calibrate, odd jobs evaluate.
    calibration_log = RunLog()
    calibration_log.extend(test_jobs[::2])
    evaluation = test_jobs[1::2]
    perf.calibrate_jobs(plans, calibration_log)
    covered = sum(
        perf.predict_interval(plans[job.job_id], coverage=0.9).contains(
            job.latency_seconds
        )
        for job in evaluation
    )
    rows.append(
        {
            "application": "prediction",
            "metric": "90% interval coverage %",
            "learned": round(100.0 * covered / max(len(evaluation), 1), 1),
            "default": None,
        }
    )

    # ---- 2. Scheduling with estimated task runtimes --------------------- #
    study_jobs = {job.job_id: plans[job.job_id] for job in test_jobs[:N_STUDY_JOBS]}
    traces = {
        job_id: trace_job(bundle.runner.simulator, plan) for job_id, plan in study_jobs.items()
    }
    # Pool sized to force contention: ~15% of the summed gang demand.
    demand = sum(s.partition_count for trace in traces.values() for s in trace.stages)
    pool = max(8, int(0.15 * demand / max(len(study_jobs), 1)))
    study = SchedulingStudy(
        simulator=bundle.runner.simulator,
        estimator=bundle.fresh_estimator(),
        total_containers=pool,
        policy="sjf",
    )
    outcomes = study.run(
        study_jobs,
        {"learned": service, "default": DefaultCostModel()},
    )
    oracle = study.oracle(study_jobs)
    for metric, extract in (
        ("mean job completion s", lambda o: round(o.mean_job_completion, 1)),
        ("makespan s", lambda o: round(o.makespan, 1)),
    ):
        rows.append(
            {
                "application": "scheduling",
                "metric": metric,
                "learned": extract(outcomes["learned"]),
                "default": extract(outcomes["default"]),
                "oracle": extract(oracle),
            }
        )

    # ---- 3. Progress estimation ----------------------------------------- #
    weighted_errors = []
    baseline_errors = []
    for job_id, plan in study_jobs.items():
        trace = traces[job_id]
        estimator = ProgressEstimator(perf.predict(plan))
        weighted_errors.append(estimator.evaluate(trace).mean_abs_error)
        baseline_errors.append(evaluate_stage_count_baseline(trace).mean_abs_error)
    rows.append(
        {
            "application": "progress",
            "metric": "mean |progress error|",
            "learned": round(float(np.mean(weighted_errors)), 3),
            "default": round(float(np.mean(baseline_errors)), 3),
        }
    )

    return ExperimentResult(
        experiment_id="ext_applications",
        title="Extension: Section 6.7 cost-model applications, quantified",
        rows=rows,
        paper={
            "section_6_7": (
                "performance prediction, resource allocation, task runtimes "
                "for scheduling, progress estimation named as future work"
            )
        },
        notes=(
            "Learned estimates should track job latency strongly, schedule "
            "within a few percent of the oracle (default trails), and beat "
            "stage-count progress tracking."
        ),
    )
