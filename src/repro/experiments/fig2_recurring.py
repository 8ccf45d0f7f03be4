"""Figure 2: 150 instances of an hourly recurring job.

The paper's example job varies from ~70 TiB to ~119 TiB of input and from
41 minutes to 2.4 hours of latency across 150 instances.  We instantiate one
recurring template 150 times (hourly over ~6 days of drifting inputs) and
report the input-size and latency spread.
"""

from __future__ import annotations

import numpy as np

from repro.execution.batch import BatchedExecutionEngine
from repro.experiments.harness import ExperimentResult
from repro.experiments.shared import get_bundle
from repro.workload.templates import JobSpec, instantiate

PAPER = {
    "input_gib": (69_859.0, 118_625.0),
    "latency_minutes": (40.8, 141.0),
    "instances": 150,
}


def run(scale: str = "small", seed: int = 0, instances: int = 150) -> ExperimentResult:
    bundle = get_bundle("cluster1", scale=scale, seed=seed)
    template = bundle.generator.templates[0]
    runner = bundle.runner

    engine = BatchedExecutionEngine(runner.simulator)
    for i in range(instances):
        # Hourly cadence: ~24 instances per day; shorter series are spread
        # over the same ~6-day drift window so the input variation the
        # figure shows is visible at any instance count.
        per_day = max(1, instances // 6)
        day = 1 + i // per_day
        job = JobSpec(
            job_id=f"{template.template_id}_hourly_{i:03d}",
            template=template,
            day=day,
            instance_seed=seed * 10_000 + i,
        )
        catalog = bundle.generator.catalog_for_day(day)
        logical = instantiate(job, catalog)
        runner._planner.jitter_salt = job.job_id
        engine.add_plan(
            runner._planner.plan(logical).plan,
            runner._estimator,
            job_id=job.job_id,
            template_id=template.template_id,
            day=day,
        )
    records = engine.finish()
    inputs_gib = [record.input_gib for record in records]
    latencies_min = [record.latency_seconds / 60.0 for record in records]

    inputs = np.asarray(inputs_gib)
    lats = np.asarray(latencies_min)
    rows = [
        {
            "metric": "total input (GiB)",
            "min": round(float(inputs.min()), 1),
            "max": round(float(inputs.max()), 1),
            "spread_x": round(float(inputs.max() / inputs.min()), 2),
        },
        {
            "metric": "latency (minutes)",
            "min": round(float(lats.min()), 1),
            "max": round(float(lats.max()), 1),
            "spread_x": round(float(lats.max() / lats.min()), 2),
        },
    ]
    return ExperimentResult(
        experiment_id="fig2",
        title=f"{instances} instances of an hourly recurring job",
        rows=rows,
        series={"input_gib": inputs_gib, "latency_minutes": latencies_min},
        paper=PAPER,
        notes="Paper job spans 1.7x input and 3.5x latency; spreads of the same order hold here.",
    )
