"""Cross-process determinism of workload generation and execution.

Workload generation must not depend on ``PYTHONHASHSEED``: the same
``runner.run_days(generator, days=...)`` has to yield identical operator
latencies, features, and signatures in every process, or benchmark numbers
(and any cached run log) silently drift between runs.

The historical bug lived in the planner's passthrough implementation: the
two candidate requirement pairs were held in a ``set``, whose salted-hash
iteration order decided cost *ties* — flipping plan shapes (and with them
every simulated latency) across processes.  In-process determinism tests
cannot catch this, so this one spawns real subprocesses with different hash
seeds.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Runs one small day-1 workload (the historical tie case lives in its
#: template pool) and fingerprints every record field that a plan-shape
#: change would perturb.  ``{run}`` selects the execution path: the
#: batched engine (``runner.run_days``) or the per-operator reference
#: (``run_days_reference``).
_SCRIPT = """
import hashlib
from functools import partial
from repro.experiments.shared import cluster_spec, workload_config
from repro.reference import run_days_reference
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WorkloadRunner

generator = WorkloadGenerator(workload_config("cluster1", "small", 0))
runner = WorkloadRunner(cluster=cluster_spec("cluster1"), seed=0)
log = {run}(generator, days=[1])
payload = repr(
    [
        (r.job_id, r.actual_latency, r.features, r.signatures)
        for r in log.operator_records()
    ]
)
print(hashlib.sha256(payload.encode()).hexdigest())
"""


def _run_with_hash_seed(hash_seed: str, run: str = "runner.run_days") -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(run=run)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return result.stdout.strip()


def test_run_log_identical_across_hash_seeds():
    # 42 is the seed that historically produced a different plan shape for
    # template t0004 than seed 0 did.  run_days is the batched engine, so
    # this also pins the skeleton planner + vectorized ground truth against
    # salted-hash iteration-order leaks.
    digest_a = _run_with_hash_seed("0")
    digest_b = _run_with_hash_seed("42")
    assert digest_a == digest_b, (
        "run_days produced different operator records under different "
        "PYTHONHASHSEED values - some set/dict iteration order is leaking "
        "into plan or latency decisions"
    )


def test_batched_and_reference_agree_across_hash_seeds():
    """The two paths agree with *each other* regardless of hash seed."""
    batched = _run_with_hash_seed("17")
    reference = _run_with_hash_seed("99", run="partial(run_days_reference, runner)")
    assert batched == reference, (
        "batched engine and scalar reference diverged across processes "
        "with different PYTHONHASHSEED values"
    )


#: Trains a tiny Cleo on a 3-day cluster-4 workload, then re-plans the test
#: day's jobs with learned costs + partition exploration through either the
#: batched frontier-pricing path or the retained scalar planner
#: (``{batched}``), and fingerprints everything a plan-choice divergence
#: would perturb: shapes, partition counts, estimated costs, candidate
#: counts, and every operator's subtree summary and signature bundle of the
#: partition-rebuilt plan.
_PLAN_SCRIPT = """
import hashlib
from repro.cardinality.estimator import CardinalityEstimator
from repro.core.cost_model import CleoCostModel
from repro.core.trainer import CleoTrainer
from repro.experiments.shared import cluster_spec, workload_config
from repro.optimizer.partition import SamplingStrategy
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.plan.signatures import SignatureBundle
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WorkloadRunner
from repro.workload.templates import instantiate

generator = WorkloadGenerator(workload_config("cluster4", "tiny", 0))
runner = WorkloadRunner(cluster=cluster_spec("cluster4"), seed=0)
log = runner.run_days(generator, days=[1, 2, 3])
predictor = CleoTrainer().train(log, individual_days=[1, 2], combined_days=[2])
planner = QueryPlanner(
    CleoCostModel(predictor, batched={batched}),
    CardinalityEstimator(),
    PlannerConfig(partition_strategy=SamplingStrategy(scheme="geometric")),
)
catalog = generator.catalog_for_day(3)
payload = []
for job in generator.jobs_for_day(3):
    planner.jitter_salt = job.job_id
    planned = planner.plan(instantiate(job, catalog))
    payload.append(
        (
            job.job_id,
            [(op.op_type.value, op.partition_count) for op in planned.plan.walk()],
            planned.estimated_cost,
            planned.candidates_considered,
            [
                (
                    op.summary.leaf_cards,
                    op.summary.base_card,
                    sorted(op.summary.inputs),
                    op.summary.n_logical,
                    op.summary.depth,
                    SignatureBundle.of(op),
                )
                for op in planned.plan.walk()
            ],
        )
    )
print(hashlib.sha256(repr(payload).encode()).hexdigest())
"""


def _plan_with_hash_seed(hash_seed: str, batched: bool) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _PLAN_SCRIPT.format(batched=batched)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return result.stdout.strip()


def test_batched_learned_planning_identical_across_hash_seeds():
    """Batched learned-cost planning is hash-seed independent."""
    digest_a = _plan_with_hash_seed("0", batched=True)
    digest_b = _plan_with_hash_seed("42", batched=True)
    assert digest_a == digest_b, (
        "batched learned-cost planning chose different plans under "
        "different PYTHONHASHSEED values - some set/dict iteration order "
        "is leaking into frontier pricing or sweep decisions"
    )


def test_batched_and_scalar_learned_planning_agree_across_hash_seeds():
    """Batched and scalar learned-cost planners agree across processes."""
    batched = _plan_with_hash_seed("13", batched=True)
    scalar = _plan_with_hash_seed("7", batched=False)
    assert batched == scalar, (
        "batched frontier pricing and the scalar predict_operator planner "
        "diverged across processes with different PYTHONHASHSEED values"
    )


#: Trains the same tiny Cleo, then replans the test day's jobs as a mixed
#: fleet — templates interleaved, every other job replicated into three
#: instances under distinct jitter salts and the rest single-instance, so
#: each pricing wave spans many templates — through either the fleet driver
#: (``repro.optimizer.replan``) or the reference per-job ``QueryPlanner``
#: loop (``{mode}``), and fingerprints shapes, partition counts, estimated
#: costs, and candidate counts.
_REPLAN_SCRIPT = """
import hashlib
from repro.cardinality.estimator import CardinalityEstimator
from repro.core.cost_model import CleoCostModel
from repro.core.trainer import CleoTrainer
from repro.experiments.shared import cluster_spec, workload_config
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.optimizer.replan import ReplanJob, replan_jobs
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WorkloadRunner
from repro.workload.templates import instantiate

generator = WorkloadGenerator(workload_config("cluster4", "tiny", 0))
runner = WorkloadRunner(cluster=cluster_spec("cluster4"), seed=0)
log = runner.run_days(generator, days=[1, 2, 3])
predictor = CleoTrainer().train(log, individual_days=[1, 2], combined_days=[2])
catalog = generator.catalog_for_day(3)
jobs = [
    ReplanJob(
        job.job_id if k == 0 else f"{{job.job_id}}/rep{{k}}",
        job.template.template_id,
        job.day,
        instantiate(job, catalog),
    )
    for k in range(3)
    for i, job in enumerate(generator.jobs_for_day(3))
    if k == 0 or i % 2 == 0
]
mode = "{mode}"
if mode == "fleet":
    planned = replan_jobs(jobs, CleoCostModel(predictor), CardinalityEstimator())
else:
    planner = QueryPlanner(
        CleoCostModel(predictor), CardinalityEstimator(), PlannerConfig()
    )
    planned = []
    for job in jobs:
        planner.jitter_salt = job.salt
        planned.append(planner.plan(job.logical))
payload = [
    (
        job.job_id,
        [(op.op_type.value, op.partition_count) for op in p.plan.walk()],
        p.estimated_cost,
        p.candidates_considered,
    )
    for job, p in zip(jobs, planned)
]
print(hashlib.sha256(repr(payload).encode()).hexdigest())
"""


def _replan_with_hash_seed(hash_seed: str, mode: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _REPLAN_SCRIPT.format(mode=mode)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return result.stdout.strip()


def test_fleet_replay_identical_across_hash_seeds():
    """Learned-cost skeleton replay is hash-seed independent."""
    digest_a = _replan_with_hash_seed("0", mode="fleet")
    digest_b = _replan_with_hash_seed("42", mode="fleet")
    assert digest_a == digest_b, (
        "fleet skeleton replay chose different plans under different "
        "PYTHONHASHSEED values - some set/dict iteration order is leaking "
        "into the replay's costing or its cross-template pricing waves"
    )


def test_fleet_replay_and_reference_agree_across_hash_seeds():
    """The fleet replay agrees with the reference planner across processes."""
    fleet = _replan_with_hash_seed("13", mode="fleet")
    reference = _replan_with_hash_seed("7", mode="reference")
    assert fleet == reference, (
        "fleet skeleton replay and the per-job QueryPlanner loop diverged "
        "across processes with different PYTHONHASHSEED values"
    )
