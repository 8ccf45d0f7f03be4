"""Workload-throughput benchmark: scalar reference vs batched engine.

Every experiment and every training run starts from a generated
:class:`~repro.execution.runtime_log.RunLog`, and "How Good are Learned
Cost Models, Really?" (Heinrich et al., 2025) identifies training-data
generation as *the* bottleneck of evaluating learned cost models at all.
This benchmark times a Figure 9-shaped workload (every
:func:`~repro.workload.runner.multi_cluster_setup` cluster over several
days) end to end — planning, ground-truth simulation, feature extraction,
log assembly — twice: once through the retained per-job scalar reference
(:meth:`WorkloadRunner.run_days_reference`) and once through the batched
engine (skeleton planner + vectorized ground truth + columnar ingest), and
verifies the two produce bitwise-identical run logs before reporting the
speedup.

Each path runs ``repeats`` times over persistent runners (best-of),
mirroring ``train_throughput``'s methodology: the first repeat pays the
one-time cache warm-up (hidden multipliers, template skeletons, shape
statics), later repeats measure steady state.  Both timings are recorded.

Run it with ``repro bench workload`` (:mod:`repro.experiments.throughput`)
to emit ``BENCH_workload.json``.
"""

from __future__ import annotations

from repro.execution.runtime_log import RunLog
from repro.experiments.shared import SCALES
from repro.experiments.throughput import path_stats, speedup, timed
from repro.workload.runner import multi_cluster_setup


def _time_path(
    scale: float, days: tuple[int, ...], seed: int, repeats: int, reference: bool
) -> tuple[list[float], dict[str, RunLog]]:
    """Time one execution path over persistent runners; returns all repeats."""
    pairs = multi_cluster_setup(scale=scale, seed=seed)

    def run_all() -> dict[str, RunLog]:
        logs: dict[str, RunLog] = {}
        for generator, runner in pairs:
            run = runner.run_days_reference if reference else runner.run_days
            logs[runner.cluster.name] = run(generator, list(days))
        return logs

    return timed(run_all, repeats)


def _logs_identical(a: dict[str, RunLog], b: dict[str, RunLog]) -> bool:
    """Bitwise job-record equality across clusters (dataclass equality
    covers every nested operator record field, including features and
    signatures)."""
    if set(a) != set(b):
        return False
    return all(a[name].jobs == b[name].jobs for name in a)


def run_benchmark(
    scale: str = "small",
    days: tuple[int, ...] = (1, 2, 3),
    seed: int = 0,
    repeats: int = 3,
) -> dict:
    """Time both workload paths and check run-log parity.

    Returns a JSON-ready dict; ``speedup`` is best-of-``repeats`` reference
    time over best batched time.
    """
    scale_factor = SCALES[scale]
    ref_times, ref_logs = _time_path(scale_factor, days, seed, repeats, reference=True)
    bat_times, bat_logs = _time_path(scale_factor, days, seed, repeats, reference=False)
    identical = _logs_identical(ref_logs, bat_logs)

    job_count = sum(len(log) for log in bat_logs.values())
    operator_count = sum(log.operator_count for log in bat_logs.values())
    counts = {"jobs": job_count, "operators": operator_count}
    return {
        "benchmark": "workload_throughput",
        "workload": {
            "clusters": sorted(bat_logs),
            "scale": scale,
            "days": list(days),
            "seed": seed,
            "job_count": job_count,
            "operator_count": operator_count,
        },
        "scalar_reference": path_stats(ref_times, first=True, **counts),
        "batched": path_stats(bat_times, first=True, **counts),
        "speedup": speedup(ref_times, bat_times),
        "speedup_first_run": speedup(ref_times[:1], bat_times[:1]),
        "runlogs_bitwise_identical": identical,
    }


def format_result(result: dict) -> str:
    """One-paragraph human summary of a benchmark result."""
    workload = result["workload"]
    return (
        f"workload_throughput [scale={workload['scale']} days={workload['days']} "
        f"seed={workload['seed']}]: {workload['job_count']} jobs / "
        f"{workload['operator_count']} operators; "
        f"reference {result['scalar_reference']['seconds_best']}s -> "
        f"batched {result['batched']['seconds_best']}s "
        f"({result['speedup']}x best-of, {result['speedup_first_run']}x cold, "
        f"{result['batched']['jobs_per_second']} jobs/s, "
        f"bitwise identical={result['runlogs_bitwise_identical']})"
    )
