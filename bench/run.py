"""One run of one workload: untraced (end-to-end metrics) or traced (per-layer).

An untraced run sets up ``SETUP_REPEATS`` times (``setup_s`` is the median),
warms up, then starts whole rounds until ``--seconds`` have passed, and runs
the oracles.  A traced run measures a fixed slice twice on fresh fixtures,
plain and then with the timing wrappers installed, so that exact counters
repeat from run to run and the tracing overhead is a number.
"""

from __future__ import annotations

import gc
import json
import resource
import time
from pathlib import Path
from statistics import median

import numpy as np

from bench.clock import Calibrator
from bench.trace import ROOT, Tracer
from bench.workloads import OUT_DIR, Meter, Round, Workload

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

SETUP_REPEATS = 2


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def run_untraced(cls: type[Workload], seed: int, seconds: float, scale: str) -> dict:
    cal = Calibrator()
    setups: list[Meter] = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        workload = cls(seed, scale, cal)
        setups.append(Meter(cal))
        workload.setup(setups[-1])
    workload.warm_up()
    workload.reset_counters()

    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not rounds:
        gc.collect()
        rounds.append(workload.round(len(rounds)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    mismatches = workload.verify()
    workload.close()

    # Every timing is a median over rounds: a slow stretch of the host spoils
    # the rounds it falls in, not the run.
    ops = sum(len(out.ops_ms) for out in rounds)
    factor = sum(out.seconds for out in rounds) / sum(out.wall for out in rounds)
    metrics = {
        "work_per_s": median(out.work / out.seconds for out in rounds),
        "op_p50_ms": median(np.quantile(out.ops_ms, 0.50) for out in rounds),
        "op_p95_ms": median(np.quantile(out.ops_ms, 0.95) for out in rounds),
        "setup_s": median(meter.seconds for meter in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "work_per_s": median(out.work / out.wall for out in rounds),
        "op_p50_ms": metrics["op_p50_ms"] / factor,
        "op_p95_ms": metrics["op_p95_ms"] / factor,
        "setup_s": median(meter.wall for meter in setups),
    }
    attempted = sum(out.attempted for out in rounds)
    failed = sum(out.failed for out in rounds) + mismatches
    print(
        f"{cls.name} seed={seed} scale={scale}: {len(rounds)} rounds, "
        f"{ops} ops ({cls.op_unit}), work = {cls.work_unit}; "
        f"{attempted} attempted, {failed} failed ({mismatches} by their oracle)"
    )
    print(
        f"  calibration spin {1e3 * cal.spin_median():.3f} ms over "
        f"{len(cal.spins)} spins, factor {factor:.3f}, noisy: {cal.noisy()}"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw": raw,
        "samples": ops // len(rounds),
    }


def _slice(cls, seed: int, scale: str, cal: Calibrator, tracer: Tracer | None):
    """Fresh fixtures, warm-up, then the fixed rounds (under ``tracer``)."""
    workload = cls(seed, scale, cal)
    workload.setup(Meter(cal))
    workload.warm_up()
    workload.reset_counters()
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        rounds = [workload.round(r) for r in range(cls.trace_rounds)]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return workload, rounds


def run_traced(cls: type[Workload], seed: int, scale: str, names: list[str]) -> dict:
    """Per-layer metrics ``names`` of the fixed slice.  Seconds are
    calibrated; a layer the workload does not exercise reads 0."""
    cal = Calibrator()
    plain, plain_rounds = _slice(cls, seed, scale, cal, None)
    mismatches = plain.verify()
    plain.close()
    del plain
    tracer = Tracer()
    workload, rounds = _slice(cls, seed, scale, cal, tracer)

    seconds = sum(out.seconds for out in rounds)
    factor = seconds / sum(out.wall for out in rounds)
    inclusive, own = tracer.totals()
    layers: dict[str, float] = {}
    for name, total in inclusive.items():
        layers[f"{name}_s"] = total * factor
        layers[f"{name}_self_s"] = own[name] * factor
    layers["serving.shard.router.self_s"] = factor * sum(
        total
        for name, total in own.items()
        if name.startswith("serving.shard.router.predict_")
    )
    layers["features.rows"] = tracer.counts["features.to_table"]
    layers.update(workload.counters())
    layers.update(workload.side_pass())
    layers.update(
        {
            "bench.trace_overhead_ratio": seconds
            / sum(out.seconds for out in plain_rounds),
            "bench.unattributed_share": own[ROOT] / inclusive[ROOT],
            "bench.calibration_spin_s": cal.spin_median(),
            "bench.noisy": float(cal.noisy()),
        }
    )
    workload.close()
    trace_path = OUT_DIR / f"trace-{cls.name}.jsonl"
    tracer.write(trace_path)

    attempted = sum(out.attempted for out in rounds + plain_rounds)
    failed = sum(out.failed for out in rounds + plain_rounds) + mismatches
    print(
        f"{cls.name} seed={seed} scale={scale}: traced slice of "
        f"{cls.trace_rounds} rounds, {len(tracer.spans)} spans -> {trace_path.name}; "
        f"{attempted} attempted, {failed} failed"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: float(layers.get(name, 0.0)) for name in names},
    }
