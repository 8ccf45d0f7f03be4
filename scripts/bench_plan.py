#!/usr/bin/env python
"""Run the plan-throughput benchmark and write ``BENCH_plan.json``.

Usage::

    PYTHONPATH=src python scripts/bench_plan.py [--scale tiny|small|full]
        [--seed 0] [--repeats 5] [--out BENCH_plan.json]

Times re-planning the generated workload's test day with learned cost
models through the retained scalar ``operator_cost`` loop and through
the batched frontier/sweep pricing path, verifies the two choose
bitwise-identical plans (shapes, partition counts, costs), and records
both timings — the optimizer-side perf trajectory the ROADMAP asks for.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.plan_throughput import (  # noqa: E402
    format_result,
    run_benchmark,
    write_result,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=["tiny", "small", "full"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default="BENCH_plan.json")
    args = parser.parse_args(argv)

    result = run_benchmark(scale=args.scale, seed=args.seed, repeats=args.repeats)
    path = write_result(result, args.out)
    print(format_result(result))
    print(f"wrote {path}")
    if not result["plans_bitwise_identical"]:
        print("ERROR: batched planning diverged from the scalar planner")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
