#!/usr/bin/env python3
"""Run one of the seven layer benchmarks (CI entry point).

Equivalent to ``repro bench``; exists so CI can run the benchmarks without
installing the package:

    python scripts/bench.py plan --scale tiny --repeats 2 --out BENCH_plan.json
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.throughput import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
