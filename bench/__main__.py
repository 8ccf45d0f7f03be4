"""``python -m bench``: run the benchmark, one workload of it, or compare two results.

    python -m bench                          all four workloads, one run each
    python -m bench run serving_replay       one workload
    python -m bench --runs 5 --out A.json    a set of runs, for ``compare``
    python -m bench compare A.json B.json    verdict per (metric, workload)
    python -m bench --workload W --seed N --seconds S --trace 0|1
                                             one run in this process; the last
                                             line of output is its result

Run from the repository root.  Every run of a workload is a fresh process.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: one BLAS thread, so that the only
# threads are the ones the router is asked for.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from bench import compare  # noqa: E402
from bench.run import load_spec, run_traced, run_untraced  # noqa: E402
from bench.workloads import OUT_DIR, WORKLOADS  # noqa: E402


def _one_run(args, spec: dict) -> int:
    """The driver's contract: one workload, one process, one result line."""
    cls = WORKLOADS[args.workload]
    if args.trace:
        names = [metric["name"] for metric in spec["per_layer"]]
        result = run_traced(cls, args.seed, args.scale, names)
        listed = spec["per_layer"]
    else:
        result = run_untraced(cls, args.seed, args.seconds, args.scale)
        listed = spec["end_to_end"]
    raw = result.pop("raw", {})
    samples = result.pop("samples", None)
    for metric in listed:
        name = metric["name"]
        value = result["metrics"][name]
        line = f"  {name:<44} {value:>14.6g} {metric['unit']:<6} {metric['better']} is better"
        if name in raw:
            line += f"  (uncalibrated {raw[name]:.6g})"
        if name.startswith("op_p"):
            line += f"  n={samples} per round"
        print(line)
        result["metrics"][name] = {"value": value, "unit": metric["unit"]}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _child(workload: str, seed: int, args, trace: int) -> dict | None:
    """One run in a fresh process; its report is echoed, its result returned."""
    command = [
        sys.executable, "-m", "bench",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--scale", args.scale,
    ]  # fmt: skip
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    *report, last = done.stdout.splitlines() or [""]
    print("\n".join(report), flush=True)
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        print(f"bench: {workload} printed no result (exit {done.returncode})")
        return None
    result["seed"] = seed
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def _suite(args, names: list[str]) -> int:
    out = {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "thread_pins": THREAD_PINS,
            "platform": platform.platform(),
        },
        "seconds": args.seconds,
        "scale": args.scale,
        "workloads": {},
    }
    ok = True
    for name in names:
        runs = [_child(name, args.seed + i, args, trace=0) for i in range(args.runs)]
        traced = _child(name, args.seed, args, trace=1)
        ok = ok and all(run is not None and run["correct"] for run in runs + [traced])
        out["workloads"][name] = {"runs": runs, "traced": traced}
    path = Path(args.out) if args.out else OUT_DIR / "result.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"result written to {path}; every check passed: {ok}")
    return 0 if ok else 1


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("command", nargs="?", default="all", choices=["all", "run", "compare"])
    parser.add_argument("operands", nargs="*", help="run: workloads; compare: A.json B.json")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="feeds the execution simulators and the oracle sample")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", default="full", choices=["tiny", "small", "full"])
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--out", help="result file (default bench/out/result.json)")
    args = parser.parse_args()

    if args.workload:
        return _one_run(args, spec)
    if args.command == "compare":
        if len(args.operands) != 2:
            parser.error("compare takes two result files")
        return compare.main(*args.operands, spec)
    names = args.operands if args.command == "run" else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown or not names:
        parser.error(f"run takes workloads out of {sorted(WORKLOADS)}")
    return _suite(args, names)


if __name__ == "__main__":
    sys.exit(main())
