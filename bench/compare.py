"""``python -m bench compare A.json B.json``: is B worse than A?

One row per (end-to-end metric, workload): both sets' medians and quartiles,
B's median over A's (the base), and a verdict under the metric's bound from
``BENCHMARK.json``:

* ``worse`` / ``better``: B's median is past A's by more than the bound;
* ``same``: it is not;
* ``unresolved``: A's own runs spread (quartile to quartile) wider than the
  bound and the two sets overlap, so the sets cannot tell.

Exits 1 on any ``worse`` row or on a higher share of failed operations.
Per-layer numbers of the traced runs are listed below without a verdict.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    a1, a2, a3 = quartiles(a)
    b2 = statistics.median(b)
    # Positive when B is worse.
    change = sign * (b2 - a2) / abs(a2)
    overlap = not (max(b) < min(a) or min(b) > max(a))
    if (a3 - a1) / abs(a2) > bound and overlap:
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def _failed_share(runs: list[dict]) -> float:
    return sum(run["failed"] for run in runs) / sum(run["attempted"] for run in runs)


def main(path_a: str, path_b: str, spec: dict) -> int:
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    bad = False
    print(
        f"{'workload':<15} {'metric':<12} {'A q1/median/q3':>30} "
        f"{'B q1/median/q3':>30} {'B/A':>7}  verdict (bound)"
    )
    for workload in a:
        if workload not in b:
            continue
        runs_a, runs_b = a[workload]["runs"], b[workload]["runs"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [run["metrics"][name] for run in runs_a]
            vb = [run["metrics"][name] for run in runs_b]
            word = verdict(va, vb, metric["better"], metric["bound"])
            bad = bad or word == "worse"
            qa, qb = quartiles(va), quartiles(vb)
            print(
                f"{workload:<15} {name:<12} "
                f"{'/'.join(f'{q:.5g}' for q in qa):>30} "
                f"{'/'.join(f'{q:.5g}' for q in qb):>30} "
                f"{qb[1] / qa[1]:>7.3f}  {word} ({metric['bound']}, "
                f"{metric['better']} is better, base {qa[1]:.5g} {metric['unit']})"
            )
        fa, fb = _failed_share(runs_a), _failed_share(runs_b)
        word = "worse" if fb > fa else "same"
        bad = bad or fb > fa
        print(f"{workload:<15} {'failed_share':<12} {fa:>30.6g} {fb:>30.6g} {'':>7}  {word}")
    print("\nper-layer (traced slice; counts repeat exactly, seconds are calibrated)")
    for workload in a:
        if workload not in b:
            continue
        la, lb = (side[workload]["traced"]["metrics"] for side in (a, b))
        for name in la:
            if la[name] == lb.get(name) == 0.0:
                continue
            mark = "equal" if la[name] == lb.get(name) else ""
            print(f"{workload:<15} {name:<44} {la[name]:>14.6g} {lb.get(name, 0.0):>14.6g}  {mark}")
    return 1 if bad else 0
