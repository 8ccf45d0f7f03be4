"""Known-good twin of hashseed_bad: same logic, order-free constructs."""

from repro.common.hashing import stable_hash


def route(shard_names):
    return stable_hash("route", *shard_names) % 8


def plan_order(requirements):
    pairs = [("sort", "hash"), ("merge", "range")]
    chosen = []
    for pair in pairs:
        chosen.append(pair)
    ordered = sorted({1, 2, 3})
    labels = ",".join(sorted({"a", "b"}))
    best = min(sorted({"x", "y"}), key=len)
    has_sort = "sort" in {"sort", "merge"}
    width = len({1, 2, 3})
    return chosen, ordered, labels, best, has_sort, width


class Planner:
    def __init__(self):
        self.pairs = [("broadcast", "none")]

    def flips(self):
        return [p for p in self.pairs]


class Estimator:
    def estimate(self, op):
        cached = op._estimate
        if cached is None:
            cached = len(op.children)
            object.__setattr__(op, "_estimate", cached)
        return cached

    def stage_total(self, ops, latencies):
        by_op = {id(op): latency for op, latency in zip(ops, latencies)}
        return sum(by_op[id(op)] for op in ops)
