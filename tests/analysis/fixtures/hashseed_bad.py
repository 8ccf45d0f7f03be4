"""Known-bad fixture: every construct hashseed-hazard must flag."""


def route(shard_names):
    return hash(tuple(shard_names)) % 8


def plan_order(requirements):
    pairs = {("sort", "hash"), ("merge", "range")}
    chosen = []
    for pair in pairs:
        chosen.append(pair)
    ordered = list({1, 2, 3})
    labels = ",".join({"a", "b"})
    best = min({"x", "y"}, key=len)
    return chosen, ordered, labels, best


class Planner:
    def __init__(self):
        self.pairs = {("broadcast", "none")}

    def flips(self):
        return [p for p in self.pairs]


class Estimator:
    def __init__(self):
        self._memo = {}

    def estimate(self, op):
        key = id(op)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._memo[key] = len(op.children)
        return cached
