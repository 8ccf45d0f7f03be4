"""Fitted trees pinned as digests (``golden_fasttree.json``).

Recorded on the commit *before* ``FastTreeRegressor.fit`` stopped re-sorting
its matrix per stage (when binning was ``np.quantile`` / ``np.unique`` /
``np.searchsorted`` per fit and the split search rebuilt its layout per node):
for three seeded matrices, one sha256 per estimator over every tree's
``node_arrays()`` bytes and, for the booster, ``float.hex`` of
``base_prediction_``.  The binner, the grower and the split search must keep
reproducing them bit for bit — a saved predictor is those arrays.

Regenerate with ``PYTHONPATH=src python -m tests.ml.test_golden_fasttree`` —
only when a change to the trees' bits is intended.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import FastTreeRegressor
from repro.ml.tree import DecisionTreeRegressor

GOLDEN = Path(__file__).with_name("golden_fasttree.json")


def _meta_like(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """1300x15, shaped like the combined model's meta matrix.

    Four binary columns, four near-duplicates of a continuous one (the
    individual models' predictions agree to a few percent), the rest
    lognormal with repeated values.
    """
    n = 1300
    base = rng.lognormal(2.0, 1.5, size=n)
    columns = [base * (1.0 + 0.03 * rng.normal(size=n)) for _ in range(4)]
    columns += [(rng.random(n) < p).astype(float) for p in (0.5, 0.1, 0.9, 0.02)]
    columns += [np.round(rng.lognormal(1.0, 1.0, size=n), 1) for _ in range(3)]
    columns += [rng.lognormal(0.0, 2.0, size=n) for _ in range(4)]
    x = np.column_stack(columns)
    y = base * np.exp(0.3 * x[:, 4] + 0.2 * rng.normal(size=n)) + x[:, 8]
    return x, y


def _few_valued(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """57x5: a constant, a ``+-0.0`` column, heavy ties, fewer rows than bins.

    Only the all-zero column (never split on) mixes zero signs: which of
    ``-0.0`` / ``0.0`` a zero *threshold* carried was up to ``np.partition``
    when these digests were recorded, so no other column may offer one.
    """
    n = 57
    x = np.column_stack(
        [
            np.full(n, 3.5),
            np.where(rng.random(n) < 0.5, 0.0, -0.0),
            rng.integers(0, 3, size=n).astype(float),
            np.round(rng.normal(size=n), 1) + 0.0,
            rng.normal(size=n),
        ]
    )
    y = np.abs(2.0 * x[:, 2] + x[:, 4] + 0.1 * rng.normal(size=n))
    return x, y


def _mixed(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """400x8: uniform, integer-valued and heavy-tailed columns."""
    n = 400
    x = np.column_stack(
        [
            rng.uniform(0, 1, size=n),
            rng.uniform(-1, 1, size=n),
            rng.integers(0, 40, size=n).astype(float),
            rng.integers(0, 200, size=n).astype(float),
            rng.lognormal(0.0, 3.0, size=n),
            rng.normal(size=n),
            np.repeat(rng.normal(size=n // 8), 8),
            rng.exponential(size=n),
        ]
    )
    y = np.exp(2.0 * x[:, 0]) + x[:, 2] * 0.3 + np.abs(x[:, 5]) + 0.05 * rng.random(n)
    return x, y


#: name -> (seed, builder).
MATRICES = {"meta_like": (11, _meta_like), "few_valued": (12, _few_valued), "mixed": (13, _mixed)}

ESTIMATORS = {
    "fasttree": lambda: FastTreeRegressor(seed=3),
    "forest": lambda: RandomForestRegressor(seed=5),
    "tree_depth15": lambda: DecisionTreeRegressor(max_depth=15, min_samples_leaf=2),
}


def digest(model) -> str:
    sha = hashlib.sha256()
    for tree in getattr(model, "trees_", [model]):
        for array in tree.node_arrays():
            sha.update(str(array.dtype).encode())
            sha.update(array.tobytes())
    if isinstance(model, FastTreeRegressor):
        sha.update(float.hex(model.base_prediction_).encode())
    return sha.hexdigest()


def digests() -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {}
    for name, (seed, build) in MATRICES.items():
        x, y = build(np.random.default_rng(seed))
        out[name] = {kind: digest(make().fit(x, y)) for kind, make in ESTIMATORS.items()}
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_matrix_and_estimator(golden):
    assert list(golden) == list(MATRICES)
    for row in golden.values():
        assert list(row) == list(ESTIMATORS)


def test_fitted_trees_reproduce_golden(golden):
    assert digests() == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"wrote {GOLDEN} ({len(MATRICES)} matrices x {len(ESTIMATORS)} estimators)")
