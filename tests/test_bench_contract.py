"""Guard: every ``repro`` name the closed-loop benchmark reaches for exists.

``python -m bench`` (the repository's ``bench/`` package) times the whole
loop from outside ``src/``: it imports ``repro`` names, and its tracer
replaces public callables by attribute name (``vars(owner)[attribute]``).
Moving or renaming one of them does not fail any ``repro`` test; it breaks
the benchmark at import, or makes ``Tracer.install`` raise ``KeyError``, or
(when a function is wrapped where one module looks it up and another module
calls it) leaves a layer's timings at 0.  Each import and each trace target
is one case here, so a failure names the one that moved.  So is each
``repro`` method the benchmark calls as an oracle or a driver outside its
tracer, with the arguments it passes (``CALLS``): a rename, a removal or a
changed signature fails the case that names it.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imports() -> list[tuple[str, str | None]]:
    """``(module, name)`` for each ``from repro... import name`` in
    ``bench/``, and ``(module, None)`` for each ``import repro...``."""
    found = set()
    for path in sorted((ROOT / "bench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update(
                    (alias.name, None) for alias in node.names if alias.name.startswith("repro")
                )
    return sorted(found, key=lambda pair: (pair[0], pair[1] or ""))


def _owner_name(owner: object) -> str:
    if inspect.ismodule(owner):
        return owner.__name__
    return f"{owner.__module__}.{owner.__qualname__}"


def _repro_targets() -> dict:
    """The tracer's targets on ``repro`` owners, by dotted name; none when
    the tracer does not import (``test_the_tracer_imports`` says why)."""
    try:
        from bench.trace import _targets
    except ImportError:
        return {}
    named = {f"{_owner_name(t.owner)}.{t.attribute}": t for t in _targets()}
    return {key: t for key, t in named.items() if key.startswith("repro.")}


IMPORTS = _imports()
TARGETS = _repro_targets()

#: ``(owner, method, positional arguments, keyword arguments)`` of each call
#: ``bench/*.py`` makes on a ``repro`` class outside the tracer, as it makes
#: it (``paper_split`` passes the day split by keyword), and of the two
#: constructors it calls with keywords: the tracer wraps ``__init__`` but
#: does not check what it binds.
CALLS = [
    ("repro.core.trainer.CleoTrainer", "train_reference", 1, ("individual_days", "combined_days")),
    ("repro.serving.service.CleoService", "__init__", 1, ("prediction_cache_size",)),
    ("repro.serving.service.CleoService", "predict_table", 1, ()),
    ("repro.serving.service.CleoService", "predict_plan", 2, ()),
    ("repro.serving.service.CleoService", "predict_batch", 1, ()),
    (
        "repro.serving.shard.router.ShardedCleoRouter",
        "__init__",
        1,
        ("n_shards", "n_workers", "prediction_cache_size"),
    ),
    ("repro.serving.shard.router.ShardedCleoRouter", "cost_model", 1, ()),
    ("repro.serving.shard.router.ShardedCleoRouter", "predict_plan", 3, ()),
    ("repro.serving.shard.router.ShardedCleoRouter", "predict_batch", 2, ()),
    ("repro.serving.shard.router.ShardedCleoRouter", "stats", 0, ()),
    ("repro.serving.shard.router.ShardedCleoRouter", "shard_stats", 0, ()),
    ("repro.serving.shard.router.ShardedCleoRouter", "reset_stats", 0, ()),
    ("repro.serving.shard.router.ShardedCleoRouter", "clear_caches", 0, ()),
    ("repro.serving.shard.router.ShardedCleoRouter", "close", 0, ()),
    ("repro.core.cost_model.CleoCostModel", "__init__", 1, ("batched",)),
]


def test_the_tracer_imports():
    importlib.import_module("bench.trace")


def test_the_benchmark_reaches_into_repro():
    assert ("repro.serving.shard.loadgen", "PlanJob") in IMPORTS
    assert ("repro.experiments.shared", "workload_config") in IMPORTS
    assert "repro.core.serialization.load_predictor" in TARGETS


@pytest.mark.parametrize(
    "module, name", IMPORTS, ids=[f"{m}:{n}" if n else m for m, n in IMPORTS]
)
def test_every_import_resolves(module, name):
    imported = importlib.import_module(module)
    if name is not None:
        assert hasattr(imported, name), f"{module} no longer defines {name}"


@pytest.mark.parametrize("key", list(TARGETS))
def test_every_trace_target_is_defined_on_its_owner(key):
    target = TARGETS[key]
    raw = vars(target.owner).get(target.attribute)
    assert raw is not None, f"{key} is not defined on its owner"
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    assert callable(raw), f"{key} is not callable"


@pytest.mark.parametrize(
    "owner, method, n_args, keywords", CALLS, ids=[f"{o.rsplit('.', 1)[1]}.{m}" for o, m, _, _ in CALLS]
)
def test_every_called_method_takes_the_benchmarks_arguments(owner, method, n_args, keywords):
    module, name = owner.rsplit(".", 1)
    cls = getattr(importlib.import_module(module), name)
    raw = inspect.getattr_static(cls, method, None)
    assert callable(raw), f"{owner} no longer defines {method}"
    arguments = [None] * (1 + n_args)  # self, then the positionals
    inspect.signature(raw).bind(*arguments, **dict.fromkeys(keywords))
