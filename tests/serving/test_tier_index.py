"""The tier index against the per-kind object-graph oracle, bit for bit.

:class:`~repro.core.packed.PackedModelBank` resolves a table's four
signature columns in one search and prices every covered ``(row, kind)``
pair in one pass.  For random stores and tables, every answer it feeds
equals the object graph's, compared as bytes: the meta rows and their model
calls, the fallback chain's values / answering models / fallbacks, resource
profiles, and the per-kind predictions the robustness evaluators read.

The oracle is the object graph itself: every fitted
:class:`~repro.core.learned_model.LearnedCostModel` the store was given,
kept by the test in a dict per kind, in the order a dict keeps them.  The
store holds none of those objects, only their parameters as rows of its
block, so the parity is between two independent representations.

The generated cases include tables of 0, 1 and 5 000 rows, signature words
above 2**63 (the index searches their bits as int64), a word that two kinds
hold, a kind with no models, a model the bank cannot pack (which the store
refuses, typed, leaving itself unchanged), an op-subgraph model with
all-zero coefficients scored on rows whose context features (CL, D) are
negative (the op-subgraph kind is 29 wide inside the 31-wide block, and its
two pad terms must not flip the sign of a zero), and interleaved ``add`` /
``remove`` / quarantine sequences that remove the first and the last row
of a kind's run and empty a kind: after every step the store still equals
the object graph, and its model file survives a save -> load -> save byte
for byte.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ModelNotTrainedError, ValidationError
from repro.core.combined import meta_matrix_and_calls
from repro.core.config import SPECIFICITY_ORDER, ModelKind
from repro.core.learned_model import LearnedCostModel
from repro.core.model_store import ModelStore, signature_for
from repro.core.packed import predict_most_specific, resource_profiles_most_specific
from repro.core.predictor import CleoPredictor
from repro.core.regression_control import ModelQuarantine
from repro.core.serialization import load_predictor, save_predictor
from repro.core.robustness import store_predictions_by_kind
from repro.features.featurizer import FeatureInput
from repro.features.table import FeatureTable
from repro.plan.signatures import SignatureBundle
from repro.reference import build_meta_matrix_reference, meta_matrix_and_calls_reference
from tests.serving.test_packed_inference import _SIG_CARDINALITY, _fitted_model

#: Signature index -> 64-bit word, shared by every kind, so a word names a
#: model in several kinds.  Odd words have the top bit set; the last three
#: are int64's largest (the index's end sentinel), 0 and uint64's largest.
_WORDS = np.random.default_rng(2024).integers(0, 2**63, size=12, dtype=np.uint64)
_WORDS[1::2] |= np.uint64(1 << 63)
_WORDS[-3:] = (2**63 - 1, 0, 2**64 - 1)
#: A word no table holds: keys the models the store refuses.
_UNUSED = 12345
_FALLBACK = 3.25


#: Per kind, signature -> the fitted model the store was given for it.
Graph = dict[ModelKind, dict[int, LearnedCostModel]]


def _random_models(rng: np.random.Generator, coverage: float) -> Graph:
    """``_random_store``'s draws, kept as objects: signature index -> model."""
    models: Graph = {kind: {} for kind in ModelKind}
    for kind, field in zip(ModelKind, _SIG_CARDINALITY):
        for index in range(_SIG_CARDINALITY[field]):
            if rng.uniform() < coverage:
                models[kind][index] = _fitted_model(rng, kind)
    return models


def _store(
    seed: int, empty: ModelKind | None, unpackable: ModelKind | None, zero_intercept: float
) -> tuple[ModelStore, Graph]:
    """A random store over :data:`_WORDS`, plus the generated edge cases,
    and the object graph it holds."""
    rng = np.random.default_rng(seed)
    store = ModelStore()
    graph: Graph = {kind: {} for kind in ModelKind}

    def add(kind: ModelKind, word: int, model: LearnedCostModel) -> None:
        store.add(kind, word, model)
        graph[kind][word] = model

    for kind, by_index in _random_models(rng, coverage=0.6).items():
        if kind is not empty:
            for index, model in by_index.items():
                add(kind, int(_WORDS[index]), model)
    if empty is not ModelKind.OP_SUBGRAPH:
        # All-zero (-0.0) coefficients, a zero intercept and a mean below
        # every feature: each of its 29 terms, standardized or raw, is -0.0,
        # so its raw intercept and theta_0 are -0.0 too.
        zero = _fitted_model(rng, ModelKind.OP_SUBGRAPH)
        zero._net.coef_ = np.full_like(zero._net.coef_, -0.0)
        zero._net.intercept_ = zero_intercept
        zero._net._scaler.mean_ = np.full_like(zero._net._scaler.mean_, -1e30)
        add(ModelKind.OP_SUBGRAPH, int(_WORDS[0]), zero)
    if unpackable is not None:
        # An unfitted model, and a fitted one of the other width: refused at
        # the door, nothing added and the version unchanged.
        models, version = store.count(), store.version
        unfitted = LearnedCostModel(include_context=unpackable.uses_context_features)
        with pytest.raises(ModelNotTrainedError):
            store.add(unpackable, _UNUSED, unfitted)
        other = next(
            kind
            for kind in ModelKind
            if kind.uses_context_features != unpackable.uses_context_features
        )
        with pytest.raises(ValidationError):
            store.add(unpackable, _UNUSED, _fitted_model(np.random.default_rng(0), other))
        assert store.get(unpackable, _UNUSED) is None
        assert (store.count(), store.version) == (models, version)
    # The word two kinds hold is generated, not left to the draw: the first
    # two non-empty kinds in specificity order both hold word 1 (above
    # 2**63, and inside every kind's signature alphabet).
    shared = int(_WORDS[1])
    for kind in [kind for kind in SPECIFICITY_ORDER if kind is not empty][:2]:
        if shared not in graph[kind]:
            add(kind, shared, _fitted_model(rng, kind))
    holders = [sum(int(word) in graph[kind] for kind in ModelKind) for word in _WORDS]
    assert max(holders) >= 2, "some word must name a model in two kinds"
    return store, graph


def _rows(seed: int, n: int) -> tuple[list[FeatureInput], list[SignatureBundle], FeatureTable]:
    rng = np.random.default_rng(seed)
    inputs = [
        FeatureInput(
            input_card=float(rng.uniform(1, 1e6)),
            base_card=float(rng.uniform(1, 1e6)),
            output_card=float(rng.uniform(0, 1e5)),
            avg_row_bytes=float(rng.uniform(8, 256)),
            partition_count=float(rng.integers(1, 64)),
            input_enc=float(rng.uniform(0, 1)),
            params_enc=float(rng.uniform(0, 1)),
            logical_count=float(rng.uniform(-20, 20)),
            depth=float(rng.choice([-3.0, -0.0, 0.0, 4.0])),
        )
        for _ in range(n)
    ]
    columns = [rng.integers(0, size, size=n) for size in _SIG_CARDINALITY.values()]
    bundles = [SignatureBundle(*(int(_WORDS[c[i]]) for c in columns)) for i in range(n)]
    return inputs, bundles, FeatureTable.from_inputs(inputs, bundles)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _check(store: ModelStore, graph: Graph, inputs, bundles, table: FeatureTable) -> None:
    # The store holds the graph's signatures, in the graph's order.
    for kind in ModelKind:
        assert store.columns(kind).signatures.tolist() == list(graph[kind])
        assert store.count(kind) == len(graph[kind])

    # Meta rows and calls: the per-kind groups of on-demand views.
    rows, calls = meta_matrix_and_calls(store, table)
    reference_rows, reference_calls = meta_matrix_and_calls_reference(store, table)
    assert rows.tobytes() == reference_rows.tobytes()
    assert rows.tobytes() == build_meta_matrix_reference(store, table).tobytes()
    assert calls == reference_calls

    # Per-kind predictions, as the robustness evaluators read them.
    by_kind = store_predictions_by_kind(store, SimpleNamespace(to_table=lambda: table))
    for kind in ModelKind:
        models = [graph[kind].get(signature_for(kind, bundle)) for bundle in bundles]
        mask = np.array([model is not None for model in models], dtype=bool)
        values = [0.0 if m is None else m.predict_one(f) for m, f in zip(models, inputs)]
        assert by_kind[kind][0].tobytes() == mask.tobytes()
        assert _bits(by_kind[kind][1]) == _bits(values)

    # The fallback chain: each row's most specific model, one row at a time.
    chain = [
        next(
            (
                (kind, signature_for(kind, bundle))
                for kind in SPECIFICITY_ORDER
                if signature_for(kind, bundle) in graph[kind]
            ),
            None,
        )
        for bundle in bundles
    ]
    values, groups, fallbacks = predict_most_specific(store, table, _FALLBACK)
    expected = [
        _FALLBACK if best is None else graph[best[0]][best[1]].predict_one(f)
        for best, f in zip(chain, inputs)
    ]
    assert _bits(values) == _bits(expected)
    assert groups == len({best for best in chain if best is not None})
    assert fallbacks == sum(best is None for best in chain)

    # Resource profiles: the object graph's raw-space reads, row by row.
    profiles, covered = resource_profiles_most_specific(store, table)
    assert covered == sum(best is not None for best in chain)
    for profile, best, f in zip(profiles, chain, inputs):
        if best is None:
            assert profile is None
        else:
            scalar = graph[best[0]][best[1]].resource_profile(f)
            assert _bits([profile.theta_p, profile.theta_c, profile.theta_0]) == _bits(
                [scalar.theta_p, scalar.theta_c, scalar.theta_0]
            )


kinds_or_none = st.sampled_from((None, *SPECIFICITY_ORDER))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from((0, 1, 2, 7, 40)),
    empty=kinds_or_none,
    unpackable=kinds_or_none,
    zero_intercept=st.sampled_from((0.0, -0.0)),
)
@settings(max_examples=40, deadline=None)
def test_tier_index_matches_the_object_graph(seed, n, empty, unpackable, zero_intercept):
    store, graph = _store(seed, empty, unpackable, zero_intercept)
    _check(store, graph, *_rows(seed + 1, n))


@pytest.mark.parametrize("zero_intercept", [0.0, -0.0])
def test_five_thousand_rows_price_in_blocks(zero_intercept):
    """5 000 rows make ~15 000 covered pairs: several scratch blocks."""
    store, graph = _store(
        5, empty=ModelKind.OP_INPUT, unpackable=None, zero_intercept=zero_intercept
    )
    _check(store, graph, *_rows(6, 5000))


def test_negative_context_rows_keep_the_sign_of_a_zero():
    """The pad hazard, pinned: the all-zero model's theta_0 is -0.0 on rows
    whose CL is negative and on rows whose CL is positive."""
    store, graph = _store(9, empty=None, unpackable=None, zero_intercept=-0.0)
    inputs, bundles, _ = _rows(10, 400)
    keep = [i for i, b in enumerate(bundles) if b.strict == int(_WORDS[0])]
    inputs = [inputs[i] for i in keep]
    bundles = [bundles[i] for i in keep]
    assert {np.sign(f.logical_count) for f in inputs} == {-1.0, 1.0}
    table = FeatureTable.from_inputs(inputs, bundles)
    profiles, _ = resource_profiles_most_specific(store, table)
    assert all(np.signbit(profile.theta_0) for profile in profiles)
    _check(store, graph, inputs, bundles, table)


def test_non_finite_context_never_reaches_a_29_wide_price():
    """A 29-wide model never reads CL or D, so an infinite CL or NaN D
    (tables priced with input validation off) cannot poison its price."""
    store, graph = _store(11, empty=None, unpackable=None, zero_intercept=0.0)
    inputs, bundles, _ = _rows(12, 300)
    keep = [i for i, b in enumerate(bundles) if b.strict in graph[ModelKind.OP_SUBGRAPH]]
    inputs = [replace(inputs[i], logical_count=np.inf, depth=np.nan) for i in keep]
    bundles = [bundles[i] for i in keep]
    table = FeatureTable.from_inputs(inputs, bundles)
    with np.errstate(invalid="ignore"):
        values, _, _ = predict_most_specific(store, table, _FALLBACK)
        mask, predictions = store_predictions_by_kind(
            store, SimpleNamespace(to_table=lambda: table)
        )[ModelKind.OP_SUBGRAPH]
    models = graph[ModelKind.OP_SUBGRAPH]
    expected = [models[b.strict].predict_one(f) for f, b in zip(inputs, bundles)]
    assert len(expected) and np.isfinite(expected).all()
    assert _bits(values) == _bits(expected)
    assert mask.all() and _bits(predictions) == _bits(expected)


#: One edit: what to do (``twice`` removes one word two times), to which
#: kind, the word it names (``first`` / ``last`` / ``empty`` pick their
#: words from the kind's run instead), and whether the store is read, and
#: so its staged edits folded in, after it.  Few words, so that edits often
#: name the same model twice; the last three are the edge words.
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("add", "remove", "twice", "quarantine", "first", "last", "empty")),
        st.sampled_from(SPECIFICITY_ORDER),
        st.sampled_from((0, 1, 2, 9, 10, 11)),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


def _file_bytes(store: ModelStore, directory: Path, name: str) -> bytes:
    path = directory / name
    save_predictor(CleoPredictor(store=store), path)
    return path.read_bytes()


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from((0, 1, 7, 40)), edits=_EDITS)
@settings(max_examples=25, deadline=None)
def test_edits_keep_the_block_equal_to_the_object_graph(seed, n, edits):
    """Interleaved ``add`` / ``remove`` / quarantine steps, some staged
    behind others before the store is read: whenever it is read, the store
    equals its object graph, and a save -> load -> save round trip of its
    model file is byte-identical."""
    store, graph = _store(seed, empty=None, unpackable=None, zero_intercept=0.0)
    rng = np.random.default_rng(seed + 2)
    rows = _rows(seed + 1, n)
    quarantine = ModelQuarantine()
    with tempfile.TemporaryDirectory() as directory:
        for step, (action, kind, index, read) in enumerate(edits, start=1):
            held = list(graph[kind])
            if action in ("add", "remove", "quarantine"):
                words = [int(_WORDS[index])]
            elif action == "twice":  # the second removal is a no-op
                words = [int(_WORDS[index])] * 2
            elif action == "empty":
                words = held
            else:
                words = held[:1] if action == "first" else held[-1:]
            for word in words:
                version = store.version
                if action == "add":
                    model = _fitted_model(rng, kind)
                    store.add(kind, word, model)
                    graph[kind][word] = model
                    assert store.version == version + 1
                    continue
                present = graph[kind].pop(word, None) is not None
                if action == "quarantine":
                    assert quarantine.quarantine(store, kind, word) is present
                else:
                    assert store.remove(kind, word) is present
                assert store.version == version + present
            if not read and step < len(edits):
                continue
            if action == "empty":
                assert store.count(kind) == 0
            _check(store, graph, *rows)
            saved = _file_bytes(store, Path(directory), "store.json")
            loaded = load_predictor(Path(directory) / "store.json").store
            assert _file_bytes(loaded, Path(directory), "again.json") == saved
        _check(loaded, graph, *rows)
