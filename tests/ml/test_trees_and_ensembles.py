"""Tests for decision trees, random forests, and FastTree boosting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import FastTreeRegressor
from repro.ml.tree import DecisionTreeRegressor, SortedColumns
from tests.ml.dfs_grower import grow_per_node


def _step_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 3))
    y = np.where(x[:, 0] > 0.5, 10.0, 1.0) + 0.01 * rng.normal(size=n)
    return x, y


class TestDecisionTree:
    def test_learns_step_function(self):
        x, y = _step_data()
        tree = DecisionTreeRegressor(max_depth=3).fit(x, y)
        mse = float(np.mean((tree.predict(x) - y) ** 2))
        # Histogram split finding quantizes thresholds to bin edges, so a
        # small boundary region stays mixed; anything below the no-split
        # variance (~20) by 20x is a real fit.
        assert mse < 1.0

    def test_depth_limit_respected(self):
        x, y = _step_data()
        tree = DecisionTreeRegressor(max_depth=2).fit(x, y)
        assert tree.tree_depth <= 2

    def test_single_leaf_predicts_mean(self):
        x, y = _step_data()
        stump = DecisionTreeRegressor(max_depth=1).fit(x, y)
        assert stump.node_count == 1
        assert stump.predict(x[:1])[0] == pytest.approx(float(y.mean()))

    def test_constant_target_no_split(self):
        x = np.random.default_rng(0).normal(size=(50, 4))
        y = np.full(50, 3.0)
        tree = DecisionTreeRegressor().fit(x, y)
        assert tree.node_count == 1

    def test_min_samples_leaf(self):
        x, y = _step_data(n=40)
        tree = DecisionTreeRegressor(max_depth=10, min_samples_leaf=15).fit(x, y)
        # With min 15 per leaf and 40 samples, at most 2 levels of splits.
        assert tree.node_count <= 7

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=5, max_value=80))
    def test_predictions_within_target_range(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3))
        y = rng.uniform(-5, 5, size=n)
        tree = DecisionTreeRegressor(max_depth=6).fit(x, y)
        preds = tree.predict(x)
        assert preds.min() >= y.min() - 1e-9
        assert preds.max() <= y.max() + 1e-9

    def test_train_test_split_consistency(self):
        """Boundary values route the same way at fit and predict time."""
        x = np.array([[1.0], [1.0], [2.0], [2.0], [3.0], [3.0]] * 5)
        y = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0] * 5)
        tree = DecisionTreeRegressor(max_depth=4).fit(x, y)
        assert np.allclose(tree.predict(x), y)


class TestRandomForest:
    def test_fits_step_function(self):
        x, y = _step_data()
        forest = RandomForestRegressor(
            n_estimators=10, max_depth=6, max_features=None, seed=1
        ).fit(x, y)
        mse = float(np.mean((forest.predict(x) - y) ** 2))
        assert mse < 2.0

    def test_deterministic_given_seed(self):
        x, y = _step_data()
        f1 = RandomForestRegressor(n_estimators=5, seed=7).fit(x, y).predict(x)
        f2 = RandomForestRegressor(n_estimators=5, seed=7).fit(x, y).predict(x)
        assert np.allclose(f1, f2)

    def test_seed_changes_predictions(self):
        x, y = _step_data()
        f1 = RandomForestRegressor(n_estimators=5, seed=1).fit(x, y).predict(x)
        f2 = RandomForestRegressor(n_estimators=5, seed=2).fit(x, y).predict(x)
        assert not np.allclose(f1, f2)

    def test_max_features_validation(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(max_features="bogus").fit(*_step_data(n=20))

    def test_n_estimators_validation(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)


class TestFastTree:
    def test_beats_single_tree(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=(400, 4))
        y = np.exp(2 * x[:, 0]) + x[:, 1] * 3
        gbm = FastTreeRegressor(n_estimators=30, max_depth=3, log_target=False, seed=0)
        tree = DecisionTreeRegressor(max_depth=3)
        gbm.fit(x, y)
        tree.fit(x, y)
        gbm_mse = float(np.mean((gbm.predict(x) - y) ** 2))
        tree_mse = float(np.mean((tree.predict(x) - y) ** 2))
        assert gbm_mse < tree_mse

    def test_log_target_keeps_predictions_nonnegative(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(100, 3))
        y = np.abs(rng.normal(5, 2, size=100))
        gbm = FastTreeRegressor(log_target=True).fit(x, y)
        assert (gbm.predict(x) >= 0).all()

    def test_log_target_rejects_negatives(self):
        with pytest.raises(ValueError):
            FastTreeRegressor(log_target=True).fit(np.ones((3, 1)), np.array([-1.0, 1, 2]))

    def test_staged_predictions_improve(self):
        """More stages fit better; a 1-stage booster is the longer one's
        first stage (same seed, so the same first tree)."""
        x, y = _step_data()
        first = FastTreeRegressor(n_estimators=1, log_target=False, seed=0).fit(x, y)
        last = FastTreeRegressor(n_estimators=15, log_target=False, seed=0).fit(x, y)
        for got, want in zip(first.trees_[0].node_arrays(), last.trees_[0].node_arrays()):
            assert got.tobytes() == want.tobytes()
        first_mse = float(np.mean((first.predict(x) - y) ** 2))
        last_mse = float(np.mean((last.predict(x) - y) ** 2))
        assert last_mse < first_mse

    def test_subsample_validation(self):
        with pytest.raises(ValueError):
            FastTreeRegressor(subsample=0.0)
        with pytest.raises(ValueError):
            FastTreeRegressor(subsample=1.5)

    def test_deterministic(self):
        x, y = _step_data()
        a = FastTreeRegressor(seed=3).fit(x, y).predict(x)
        b = FastTreeRegressor(seed=3).fit(x, y).predict(x)
        assert np.allclose(a, b)


# --------------------------------------------------------------------- #
# The sorted-once binner against the spelling it replaced
# --------------------------------------------------------------------- #


def _quantile_bins(sample: np.ndarray, max_bins: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The oracle: ``np.quantile`` / ``np.unique`` / ``np.searchsorted`` per fit."""
    quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    all_cuts = np.quantile(sample, quantiles, axis=0)
    codes = np.empty(sample.shape, dtype=np.int64)
    edges = []
    for j in range(sample.shape[1]):
        cuts = np.unique(all_cuts[:, j])
        codes[:, j] = np.searchsorted(cuts, sample[:, j], side="right")
        edges.append(cuts)
    return codes, edges


_COLUMN_KINDS = {
    "constant": lambda rng, n: np.full(n, rng.normal()),
    "binary": lambda rng, n: (rng.random(n) < rng.random()).astype(float),
    "few_valued": lambda rng, n: rng.integers(0, rng.integers(2, 9), size=n).astype(float),
    "lognormal": lambda rng, n: rng.lognormal(0.0, 2.0, size=n),
    "rounded": lambda rng, n: np.round(rng.normal(size=n), 1),  # ties, and -0.0
    "signed_zeros": lambda rng, n: np.where(rng.random(n) < 0.5, 0.0, -0.0),
    "zeros_among_values": lambda rng, n: np.where(
        rng.random(n) < 0.3, rng.normal(size=n), np.where(rng.random(n) < 0.5, 0.0, -0.0)
    ),
}


def _bits(values: np.ndarray) -> bytes:
    """The array's bytes with ``-0.0`` read as ``0.0``.

    Which zero a column mixing both signs contributes as an order statistic
    is up to ``np.partition``'s implementation (and ``np.unique`` keeps
    whichever its sort puts first), so the sign of a zero cut is the one bit
    the oracle itself does not define; ``x + 0.0`` is exact everywhere else.
    """
    return (values + 0.0).tobytes()


class TestSortedColumns:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=400),
        kinds=st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=6),
        share=st.sampled_from([1.0, 0.9, 0.5, 0.0]),
        max_bins=st.sampled_from([64, 2, 7, 500]),
    )
    def test_bins_equal_the_quantile_spelling(self, seed, n, kinds, share, max_bins):
        rng = np.random.default_rng(seed)
        x = np.column_stack([_COLUMN_KINDS[kind](rng, n) for kind in kinds])
        rows = rng.choice(n, size=max(2, int(round(n * share))), replace=False)
        codes, edges = SortedColumns(x).bin(rows, max_bins)
        want_codes, want_edges = _quantile_bins(x[rows], max_bins)
        assert np.array_equal(codes, want_codes)
        assert len(edges) == len(want_edges)
        for got, want in zip(edges, want_edges):
            assert got.dtype == want.dtype and _bits(got) == _bits(want)

    def test_every_stage_of_a_fit_reuses_one_sort(self, monkeypatch):
        """A fit argsorts its matrix once and never calls ``np.quantile``."""
        calls = {"argsort": 0}
        real_argsort = np.argsort

        def counting_argsort(*args, **kwargs):
            calls["argsort"] += 1
            return real_argsort(*args, **kwargs)

        def no_quantile(*args, **kwargs):
            raise AssertionError("np.quantile called during fit")

        monkeypatch.setattr(np, "argsort", counting_argsort)
        monkeypatch.setattr(np, "quantile", no_quantile)
        x, y = _step_data()
        FastTreeRegressor(n_estimators=6, log_target=False).fit(x, y)
        assert calls["argsort"] == 1


class TestStagewiseParity:
    @pytest.mark.parametrize("subsample", [0.9, 0.5, 1.0])
    def test_fit_equals_the_loop_of_tree_fits(self, subsample):
        """``FastTreeRegressor.fit`` grows the trees the stage loop, spelled
        with one ``DecisionTreeRegressor.fit`` on the gathered sample per
        stage, grows — same draws, same residuals, same node arrays."""
        rng = np.random.default_rng(21)
        x = np.column_stack(
            [
                rng.lognormal(0.0, 1.5, size=350),
                (rng.random(350) < 0.2).astype(float),
                rng.integers(0, 12, size=350).astype(float),
                rng.normal(size=350),
            ]
        )
        targets = np.exp(0.5 * x[:, 3]) + x[:, 0] + 3.0 * x[:, 1]
        model = FastTreeRegressor(n_estimators=8, subsample=subsample, seed=4).fit(x, targets)

        y = np.log1p(targets)
        draws = np.random.default_rng(model.seed)
        assert model.base_prediction_ == float(y.mean())
        current = np.full(len(y), model.base_prediction_)
        for stage, fitted in enumerate(model.trees_):
            residual = y - current
            if subsample < 1.0:
                take = max(2, int(round(len(y) * subsample)))
                idx = draws.choice(len(y), size=take, replace=False)
            else:
                idx = np.arange(len(y))
            tree = DecisionTreeRegressor(
                max_depth=model.max_depth,
                min_samples_leaf=model.min_samples_leaf,
                seed=model.seed * 7_919 + stage,
            ).fit(x[idx], residual[idx])
            for got, want in zip(fitted.node_arrays(), tree.node_arrays()):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            current = current + model.learning_rate * tree.predict(x)


class TestNothingFromFitStaysOnATree:
    """``nightly_loop`` keeps every night's predictors alive: the sort, the
    codes and the split-search layout must die with ``fit``."""

    #: No ``_nodes``: the growth buffer's lists hold what ``_arrays`` does.
    TREE_KEYS = {
        "_arrays", "max_bins", "max_depth", "max_features",
        "min_samples_leaf", "min_samples_split", "n_features_", "seed",
    }  # fmt: skip
    BOOSTER_KEYS = {
        "_flat", "base_prediction_", "learning_rate", "log_target", "max_depth",
        "min_samples_leaf", "n_estimators", "seed", "subsample", "trees_",
    }  # fmt: skip

    def _assert_lean(self, tree):
        assert set(vars(tree)) == self.TREE_KEYS
        for array in tree._arrays:
            assert array.shape == (tree.node_count,)

    def test_tree_attributes_are_the_parent_commits(self):
        x, y = _step_data()
        self._assert_lean(DecisionTreeRegressor(max_depth=6).fit(x, y))

    def test_booster_and_forest_attributes_are_the_parent_commits(self):
        x, y = _step_data()
        booster = FastTreeRegressor(n_estimators=4, log_target=False).fit(x, y)
        assert set(vars(booster)) == self.BOOSTER_KEYS
        forest = RandomForestRegressor(n_estimators=4).fit(x, y)
        for tree in booster.trees_ + forest.trees_:
            self._assert_lean(tree)


# --------------------------------------------------------------------- #
# The frontier grower against the per-node grower it replaced
# --------------------------------------------------------------------- #

_TARGET_KINDS = {
    "normal": lambda rng, n: rng.normal(size=n),
    "lognormal": lambda rng, n: rng.lognormal(0.0, 2.0, size=n),
    "few_valued": lambda rng, n: rng.integers(0, 4, size=n).astype(float),
    "constant": lambda rng, n: np.full(n, rng.normal()),
}

_generated = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=300),
    kinds=st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=6),
    target=st.sampled_from(sorted(_TARGET_KINDS)),
)


def _matrix(seed, n, kinds, target):
    rng = np.random.default_rng(seed)
    x = np.column_stack([_COLUMN_KINDS[kind](rng, n) for kind in kinds])
    return rng, x, _TARGET_KINDS[target](rng, n)


def _assert_same_nodes(got, want):
    for a, b in zip(got.node_arrays(), want.node_arrays(), strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _per_node_fit(tree, x, y):
    codes, edges = tree._bin_features(x)
    return grow_per_node(tree, codes, edges, y)


class TestFrontierGrower:
    """Every tree the frontier grower makes is the per-node grower's
    (``tests/ml/dfs_grower.py``), node array for node array."""

    @settings(max_examples=80, deadline=None)
    @given(
        **_generated,
        depth=st.sampled_from([1, 5, 15]),
        min_leaf=st.sampled_from([1, 2, 7]),
        min_split=st.sampled_from([2, 10]),
    )
    def test_standalone_trees(self, seed, n, kinds, target, depth, min_leaf, min_split):
        _, x, y = _matrix(seed, n, kinds, target)
        params = dict(max_depth=depth, min_samples_leaf=min_leaf, min_samples_split=min_split)
        got = DecisionTreeRegressor(**params).fit(x, y)
        _assert_same_nodes(got, _per_node_fit(DecisionTreeRegressor(**params), x, y))

    @settings(max_examples=40, deadline=None)
    @given(**_generated, max_features=st.sampled_from(["sqrt", 1, 3, None]))
    def test_forest(self, seed, n, kinds, target, max_features):
        """Per-split feature draws come in the per-node grower's DFS order."""
        _, x, y = _matrix(seed, n, kinds, target)
        forest = RandomForestRegressor(n_estimators=4, max_features=max_features, seed=seed % 97)
        forest.fit(x, y)
        draws = np.random.default_rng(forest.seed)
        for t, got in enumerate(forest.trees_):
            sample = draws.integers(0, n, size=n)
            want = DecisionTreeRegressor(
                max_depth=forest.max_depth,
                min_samples_leaf=forest.min_samples_leaf,
                max_features=forest._resolve_max_features(x.shape[1]),
                seed=forest.seed * 1_000_003 + t,
            )
            _assert_same_nodes(got, _per_node_fit(want, x[sample], y[sample]))

    @settings(max_examples=30, deadline=None)
    @given(**_generated, subsample=st.sampled_from([0.9, 0.5, 1.0]))
    def test_fasttree(self, seed, n, kinds, target, subsample):
        """Every stage, its residual update routed through ``predict``."""
        _, x, y = _matrix(seed, n, kinds, target)
        y = np.abs(y)
        model = FastTreeRegressor(n_estimators=6, subsample=subsample, seed=seed % 89).fit(x, y)
        columns = SortedColumns(x)
        y_log = np.log1p(y)
        draws = np.random.default_rng(model.seed)
        current = np.full(n, model.base_prediction_)
        for stage, got in enumerate(model.trees_):
            residual = y_log - current
            if subsample < 1.0:
                idx = draws.choice(n, size=max(2, int(round(n * subsample))), replace=False)
            else:
                idx = np.arange(n)
            want = DecisionTreeRegressor(
                max_depth=model.max_depth,
                min_samples_leaf=model.min_samples_leaf,
                seed=model.seed * 7_919 + stage,
            )
            codes, edges = columns.bin(idx, want.max_bins)
            _assert_same_nodes(got, grow_per_node(want, codes, edges, residual[idx]))
            current = current + model.learning_rate * want.predict(x)

    @settings(max_examples=60, deadline=None)
    @given(**_generated, share=st.sampled_from([1.0, 0.9, 0.5]), depth=st.sampled_from([1, 5, 15]))
    def test_leaf_values_are_predict_on_the_sampled_rows(
        self, seed, n, kinds, target, share, depth
    ):
        """The booster's residual update reads each sampled row's leaf from
        the grower's partition; it must be what ``predict`` routes it to."""
        rng, x, y = _matrix(seed, n, kinds, target)
        rows = rng.choice(n, size=max(2, int(round(n * share))), replace=False)
        tree = DecisionTreeRegressor(max_depth=depth, min_samples_leaf=2)
        codes, edges = SortedColumns(x).bin(rows, tree.max_bins)
        leaves = tree._fit_binned(codes, edges, y[rows])
        assert leaves.tobytes() == tree.predict(x[rows]).tobytes()
