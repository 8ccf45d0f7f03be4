"""Smoke + shape tests for the experiment modules.

Each experiment runs at tiny scale; assertions check the *paper-shape*
invariants the reproduction is supposed to preserve, not absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    fig1_motivation,
    fig2_recurring,
    fig3_adhoc,
    fig5_6_feature_weights,
    fig7_heatmap,
    fig8c_lookups,
    fig9_workload_summary,
    fig10_workload_changes,
    fig17_partition_exploration,
    tab5_individual_models,
)
from repro.experiments.harness import ExperimentResult, format_table


class TestHarness:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 2.5, "b": "y"}])
        assert "a" in text and "x" in text

    def test_result_to_text(self):
        result = ExperimentResult("t", "title", rows=[{"k": 1}], series={"s": [1, 2]})
        text = result.to_text()
        assert "t: title" in text and "s:" in text

    def test_row_by(self):
        result = ExperimentResult("t", "title", rows=[{"k": 1}, {"k": 2}])
        assert result.row_by("k", 2) == {"k": 2}
        with pytest.raises(KeyError):
            result.row_by("k", 3)


class TestFig1Shape:
    @pytest.fixture(scope="class")
    def result(self):
        return fig1_motivation.run(scale="tiny", seed=0)

    def test_all_variants_present(self, result):
        assert {r["model"] for r in result.rows} == {
            "default",
            "tuned",
            "default+perfect-card",
            "tuned+perfect-card",
        }

    def test_heuristics_weakly_correlated(self, result):
        for row in result.rows:
            assert row["pearson"] < 0.6

    def test_perfect_cards_do_not_fix_costs(self, result):
        """The paper's headline: errors remain large with perfect cards."""
        row = result.row_by("model", "default+perfect-card")
        assert row["median_error_pct"] > 40


class TestFig2Shape:
    def test_recurring_job_varies(self):
        result = fig2_recurring.run(scale="tiny", seed=0, instances=40)
        inputs = result.row_by("metric", "total input (GiB)")
        latencies = result.row_by("metric", "latency (minutes)")
        assert inputs["spread_x"] > 1.2
        assert latencies["spread_x"] > 1.2


class TestFig3Shape:
    def test_adhoc_band(self):
        result = fig3_adhoc.run(scale="tiny", seed=0)
        for row in result.rows:
            assert 2.0 <= row["adhoc_pct"] <= 30.0


class TestTab5Shape:
    @pytest.fixture(scope="class")
    def result(self):
        return tab5_individual_models.run(scale="tiny", seed=0)

    def test_coverage_monotone_with_generality(self, result):
        cov = {r["model"]: r["coverage_pct"] for r in result.rows}
        assert cov["op_subgraph"] <= cov["op_subgraph_approx"] <= cov["op_input"]
        assert cov["operator"] >= 99.0
        assert cov["combined"] == 100.0

    def test_learned_beats_default(self, result):
        default = result.row_by("model", "Default")
        combined = result.row_by("model", "combined")
        assert combined["correlation"] > default["correlation"]
        assert combined["median_error_pct"] < default["median_error_pct"]

    def test_subgraph_most_accurate(self, result):
        subgraph = result.row_by("model", "op_subgraph")
        operator = result.row_by("model", "operator")
        assert subgraph["median_error_pct"] < operator["median_error_pct"]


class TestFig5_6Shape:
    def test_specialized_models_concentrate_weights(self):
        result = fig5_6_feature_weights.run(scale="tiny", seed=0)
        conc = {r["model"]: r["concentration"] for r in result.rows}
        assert conc["op_subgraph"] >= conc["operator"]


class TestFig7Shape:
    def test_combined_covers_all_with_quality(self):
        result = fig7_heatmap.run(scale="tiny", seed=0)
        combined = result.row_by("model", "combined")
        operator = result.row_by("model", "operator")
        assert combined["coverage_pct"] == 100.0
        assert combined["within_0.8_1.25x_pct"] >= operator["within_0.8_1.25x_pct"]


class TestFig8cShape:
    def test_lookup_ordering(self):
        result = fig8c_lookups.run()
        at_40 = {r["strategy"]: r["lookups_40_ops"] for r in result.rows}
        assert at_40["analytical"] == 200
        assert at_40["analytical"] < at_40["sampling-geometric(s=0.5)"]
        assert at_40["sampling-geometric(s=0.5)"] < at_40["sampling-geometric(s=5)"]
        assert at_40["sampling-geometric(s=5)"] < at_40["exhaustive"]


class TestFig17Pins:
    """Figure 17 at ``tiny``, seed 0, pinned exactly: the paper's unclamped
    closed-form pick, the product strategy's trust-region pick (read from
    ``AnalyticalStrategy.stage_counts``) and how often the clamp binds."""

    @pytest.fixture(scope="class")
    def result(self):
        return fig17_partition_exploration.run(scale="tiny", seed=0)

    def test_unclamped_row(self, result):
        assert result.series["median_error_analytical"] == [0.0] * 7
        assert result.row_by("strategy", "analytical") == {
            "strategy": "analytical", **{f"n={n}": 0.0 for n in (2, 4, 8, 16, 32, 64, 128)}
        }

    def test_product_pick_and_clamp_share(self, result):
        assert result.series["median_error_analytical_product"] == [0.0] * 7
        assert result.series["clamp_binds_pct"] == [4.63]
        assert "changes the analytical pick on 5 of 108 stages" in result.notes


class TestFig9And10Shape:
    def test_recurring_jobs_dominate(self):
        result = fig9_workload_summary.run(scale="tiny", seed=0)
        overall = result.row_by("cluster", "overall")
        assert overall["recurring_jobs"] > 0.7 * overall["total_jobs"]
        assert overall["common_subexpr"] > 0.5 * overall["total_subexpr"]

    def test_day_over_day_changes_nonzero(self):
        result = fig10_workload_changes.run(scale="tiny", seed=0)
        assert any(abs(row["input_volume_pct"]) > 1.0 for row in result.rows)


class TestMetaAblationShape:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ablations

        return ablations.run_meta_ablation(scale="tiny", seed=0)

    def test_three_variants(self, result):
        assert len(result.rows) == 3
        assert {r["meta_features"] for r in result.rows} == {
            "predictions_only",
            "paper (pred + extras)",
            "paper + default cost",
        }

    def test_column_counts_increase(self, result):
        columns = [r["n_columns"] for r in result.rows]
        assert columns == sorted(columns)

    def test_every_variant_beats_heuristic_regime(self, result):
        # All combined variants stay far below the default model's ~200%+.
        for row in result.rows:
            assert row["median_error_pct"] < 60.0

    @pytest.mark.parametrize("day", [2, 3])
    def test_bulk_meta_rows_are_the_per_record_stack(self, day):
        """The ablation's one bulk pass over a day's table is bitwise the
        per-record ``build_meta_row`` stack it replaced, latencies included."""
        import numpy as np

        from repro.reference import build_meta_row
        from repro.experiments.ablations import meta_day_rows
        from repro.experiments.shared import get_bundle

        bundle = get_bundle("cluster1", scale="tiny", seed=0)
        store = bundle.predictor().store
        rows, actual = meta_day_rows(store, bundle.log, day)
        records = list(bundle.log.filter(days=[day]).operator_records())
        stack = np.vstack([build_meta_row(store, r.features, r.signatures) for r in records])
        assert rows.tobytes() == stack.tobytes()
        assert actual.tobytes() == np.asarray([r.actual_latency for r in records]).tobytes()


class TestSpecializationAblationShape:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ablations

        return ablations.run_specialization_ablation(scale="tiny", seed=0)

    def test_four_points_on_the_spectrum(self, result):
        assert [r["model"] for r in result.rows] == [
            "global elastic net",
            "global fasttree",
            "per-operator collection",
            "full collection + combined",
        ]

    def test_no_one_size_fits_all_ordering(self, result):
        by_model = {r["model"]: r for r in result.rows}
        assert (
            by_model["full collection + combined"]["median_error_pct"]
            <= by_model["per-operator collection"]["median_error_pct"]
        )
        assert (
            by_model["per-operator collection"]["median_error_pct"]
            < by_model["global elastic net"]["median_error_pct"]
        )

    def test_model_counts_grow_with_specialization(self, result):
        by_model = {r["model"]: r for r in result.rows}
        assert by_model["global elastic net"]["n_models"] == 1
        assert (
            by_model["full collection + combined"]["n_models"]
            > by_model["per-operator collection"]["n_models"]
        )
