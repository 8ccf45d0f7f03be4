"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro.cli import _experiment_registry, build_parser, main

#: Small workload so CLI tests stay in the seconds range.
SMALL = ["--tables", "6", "--fragments", "8", "--templates", "10"]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_workload_defaults(self):
        args = build_parser().parse_args(["workload"])
        assert args.cluster == "cluster1"
        assert args.days == 3
        assert args.seed == 0

    def test_experiment_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "tab5", "--scale", "huge"])


class TestWorkloadCommand:
    def test_prints_profile(self, capsys):
        code = main(["workload", "--days", "2", *SMALL])
        out = capsys.readouterr().out
        assert code == 0
        assert "recurring jobs" in out
        assert "common subexpressions" in out

    def test_deterministic_across_runs(self, capsys):
        main(["workload", "--days", "2", *SMALL])
        first = capsys.readouterr().out
        main(["workload", "--days", "2", *SMALL])
        second = capsys.readouterr().out
        assert first == second


class TestTrainEvaluateRoundTrip:
    def test_train_writes_model_file(self, tmp_path, capsys):
        model_path = tmp_path / "models.json"
        code = main(["train", "--days", "3", *SMALL, "--out", str(model_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert model_path.exists()
        assert "trained" in out
        payload = json.loads(model_path.read_text())
        assert "models" in payload and "combined" in payload

    def test_evaluate_loads_and_scores(self, tmp_path, capsys):
        model_path = tmp_path / "models.json"
        main(["train", "--days", "3", *SMALL, "--out", str(model_path)])
        capsys.readouterr()
        code = main(["evaluate", "--model", str(model_path), *SMALL, "--day", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "combined" in out
        assert "op_subgraph" in out

    def test_evaluate_rejects_a_truncated_model_file(self, tiny_predictor, tmp_path, capsys):
        from repro.core.serialization import save_predictor

        model_path = tmp_path / "models.json"
        save_predictor(tiny_predictor, model_path)
        model_path.write_bytes(model_path.read_bytes()[:1000])
        code = main(["evaluate", "--model", str(model_path), *SMALL, "--day", "3"])
        assert code == 2
        assert "not a valid model file" in capsys.readouterr().err

    def test_train_rejects_too_few_days(self, tmp_path, capsys):
        code = main(["train", "--days", "2", *SMALL, "--out", str(tmp_path / "m.json")])
        assert code == 2


class TestPredictCommand:
    def test_serves_batched_predictions_with_stats(self, tmp_path, capsys):
        model_path = tmp_path / "models.json"
        main(["train", "--days", "3", *SMALL, "--out", str(model_path)])
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), *SMALL, "--day", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "vectorized model calls" in out
        assert "prediction cache" in out
        assert "median error" in out

    def test_explains_operator_predictions(self, tmp_path, capsys):
        model_path = tmp_path / "models.json"
        main(["train", "--days", "3", *SMALL, "--out", str(model_path)])
        capsys.readouterr()
        code = main(
            ["predict", "--model", str(model_path), *SMALL, "--day", "3",
             "--explain", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "operators explained" in out
        assert "combined" in out


class TestExperimentCommand:
    def test_list_covers_every_paper_artifact(self, capsys):
        code = main(["experiment", "--list"])
        out = capsys.readouterr().out
        assert code == 0
        for artifact in ("fig1", "fig14", "fig20", "tab5", "tab8", "ablation_window"):
            assert artifact in out

    def test_registry_ids_are_unique_and_runnable_signatures(self):
        registry = _experiment_registry()
        assert len(registry) == 32  # 25 paper artifacts + 6 ablations + 1 extension
        for runner in registry.values():
            assert callable(runner)

    def test_missing_id_lists_and_fails(self, capsys):
        code = main(["experiment"])
        out = capsys.readouterr().out
        assert code == 2
        assert "available experiment ids" in out

    def test_unknown_id_fails(self, capsys):
        code = main(["experiment", "nonexistent"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown experiment" in err

    def test_runs_a_cheap_experiment(self, capsys):
        code = main(["experiment", "tab2_3", "--scale", "tiny"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tab2_3" in out
