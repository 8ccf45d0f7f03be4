"""Experiments: one module per table/figure of the paper's evaluation.

Every module exposes ``run(scale=..., seed=...) -> ExperimentResult``; the
benchmark harness under ``benchmarks/`` calls these and prints the same
rows/series the paper reports.  ``EXPERIMENTS.md`` records measured-vs-paper
for each artifact.

The seven layer benchmarks (``*_throughput``, ``fault_tolerance``) have no
paper counterpart: each exposes ``run_benchmark(...) -> dict`` and
``format_result``, and :data:`repro.experiments.throughput.BENCHES` registers
them — flags, parity gates, default output — behind ``repro bench <name>``.
"""

from repro.experiments.harness import ExperimentResult, format_table

__all__ = ["ExperimentResult", "format_table"]
