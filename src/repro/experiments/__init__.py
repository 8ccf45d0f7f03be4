"""Experiments: one module per table/figure of the paper's evaluation.

Every module exposes ``run(scale=..., seed=...) -> ExperimentResult``; the
benchmark harness under ``benchmarks/`` calls these and prints the same
rows/series the paper reports.  ``EXPERIMENTS.md`` (measured-vs-paper for
each artifact) is not checked in: ``python scripts/build_experiments_md.py``
writes it on demand from a benchmark run's ``benchmarks/results/``.

Timing lives in the loop benchmark (``python -m bench``), and each fast
path's parity with its reference (:mod:`repro.reference`) is a tier-1
test.
"""

from repro.experiments.harness import ExperimentResult, format_table

__all__ = ["ExperimentResult", "format_table"]
