"""The run log's columnar storage against the records it stands for.

A job's ``operators`` is a slice of a row block and ``RunLog.to_table``
gathers the training table from the blocks.  Whatever the log went through
(day / cluster / ad-hoc filters, ``extend``, poisoning), the table must be
bit for bit what packing the materialized records gives, and the records
must behave as the tuple they used to be.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.chaos import POISON_SCENARIOS, RunLogPoisoner
from repro.execution.hardware import DEFAULT_CLUSTERS
from repro.execution.runtime_log import OperatorRows, RunLog
from repro.experiments.shared import get_bundle
from repro.features.table import FeatureTable
from repro.reference import run_days_reference
from repro.workload.generator import ClusterWorkloadConfig, WorkloadGenerator
from repro.workload.runner import WorkloadRunner


def assert_tables_identical(a: FeatureTable, b: FeatureTable) -> None:
    """Same columns, dtypes, shapes and bits (NaN payloads and signed zeros
    included)."""
    for name in ("features", "signatures", "latency", "day", "is_adhoc"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert a.cluster == b.cluster


@pytest.fixture(scope="module")
def fleet_log() -> RunLog:
    """Two clusters' tiny logs (days 1-3), each run's jobs one block."""
    log = RunLog()
    for cluster in ("cluster1", "cluster4"):
        log.extend(get_bundle(cluster, scale="tiny", seed=0).log.jobs)
    return log


_DAYS = st.none() | st.sets(st.sampled_from([1, 2, 3]), min_size=1)
_CLUSTERS = st.none() | st.sets(st.sampled_from(["cluster1", "cluster4"]), min_size=1)
_ADHOC = st.sampled_from([None, True, False])
_FILTER = st.tuples(_DAYS, _CLUSTERS, _ADHOC)


def _filtered(log: RunLog, spec) -> RunLog:
    days, clusters, adhoc = spec
    return log.filter(
        days=None if days is None else sorted(days),
        clusters=None if clusters is None else sorted(clusters),
        adhoc=adhoc,
    )


class TestTableFollowsRecords:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        first=_FILTER,
        second=st.none() | _FILTER,
        poison=st.none() | st.sampled_from(sorted(POISON_SCENARIOS)),
    )
    def test_table_equals_packed_records(self, fleet_log, first, second, poison):
        log = _filtered(fleet_log, first)
        if second is not None:
            log.extend(_filtered(fleet_log, second).jobs)
        if poison is not None:
            log, _ = RunLogPoisoner(POISON_SCENARIOS[poison]).poison(log)
        expected = FeatureTable.from_records(list(log.operator_records()))
        assert_tables_identical(log.to_table(), expected)
        assert len(log.to_table()) == log.operator_count

    def test_interior_job_replacement_is_seen(self):
        """Swapping an interior job for another with the same operator
        count keeps the log's length, row count and end jobs: the table
        must still follow."""
        log = get_bundle("cluster4", scale="tiny", seed=0).log
        day3 = log.filter(days=[3]).jobs
        early = RunLog(jobs=list(log.filter(days=[1, 2]).jobs))
        stale = early.to_table()
        assert set(stale.day.tolist()) == {1, 2}
        i, swap = next(
            (i, job)
            for i in range(1, len(early.jobs) - 1)
            for job in day3
            if len(job.operators) == len(early.jobs[i].operators)
        )
        early.jobs[i] = swap
        assert early.days == [1, 2, 3]
        table = early.to_table()
        assert table is not stale
        assert 3 in set(table.day.tolist())
        assert_tables_identical(
            table, FeatureTable.from_records(list(early.operator_records()))
        )

    def test_unchanged_log_keeps_its_table(self, fleet_log):
        log = fleet_log.filter(days=[2])
        assert log.to_table() is log.to_table()

    def test_empty_log_table(self):
        assert_tables_identical(RunLog().to_table(), FeatureTable.from_records([]))

    @pytest.mark.parametrize("poison", [None, "poisoned_runlog"])
    def test_kept_rows_are_the_table_take(self, fleet_log, poison):
        """``keep_rows`` over a log of several blocks (two clusters, and a
        poisoned copy) keeps every job, and its table is the masked take."""
        log = fleet_log
        if poison is not None:
            log, _ = RunLogPoisoner(POISON_SCENARIOS[poison]).poison(log)
        table = log.to_table()
        keep = np.arange(len(table)) % 3 != 1
        kept = log.keep_rows(keep)
        assert [job.job_id for job in kept.jobs] == [job.job_id for job in log.jobs]
        assert_tables_identical(kept.to_table(), table.take(np.flatnonzero(keep)))
        assert_tables_identical(
            kept.to_table(), FeatureTable.from_records(list(kept.operator_records()))
        )
        assert log.keep_rows(np.ones(len(table), dtype=bool)) is log


class TestOperatorsBehaveAsATuple:
    @pytest.fixture(scope="class")
    def job(self, fleet_log):
        return next(job for job in fleet_log.jobs if len(job.operators) >= 3)

    def test_sequence_surface(self, job):
        rows = job.operators
        records = tuple(rows)
        assert isinstance(rows, OperatorRows)
        assert len(rows) == len(records)
        assert rows[0] == records[0]
        assert rows[-1] == records[-1]
        assert rows[1:] == records[1:]
        assert rows == records and records == rows
        assert rows != records[:-1]
        assert hash(rows) == hash(records)
        assert repr(rows) == repr(records)
        assert records[1] in rows
        assert rows.index(records[1]) == 1
        with pytest.raises(IndexError):
            rows[len(records)]

    def test_records_repack_into_one_representation(self, job):
        """A job built from records packs them into a block of its own."""
        copy = dataclasses.replace(job, operators=tuple(job.operators))
        assert isinstance(copy.operators, OperatorRows)
        assert copy.operators.block is not job.operators.block
        assert copy == job
        assert repr(copy) == repr(job)


def _runner_pair(cluster, seed: int):
    config = ClusterWorkloadConfig(
        cluster_name=cluster.name,
        n_tables=5,
        n_fragments=9,
        n_templates=14,
        adhoc_fraction=0.12,
        seed=seed,
    )
    return WorkloadGenerator(config), WorkloadRunner(cluster=cluster, seed=seed)


def test_batched_and_reference_materialize_the_same_operators():
    """``repr`` pins float bits and value types; both paths now hand out
    records built from blocks."""
    cluster = DEFAULT_CLUSTERS[3]
    generator, runner = _runner_pair(cluster, seed=7)
    batched = runner.run_days(generator, [1, 2])
    generator, runner = _runner_pair(cluster, seed=7)
    reference = run_days_reference(runner, generator, [1, 2])
    assert list(batched.operator_records()) == list(reference.operator_records())
    assert repr(batched.jobs) == repr(reference.jobs)
    assert_tables_identical(batched.to_table(), reference.to_table())
    # One block for the batched run, one per job for the reference.
    assert len({id(job.operators.block) for job in batched.jobs}) == 1
    assert np.array_equal(
        batched.to_table().latency,
        np.array([r.actual_latency for r in batched.operator_records()]),
    )
