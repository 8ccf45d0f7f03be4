"""Run logs: the instrumentation data that feeds Cleo's training pipeline.

Big data systems are already instrumented to collect per-operator compile
time statistics and runtime traces (Section 5.1).  The simulator logs one
row per executed operator — compile-time features (with the optimizer's
*estimated* statistics, exactly what a model can see at prediction time),
the four model signatures, and the actual exclusive latency — plus one
:class:`JobRecord` per job.

The rows live as columns: an :class:`OperatorBlock` is a
:class:`~repro.features.table.FeatureTable` plus the outcome columns, and a
job's ``operators`` is an :class:`OperatorRows` slice of one block.  An
:class:`OperatorRecord` is built only when someone iterates or indexes
that slice, so a log holds no per-operator objects, and
:meth:`RunLog.to_table` gathers the training table straight from the
blocks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import is_
from typing import Iterable, Iterator

import numpy as np

from repro.features.featurizer import FeatureInput
from repro.features.table import FeatureTable
from repro.plan.signatures import SignatureBundle


@dataclass(frozen=True, slots=True)
class OperatorRecord:
    """One executed operator instance: features, signatures, and outcome."""

    job_id: str
    cluster: str
    day: int
    op_type: str
    template_tag: str
    signatures: SignatureBundle
    features: FeatureInput
    actual_latency: float  # seconds, exclusive (the learning target)
    actual_output_card: float
    actual_input_card: float
    cpu_seconds: float
    is_adhoc: bool = False

    def __post_init__(self) -> None:
        if self.actual_latency < 0:
            raise ValueError("actual_latency must be >= 0")


@dataclass(frozen=True, eq=False)
class OperatorBlock:
    """Operator rows as columns: one row per executed operator.

    ``table`` holds the features, signatures, actual latency, day, cluster
    and ad-hoc flag of every row; the other fields are the outcome and
    identity columns an :class:`OperatorRecord` adds.  Immutable by
    convention, like every :class:`FeatureTable`.
    """

    table: FeatureTable
    job_id: tuple[str, ...]
    op_type: tuple[str, ...]
    template_tag: tuple[str, ...]
    actual_output_card: np.ndarray
    actual_input_card: np.ndarray
    cpu_seconds: np.ndarray

    def __len__(self) -> int:
        return len(self.job_id)

    @classmethod
    def from_records(cls, records: Iterable[OperatorRecord]) -> "OperatorBlock":
        """Pack records into columns (their exact values)."""
        records = list(records)
        n = len(records)
        return cls(
            table=FeatureTable.from_records(records),
            job_id=tuple(r.job_id for r in records),
            op_type=tuple(r.op_type for r in records),
            template_tag=tuple(r.template_tag for r in records),
            actual_output_card=np.fromiter(
                (r.actual_output_card for r in records), float, n
            ),
            actual_input_card=np.fromiter(
                (r.actual_input_card for r in records), float, n
            ),
            cpu_seconds=np.fromiter((r.cpu_seconds for r in records), float, n),
        )

    def take(self, indices: np.ndarray) -> "OperatorBlock":
        """A new block holding the given rows, in the given order."""
        indices = np.asarray(indices, dtype=np.int64)
        rows = indices.tolist()
        return OperatorBlock(
            table=self.table.take(indices),
            job_id=tuple(self.job_id[i] for i in rows),
            op_type=tuple(self.op_type[i] for i in rows),
            template_tag=tuple(self.template_tag[i] for i in rows),
            actual_output_card=self.actual_output_card[indices],
            actual_input_card=self.actual_input_card[indices],
            cpu_seconds=self.cpu_seconds[indices],
        )

    def records(self, start: int, stop: int) -> list[OperatorRecord]:
        """Rows ``start:stop`` as records."""
        table = self.table
        span = slice(start, stop)
        return [
            OperatorRecord(*row)
            for row in zip(
                self.job_id[span],
                table.cluster[span],
                table.day[span].tolist(),
                self.op_type[span],
                self.template_tag[span],
                [SignatureBundle(*sig) for sig in table.signatures[span].tolist()],
                [FeatureInput(*values) for values in table.features[span].tolist()],
                table.latency[span].tolist(),
                self.actual_output_card[span].tolist(),
                self.actual_input_card[span].tolist(),
                self.cpu_seconds[span].tolist(),
                table.is_adhoc[span].tolist(),
            )
        ]


class OperatorRows(Sequence):
    """One job's operator records: rows ``start:stop`` of a block.

    A read-only sequence that behaves as the tuple of its records (length,
    iteration, indexing, slicing, equality, hashing and ``repr``), building
    each :class:`OperatorRecord` only when it is read.
    """

    __slots__ = ("block", "start", "stop")

    def __init__(self, block: OperatorBlock, start: int, stop: int) -> None:
        self.block = block
        self.start = start
        self.stop = stop

    @classmethod
    def of(cls, records: Iterable[OperatorRecord]) -> "OperatorRows":
        """Records packed into a block of their own."""
        block = OperatorBlock.from_records(records)
        return cls(block, 0, len(block))

    def __len__(self) -> int:
        return self.stop - self.start

    def __iter__(self) -> Iterator[OperatorRecord]:
        return iter(self.block.records(self.start, self.stop))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        n = self.stop - self.start
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("operator index out of range")
        row = self.start + index
        return self.block.records(row, row + 1)[0]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (OperatorRows, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        # repro: allow(hashseed-hazard) -- the hash of the equal tuple, as a frozen JobRecord's own hash needs; a per-process value that orders nothing
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True, slots=True)
class JobRecord:
    """One executed job: end-to-end outcome plus its operator records.

    ``operators`` is always an :class:`OperatorRows`; a sequence of
    :class:`OperatorRecord` passed in is packed into a block of its own.
    """

    job_id: str
    template_id: str
    cluster: str
    day: int
    is_adhoc: bool
    latency_seconds: float
    cpu_seconds: float
    input_bytes: float
    operators: OperatorRows

    def __post_init__(self) -> None:
        if not isinstance(self.operators, OperatorRows):
            object.__setattr__(self, "operators", OperatorRows.of(self.operators))

    @property
    def operator_count(self) -> int:
        return len(self.operators)

    @property
    def input_gib(self) -> float:
        return self.input_bytes / (1024.0**3)


@dataclass
class RunLog:
    """A collection of executed jobs, filterable by day/cluster/kind.

    This is the feedback loop's storage layer: train on ``log.filter(days=
    range(1, 3))``, test on ``log.filter(days=[3])``.
    """

    jobs: list[JobRecord] = field(default_factory=list)
    #: The last :meth:`to_table` result and the jobs it was gathered from.
    _table: tuple[tuple[JobRecord, ...], FeatureTable] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def append(self, job: JobRecord) -> None:
        self.jobs.append(job)

    def extend(self, jobs: Iterable[JobRecord]) -> None:
        self.jobs.extend(jobs)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[JobRecord]:
        return iter(self.jobs)

    def filter(
        self,
        days: list[int] | range | None = None,
        clusters: list[str] | None = None,
        adhoc: bool | None = None,
    ) -> "RunLog":
        """A new log restricted to the given days/clusters/job kind."""
        day_set = set(days) if days is not None else None
        cluster_set = set(clusters) if clusters is not None else None
        selected = [
            job
            for job in self.jobs
            if (day_set is None or job.day in day_set)
            and (cluster_set is None or job.cluster in cluster_set)
            and (adhoc is None or job.is_adhoc == adhoc)
        ]
        return RunLog(jobs=selected)

    def keep_rows(self, keep: np.ndarray) -> "RunLog":
        """A new log of the operator rows ``keep`` marks (a mask over
        :meth:`to_table`'s rows): one ``take`` per run of jobs sharing a
        block, every job keeping its fields and its kept rows in order;
        this log itself when every row is kept."""
        if keep.all():
            return self
        jobs: list[JobRecord] = []
        for block, run in block_runs(self.jobs):
            rows = np.concatenate([np.arange(j.operators.start, j.operators.stop) for j in run])
            kept, keep = keep[: len(rows)], keep[len(rows) :]
            ends = np.cumsum([0] + [len(job.operators) for job in run])
            spans = np.cumsum(np.concatenate(([0], kept)))[ends].tolist()
            taken = block.take(rows[kept])
            jobs += [replace(j, operators=OperatorRows(taken, lo, hi)) for j, lo, hi in zip(run, spans, spans[1:])]
        return RunLog(jobs=jobs)

    def operator_records(self) -> Iterator[OperatorRecord]:
        """All operator records across jobs, in execution order."""
        for job in self.jobs:
            yield from job.operators

    def to_table(self) -> FeatureTable:
        """Columnar view of every operator row (features, signatures,
        latencies, day, cluster), in job order.

        Gathered from the jobs' blocks, one ``take`` per run of consecutive
        jobs that share a block (none when the jobs are one whole block, in
        order).  The result is kept while ``jobs`` holds the very same job
        objects, in the same order, so any change to the list, through this
        class's methods or not, yields a fresh table.
        """
        jobs = self.jobs
        cached = self._table
        if (
            cached is not None
            and len(cached[0]) == len(jobs)
            and all(map(is_, cached[0], jobs))
        ):
            return cached[1]
        table = _gather(jobs)
        self._table = (tuple(jobs), table)
        return table

    @property
    def operator_count(self) -> int:
        return sum(len(job.operators) for job in self.jobs)

    @property
    def days(self) -> list[int]:
        return sorted({job.day for job in self.jobs})

    @property
    def clusters(self) -> list[str]:
        return sorted({job.cluster for job in self.jobs})


def block_runs(jobs: Iterable[JobRecord]) -> list[tuple[OperatorBlock, list[JobRecord]]]:
    """``jobs`` cut into runs of consecutive jobs whose operators share a
    block, in order."""
    runs: list[tuple[OperatorBlock, list[JobRecord]]] = []
    for job in jobs:
        block = job.operators.block
        if not runs or runs[-1][0] is not block:
            runs.append((block, []))
        runs[-1][1].append(job)
    return runs


def _gather(jobs: list[JobRecord]) -> FeatureTable:
    """The rows of ``jobs``' operators, in job order, as one table."""
    tables = []
    for block, run in block_runs(jobs):
        starts = np.array([job.operators.start for job in run], dtype=np.int64)
        stops = np.array([job.operators.stop for job in run], dtype=np.int64)
        if starts[0] == 0 and stops[-1] == len(block) and np.array_equal(
            starts[1:], stops[:-1]
        ):
            tables.append(block.table)  # the whole block, in order
            continue
        # Each job's rows, concatenated: one arange, shifted per job.
        lengths = stops - starts
        ends = np.cumsum(lengths)
        indices = np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)
        tables.append(block.table.take(indices))
    if not tables:
        return FeatureTable.from_records([])
    if len(tables) == 1:
        return tables[0]
    return FeatureTable(
        features=np.concatenate([t.features for t in tables]),
        signatures=np.concatenate([t.signatures for t in tables]),
        latency=np.concatenate([t.latency for t in tables]),
        day=np.concatenate([t.day for t in tables]),
        cluster=tuple(chain.from_iterable(t.cluster for t in tables)),
        is_adhoc=np.concatenate([t.is_adhoc for t in tables]),
    )
