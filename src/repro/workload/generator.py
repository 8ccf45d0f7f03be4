"""Workload generation: fragment pools, templates, catalogs, and daily jobs.

One :class:`WorkloadGenerator` models one cluster: a pool of base input
tables whose sizes drift day over day, a pool of reusable fragments over
those tables, a set of recurring templates composed from the fragments, and
per-day job lists mixing recurring instances with ad-hoc one-offs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.common.hashing import stable_unit_float
from repro.common.rng import RngFactory
from repro.data.catalog import Catalog
from repro.data.schema import Column, DataType, TableDef
from repro.data.statistics import TableStats
from repro.workload.templates import (
    FragmentSpec,
    JobSpec,
    TemplateSpec,
    UnaryOpSpec,
    table_name_for_day,
)

#: Columns shared by every synthetic input table; generic analytics schema.
_SYNTH_COLUMNS = tuple(
    Column(name, dtype)
    for name, dtype in [
        ("jk_l", DataType.BIGINT),
        ("jk_r", DataType.BIGINT),
        ("ts", DataType.DATE),
        ("v0", DataType.FLOAT),
        ("v1", DataType.FLOAT),
        ("payload", DataType.STRING),
    ]
)

_FILTER_COLUMNS = ("ts", "v0", "v1")
_AGG_KEYS = (("jk_l",), ("jk_r",), ("jk_l", "v0"))

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _alpha_suffix(index: int) -> str:
    """0 -> 'a', 25 -> 'z', 26 -> 'aa', ... (digit-free table suffixes)."""
    if index < 0:
        raise ValueError("index must be >= 0")
    out = []
    index += 1
    while index > 0:
        index, rem = divmod(index - 1, 26)
        out.append(_ALPHABET[rem])
    return "".join(reversed(out))


@dataclass(frozen=True)
class ClusterWorkloadConfig:
    """Shape of one cluster's workload.

    Defaults are scaled-down but structure-preserving relative to Figure 9:
    recurring templates dominate, ad-hoc jobs are 7-20%, and fragments are
    shared widely enough that >60% of subexpressions recur across jobs.
    """

    cluster_name: str = "cluster1"
    n_tables: int = 14
    n_fragments: int = 30
    n_templates: int = 60
    recurring_instances_per_day: tuple[int, int] = (1, 3)  # uniform range
    adhoc_fraction: float = 0.12
    min_rows: float = 2e5
    max_rows: float = 4e8
    partition_mb: float = 256.0
    #: Daily probability that a recurring template slot is replaced by new
    #: business logic.  This is what makes specialized-model coverage decay
    #: over long test windows (Figure 14) — recurring jobs represent
    #: long-term logic but are not immortal.
    template_churn_rate: float = 0.02
    seed: int = 0


class WorkloadGenerator:
    """Deterministic generator for one cluster's workload."""

    def __init__(self, config: ClusterWorkloadConfig) -> None:
        self.config = config
        self._rngs = RngFactory(config.seed).spawn("workload", config.cluster_name)
        self._template_cache: dict[tuple[int, int], TemplateSpec] = {}
        self._catalog_cache: dict[int, Catalog] = {}
        self.base_tables = self._make_base_tables()
        self.fragments = self._make_fragments()
        self.templates = self._make_templates()

    # ------------------------------------------------------------------ #
    # Base tables and catalogs
    # ------------------------------------------------------------------ #

    def _make_base_tables(self) -> list[tuple[str, float, float]]:
        """(base name, base row count, row width) per input table.

        Names are alphabetic (``src_a``, ``src_b``, ...) so that input-name
        normalization — which strips digits/dates — keeps distinct tables
        distinct while mapping the same table's daily instances together.
        """
        rng = self._rngs.child("tables")
        tables: list[tuple[str, float, float]] = []
        for i in range(self.config.n_tables):
            log_lo, log_hi = math.log(self.config.min_rows), math.log(self.config.max_rows)
            rows = float(np.exp(rng.uniform(log_lo, log_hi)))
            width = float(rng.uniform(48, 360))
            tables.append(
                (f"{self.config.cluster_name}_src_{_alpha_suffix(i)}", rows, width)
            )
        return tables

    def day_scale(self, base_table: str, day: int) -> float:
        """Deterministic day-over-day input drift (trend + daily wobble).

        A slow sinusoidal trend (weekly traffic patterns) on top of daily
        log-normal wobble — producing the up-to-2x input swings of Figure 2.
        """
        phase = stable_unit_float("phase", base_table) * 2.0 * math.pi
        trend = math.exp(0.35 * math.sin(2.0 * math.pi * day / 7.0 + phase))
        wobble_u = stable_unit_float("wobble", base_table, day)
        wobble = math.exp(0.20 * (2.0 * wobble_u - 1.0))
        return trend * wobble

    def catalog_for_day(self, day: int) -> Catalog:
        """The cluster's inputs as of ``day`` (dated names, drifted sizes).

        Memoized per day: every job of a day shares one catalog
        instead of rebuilding identical table definitions and statistics.
        """
        cached = self._catalog_cache.get(day)
        if cached is not None:
            return cached
        catalog = Catalog(name=f"{self.config.cluster_name}-day{day}")
        for base, rows, width in self.base_tables:
            dated = table_name_for_day(base, day)
            row_count = rows * self.day_scale(base, day)
            partitions = max(
                1, int(row_count * width / (self.config.partition_mb * 1024 * 1024))
            )
            table = TableDef(dated, _SYNTH_COLUMNS)
            catalog.add_table(
                table,
                TableStats(
                    row_count=row_count,
                    avg_row_bytes=width,
                    partition_count=min(partitions, 500),
                ),
            )
        self._catalog_cache[day] = catalog
        return catalog

    # ------------------------------------------------------------------ #
    # Fragments and templates
    # ------------------------------------------------------------------ #

    def _random_unary_chain(
        self, rng: np.random.Generator, allow_heavy_udf: bool
    ) -> tuple[UnaryOpSpec, ...]:
        ops: list[UnaryOpSpec] = []
        for _ in range(rng.integers(1, 4)):
            roll = rng.random()
            if roll < 0.55:
                column = _FILTER_COLUMNS[rng.integers(0, len(_FILTER_COLUMNS))]
                sel = float(np.exp(rng.uniform(np.log(0.01), np.log(0.9))))
                ops.append(("filter", column, sel))
            elif roll < 0.80:
                udf = f"udf{rng.integers(0, 12)}" if allow_heavy_udf else "udf_light"
                factor = float(np.exp(rng.uniform(np.log(0.2), np.log(2.5))))
                width = float(rng.uniform(0.5, 1.6))
                ops.append(("process", udf, factor, width))
            else:
                ops.append(("project", float(rng.uniform(0.4, 0.95))))
        return tuple(ops)

    def _make_fragments(self) -> list[FragmentSpec]:
        rng = self._rngs.child("fragments")
        fragments = []
        for i in range(self.config.n_fragments):
            base_table = self.base_tables[rng.integers(0, len(self.base_tables))][0]
            fragments.append(
                FragmentSpec(
                    fragment_id=i,
                    base_table=base_table,
                    ops=self._random_unary_chain(rng, allow_heavy_udf=True),
                )
            )
        return fragments

    def _template_from_rng(
        self, template_id: str, rng: np.random.Generator, is_adhoc: bool
    ) -> TemplateSpec:
        """Compose a template; ad-hoc templates reuse pool fragments ~60%."""

        def pick_fragment() -> FragmentSpec:
            reuse = (not is_adhoc) or rng.random() < 0.6
            if reuse:
                return self.fragments[rng.integers(0, len(self.fragments))]
            base_table = self.base_tables[rng.integers(0, len(self.base_tables))][0]
            return FragmentSpec(
                fragment_id=int(rng.integers(10_000, 1_000_000)),
                base_table=base_table,
                ops=self._random_unary_chain(rng, allow_heavy_udf=True),
            )

        n_fragments = 2 if rng.random() < 0.6 else 1
        fragments = tuple(pick_fragment() for _ in range(n_fragments))
        post_ops = self._random_unary_chain(rng, allow_heavy_udf=False)
        aggregate = rng.random() < 0.75
        agg_keys = _AGG_KEYS[rng.integers(0, len(_AGG_KEYS))] if aggregate else ()
        return TemplateSpec(
            template_id=template_id,
            fragments=fragments,
            join_fanout=float(np.exp(rng.uniform(np.log(0.05), np.log(2.0)))),
            post_ops=post_ops,
            aggregate_keys=agg_keys,
            group_count_exp=float(rng.uniform(0.35, 0.8)),
            topk=int(rng.integers(10, 1000)) if (aggregate and rng.random() < 0.3) else None,
            is_adhoc=is_adhoc,
        )

    def _make_templates(self) -> list[TemplateSpec]:
        """Day-1 template set (version 0 of every slot)."""
        return [self._template_for_slot(i, 0) for i in range(self.config.n_templates)]

    def _template_for_slot(self, slot: int, version: int) -> TemplateSpec:
        key = (slot, version)
        cached = self._template_cache.get(key)
        if cached is None:
            rng = self._rngs.child("template", slot, version)
            template_id = f"{self.config.cluster_name}_t{slot:04d}v{version}"
            cached = self._template_from_rng(template_id, rng, False)
            self._template_cache[key] = cached
        return cached

    def template_version(self, slot: int, day: int) -> int:
        """How many times slot ``slot`` has churned by ``day`` (cumulative)."""
        rate = self.config.template_churn_rate
        if rate <= 0.0:
            return 0
        return sum(
            1
            for k in range(2, day + 1)
            if stable_unit_float(
                "template-churn", self.config.seed, self.config.cluster_name, slot, k
            )
            < rate
        )

    def templates_for_day(self, day: int) -> list[TemplateSpec]:
        """The recurring template set active on ``day`` (with churn applied)."""
        return [
            self._template_for_slot(slot, self.template_version(slot, day))
            for slot in range(self.config.n_templates)
        ]

    # ------------------------------------------------------------------ #
    # Daily job lists
    # ------------------------------------------------------------------ #

    def jobs_for_day(self, day: int) -> list[JobSpec]:
        """Recurring instances plus ad-hoc one-offs for one day."""
        rng = self._rngs.child("jobs", day)
        jobs: list[JobSpec] = []
        lo, hi = self.config.recurring_instances_per_day
        for template in self.templates_for_day(day):
            instances = int(rng.integers(lo, hi + 1))
            for k in range(instances):
                job_id = f"{template.template_id}_d{day:03d}_i{k}"
                jobs.append(
                    JobSpec(
                        job_id=job_id,
                        template=template,
                        day=day,
                        instance_seed=int(rng.integers(0, 2**62)),
                    )
                )
        n_adhoc = int(round(len(jobs) * self.config.adhoc_fraction / (1 - self.config.adhoc_fraction)))
        for k in range(n_adhoc):
            template = self._template_from_rng(
                f"{self.config.cluster_name}_adhoc_d{day:03d}_{k}",
                self._rngs.child("adhoc", day, k),
                is_adhoc=True,
            )
            jobs.append(
                JobSpec(
                    job_id=f"{template.template_id}_i0",
                    template=template,
                    day=day,
                    instance_seed=int(rng.integers(0, 2**62)),
                )
            )
        return jobs
