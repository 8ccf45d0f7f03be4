"""Job execution: array-speed ground truth over executed plans.

Every executed job goes through :class:`BatchedExecutionEngine`, which runs
a whole *run* of jobs in a handful of array operations, in two layers:

* **Shape statics**: signatures, hidden multipliers, skew units,
  stage-graph structure, coefficient gathers, input encodings, CL/D context
  features.  None of these depend on a job instance's numbers.  They are
  extracted by running the *real* implementations (``SignatureBundle.of``,
  ``build_stage_graph``, ``hidden_multiplier``) over a materialized plan
  (:func:`build_shape_statics`), and cached per plan *shape* (each node's
  op type, template tag and child count, in post order), so every job that
  plans to the same shape reuses them, whichever entry added it.
* **Per-run numerics**: jobs are accumulated into flat row-major buffers
  (one row per operator, in post order) and the ground-truth latency
  formula runs once, vectorized, over all rows at
  :meth:`BatchedExecutionEngine.finish`.  Per-execution noise stays a
  compact scalar loop so the RNG draw order is the operator walk's: one
  ``_noise`` call per operator from the job's ``("noise", job_id, day)``
  stream.  Transcendental terms (``log2`` for sorts, ``log1p`` for skew)
  go through ``math.*`` calls because numpy's SIMD variants are not
  guaranteed bit-identical across builds.  The run's rows leave as one
  :class:`~repro.execution.runtime_log.OperatorBlock` (the feature table
  plus outcome columns); each job record's ``operators`` is a slice of it,
  and no per-operator object is built.

Two entries feed one gather: :meth:`~BatchedExecutionEngine.add_job` takes
a skeleton replay's winner with the estimates the replay cached on its
nodes; :meth:`~BatchedExecutionEngine.add_plan` takes any
:class:`~repro.plan.physical.PhysicalOp` plan with the estimates of a
:class:`~repro.cardinality.estimator.CardinalityEstimator`.  Both log
exactly what the per-operator walk in :mod:`repro.reference` logs
(``tests/workload/test_batched_parity.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.cardinality.estimator import CardinalityEstimator
from repro.execution.runtime_log import JobRecord, OperatorBlock, OperatorRows
from repro.execution.simulator import ExecutionSimulator
from repro.execution.trace import stage_finish_times, stage_seconds, stage_work
from repro.features.featurizer import FeatureInput
from repro.features.table import FeatureTable
from repro.optimizer.skeleton import RNode, materialize
from repro.plan.physical import PhysOpType, PhysicalOp, post_order
from repro.plan.signatures import SignatureBundle
from repro.plan.stages import build_stage_graph


class ShapeStatics:
    """Everything about a plan shape that no job instance can change.

    Per-operator fields are tuples of numbers and strings (index-aligned
    with the shape's post-order walk), which the cyclic collector stops
    tracking once it has seen them: a cache of thousands of shapes costs a
    full collection nothing.
    """

    __slots__ = (
        "n",
        "op_type_values",
        "template_tags",
        "multipliers",
        "skew_u",
        "input_enc",
        "logical_count",
        "depth",
        "coef_cpu",
        "coef_io",
        "coef_out",
        "coef_setup",
        "nlogn_indices",
        "hash_join_children",
        "first_child",
        "child_indices",
        "leaf_sets",
        "root_leaves",
        "params_indices",
        "stage_members",
        "stage_upstream",
        "stage_topo",
        "sig_strict",
        "sig_approx",
        "sig_input",
        "sig_operator",
    )


def build_shape_statics(plan: PhysicalOp, simulator: ExecutionSimulator) -> ShapeStatics:
    """Extract a shape's static data by running the real per-operator
    machinery once over a materialized plan."""
    ground_truth = simulator.ground_truth
    ops = list(plan.walk())
    index_of = {id(op): i for i, op in enumerate(ops)}

    s = ShapeStatics()
    s.n = len(ops)
    s.op_type_values = tuple(op.op_type.value for op in ops)
    s.template_tags = tuple(op.template_tag for op in ops)
    s.multipliers = tuple(ground_truth.hidden_multiplier(op) for op in ops)
    s.skew_u = tuple(
        ground_truth.skew_unit(frozenset(op.normalized_inputs)) for op in ops
    )
    s.input_enc = tuple(FeatureInput.encode_inputs(op.normalized_inputs) for op in ops)

    coefficients = ground_truth.params.coefficients
    s.coef_cpu = tuple(coefficients[op.op_type].cpu for op in ops)
    s.coef_io = tuple(coefficients[op.op_type].io for op in ops)
    s.coef_out = tuple(coefficients[op.op_type].out for op in ops)
    s.coef_setup = tuple(coefficients[op.op_type].setup for op in ops)
    s.nlogn_indices = tuple(
        i for i, op in enumerate(ops) if coefficients[op.op_type].nlogn
    )
    s.hash_join_children = tuple(
        (i, index_of[id(op.children[0])], index_of[id(op.children[1])])
        for i, op in enumerate(ops)
        if op.op_type is PhysOpType.HASH_JOIN
    )
    s.first_child = tuple(
        index_of[id(op.children[0])] if op.children else i
        for i, op in enumerate(ops)
    )
    s.child_indices = tuple(
        tuple(index_of[id(child)] for child in op.children) for op in ops
    )
    # CL / D are reads of each operator's summary; the leaf *index* sets are
    # built bottom-up (post-order guarantees the children's entries exist).
    s.logical_count = tuple(float(op.summary.n_logical) for op in ops)
    s.depth = tuple(float(op.summary.depth) for op in ops)
    leaf_sets: list[tuple[int, ...]] = []
    for i, children in enumerate(s.child_indices):
        leaf_sets.append(
            tuple(leaf for c in children for leaf in leaf_sets[c]) if children else (i,)
        )
    s.leaf_sets = tuple(leaf_sets)
    s.root_leaves = s.leaf_sets[-1]
    s.params_indices = tuple(
        i for i, op in enumerate(ops) if op.logical is not None and op.logical.params
    )

    graph = build_stage_graph(plan)
    s.stage_members = tuple(
        tuple(index_of[id(op)] for op in stage.operators) for stage in graph.stages
    )
    s.stage_upstream = tuple(tuple(stage.upstream) for stage in graph.stages)
    s.stage_topo = tuple(stage.index for stage in graph.topological_order())

    # The four signature columns; a materialized record rebuilds its
    # SignatureBundle from them.
    bundles = [SignatureBundle.of(op) for op in ops]
    s.sig_strict = tuple(b.strict for b in bundles)
    s.sig_approx = tuple(b.approx for b in bundles)
    s.sig_input = tuple(b.input for b in bundles)
    s.sig_operator = tuple(b.operator for b in bundles)
    return s


class _JobEntry:
    """Bookkeeping for one accumulated job (row offset + metadata)."""

    __slots__ = (
        "statics",
        "job_id",
        "template_id",
        "day",
        "is_adhoc",
        "offset",
        "input_bytes",
        "params_enc",
    )


class BatchedExecutionEngine:
    """Executes plans through the vectorized ground-truth model.

    Wraps one cluster's :class:`ExecutionSimulator`, sharing its ground-truth
    model (and thus its multiplier caches) and its RNG tree: a job's noise
    stream is ``("noise", job_id, day)`` whichever entry added it.  Usage::

        engine.begin()
        for job ...:
            engine.add_job(win, job_id, template_id, day, adhoc)
            # or, for a plan from QueryPlanner:
            engine.add_plan(plan, estimator, job_id, template_id, day, adhoc)
        records = engine.finish()
    """

    #: Clear-at-limit cap on the shape-statics cache, like the skeleton
    #: planner's: ad-hoc templates mint new shapes every day, and a cleared
    #: entry is rebuilt to the same statics.
    _SHAPE_CACHE_LIMIT = 1 << 12

    def __init__(self, simulator: ExecutionSimulator) -> None:
        self.simulator = simulator
        self.ground_truth = simulator.ground_truth
        self.cluster = simulator.cluster
        self._rngs = simulator._rngs
        self._shape_cache: dict[tuple, ShapeStatics] = {}
        self.begin()

    def _statics(self, nodes: list, plan: PhysicalOp | None) -> ShapeStatics:
        """The (cached) shape statics of ``nodes``, a plan's post-order walk;
        a miss builds them from ``plan``, or from the root materialized.

        The key, each node's ``(op_type, template_tag, child count)``, spells
        out the tree, and within one workload a tag fixes everything else the
        statics read off a node (logical type, normalized inputs, parameters).
        """
        key = tuple(
            [x for n in nodes for x in (n.op_type, n.template_tag, len(n.children))]
        )
        statics = self._shape_cache.get(key)
        if statics is None:
            if len(self._shape_cache) >= self._SHAPE_CACHE_LIMIT:
                self._shape_cache.clear()
            plan = plan or materialize(nodes[-1])
            statics = self._shape_cache[key] = build_shape_statics(plan, self.simulator)
        return statics

    # ------------------------------------------------------------------ #
    # Run accumulation
    # ------------------------------------------------------------------ #

    def begin(self) -> None:
        """Reset the row buffers for a new run."""
        self._jobs: list[_JobEntry] = []
        self._true_card: list[float] = []
        self._row_bytes: list[float] = []
        self._partitions: list[int] = []
        self._est_in: list[float] = []
        self._est_out: list[float] = []
        self._input_card: list[float] = []
        self._base_card: list[float] = []
        self._rb_src_idx: list[int] = []
        self._multipliers: list[float] = []
        self._skew_u: list[float] = []
        self._coef_cpu: list[float] = []
        self._coef_io: list[float] = []
        self._coef_out: list[float] = []
        self._coef_setup: list[float] = []
        self._nlogn_rows: list[int] = []
        self._hash_join_rows: list[tuple[int, int, int]] = []

    def add_job(
        self,
        win: RNode,
        job_id: str,
        template_id: str,
        day: int,
        is_adhoc: bool,
    ) -> None:
        """Gather one replayed job's numerics into the run buffers, with the
        estimates the replay cached on its nodes."""
        nodes = post_order(win)
        est_in = [node.est_in for node in nodes]
        est_out = [node.est_out for node in nodes]
        statics = self._statics(nodes, None)
        self._gather(nodes, est_in, est_out, statics, job_id, template_id, day, is_adhoc)

    def add_plan(
        self,
        plan: PhysicalOp,
        estimator: CardinalityEstimator,
        job_id: str,
        template_id: str,
        day: int,
        is_adhoc: bool = False,
    ) -> None:
        """Gather one planned job's numerics into the run buffers, with
        ``estimator``'s estimates."""
        ops = post_order(plan)
        est_in = [estimator.estimate_input(op) for op in ops]
        est_out = [estimator.estimate(op) for op in ops]
        statics = self._statics(ops, plan)
        self._gather(ops, est_in, est_out, statics, job_id, template_id, day, is_adhoc)

    def _gather(
        self,
        nodes: list,
        est_in: list[float],
        est_out: list[float],
        statics: ShapeStatics,
        job_id: str,
        template_id: str,
        day: int,
        is_adhoc: bool,
    ) -> None:
        """Append one job's rows to the run buffers: ``nodes`` in post order
        (the order every row buffer and ShapeStatics index relies on),
        ``est_in`` / ``est_out`` their logged estimates."""
        offset = len(self._true_card)
        true_card = self._true_card
        true_card.extend([node.true_card for node in nodes])
        self._row_bytes.extend([node.row_bytes for node in nodes])
        self._partitions.extend([node.partition_count for node in nodes])
        self._est_in.extend(est_in)
        self._est_out.extend(est_out)

        # Summation orders below replicate PhysicalOp.input_card /
        # base_card exactly: left to right from zero.
        for i, children in enumerate(statics.child_indices):
            if not children:
                self._input_card.append(true_card[offset + i])
            else:
                total = 0.0
                for c in children:
                    total += true_card[offset + c]
                self._input_card.append(total)

        # base_card per operator (the B feature).
        for leaves in statics.leaf_sets:
            total = 0
            for leaf in leaves:
                total += true_card[offset + leaf]
            self._base_card.append(float(total))

        entry = _JobEntry()
        entry.statics = statics
        entry.job_id = job_id
        entry.template_id = template_id
        entry.day = day
        entry.is_adhoc = is_adhoc
        entry.offset = offset
        input_bytes = 0
        for leaf in statics.root_leaves:
            input_bytes += true_card[offset + leaf] * self._row_bytes[offset + leaf]
        entry.input_bytes = float(input_bytes)
        params_enc = [0.0] * statics.n
        for i in statics.params_indices:
            params_enc[i] = FeatureInput.encode_params(nodes[i].logical.params)
        entry.params_enc = params_enc
        self._jobs.append(entry)

        for i in statics.first_child:
            self._rb_src_idx.append(offset + i)
        self._multipliers.extend(statics.multipliers)
        self._skew_u.extend(statics.skew_u)
        self._coef_cpu.extend(statics.coef_cpu)
        self._coef_io.extend(statics.coef_io)
        self._coef_out.extend(statics.coef_out)
        self._coef_setup.extend(statics.coef_setup)
        for i in statics.nlogn_indices:
            self._nlogn_rows.append(offset + i)
        for i, c0, c1 in statics.hash_join_children:
            self._hash_join_rows.append((offset + i, offset + c0, offset + c1))

    # ------------------------------------------------------------------ #
    # Vectorized execution
    # ------------------------------------------------------------------ #

    def finish(self) -> list[JobRecord]:
        """Execute every accumulated job; returns their records, whose
        operators are slices of one :class:`OperatorBlock`."""
        if not self._jobs:
            return []
        ground_truth = self.ground_truth
        params = ground_truth.params
        n_rows = len(self._true_card)

        true_card = np.array(self._true_card)
        row_bytes = np.array(self._row_bytes)
        partitions = np.array(self._partitions, dtype=float)
        input_card = np.array(self._input_card)

        rows_out = true_card / partitions
        rows_in = input_card / partitions
        bytes_in = rows_in * row_bytes[np.array(self._rb_src_idx)]

        effective_rows_in = rows_in.copy()
        for i, c0, c1 in self._hash_join_rows:
            probe = self._true_card[c0] / partitions[i]
            build = self._true_card[c1] / partitions[i]
            effective_rows_in[i] = probe + ground_truth.HASH_BUILD_FACTOR * build

        coef_cpu = np.array(self._coef_cpu)
        work = np.array(self._coef_io) * bytes_in + np.array(self._coef_out) * rows_out
        cpu_term = coef_cpu * effective_rows_in
        for i in self._nlogn_rows:
            # math.log2, matching the ground-truth formula bit for bit.
            cpu_term[i] = coef_cpu[i] * rows_in[i] * math.log2(rows_in[i] + 2.0)
        work = work + cpu_term

        log1p_cached = ground_truth.log1p_partitions
        log1p_p = np.array([log1p_cached(p) for p in self._partitions])
        skew = 1.0 + params.skew_base * np.array(self._skew_u) * log1p_p
        base = work * skew
        base = base + np.array(self._coef_setup) * partitions
        latency = np.array(self._multipliers) * base / self.cluster.speed_factor

        # Per-execution noise: a compact scalar loop in job order, one
        # outcome-dependent draw sequence per operator, in walk order.
        noise = np.empty(n_rows)
        gt_noise = ground_truth._noise
        rng_child = self._rngs.child
        for entry in self._jobs:
            rng = rng_child("noise", entry.job_id, entry.day)
            for i in range(entry.offset, entry.offset + entry.statics.n):
                noise[i] = gt_noise(rng)
        latency = latency * noise
        latency = np.maximum(latency, params.min_latency)
        cpu_seconds = latency * partitions / skew

        block = self._block(latency, cpu_seconds, true_card, input_card)
        records = self._job_records(block, latency.tolist(), cpu_seconds.tolist())
        self.begin()
        return records

    def _job_records(
        self, block: OperatorBlock, latency_list: list[float], cpu_list: list[float]
    ) -> list[JobRecord]:
        cluster_name = self.cluster.name
        records: list[JobRecord] = []
        for entry in self._jobs:
            statics = entry.statics
            offset = entry.offset
            end = offset + statics.n
            # The stage rule, on the cached shape.
            finish = stage_finish_times(
                stage_seconds(stage_work(latency_list[offset:end], statics.stage_members)),
                statics.stage_upstream,
                statics.stage_topo,
            )
            # A running total, left to right from zero.
            cpu_total = 0.0
            for cpu in cpu_list[offset:end]:
                cpu_total += cpu
            records.append(
                JobRecord(
                    job_id=entry.job_id,
                    template_id=entry.template_id,
                    cluster=cluster_name,
                    day=entry.day,
                    is_adhoc=entry.is_adhoc,
                    latency_seconds=max(finish, default=0.0),
                    cpu_seconds=cpu_total,
                    input_bytes=entry.input_bytes,
                    operators=OperatorRows(block, offset, end),
                )
            )
        return records

    def _block(
        self,
        latency: np.ndarray,
        cpu_seconds: np.ndarray,
        true_card: np.ndarray,
        input_card: np.ndarray,
    ) -> OperatorBlock:
        """The run's operator rows as one block."""
        input_enc: list[float] = []
        logical_count: list[float] = []
        depth: list[float] = []
        params_enc: list[float] = []
        sig_strict: list[int] = []
        sig_approx: list[int] = []
        sig_input: list[int] = []
        sig_operator: list[int] = []
        day: list[int] = []
        is_adhoc: list[bool] = []
        job_id: list[str] = []
        op_type: list[str] = []
        template_tag: list[str] = []
        for entry in self._jobs:
            statics = entry.statics
            n = statics.n
            input_enc.extend(statics.input_enc)
            logical_count.extend(statics.logical_count)
            depth.extend(statics.depth)
            params_enc.extend(entry.params_enc)
            sig_strict.extend(statics.sig_strict)
            sig_approx.extend(statics.sig_approx)
            sig_input.extend(statics.sig_input)
            sig_operator.extend(statics.sig_operator)
            day.extend([entry.day] * n)
            is_adhoc.extend([entry.is_adhoc] * n)
            job_id.extend([entry.job_id] * n)
            op_type.extend(statics.op_type_values)
            template_tag.extend(statics.template_tags)
        # Columns in COLUMN_NAMES / SIGNATURE_NAMES order.
        feature_columns = (
            self._est_in,
            self._base_card,
            self._est_out,
            self._row_bytes,
            self._partitions,
            input_enc,
            params_enc,
            logical_count,
            depth,
        )
        n = len(self._est_in)
        features = np.empty((n, len(feature_columns)), dtype=float)
        for j, column in enumerate(feature_columns):
            features[:, j] = np.array(column, dtype=float)
        signature_columns = (sig_strict, sig_approx, sig_input, sig_operator)
        signatures = np.empty((n, len(signature_columns)), dtype=np.uint64)
        for j, column in enumerate(signature_columns):
            signatures[:, j] = np.array(column, dtype=np.uint64)
        table = FeatureTable(
            features=features,
            signatures=signatures,
            latency=latency,
            day=np.array(day, dtype=np.int64),
            cluster=(self.cluster.name,) * n,
            is_adhoc=np.array(is_adhoc, dtype=bool),
        )
        return OperatorBlock(
            table=table,
            job_id=tuple(job_id),
            op_type=tuple(op_type),
            template_tag=tuple(template_tag),
            actual_output_card=true_card,
            actual_input_card=input_card,
            cpu_seconds=cpu_seconds,
        )


__all__ = [
    "BatchedExecutionEngine",
    "ShapeStatics",
    "build_shape_statics",
]
