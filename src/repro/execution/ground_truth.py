"""The hidden ground-truth latency model.

This module answers "how long does an operator *actually* take?" and is the
reproduction's substitute for real SCOPE clusters.  Its structure encodes the
paper's empirical findings about why cost modeling is hard in big data
systems (Sections 1-3):

1. **Template-conditional behaviour.**  The latency of an operator depends on
   what runs beneath it (pipelining, sorting/grouping properties) and on the
   input data it touches.  We model this with deterministic log-normal
   multipliers drawn from template signatures at four granularities:

   * ``m_op`` — per physical operator type (coarse calibration wiggle);
   * ``m_input`` — per (operator, normalized input set): data-specific
     effects such as skew, value widths, compression;
   * ``m_ctx`` — per (operator, child operator types): pipelining and
     property interactions ("a hash over a filter is cheaper than over a
     sort");
   * ``m_res`` — residual per exact subgraph template.

   The granularities nest exactly like Cleo's model hierarchy, which is why
   the operator model can only learn ``m_op``, the operator-input model
   ``m_op*m_input``, and the subgraph model everything — producing the
   paper's accuracy ordering as an emergent property, not by fiat.  Each
   factor is drawn once per model instance at its own granularity (a new
   subgraph draws only its ``m_res`` and whatever coarser factor it is the
   first to reach), and the product is taken in one fixed order, so the
   multiplier's bits do not depend on which template came first.

2. **Black-box UDFs.**  Process operators get an extra per-UDF factor with a
   wide spread; the default cost model treats them as ordinary compute.

3. **Resource dependence.**  Work scales as ``1/P`` (parallelism), but each
   partition adds scheduling/setup overhead (``+ setup*P``) and stragglers
   worsen with fan-out (a ``skew(P)`` multiplier) — giving every stage a
   true optimal partition count that resource-aware planning can find
   (Section 5.2).

4. **Cloud variance.**  Per-execution log-normal noise plus rare large
   outliers (machine failures, stragglers), motivating the MSLE loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.hashing import stable_unit_float, stable_unit_float_pair
from repro.execution.hardware import ClusterSpec
from repro.plan.physical import PhysOpType, PhysicalOp
from repro.plan.signatures import strict_signature


@dataclass(frozen=True)
class OpCoefficients:
    """Per-row work coefficients (seconds) of one physical operator type.

    ``cpu`` multiplies input rows, ``io`` input bytes, ``out`` output rows,
    ``setup`` the partition count, and ``nlogn`` enables sort-like scaling.
    """

    cpu: float = 0.0
    io: float = 0.0
    out: float = 0.0
    setup: float = 0.0
    nlogn: bool = False


# Baseline per-row costs.  Units are seconds per row / per byte; magnitudes
# chosen so realistic inputs (1e6..1e9 rows over tens-to-hundreds of
# partitions) yield operator latencies from seconds to tens of minutes,
# matching Figure 2's job latency range.
GROUND_TRUTH_COEFFICIENTS: dict[PhysOpType, OpCoefficients] = {
    PhysOpType.EXTRACT: OpCoefficients(cpu=4.0e-7, io=8.0e-9, setup=0.06),
    PhysOpType.FILTER: OpCoefficients(cpu=6.0e-7, setup=0.005),
    PhysOpType.COMPUTE: OpCoefficients(cpu=8.0e-7, setup=0.005),
    PhysOpType.PROCESS: OpCoefficients(cpu=2.5e-6, setup=0.01),
    PhysOpType.HASH_JOIN: OpCoefficients(cpu=3.2e-6, out=8.0e-7, setup=0.015),
    PhysOpType.MERGE_JOIN: OpCoefficients(cpu=1.2e-6, out=8.0e-7, setup=0.01),
    PhysOpType.HASH_AGGREGATE: OpCoefficients(cpu=2.8e-6, out=1.0e-6, setup=0.015),
    PhysOpType.STREAM_AGGREGATE: OpCoefficients(cpu=9.0e-7, out=1.0e-6, setup=0.005),
    PhysOpType.LOCAL_AGGREGATE: OpCoefficients(cpu=2.0e-6, out=1.0e-6, setup=0.01),
    PhysOpType.SORT: OpCoefficients(cpu=1.8e-7, setup=0.01, nlogn=True),
    PhysOpType.TOP_K: OpCoefficients(cpu=1.0e-6, setup=0.005),
    PhysOpType.EXCHANGE: OpCoefficients(cpu=4.0e-7, io=1.8e-8, setup=0.12),
    PhysOpType.UNION_ALL: OpCoefficients(cpu=1.6e-7, setup=0.005),
    PhysOpType.OUTPUT: OpCoefficients(cpu=3.0e-7, io=1.2e-8, setup=0.04),
}


@dataclass(frozen=True)
class GroundTruthParams:
    """Spread (log-space sigma) of the hidden multipliers and noise shape.

    The four sigmas control how much accuracy each model family can reach:
    larger ``sigma_input``/``sigma_ctx`` widen the gap between the operator
    model and the specialized models.
    """

    sigma_op: float = 0.15
    sigma_input: float = 0.55
    sigma_ctx: float = 0.28
    sigma_residual: float = 0.20
    sigma_udf: float = 0.70
    skew_base: float = 0.06  # skew(P) = 1 + skew_base * u_skew * ln(1+P)
    min_latency: float = 0.05  # floor, seconds
    seed_salt: str = "ground-truth-v1"
    coefficients: dict[PhysOpType, OpCoefficients] = field(
        default_factory=lambda: dict(GROUND_TRUTH_COEFFICIENTS)
    )


class GroundTruthModel:
    """Computes actual exclusive latencies and CPU-time for physical operators.

    Deterministic given (params, cluster, operator template, partition count)
    up to the explicit per-execution noise, which is drawn from a caller-
    provided RNG so whole workloads replay identically under one seed.
    """

    #: Clear-at-limit cap on the per-template multiplier cache, like the
    #: signature-hash caches: ad-hoc templates mint new strict signatures
    #: every day, and a cleared multiplier is recomputed to the same bits.
    _MULTIPLIER_CACHE_LIMIT = 1 << 16
    #: The same cap on the per-factor cache behind it (``m_op``, ``m_input``,
    #: ``m_ctx``, ``m_udf``), whose keys are a few thousand per cluster.
    _FACTOR_CACHE_LIMIT = 1 << 14

    def __init__(self, cluster: ClusterSpec, params: GroundTruthParams | None = None) -> None:
        self.cluster = cluster
        self.params = params or GroundTruthParams()
        self._multiplier_cache: dict[tuple[int, str], float] = {}
        self._factor_cache: dict[tuple, float] = {}
        self._skew_u_cache: dict[frozenset[str], float] = {}
        self._log1p_cache: dict[int, float] = {}

    # ------------------------------------------------------------------ #
    # Hidden multipliers
    # ------------------------------------------------------------------ #

    def _lognormal(self, sigma: float, *key: object) -> float:
        """Deterministic log-normal draw keyed by template identity."""
        if sigma <= 0.0:
            return 1.0
        # Box-Muller needs two uniforms; derive the second from the first key.
        u, v = stable_unit_float_pair(self.params.seed_salt, "v", *key)
        u = min(max(u, 1e-12), 1 - 1e-12)
        z = math.sqrt(-2.0 * math.log(u)) * math.cos(2.0 * math.pi * v)
        return math.exp(sigma * z)

    def _factor(self, sigma: float, *key: object) -> float:
        """:meth:`_lognormal`, drawn once per key and then read back."""
        cached = self._factor_cache.get(key)
        if cached is None:
            if len(self._factor_cache) >= self._FACTOR_CACHE_LIMIT:
                self._factor_cache.clear()
            cached = self._lognormal(sigma, *key)
            self._factor_cache[key] = cached
        return cached

    def hidden_multiplier(self, op: PhysicalOp) -> float:
        """Combined template multiplier ``m_op * m_input * m_ctx * m_res``.

        Only ``m_res`` is drawn per subgraph template; the coarser factors
        come from the factor cache, so a new template over a known operator,
        input set or context costs one draw, not four.
        """
        sig = strict_signature(op)
        op_value = op.op_type.value
        # The cluster name is constant per model instance, so (sig, op_type)
        # identifies the template; a plain tuple key avoids re-hashing on the
        # per-operator hot path.
        cache_key = (sig, op_value)
        cached = self._multiplier_cache.get(cache_key)
        if cached is not None:
            return cached
        p = self.params
        cluster = self.cluster.name
        m = self._factor(p.sigma_op, "op", cluster, op_value)
        m *= self._factor(
            p.sigma_input, "input", cluster, op_value, frozenset(op.normalized_inputs)
        )
        m *= self._factor(p.sigma_ctx, "ctx", op_value, op.child_context())
        m *= self._lognormal(p.sigma_residual, "res", cluster, sig)
        if op.op_type is PhysOpType.PROCESS and op.logical is not None:
            m *= self._factor(p.sigma_udf, "udf", op.logical.udf_name)
        # Blocking children stall the pipeline: a deterministic penalty on
        # top of the random context factor.
        if any(child.is_blocking for child in op.children):
            m *= 1.15
        if len(self._multiplier_cache) >= self._MULTIPLIER_CACHE_LIMIT:
            self._multiplier_cache.clear()
        self._multiplier_cache[cache_key] = m
        return m

    def skew_factor(self, op: PhysicalOp) -> float:
        """Straggler multiplier: the slowest of P partitions sets the pace."""
        u_skew = self.skew_unit(frozenset(op.normalized_inputs))
        return 1.0 + self.params.skew_base * u_skew * self.log1p_partitions(
            op.partition_count
        )

    def skew_unit(self, normalized_inputs: frozenset[str]) -> float:
        """The cached per-input-set uniform behind :meth:`skew_factor`."""
        cached = self._skew_u_cache.get(normalized_inputs)
        if cached is None:
            cached = stable_unit_float(self.params.seed_salt, "skew", normalized_inputs)
            self._skew_u_cache[normalized_inputs] = cached
        return cached

    def log1p_partitions(self, partition_count: int) -> float:
        """``log1p`` over the few distinct partition counts, cached.

        Cached so the engine can gather ``log1p(P)`` arrays from the exact
        same ``math.log1p`` values the per-operator formula uses (numpy's
        ``np.log1p`` is not guaranteed bit-identical to libm's).
        """
        cached = self._log1p_cache.get(partition_count)
        if cached is None:
            cached = math.log1p(partition_count)
            self._log1p_cache[partition_count] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Work functions
    # ------------------------------------------------------------------ #

    #: Hash join hashes its build side (the right child) into memory; building
    #: costs ~3x probing per row, which makes build-side choice (join
    #: commutativity) a real optimization decision.
    HASH_BUILD_FACTOR = 3.0

    def work_per_partition(self, op: PhysicalOp) -> float:
        """Noise-free per-partition work (seconds), before multipliers."""
        coef = self.params.coefficients[op.op_type]
        partitions = float(op.partition_count)
        rows_out = op.true_card / partitions
        if op.op_type is PhysOpType.HASH_JOIN:
            probe = op.children[0].true_card / partitions
            build = op.children[1].true_card / partitions
            effective_rows_in = probe + self.HASH_BUILD_FACTOR * build
        else:
            effective_rows_in = op.input_card / partitions
        rows_in = op.input_card / partitions
        bytes_in = rows_in * (
            op.children[0].row_bytes if op.children else op.row_bytes
        )
        work = coef.io * bytes_in + coef.out * rows_out
        if coef.nlogn:
            work += coef.cpu * rows_in * math.log2(rows_in + 2.0)
        else:
            work += coef.cpu * effective_rows_in
        return work

    def exclusive_latency(
        self, op: PhysicalOp, rng: np.random.Generator | None = None
    ) -> float:
        """Actual exclusive latency of ``op`` in seconds.

        ``latency = m * (work/P * skew(P) + setup * P) * noise / speed``.
        With ``rng=None`` the expected (noise-free) latency is returned —
        used by tests and by the partition-exploration oracle.
        """
        coef = self.params.coefficients[op.op_type]
        base = self.work_per_partition(op) * self.skew_factor(op)
        base += coef.setup * float(op.partition_count)
        latency = self.hidden_multiplier(op) * base / self.cluster.speed_factor
        if rng is not None:
            latency *= self._noise(rng)
        return max(latency, self.params.min_latency)

    def cpu_seconds(self, op: PhysicalOp, latency: float) -> float:
        """Total compute-time across partitions attributed to ``op``.

        Approximated as the per-partition latency times the partition count;
        stragglers inflate wall-clock more than aggregate CPU, so the skew
        factor is removed again.
        """
        return latency * op.partition_count / self.skew_factor(op)

    def _noise(self, rng: np.random.Generator) -> float:
        noise = float(np.exp(rng.normal(0.0, self.cluster.noise_sigma)))
        if rng.random() < self.cluster.outlier_probability:
            noise *= float(
                rng.uniform(self.cluster.outlier_slowdown_min, self.cluster.outlier_slowdown_max)
            )
        return noise
