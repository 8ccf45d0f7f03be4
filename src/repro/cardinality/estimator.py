"""The default cardinality estimator, with compounding per-operator errors.

Design: the estimator knows each operator's *estimated* local selectivity,
which differs from the true one by a multiplicative error factor drawn
log-normally — deterministically per operator template, so the same recurring
subexpression is always misestimated the same way.  That determinism is what
makes the errors *learnable* by Cleo's subgraph models ("when the estimation
errors are systematically off by certain factors, the subgraph models can
adjust the weights", Section 3.1) while still wrecking the default cost
model, whose hand-tuned constants cannot absorb per-template factors.

Error magnitude grows with operator kind: filters are mildly off, joins more,
and user-defined Process operators (black-box UDFs) most of all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.hashing import stable_unit_float
from repro.plan.logical import LogicalOpType
from repro.plan.physical import PhysicalOp

#: Log-space error sigma per logical operator type.
DEFAULT_SIGMAS: dict[LogicalOpType, float] = {
    LogicalOpType.GET: 0.0,
    LogicalOpType.FILTER: 0.55,
    LogicalOpType.PROJECT: 0.0,
    LogicalOpType.PROCESS: 1.2,
    LogicalOpType.JOIN: 0.9,
    LogicalOpType.AGGREGATE: 0.7,
    LogicalOpType.SORT: 0.0,
    LogicalOpType.TOP_K: 0.0,
    LogicalOpType.UNION: 0.0,
    LogicalOpType.OUTPUT: 0.0,
}

#: Error factors by value — ``(seed salt, sigma, template tag, logical
#: type)`` — shared by every estimator: each is a pure function of its key,
#: and serving builds a fresh estimator per plan request.  Ad-hoc traffic
#: mints new template tags without end, so the memo starts over when it
#: reaches the limit (like the signature caches).
_ERROR_FACTOR_LIMIT = 1 << 14
_ERROR_FACTORS: dict[tuple[str, float, str, int], float] = {}


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning knobs for the default estimator.

    Attributes:
        sigma_scale: global multiplier on the per-operator error sigmas
            (0 disables errors entirely).
        sigmas: per-operator-type log-space sigmas.
        seed_salt: varies the deterministic error draws (e.g. per cluster).
    """

    sigma_scale: float = 1.0
    sigmas: dict[LogicalOpType, float] = field(default_factory=lambda: dict(DEFAULT_SIGMAS))
    seed_salt: str = "carderr"


def _gauss_from_unit(u: float) -> float:
    """Unit-interval value -> standard normal via the probit approximation.

    Acklam-style rational approximation; adequate for deterministic error
    factors (we need reproducibility, not tail precision).
    """
    u = min(max(u, 1e-12), 1.0 - 1e-12)
    # Beasley-Springer-Moro inverse normal CDF approximation.
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if u < p_low:
        q = math.sqrt(-2 * math.log(u))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    if u > 1 - p_low:
        q = math.sqrt(-2 * math.log(1 - u))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    q = u - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
    )


class CardinalityEstimator:
    """Estimates output cardinalities of physical plans, with realistic errors.

    Usage::

        est = CardinalityEstimator()
        estimated_rows = est.estimate(physical_op)

    ``config`` is fixed at construction, so an estimate is a pure function of
    the immutable subtree; it is cached on the node (``PhysicalOp._estimate``)
    under this instance's tag, so a fresh estimator re-estimates its plan.
    """

    def __init__(self, config: EstimatorConfig | None = None) -> None:
        self.config = config or EstimatorConfig()
        #: Tags this instance's node entries; a bare token, so plans pin no estimator.
        self._tag = object()
        #: Each logical type's sigma under this config, keyed by id(): id()
        #: skips enum.__hash__ on the hot lookup.
        self._sigmas: dict[int, float] = {}

    def error_factor_for(self, template_tag: str, op_type: LogicalOpType) -> float:
        """Template-level error factor by (tag, logical type).

        The same recurring template is misestimated identically every day,
        by every estimator with the same salt and sigma: the factor is
        drawn once into the shared by-value memo.
        """
        type_id = id(op_type)  # repro: allow(hashseed-hazard) -- enum members are immortal singletons: their ids are never recycled
        sigma = self._sigmas.get(type_id)
        if sigma is None:
            sigma = self.config.sigmas.get(op_type, 0.0) * self.config.sigma_scale
            self._sigmas[type_id] = sigma
        if sigma <= 0.0:
            return 1.0
        key = (self.config.seed_salt, sigma, template_tag, type_id)
        value = _ERROR_FACTORS.get(key)
        if value is None:
            u = stable_unit_float(self.config.seed_salt, template_tag, op_type.value)
            value = math.exp(sigma * _gauss_from_unit(u))
            if len(_ERROR_FACTORS) >= _ERROR_FACTOR_LIMIT:
                _ERROR_FACTORS.clear()
            _ERROR_FACTORS[key] = value
        return value

    def estimate(self, op: PhysicalOp) -> float:
        """Estimated output cardinality of ``op`` (recursive, cached on ``op``)."""
        cached = op._estimate
        if cached is None or cached[0] is not self._tag:
            # Racing threads store equal values: no lock needed.
            cached = (self._tag, self._estimate_uncached(op))
            object.__setattr__(op, "_estimate", cached)
        return cached[1]

    def _estimate_uncached(self, op: PhysicalOp) -> float:
        child_estimates = [self.estimate(child) for child in op.children]
        logical = op.logical
        if logical is None:
            # Enforcers (Exchange, enforcer Sort) pass cardinality through.
            return child_estimates[0]
        return self.estimate_logical(logical, child_estimates)

    def estimate_logical(self, logical, child_estimates: list[float]) -> float:
        """The estimate formula for one logical node over its (physical)
        children's estimates.

        Single source of truth shared by the per-plan recursion above and the
        skeleton planner's replay search, which tracks child estimates on its
        own lightweight nodes.
        """
        op_type = logical.op_type
        if op_type is LogicalOpType.GET:
            # Base table row counts come from catalog statistics, which the
            # system maintains accurately; errors enter at predicates and up.
            return logical.true_card
        if op_type is LogicalOpType.UNION:
            return float(sum(child_estimates))

        if op_type is LogicalOpType.JOIN:
            base = max(child_estimates) if child_estimates else 0.0
        else:
            base = child_estimates[0]

        error = self.error_factor_for(logical.template_tag, op_type)
        # Aggregates estimate "number of groups", independent of what
        # physical shape (e.g. local pre-aggregation) feeds them; top-k is
        # bounded by its literal limit.
        if op_type is LogicalOpType.AGGREGATE and logical.group_count is not None:
            estimate = min(base, logical.group_count * error)
        elif op_type is LogicalOpType.TOP_K and logical.limit is not None:
            estimate = min(base, float(logical.limit))
        else:
            estimate = logical.sel_true * error * base
            # Operators whose output can never exceed their input; identity
            # checks because frozenset membership would hash the enum on
            # every call.
            if (
                op_type is LogicalOpType.FILTER
                or op_type is LogicalOpType.AGGREGATE
                or op_type is LogicalOpType.TOP_K
            ):
                estimate = min(estimate, base)
        return max(estimate, 0.0)

    def estimate_input(self, op: PhysicalOp) -> float:
        """Estimated total input cardinality from the children (``I``)."""
        if not op.children:
            return self.estimate(op)
        return float(sum(self.estimate(child) for child in op.children))
