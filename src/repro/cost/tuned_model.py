"""The manually-tuned cost model (the paper's "alternate model under a flag").

The SCOPE team "put in significant efforts to improve their default cost
model" by accounting for newer hardware and operator implementations; the
result improves correlation from 0.04 to only 0.10 (Section 2.4).  We model
that outcome: the tuned model starts from the true coefficient *structure*
(the part careful engineering can get right) but its per-operator
calibration remains off by factors of 0.4-3 — recalibrating a fleet-wide
constant per operator cannot capture behaviour that actually varies per
template — it still prices UDFs with a flat factor, and it still consumes
the same estimated cardinalities.
"""

from __future__ import annotations

import math

from repro.cost.interface import CostModelBase
from repro.execution.ground_truth import GROUND_TRUTH_COEFFICIENTS
from repro.plan.physical import PhysOpType


class TunedCostModel(CostModelBase):
    """Manually-improved heuristic model: better structure, same blindness."""

    #: Residual per-operator mis-calibration: the tuned constants were fitted
    #: on a handful of canary jobs whose template multipliers leaked into the
    #: per-operator constants, leaving family-level errors of up to ~3x.
    _FUDGE: dict[PhysOpType, float] = {
        PhysOpType.EXTRACT: 0.45,
        PhysOpType.FILTER: 2.8,
        PhysOpType.COMPUTE: 0.6,
        PhysOpType.PROCESS: 3.2,  # flat "UDFs are slow" penalty
        PhysOpType.HASH_JOIN: 0.5,
        PhysOpType.MERGE_JOIN: 2.4,
        PhysOpType.HASH_AGGREGATE: 2.6,
        PhysOpType.STREAM_AGGREGATE: 0.4,
        PhysOpType.LOCAL_AGGREGATE: 1.8,
        PhysOpType.SORT: 0.5,
        PhysOpType.TOP_K: 2.2,
        PhysOpType.EXCHANGE: 0.4,
        PhysOpType.UNION_ALL: 1.6,
        PhysOpType.OUTPUT: 2.0,
    }

    #: Operators whose per-partition scheduling overhead the tuning captured.
    _SETUP_AWARE = frozenset({PhysOpType.EXCHANGE, PhysOpType.EXTRACT})

    #: The tuned model raised the default model's saturation cap by 10x but
    #: kept the idea — production jobs still exceed it routinely.
    row_cap = 2.0e7

    def operator_cost_from_stats(
        self,
        op_type: PhysOpType,
        estimated_input: float,
        estimated_output: float,
        input_row_bytes: float,
        partition_count: int,
    ) -> float:
        """The tuned formula on raw statistics: the one body behind
        :meth:`~repro.cost.interface.CostModelBase.operator_cost` and the
        skeleton replay's stats backend."""
        coef = GROUND_TRUTH_COEFFICIENTS[op_type]
        fudge = self._FUDGE[op_type]
        partitions = float(partition_count)
        rows_in = min(estimated_input, self.row_cap) / partitions
        rows_out = min(estimated_output, self.row_cap) / partitions

        cost = coef.io * rows_in * input_row_bytes + coef.out * rows_out
        if coef.nlogn:
            cost += coef.cpu * rows_in * math.log2(rows_in + 2.0)
        else:
            cost += coef.cpu * rows_in
        if op_type in self._SETUP_AWARE:
            cost += coef.setup * partitions
        return fudge * cost + 1e-4
