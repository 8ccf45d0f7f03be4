"""Execution substrate: a SCOPE-like distributed execution simulator.

The simulator is the reproduction's stand-in for Microsoft's production
clusters; every job runs on it through one executor,
:class:`~repro.execution.batch.BatchedExecutionEngine`.  It assigns every
physical operator an *actual* exclusive latency drawn from a hidden
ground-truth model (see :mod:`repro.execution.ground_truth`) whose
structure matches what the paper reports about real systems: runtimes
depend on the operator's subgraph context, its inputs, black-box UDFs, the
partition count, and cloud variance — none of which the default cost model
can see, all of which are learnable per template.
"""

from repro.execution.ground_truth import GroundTruthModel, GroundTruthParams
from repro.execution.hardware import ClusterSpec
from repro.execution.runtime_log import (
    JobRecord,
    OperatorBlock,
    OperatorRecord,
    OperatorRows,
    RunLog,
)
from repro.execution.simulator import ExecutionSimulator

__all__ = [
    "ClusterSpec",
    "ExecutionSimulator",
    "GroundTruthModel",
    "GroundTruthParams",
    "JobRecord",
    "OperatorBlock",
    "OperatorRecord",
    "OperatorRows",
    "RunLog",
]
