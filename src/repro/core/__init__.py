"""TetriSched scheduler core: compiler, scheduler, allocation, queues."""

from repro.core.allocation import Allocation, PlanAccumulator
from repro.core.compiler import (CompiledBatch, LeafRecord, PlannedPlacement,
                                 StrlCompiler)
from repro.core.queues import PriorityClass, PriorityQueues
from repro.core.scheduler import (CycleResult, CycleStats, JobRequest,
                                  TetriSched, TetriSchedConfig)

__all__ = [
    "Allocation", "CompiledBatch", "CycleResult", "CycleStats", "JobRequest",
    "LeafRecord", "PlanAccumulator", "PlannedPlacement", "PriorityClass",
    "PriorityQueues", "StrlCompiler", "TetriSched", "TetriSchedConfig",
]
