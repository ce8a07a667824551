"""Shared mutable state threaded through one scheduling cycle's stages."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotations only, avoids import cycle
    from repro.core.compiler import CompiledBatch, ResizeCandidate
    from repro.core.scheduler import (CycleResult, JobRequest, SolveTelemetry,
                                      TetriSched, TetriSchedConfig)
    from repro.solver.decompose import Decomposition
    from repro.solver.result import MILPResult
    from repro.strl.ast import StrlNode


@dataclass
class CycleContext:
    """Everything one cycle's stages read and write.

    Earlier stages populate the fields later stages consume; the driver
    owns ``stage_timings``.  The context never outlives the cycle.
    """

    scheduler: "TetriSched"
    now: float
    result: "CycleResult"
    telemetry: "SolveTelemetry"
    #: Off-period arrival cycle: ``Solve`` only asks for the certificate.
    arrival: bool = False

    #: (job_id, STRL root) per schedulable pending job — plus, with
    #: ``elastic_mode``, one resize fragment per running elastic job.
    exprs: list[tuple[str, "StrlNode"]] = field(default_factory=list)
    requests: dict[str, "JobRequest"] = field(default_factory=dict)
    #: Running elastic jobs re-entered as width re-planning candidates
    #: (``elastic_mode``); their fragments sit at the tail of ``exprs``.
    resizable: list["ResizeCandidate"] = field(default_factory=list)
    #: Extract's grow/shrink split of this cycle's applied resizes.
    resize_grown: int = 0
    resize_shrunk: int = 0
    compiled: "CompiledBatch | None" = None
    warm_start: np.ndarray | None = None
    decomposition: "Decomposition | None" = None
    solution: "MILPResult | None" = None

    #: Independent MILP blocks this cycle solved (1 when monolithic).
    components: int = 0
    #: Stored nonzeros in the cycle MILP's sparse export.
    nnz: int = 0
    #: Wall-clock seconds per stage name, filled by the driver.
    stage_timings: dict[str, float] = field(default_factory=dict)
    halted: bool = False

    @property
    def config(self) -> "TetriSchedConfig":
        return self.scheduler.config

    def halt(self) -> None:
        """Skip all remaining stages of this cycle."""
        self.halted = True
