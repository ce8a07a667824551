"""The scheduler interface the simulator drives.

Both stacks implement this: Rayon/TetriSched (via
:class:`repro.sim.adapters.TetriSchedAdapter`) and Rayon/CapacityScheduler
(:class:`repro.baselines.capacity_scheduler.CapacityScheduler`).  It mirrors
the paper's YARN proxy-scheduler interface (Sec. 3.3): add jobs, emit
allocation decisions, signal completions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.core.allocation import Allocation
from repro.core.scheduler import CycleStats
from repro.sim.jobs import Job


@dataclass
class CycleDecisions:
    """What one scheduling cycle decided, as seen by the simulator."""

    allocations: list[Allocation] = field(default_factory=list)
    #: Jobs permanently dropped this cycle (zero remaining value).
    culled: list[str] = field(default_factory=list)
    #: Running jobs killed to honor reservations (CapacityScheduler only).
    preempted: list[str] = field(default_factory=list)
    #: Running elastic jobs whose width changed this cycle
    #: (``elastic_mode``); their new node sets appear in ``allocations``.
    resized: list[str] = field(default_factory=list)
    stats: CycleStats | None = None


class Heartbeat:
    """Tells a scheduler's periodic ``cycle`` calls, which re-arm it, from the
    off-period ones that come before the period is over.  Exact: the due time
    is computed as the drivers compute their next tick, ``now + cycle_s``."""

    def __init__(self, cycle_s: float) -> None:
        self.cycle_s = cycle_s
        self._due = float("-inf")

    def off_period(self, now: float) -> bool:
        if now < self._due:
            return True
        self._due = now + self.cycle_s
        return False


@runtime_checkable
class ClusterScheduler(Protocol):
    """Minimal contract between the simulator and a scheduler stack.

    ``cycle`` is also called off-period, at an arrival between two ticks; a
    heartbeat scheduler answers that with an empty :class:`CycleDecisions`.
    """

    name: str
    cycle_s: float

    def submit(self, job: Job, accepted: bool, now: float) -> None:
        """A job arrived; ``accepted`` is Rayon's admission decision."""
        ...

    def cycle(self, now: float) -> CycleDecisions:
        """Run one scheduling cycle and return its decisions."""
        ...

    def job_finished(self, job_id: str, now: float) -> None:
        """A running job completed; its nodes are free again."""
        ...

    @property
    def active_jobs(self) -> int:
        """Jobs currently queued or running inside the scheduler."""
        ...
