"""Earliest-Deadline-First baseline (beyond the paper's comparison).

A classic deadline-aware greedy scheduler to complement Rayon/CS: each
cycle it launches pending SLO jobs in deadline order, then best-effort jobs
FIFO, onto arbitrary free nodes.  Unlike Rayon/CS it *is* deadline-aware
(no blind best-effort mixing), but it shares the other limitations the
paper attributes to greedy schedulers: no placement preferences, no
plan-ahead, no global packing, no preemption.

Useful as a second reference point: the gap EDF—CS isolates "knowing the
deadlines", while TetriSched—EDF isolates heterogeneity awareness +
plan-ahead + global MILP packing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.state import ClusterState
from repro.core.allocation import Allocation
from repro.errors import SchedulerError
from repro.sim.interface import CycleDecisions, Heartbeat
from repro.sim.jobs import Job


@dataclass
class _Pending:
    job: Job

    @property
    def deadline(self) -> float:
        return self.job.deadline if self.job.deadline is not None else float("inf")


class EdfScheduler:
    """Deadline-ordered greedy gang scheduler."""

    def __init__(self, cluster: Cluster, cycle_s: float = 4.0,
                 drop_hopeless: bool = True, name: str = "EDF") -> None:
        self.name = name
        self.cluster = cluster
        self.cycle_s = cycle_s
        self._heartbeat = Heartbeat(cycle_s)
        #: Skip (and permanently cull) SLO jobs whose estimated runtime no
        #: longer fits before the deadline — EDF's version of TetriSched's
        #: culling; disable to run them blindly like Rayon/CS.
        self.drop_hopeless = drop_hopeless
        self.state = ClusterState(cluster.node_names)
        self._slo: OrderedDict[str, Job] = OrderedDict()
        self._best_effort: OrderedDict[str, Job] = OrderedDict()
        self._running: set[str] = set()

    # -- ClusterScheduler interface -----------------------------------------
    def submit(self, job: Job, accepted: bool, now: float) -> None:
        if job.k > len(self.cluster):
            raise SchedulerError(
                f"job {job.job_id!r} wants {job.k} nodes; cluster has "
                f"{len(self.cluster)}")
        if job.is_slo:
            self._slo[job.job_id] = job
        else:
            self._best_effort[job.job_id] = job

    def job_finished(self, job_id: str, now: float) -> None:
        if job_id not in self._running:
            raise SchedulerError(f"job {job_id!r} is not running")
        self._running.discard(job_id)
        self.state.finish(job_id)

    @property
    def active_jobs(self) -> int:
        return len(self._slo) + len(self._best_effort) + len(self._running)

    # -- scheduling cycle -------------------------------------------------------
    def cycle(self, now: float) -> CycleDecisions:
        if self._heartbeat.off_period(now):
            return CycleDecisions()  # plans on its heartbeat, as in the paper
        decisions = CycleDecisions()
        # SLO jobs by earliest deadline; FIFO breaks ties.
        slo_order = sorted(self._slo.values(),
                           key=lambda j: (j.deadline, j.submit_time))
        for job in slo_order:
            if self.drop_hopeless and \
                    now + job.estimated_runtime_s > job.deadline + 1e-9:
                del self._slo[job.job_id]
                decisions.culled.append(job.job_id)
                continue
            self._try_launch(job, now, decisions, self._slo)
        for job in list(self._best_effort.values()):
            self._try_launch(job, now, decisions, self._best_effort)
        return decisions

    def _try_launch(self, job: Job, now: float, decisions: CycleDecisions,
                    queue: OrderedDict) -> None:
        free = self.state.free_nodes()
        if len(free) < job.k:
            return
        nodes = frozenset(sorted(free)[:job.k])
        expected_end = now + job.estimated_runtime_s
        self.state.start(job.job_id, nodes, now, expected_end)
        self._running.add(job.job_id)
        del queue[job.job_id]
        decisions.allocations.append(
            Allocation(job.job_id, nodes, now, expected_end))
