"""Rayon/CapacityScheduler baseline (the paper's comparison stack, Sec. 6.1).

Models mainline YARN's CapacityScheduler as configured in the paper:

* the Rayon **reservation system is enabled** — accepted SLO jobs are
  guaranteed their reserved capacity during their reservation window;
* **container preemption is enabled** — when a reserved job's window opens
  and the cluster lacks free nodes, running best-effort (and
  expired-reservation) jobs are killed to honor the guarantee;
* the scheduler is **heterogeneity-unaware** (containers are placed on
  arbitrary free nodes, so GPU/MPI jobs usually land on slow placements)
  and **deadline-blind** for anything in the best-effort queue;
* when a reservation window expires before the job completes (runtime
  under-estimation), the job is *demoted*: if it is still waiting it drops
  into the best-effort queue, and if it is running it loses its guarantee
  and becomes preemptible (Sec. 7.1's "transfer of accepted SLO jobs into
  the best-effort queue").

Preempted jobs lose all progress and re-enter the best-effort queue; this
reproduces the paper's "preemption that consumes time and resources".

The best-effort queue is FIFO with skip-ahead (a waiting wide gang does not
block narrower jobs behind it); YARN's per-container allocation would
otherwise hoard, which flatters TetriSched unfairly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.state import ClusterState
from repro.core.allocation import Allocation
from repro.errors import SchedulerError
from repro.reservation.rayon import RayonReservationSystem
from repro.sim.interface import CycleDecisions, Heartbeat
from repro.sim.jobs import Job


@dataclass
class _RunningJob:
    job: Job
    nodes: frozenset[str]
    start_time: float
    #: Lost its reservation guarantee (expired window) -> preemptible.
    demoted: bool = False


class CapacityScheduler:
    """The Rayon/CS stack as a simulator-drivable scheduler."""

    def __init__(self, cluster: Cluster, rayon: RayonReservationSystem,
                 cycle_s: float = 4.0, preemption: bool = True,
                 name: str = "Rayon/CS") -> None:
        self.name = name
        self.cluster = cluster
        self.rayon = rayon
        self.cycle_s = cycle_s
        self._heartbeat = Heartbeat(cycle_s)
        self.preemption = preemption
        self.state = ClusterState(cluster.node_names)
        self._reserved_queue: OrderedDict[str, Job] = OrderedDict()
        self._be_queue: OrderedDict[str, Job] = OrderedDict()
        self._running: dict[str, _RunningJob] = {}
        self.preemption_count = 0

    # -- ClusterScheduler interface ------------------------------------------
    def submit(self, job: Job, accepted: bool, now: float) -> None:
        if job.k > len(self.cluster):
            raise SchedulerError(
                f"job {job.job_id!r} wants {job.k} nodes; cluster has "
                f"{len(self.cluster)}")
        if accepted:
            self._reserved_queue[job.job_id] = job
        else:
            # SLO jobs without reservations and best-effort jobs mix blindly
            # in the best-effort queue; deadline information is lost here.
            self._be_queue[job.job_id] = job

    def job_finished(self, job_id: str, now: float) -> None:
        if job_id not in self._running:
            raise SchedulerError(f"job {job_id!r} is not running")
        del self._running[job_id]
        self.state.finish(job_id)

    @property
    def active_jobs(self) -> int:
        return (len(self._reserved_queue) + len(self._be_queue)
                + len(self._running))

    # -- scheduling cycle -------------------------------------------------------
    def cycle(self, now: float) -> CycleDecisions:
        if self._heartbeat.off_period(now):
            return CycleDecisions()  # plans on its heartbeat, as in the paper
        decisions = CycleDecisions()
        self._demote_expired(now)
        self._serve_reserved_queue(now, decisions)
        self._serve_best_effort_queue(now, decisions)
        return decisions

    # -- internals -----------------------------------------------------------------
    def _window_of(self, job_id: str):
        return self.rayon.decision_of(job_id).window

    def _demote_expired(self, now: float) -> None:
        """Reservation windows that ended take their guarantees with them."""
        for job_id in list(self._reserved_queue):
            window = self._window_of(job_id)
            if now >= window.end_s - 1e-9:
                self._be_queue[job_id] = self._reserved_queue.pop(job_id)
        for run in self._running.values():
            if run.demoted or not self.rayon.is_accepted(run.job.job_id):
                continue
            window = self._window_of(run.job.job_id)
            if now >= window.end_s - 1e-9:
                run.demoted = True

    def _serve_reserved_queue(self, now: float,
                              decisions: CycleDecisions) -> None:
        """Launch reserved jobs whose window is open, preempting if needed."""
        ready = sorted(
            (job_id for job_id in self._reserved_queue
             if self._window_of(job_id).start_s <= now + 1e-9),
            key=lambda j: self._window_of(j).start_s)
        for job_id in ready:
            job = self._reserved_queue[job_id]
            free = self.state.free_nodes()
            if len(free) < job.k and self.preemption:
                self._preempt_for(job.k - len(free), decisions)
                free = self.state.free_nodes()
            if len(free) < job.k:
                continue  # guarantee cannot be honored yet
            del self._reserved_queue[job_id]
            self._launch(job, free, now, decisions)

    def _preempt_for(self, needed: int, decisions: CycleDecisions) -> None:
        """Kill preemptible jobs (youngest first) to free ``needed`` nodes."""
        victims = sorted(
            (run for run in self._running.values()
             if run.demoted or not self.rayon.is_accepted(run.job.job_id)),
            key=lambda r: -r.start_time)
        reclaimable = sum(len(v.nodes) for v in victims)
        if reclaimable < needed:
            return  # not enough even with preemption; don't kill in vain
        freed = 0
        for victim in victims:
            if freed >= needed:
                break
            job_id = victim.job.job_id
            del self._running[job_id]
            self.state.finish(job_id)
            # All progress is lost; the job re-queues as best effort.
            self._be_queue[job_id] = victim.job
            decisions.preempted.append(job_id)
            self.preemption_count += 1
            freed += len(victim.nodes)

    def _serve_best_effort_queue(self, now: float,
                                 decisions: CycleDecisions) -> None:
        for job_id in list(self._be_queue):
            job = self._be_queue[job_id]
            free = self.state.free_nodes()
            if len(free) < job.k:
                continue  # skip-ahead: try the next (possibly narrower) job
            del self._be_queue[job_id]
            self._launch(job, free, now, decisions)

    def _launch(self, job: Job, free: frozenset[str], now: float,
                decisions: CycleDecisions) -> None:
        # Heterogeneity-unaware: arbitrary (deterministic) node choice.
        nodes = frozenset(sorted(free)[:job.k])
        expected_end = now + job.estimated_runtime_s
        self.state.start(job.job_id, nodes, now, expected_end)
        run = _RunningJob(job, nodes, now)
        if self.rayon.is_accepted(job.job_id):
            window = self._window_of(job.job_id)
            run.demoted = now >= window.end_s - 1e-9
        else:
            run.demoted = True  # never had a guarantee
        self._running[job.job_id] = run
        decisions.allocations.append(
            Allocation(job.job_id, nodes, now, expected_end))
