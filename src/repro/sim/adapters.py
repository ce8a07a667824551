"""Adapters exposing the TetriSched core through the simulator interface.

Performs the role of the paper's STRL Generator inputs (Sec. 3.1): combines
reservation information (accepted / rejected, deadline) with the job type's
placement options and the Fig. 5 value functions to build
:class:`~repro.core.scheduler.JobRequest` objects.

Two adapters share that translation (:func:`request_from_job`):
:class:`TetriSchedAdapter` drives the scheduler library directly (the
fast path every experiment uses), while :class:`ServiceAdapter` routes the
same calls through a long-lived
:class:`~repro.service.service.SchedulerService` — the simulator becomes
just one client of the service core, which keeps the service's lifecycle
bookkeeping honest against the full simulation test matrix.
"""

from __future__ import annotations

from repro.api import Scheduler
from repro.cluster.cluster import Cluster
from repro.core.queues import PriorityClass
from repro.core.scheduler import JobRequest, TetriSchedConfig
from repro.sim.interface import CycleDecisions, Heartbeat
from repro.sim.jobs import ElasticType, Job
from repro.valuefn import (SLO_ACCEPTED_MULTIPLIER,
                           SLO_NO_RESERVATION_MULTIPLIER, GraceStepValue,
                           best_effort_value)


def request_from_job(job: Job, accepted: bool, cluster: Cluster,
                     config: TetriSchedConfig) -> JobRequest:
    """Build the scheduler's :class:`JobRequest` for a simulator job.

    For SLO jobs, a one-quantum grace window (at discounted value)
    compensates for ceil-rounded durations and cycle misalignment; on-time
    placements always dominate, and SLO attainment is still measured
    against the true deadline by the simulator.
    """
    if job.is_slo:
        grace = config.deadline_grace_quanta * config.quantum_s
        mult = (SLO_ACCEPTED_MULTIPLIER if accepted
                else SLO_NO_RESERVATION_MULTIPLIER)
        value_fn = GraceStepValue(mult, job.deadline, grace)
        deadline = job.deadline + grace
        priority = (PriorityClass.SLO_ACCEPTED if accepted
                    else PriorityClass.SLO_NO_RESERVATION)
    else:
        value_fn = best_effort_value(release_time=job.submit_time)
        priority = PriorityClass.BEST_EFFORT
        deadline = None
    return JobRequest(
        job_id=job.job_id, options=tuple(job.estimated_options(cluster)),
        value_fn=value_fn, priority=priority,
        submit_time=job.submit_time, deadline=deadline,
        elastic=isinstance(job.job_type, ElasticType))


class TetriSchedAdapter:
    """Rayon/TetriSched stack as a simulator-drivable scheduler."""

    def __init__(self, cluster: Cluster,
                 config: TetriSchedConfig | None = None,
                 name: str = "TetriSched") -> None:
        self.name = name
        self.cluster = cluster
        self.api = Scheduler.open(cluster, config)
        self.scheduler = self.api.core
        self.cycle_s = self.scheduler.config.cycle_s
        self._heartbeat = Heartbeat(self.cycle_s)
        self._running: set[str] = set()
        self._arrived: list[tuple[Job, bool]] = []

    # -- ClusterScheduler interface -----------------------------------------
    def submit(self, job: Job, accepted: bool, now: float) -> None:
        # Only recorded (the ack path); the next cycle() builds the request.
        self._arrived.append((job, accepted))

    def _hand_over(self) -> None:
        for job, accepted in self._arrived:
            self.scheduler.submit(request_from_job(
                job, accepted, self.cluster, self.scheduler.config))
        self._arrived.clear()

    def cycle(self, now: float) -> CycleDecisions:
        self._hand_over()
        result = self.scheduler.run_cycle(
            now, arrival=self._heartbeat.off_period(now))
        self._running.update(a.job_id for a in result.allocations)
        self._running.difference_update(result.preempted)
        return CycleDecisions(allocations=result.allocations,
                              culled=result.culled,
                              preempted=result.preempted,
                              resized=result.resized, stats=result.stats)

    def job_finished(self, job_id: str, now: float) -> None:
        self.scheduler.on_job_finished(job_id, now)
        self._running.discard(job_id)

    @property
    def active_jobs(self) -> int:
        return (self.scheduler.pending_count + len(self._arrived)
                + len(self._running))

    @property
    def cycle_history(self):
        """Per-cycle stats (Fig. 12 scalability data)."""
        return self.scheduler.cycle_history


class _SimClock:
    """A clock the simulation driver sets explicitly before each call."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    async def sleep(self, delay_s: float) -> None:  # pragma: no cover
        raise RuntimeError("the simulator drives cycles explicitly; "
                           "the service timer must not run")


class ServiceAdapter:
    """The simulator as one client of a long-lived scheduler service.

    Same :class:`~repro.sim.interface.ClusterScheduler` contract as
    :class:`TetriSchedAdapter`, but every call goes through a
    :class:`~repro.service.service.SchedulerService`: submissions become
    service job records, cycles run through the service's lifecycle
    bookkeeping, and completions are *reported* rather than auto-detected
    (``auto_complete=False`` — runtime mis-estimation experiments need
    true completion times to differ from expectations).  The service
    clock is slaved to the simulator's virtual time.
    """

    def __init__(self, cluster: Cluster,
                 config: TetriSchedConfig | None = None,
                 name: str = "TetriSched-service") -> None:
        from repro.service.service import SchedulerService

        self.name = name
        self.cluster = cluster
        self._clock = _SimClock()
        self.service = SchedulerService(cluster, config, clock=self._clock,
                                        auto_complete=False)
        self.scheduler = self.service.scheduler
        self.cycle_s = self.scheduler.config.cycle_s
        self._heartbeat = Heartbeat(self.cycle_s)
        self._running: set[str] = set()

    # -- ClusterScheduler interface -----------------------------------------
    def submit(self, job: Job, accepted: bool, now: float) -> None:
        self._clock._now = now
        self.service.submit(request_from_job(
            job, accepted, self.cluster, self.scheduler.config))

    def cycle(self, now: float) -> CycleDecisions:
        self._clock._now = now
        result = self.service.run_one_cycle(
            arrival=self._heartbeat.off_period(now))
        self._running.update(a.job_id for a in result.allocations)
        self._running.difference_update(result.preempted)
        self._running.difference_update(result.cancelled)
        return CycleDecisions(allocations=result.allocations,
                              culled=result.culled,
                              preempted=result.preempted,
                              resized=result.resized, stats=result.stats)

    def job_finished(self, job_id: str, now: float) -> None:
        self._clock._now = now
        self.service.complete(job_id)
        self._running.discard(job_id)

    @property
    def active_jobs(self) -> int:
        return self.scheduler.pending_count + len(self._running)

    @property
    def cycle_history(self):
        return self.scheduler.cycle_history
