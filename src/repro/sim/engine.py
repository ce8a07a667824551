"""Discrete-event cluster simulator.

Replaces the paper's 256/80-node physical testbed (Sec. 6.1): job arrivals,
Rayon admission control, periodic scheduler cycles, placement-dependent true
runtimes, completions, and (for the CapacityScheduler baseline) preemption.
The event loop is deterministic: same workload + same scheduler = same
result, which the tests rely on.

Flow per job:

1. **Arrival** — SLO jobs run Rayon admission (with the *estimated* runtime,
   so mis-estimation distorts acceptance exactly as in Sec. 7.1); the job is
   handed to the scheduler with its accepted/rejected status.
2. **Cycles** — every ``scheduler.cycle_s`` seconds the scheduler is asked
   for decisions.  Launched jobs get a completion event at
   ``now + true_runtime(placement)`` — the ground truth the scheduler never
   sees directly.  Culled jobs are finalized as never-run (missed SLOs).
   An arrival between two ticks is followed by one off-period call at the
   same instant: the scheduler's chance to place on arrival.
3. **Completion** — frees nodes, releases the reservation tail, records
   metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import obs
from repro.cluster.cluster import Cluster
from repro.errors import SimulationError
from repro.obs.profile import RunProfile
from repro.reservation.rayon import RayonReservationSystem
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.faults import FaultModel
from repro.sim.interface import ClusterScheduler
from repro.sim.jobs import ElasticType, Job
from repro.sim.metrics import (JobOutcome, LatencyTrace, MetricsCollector,
                               MetricsReport)
from repro.sim.trace import (ARRIVAL, COMPLETION, CULL, FAILURE, LAUNCH,
                             PREEMPTION, RESIZE, ExecutionTrace)


@dataclass
class SimulationResult:
    """Everything a benchmark needs from one run."""

    metrics: MetricsReport
    outcomes: dict[str, JobOutcome]
    latency: LatencyTrace
    end_time: float
    cycles: int
    scheduler_name: str
    #: Per-run observability profile: always carries the cheap counters
    #: (solver work, warm-start hit/miss, event counts); phase timers are
    #: filled in when the obs registry is enabled for the run.
    profile: RunProfile = field(default_factory=RunProfile)

    def __str__(self) -> str:
        m = self.metrics
        return (f"[{self.scheduler_name}] SLO total {m.slo_total_pct:.1f}% | "
                f"accepted {m.slo_accepted_pct:.1f}% | "
                f"w/o res {m.slo_no_reservation_pct:.1f}% | "
                f"BE latency {m.mean_be_latency_s:.1f}s | "
                f"preemptions {m.preemptions}")


class Simulation:
    """One simulated experiment run.

    Parameters
    ----------
    cluster:
        The simulated cluster.
    scheduler:
        A :class:`~repro.sim.interface.ClusterScheduler` (TetriSched adapter
        or CapacityScheduler baseline).
    jobs:
        The workload; arrival times come from each job's ``submit_time``.
    rayon:
        The shared admission-control frontend.  Created automatically when
        omitted (capacity = cluster size).
    max_time_s:
        Hard stop; unfinished jobs count as missed.  Defaults to generous.
    trace:
        Optional :class:`~repro.sim.trace.ExecutionTrace` to record every
        arrival/launch/completion/preemption/cull into.
    faults:
        Optional :class:`~repro.sim.faults.FaultModel`: launches may fail
        mid-run; failed jobs free their nodes and are resubmitted until the
        retry limit, then finalized as never-completed.
    """

    def __init__(self, cluster: Cluster, scheduler: ClusterScheduler,
                 jobs: list[Job],
                 rayon: RayonReservationSystem | None = None,
                 max_time_s: float = 1e7,
                 trace: ExecutionTrace | None = None,
                 faults: FaultModel | None = None) -> None:
        if not jobs:
            raise SimulationError("workload must contain at least one job")
        ids = [j.job_id for j in jobs]
        if len(set(ids)) != len(ids):
            raise SimulationError("duplicate job ids in workload")
        self.cluster = cluster
        self.scheduler = scheduler
        self.jobs = {j.job_id: j for j in jobs}
        self.rayon = rayon or RayonReservationSystem(
            capacity=len(cluster), step_s=scheduler.cycle_s)
        self.max_time_s = max_time_s
        self.trace = trace
        self.faults = faults
        self.metrics = MetricsCollector()
        self._attempts: dict[str, int] = {}
        self.latency = LatencyTrace()
        self.profile = RunProfile()
        self._events = EventQueue()
        self._completion_events: dict[str, Event] = {}
        #: Work-conservation model for running elastic jobs: fraction of
        #: total work finished before the current width segment, and the
        #: segment's (start_time, full_runtime_at_this_width).  A resize
        #: closes the segment, accrues its work, and reschedules the
        #: remaining fraction at the new width's speed.
        self._work_done: dict[str, float] = {}
        self._segments: dict[str, tuple[float, float]] = {}
        self._unfinalized = 0
        self._future_arrivals = 0
        self._cycles = 0
        #: The timer's next cycle; the last off-period one an arrival pushed.
        self._next_tick = 0.0
        self._arrival_cycle_at = -1.0
        self._now = 0.0

    # -- main loop -------------------------------------------------------------
    def run(self) -> SimulationResult:
        registry = obs.get_registry()
        obs_before = registry.snapshot() if registry.enabled else None

        for job in self.jobs.values():
            self._events.push(job.submit_time, EventKind.JOB_ARRIVAL, job)
            self._future_arrivals += 1
            self._unfinalized += 1
        self._events.push(0.0, EventKind.SCHEDULER_CYCLE)

        while self._events:
            ev = self._events.pop()
            if ev is None:
                break
            if ev.time > self.max_time_s:
                break
            self._now = ev.time
            self.profile.bump(f"sim.events.{ev.kind.name.lower()}")
            if ev.kind == EventKind.JOB_ARRIVAL:
                self._on_arrival(ev.payload)
            elif ev.kind == EventKind.JOB_COMPLETION:
                self._on_completion(ev.payload)
            elif ev.kind == EventKind.JOB_FAILURE:
                self._on_failure(ev.payload)
            else:
                self._on_cycle(periodic=ev.payload is None)

        if obs_before is not None:
            self.profile.merge_delta(
                obs.snapshot_delta(obs_before, registry.snapshot()))
        return SimulationResult(
            metrics=self.metrics.report(),
            outcomes=self.metrics.outcomes,
            latency=self.latency,
            end_time=self._now, cycles=self._cycles,
            scheduler_name=self.scheduler.name,
            profile=self.profile)

    # -- event handlers -----------------------------------------------------------
    def _on_arrival(self, job: Job) -> None:
        self._future_arrivals -= 1
        accepted = False
        if job.is_slo:
            decision = self.rayon.submit(
                job.job_id, k=job.k, duration_s=job.estimated_runtime_s,
                arrival_s=job.submit_time, deadline_s=job.deadline)
            accepted = decision.accepted
        self.metrics.register(JobOutcome(
            job_id=job.job_id, is_slo=job.is_slo, accepted=accepted,
            submit_time=job.submit_time, deadline=job.deadline))
        if self.trace is not None:
            self.trace.record(self._now, ARRIVAL, job.job_id,
                              detail="accepted" if accepted else
                              ("rejected" if job.is_slo else "best-effort"))
        self.scheduler.submit(job, accepted, self._now)
        # One off-period cycle per arrival instant (kind priority fires it
        # after the instant's other events), none when the tick is due now.
        if self._now not in (self._next_tick, self._arrival_cycle_at):
            self._arrival_cycle_at = self._now
            self._events.push(self._now, EventKind.SCHEDULER_CYCLE, "arrival")

    def _on_completion(self, job_id: str) -> None:
        self._completion_events.pop(job_id, None)
        self._work_done.pop(job_id, None)
        self._segments.pop(job_id, None)
        self.scheduler.job_finished(job_id, self._now)
        self.rayon.on_job_complete(job_id, self._now)
        self.metrics.of(job_id).finish_time = self._now
        if self.trace is not None:
            self.trace.record(self._now, COMPLETION, job_id)
        self._unfinalized -= 1

    def _on_failure(self, job_id: str) -> None:
        """A running attempt died; free nodes, retry or abandon."""
        self._completion_events.pop(job_id, None)
        self._work_done.pop(job_id, None)
        self._segments.pop(job_id, None)
        self.scheduler.job_finished(job_id, self._now)
        self._attempts[job_id] = self._attempts.get(job_id, 0) + 1
        outcome = self.metrics.of(job_id)
        failed_nodes = outcome.nodes
        outcome.failures += 1
        outcome.start_time = None
        outcome.nodes = frozenset()
        if self.trace is not None:
            self.trace.record(self._now, FAILURE, job_id,
                              detail=f"attempt={self._attempts[job_id]}")
        if self.faults is not None and self.faults.gave_up(outcome.failures):
            # Abandoned: finalize as never-completed.
            self.rayon.on_job_complete(job_id, self._now)
            self._unfinalized -= 1
            return
        job = self.jobs[job_id]
        width = len(failed_nodes)
        if (isinstance(job.job_type, ElasticType)
                and 0 < width != job.k):
            # An elastic job that resized before dying re-enters at its
            # *current* width, not its submitted one: the width re-plan is
            # a durable reconfiguration, so the retry's ladder tops out at
            # the width the attempt was actually running.  Rebasing keeps
            # total work honest — the runtime at the failed width under
            # the old reference becomes the new base.
            job = replace(
                job, k=width,
                base_runtime_s=job.true_runtime_on(self.cluster,
                                                   failed_nodes))
            self.jobs[job_id] = job
        self.scheduler.submit(job, self.rayon.is_accepted(job_id), self._now)

    def _on_cycle(self, periodic: bool = True) -> None:
        """Apply the decisions (``periodic``: counted, timed, re-arms)."""
        self._cycles += periodic
        decisions = self.scheduler.cycle(self._now)

        for job_id in decisions.preempted:
            ev = self._completion_events.pop(job_id, None)
            if ev is None:
                raise SimulationError(
                    f"preempted job {job_id!r} has no completion event")
            self._events.cancel(ev)
            outcome = self.metrics.of(job_id)
            outcome.preemptions += 1
            outcome.start_time = None
            outcome.nodes = frozenset()
            self.rayon.on_job_complete(job_id, self._now)
            self._work_done.pop(job_id, None)
            self._segments.pop(job_id, None)
            if self.trace is not None:
                self.trace.record(self._now, PREEMPTION, job_id)

        # A resize closes the running width segment: cancel the in-flight
        # completion/failure event and bank the work done so far.  The new
        # node set arrives in ``allocations`` below and reschedules the
        # remaining fraction at the new width's speed.
        resized = set(decisions.resized)
        for job_id in decisions.resized:
            ev = self._completion_events.pop(job_id, None)
            if ev is None:
                raise SimulationError(
                    f"resized job {job_id!r} has no completion event")
            self._events.cancel(ev)
            seg_start, seg_full = self._segments.pop(job_id)
            self._work_done[job_id] = min(
                1.0, self._work_done.get(job_id, 0.0)
                + (self._now - seg_start) / seg_full)

        for alloc in decisions.allocations:
            job = self.jobs[alloc.job_id]
            actual = job.true_runtime_on(self.cluster, alloc.nodes)
            is_resize = alloc.job_id in resized
            if not is_resize:
                self._work_done[alloc.job_id] = 0.0
            done = self._work_done[alloc.job_id]
            attempt = self._attempts.get(alloc.job_id, 0)
            decision = (self.faults.draw(alloc.job_id, attempt)
                        if self.faults is not None else None)
            if (decision is not None and decision.fails
                    and decision.at_fraction > done):
                # Faults strike at a fixed *work* fraction of the attempt,
                # so the same draw stays consistent across resizes.
                ev = self._events.push(
                    self._now + actual * (decision.at_fraction - done),
                    EventKind.JOB_FAILURE, alloc.job_id)
            else:
                ev = self._events.push(self._now + actual * (1.0 - done),
                                       EventKind.JOB_COMPLETION,
                                       alloc.job_id)
            self._completion_events[alloc.job_id] = ev
            self._segments[alloc.job_id] = (self._now, actual)
            outcome = self.metrics.of(alloc.job_id)
            if is_resize:
                outcome.resizes += 1
            else:
                outcome.start_time = self._now
            outcome.nodes = alloc.nodes
            outcome.preferred_placement = (
                actual <= job.base_runtime_s + 1e-9)
            if self.trace is not None:
                self.trace.record(self._now, RESIZE if is_resize else LAUNCH,
                                  alloc.job_id,
                                  nodes=tuple(sorted(alloc.nodes)),
                                  detail=f"true_runtime={actual:.1f}")

        for job_id in decisions.culled:
            self._unfinalized -= 1
            if self.trace is not None:
                self.trace.record(self._now, CULL, job_id)

        self._profile_cycle(decisions, periodic)
        if periodic and decisions.stats is not None:
            self.latency.record(decisions.stats.cycle_latency_s,
                                decisions.stats.solver_latency_s)

        # Keep cycling while any job is still in flight.
        if periodic and self._unfinalized > 0 and self._now < self.max_time_s:
            self._next_tick = self._now + self.scheduler.cycle_s
            self._events.push(self._next_tick, EventKind.SCHEDULER_CYCLE)

    def _profile_cycle(self, decisions, periodic: bool) -> None:
        """Fold one cycle's decisions into the run profile (cheap, always on)."""
        profile = self.profile
        profile.bump("cycles", periodic)
        stats = decisions.stats
        if stats is not None:
            profile.bump("solver.solves", stats.solves)
            profile.bump("solver.bnb.nodes", stats.solver_nodes)
            profile.bump("solver.lp.iterations", stats.lp_iterations)
            profile.bump("solver.lp.dual_pivots", stats.lp_dual_pivots)
            profile.bump("solver.lp.refactorizations",
                         stats.lp_refactorizations)
            profile.bump("solver.lp.warm_restarts", stats.lp_warm_restarts)
            profile.bump("solver.lp.warm_hits", stats.lp_warm_hits)
            profile.bump("solver.lp.factorizations", stats.lp_factorizations)
            profile.bump("solver.lp.ft_updates", stats.lp_ft_updates)
            profile.bump("solver.lp.pricing_candidates",
                         stats.lp_pricing_candidates)
            profile.maximize("solver.lp.fill_ratio", stats.lp_fill_ratio)
            profile.bump("solver.milp_variables", stats.milp_variables)
            profile.bump("solver.milp_constraints", stats.milp_constraints)
            if stats.warm_start_attempted:
                profile.bump("scheduler.warm_start.attempts")
                profile.bump("scheduler.warm_start.hits",
                             1.0 if stats.warm_start_hit else 0.0)
            profile.bump("scheduler.components", stats.components)
            profile.bump("solver.milp_nonzeros", stats.milp_nonzeros)
            profile.bump("scheduler.cancelled", stats.cancelled)
            profile.bump("scheduler.elastic.offered", stats.elastic_offered)
            profile.bump("scheduler.elastic.resized", stats.elastic_resized)
            profile.bump("scheduler.elastic.grown", stats.elastic_grown)
            profile.bump("scheduler.elastic.shrunk", stats.elastic_shrunk)
            for stage, seconds in stats.stage_timings.items():
                profile.bump(f"scheduler.stage_s.{stage}", seconds)
            if stats.components:
                # A cycle MILP answered without a solver was booked directly.
                profile.bump("scheduler.solve_cycles")
                profile.bump("scheduler.direct_booked",
                             0.0 if stats.solves else 1.0)
        launched = len(decisions.allocations) - len(decisions.resized)
        profile.bump("scheduler.launched", launched)
        profile.bump("scheduler.resized", len(decisions.resized))
        profile.bump("scheduler.culled", len(decisions.culled))
        profile.bump("scheduler.preempted", len(decisions.preempted))
        obs.emit("sim.cycle", now=self._now, cycle=self._cycles,
                 launched=launched, resized=len(decisions.resized),
                 culled=len(decisions.culled),
                 queue_depth=len(self._events),
                 pending=getattr(self.scheduler, "active_jobs", None),
                 unfinalized=self._unfinalized)
