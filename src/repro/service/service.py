"""The long-lived scheduler service core.

TetriSched in the paper is a standing YARN-side daemon: jobs arrive over
an RPC surface, cycles fire on a plan-ahead timer, completions and node
events stream in while the MILP solves (Sec. 3.3).  The repo grew up the
other way around — a library driven synchronously by the simulator — and
this module closes the gap: :class:`SchedulerService` owns a
:class:`~repro.core.scheduler.TetriSched`, a job-lifecycle registry, and
an injectable :class:`~repro.service.clock.Clock`, exposing thread-safe
operations (submit / status / cancel / cluster events / drain) for any
front end.  The asyncio HTTP API (:mod:`repro.service.http`) and the
simulator adapter (:class:`repro.sim.adapters.ServiceAdapter`) are both
thin clients of this one core.

Concurrency model: one lock serializes scheduling cycles and registry
mutation.  ``cancel_job`` is the deliberate exception — cancellation must
land *while a cycle is in flight* without waiting for it, so it records
the request on the scheduler's atomic cancel set and only takes the lock
opportunistically; the cycle's own safe-point drains (see
``TetriSched._drain_cancellations``) guarantee a cancelled job never
leaves an orphaned allocation-ledger entry either way.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import obs
from repro.api import Scheduler
from repro.cluster.cluster import Cluster
from repro.core.queues import PriorityClass
from repro.core.scheduler import (CycleResult, JobRequest, TetriSchedConfig)
from repro.errors import ServiceError
from repro.service.clock import Clock
from repro.strl.generator import SpaceOption
from repro.valuefn import StepValue, best_effort_value

#: Job lifecycle states (terminal: completed / cancelled / culled).
PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
CANCELLED = "cancelled"
CULLED = "culled"

_PRIORITIES = {
    "slo": PriorityClass.SLO_ACCEPTED,
    "slo_no_reservation": PriorityClass.SLO_NO_RESERVATION,
    "best_effort": PriorityClass.BEST_EFFORT,
}


@dataclass
class JobRecord:
    """One submitted job's lifecycle as the service saw it."""

    job_id: str
    state: str
    submitted_at: float
    request: JobRequest
    started_at: float | None = None
    expected_end: float | None = None
    finished_at: float | None = None
    nodes: tuple[str, ...] = ()
    cancel_requested: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id, "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "expected_end": self.expected_end,
            "finished_at": self.finished_at,
            "nodes": sorted(self.nodes),
            "cancel_requested": self.cancel_requested,
        }


class SchedulerService:
    """Thread-safe job lifecycle + cycle driver around a ``TetriSched``.

    With ``auto_complete=True`` (the serving default) jobs finish on their
    own when the service clock passes their expected end — the service is
    self-contained against synthetic workloads.  The simulator adapter
    runs with ``auto_complete=False`` and reports true completions itself
    (runtime mis-estimation experiments need the two times to differ).
    """

    def __init__(self, cluster: Cluster,
                 config: TetriSchedConfig | None = None,
                 clock: Clock | None = None,
                 auto_complete: bool = True,
                 stats_path: str | Path | None = None) -> None:
        self.cluster = cluster
        self.api = Scheduler.open(cluster, config)
        self.scheduler = self.api.core
        self.clock = clock if clock is not None else Clock()
        self.auto_complete = auto_complete
        self.stats_path = Path(stats_path) if stats_path else None
        self._lock = threading.Lock()
        self._jobs: dict[str, JobRecord] = {}
        #: The RUNNING records, so a cycle's auto-completion visits the jobs
        #: that can complete, not every record the service ever took.
        self._running: dict[str, JobRecord] = {}
        self._epoch = self.clock.now()
        self._seq = 0
        self._cycles_run = 0
        self._cycle_failures = 0
        self._accepting = True
        self._drained_stats: dict[str, Any] | None = None

    @property
    def config(self) -> TetriSchedConfig:
        """The scheduler's resolved configuration (defaults applied)."""
        return self.scheduler.config

    # -- time ----------------------------------------------------------------
    def now(self) -> float:
        """Service time: seconds since the service started."""
        return self.clock.now() - self._epoch

    # -- job lifecycle -------------------------------------------------------
    def submit(self, request: JobRequest) -> JobRecord:
        """Register a pre-built :class:`JobRequest` with the scheduler."""
        with self._lock:
            if not self._accepting:
                raise ServiceError("service is draining; not accepting jobs")
            if request.job_id in self._jobs:
                raise ServiceError(
                    f"job {request.job_id!r} already submitted")
            self.scheduler.submit(request)
            rec = JobRecord(request.job_id, PENDING, self.now(), request)
            self._jobs[request.job_id] = rec
            return rec

    def submit_spec(self, spec: dict[str, Any]) -> JobRecord:
        """Build a :class:`JobRequest` from a JSON job spec and submit it.

        Spec shape (see ``docs/service.md``)::

            {"job_id": "j1",              # optional; generated if absent
             "options": [{"k": 2, "duration_s": 20,
                          "attr": "gpu"       # equivalence set by node attr
                          # or "nodes": [...] # or an explicit node list
                          # (neither -> the whole cluster)
                          , "label": "gpu"}],
             "value": 1000.0, "deadline": 120.0,   # deadline optional
             "priority": "slo"}  # slo | slo_no_reservation | best_effort
        """
        if not isinstance(spec, dict):
            raise ServiceError("job spec must be a JSON object")
        job_id = spec.get("job_id")
        if job_id is None:
            with self._lock:
                self._seq += 1
                job_id = f"job-{self._seq}"
        if not isinstance(job_id, str) or not job_id:
            raise ServiceError("job_id must be a non-empty string")

        raw_options = spec.get("options")
        if not isinstance(raw_options, list) or not raw_options:
            raise ServiceError("options must be a non-empty list")
        options: list[SpaceOption] = []
        for i, opt in enumerate(raw_options):
            if not isinstance(opt, dict):
                raise ServiceError(f"options[{i}] must be an object")
            try:
                k = int(opt["k"])
                duration_s = float(opt["duration_s"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ServiceError(
                    f"options[{i}] needs integer 'k' and numeric "
                    f"'duration_s'") from exc
            if "nodes" in opt:
                nodes = frozenset(str(n) for n in opt["nodes"])
                unknown = nodes - self.cluster.node_names
                if unknown:
                    raise ServiceError(
                        f"options[{i}] names unknown nodes "
                        f"{sorted(unknown)[:4]}")
            elif "attr" in opt:
                nodes = self.cluster.nodes_with_attr(str(opt["attr"]))
                if not nodes:
                    raise ServiceError(
                        f"options[{i}]: no node has attr {opt['attr']!r}")
            else:
                nodes = self.cluster.node_names
            options.append(SpaceOption(nodes, k=k, duration_s=duration_s,
                                       label=str(opt.get("label", ""))))

        priority_name = str(spec.get("priority", "slo"))
        try:
            priority = _PRIORITIES[priority_name]
        except KeyError:
            raise ServiceError(
                f"unknown priority {priority_name!r}; expected one of "
                f"{sorted(_PRIORITIES)}") from None
        deadline = spec.get("deadline")
        deadline = None if deadline is None else float(deadline)
        now = self.now()
        if priority is PriorityClass.BEST_EFFORT:
            value_fn = best_effort_value(release_time=now)
        else:
            if deadline is None:
                raise ServiceError("SLO jobs need a 'deadline'")
            value_fn = StepValue(float(spec.get("value", 1000.0)), deadline)
        return self.submit(JobRequest(
            job_id=job_id, options=tuple(options), value_fn=value_fn,
            priority=priority, submit_time=now, deadline=deadline))

    def cancel(self, job_id: str) -> JobRecord:
        """Request cancellation; effective at the scheduler's next safe point.

        Never blocks on an in-flight cycle (see the module docstring): the
        request lands on the scheduler's atomic cancel set immediately, and
        the registry is reconciled either here (lock free right now) or by
        the cycle that drains the cancellation.
        """
        rec = self._jobs.get(job_id)
        if rec is None:
            raise ServiceError(f"unknown job {job_id!r}")
        if rec.state in (COMPLETED, CANCELLED, CULLED):
            return rec
        rec.cancel_requested = True
        self.scheduler.cancel(job_id)
        if self._lock.acquire(blocking=False):
            try:
                self._finish_cancelled(self.scheduler._drain_cancellations())
            finally:
                self._lock.release()
        return rec

    def job(self, job_id: str) -> JobRecord:
        rec = self._jobs.get(job_id)
        if rec is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return rec

    def jobs(self) -> list[JobRecord]:
        return list(self._jobs.values())

    def complete(self, job_id: str) -> JobRecord:
        """Report that a running job actually finished (external executor)."""
        with self._lock:
            rec = self.job(job_id)
            if rec.state != RUNNING:
                raise ServiceError(
                    f"job {job_id!r} is {rec.state}, not running")
            self.scheduler.on_job_finished(job_id, self.now())
            self._move(rec, COMPLETED)
            rec.finished_at = self.now()
            return rec

    # -- cluster events ------------------------------------------------------
    def cluster_event(self, action: str, node: str) -> dict[str, Any]:
        """Apply a node add/remove event to the scheduler's cluster view."""
        with self._lock:
            if action in ("remove", "drain"):
                self.scheduler.state.drain(node)
            elif action in ("add", "restore"):
                self.scheduler.state.restore(node)
            else:
                raise ServiceError(
                    f"unknown cluster event action {action!r}; expected "
                    f"add/restore or remove/drain")
            return {"node": node, "action": action,
                    "drained": sorted(self.scheduler.state.drained_nodes)}

    # -- cycles --------------------------------------------------------------
    def run_one_cycle(self, arrival: bool = False) -> CycleResult:
        """One scheduling cycle (off-period if ``arrival``) at service time."""
        with self._lock:
            now = self.now()
            if self.auto_complete:
                for rec in [rec for rec in self._running.values()
                            if rec.expected_end is not None
                            and rec.expected_end <= now + 1e-9]:
                    self.scheduler.on_job_finished(rec.job_id, now)
                    self._move(rec, COMPLETED)
                    rec.finished_at = now
            result = self.scheduler.run_cycle(now, arrival=arrival)
            for alloc in result.allocations:
                rec = self._jobs.get(alloc.job_id)
                if rec is not None:
                    self._move(rec, RUNNING)
                    rec.started_at = alloc.start_time
                    rec.expected_end = alloc.expected_end
                    rec.nodes = tuple(sorted(alloc.nodes))
            for job_id in result.preempted:
                # Killed by the preemption extension and re-queued by the
                # scheduler: back to pending, nodes released.
                rec = self._jobs.get(job_id)
                if rec is not None and rec.state == RUNNING:
                    self._move(rec, PENDING)
                    rec.started_at = None
                    rec.expected_end = None
                    rec.nodes = ()
            for job_id in result.culled:
                rec = self._jobs.get(job_id)
                if rec is not None and rec.state == PENDING:
                    self._move(rec, CULLED)
                    rec.finished_at = now
            self._finish_cancelled(result.cancelled)
            self._cycles_run += 1
            return result

    def cycle_failed(self, cycle: str, exc: Exception) -> None:
        """A ``"timer"`` / ``"arrival"`` cycle raised; its driver goes on."""
        self._cycle_failures += 1
        obs.emit("service.cycle_failed", cycle=cycle, error=repr(exc))

    def _move(self, rec: JobRecord, state: str) -> None:
        """Set ``rec.state``, keeping the RUNNING index in step."""
        rec.state = state
        if state == RUNNING:
            self._running[rec.job_id] = rec
        else:
            self._running.pop(rec.job_id, None)

    def _finish_cancelled(self, job_ids: list[str]) -> None:
        for job_id in job_ids:
            rec = self._jobs.get(job_id)
            if rec is not None and rec.state in (PENDING, RUNNING):
                self._move(rec, CANCELLED)
                rec.finished_at = self.now()

    # -- introspection -------------------------------------------------------
    def status(self) -> dict[str, Any]:
        sched = self.scheduler
        by_state: dict[str, int] = {}
        for rec in self._jobs.values():
            by_state[rec.state] = by_state.get(rec.state, 0) + 1
        return {
            "accepting": self._accepting,
            "now": self.now(),
            "cycles_run": self._cycles_run,
            "cycle_failures": self._cycle_failures,
            "jobs": by_state,
            "pending": sched.pending_count,
            "utilization": sched.state.utilization(),
            "drained_nodes": sorted(sched.state.drained_nodes),
        }

    def cycles(self, limit: int = 20) -> list[dict[str, Any]]:
        """The most recent cycles' stats records, oldest first."""
        history = self.scheduler.cycle_history
        return [dict(vars(stats))
                for stats in history[max(0, len(history) - limit):]]

    # -- drain ---------------------------------------------------------------
    def drain(self) -> dict[str, Any]:
        """Graceful shutdown: stop accepting, settle, persist final stats.

        Leaves running jobs to their executors (this is a scheduler drain,
        not a cluster teardown) but verifies the allocation ledger has no
        orphans before declaring the shutdown clean.  Idempotent.
        """
        from repro.verify.audit import check_ledger_orphans

        with self._lock:
            if self._drained_stats is not None:
                return self._drained_stats
            self._accepting = False
            self._finish_cancelled(self.scheduler._drain_cancellations())
            orphans = check_ledger_orphans(self.scheduler.state,
                                           self.scheduler._launched)
            final = {
                "status": self.status(),
                "jobs": [rec.to_dict() for rec in self._jobs.values()],
                "cycles": self.cycles(limit=len(
                    self.scheduler.cycle_history)),
                "ledger_orphans": [str(v) for v in orphans],
                "clean": not orphans,
            }
            if self.stats_path is not None:
                self.stats_path.parent.mkdir(parents=True, exist_ok=True)
                self.stats_path.write_text(json.dumps(final, indent=2,
                                                      default=str))
            self._drained_stats = final
            self.api.close()
            return final


async def run_cycle_loop(service: SchedulerService,
                         stop: asyncio.Event,
                         cycle_s: float | None = None) -> int:
    """Fire scheduling cycles on the plan-ahead timer until ``stop`` is set.

    Cycles run in a worker thread (they hold the service lock and can
    solve MILPs for a while); the event loop stays free to serve HTTP and
    accept cancellations mid-solve.  A cycle that raises is recorded and
    the timer carries on.  Returns the number of cycles run.
    """
    period = (cycle_s if cycle_s is not None
              else service.scheduler.config.cycle_s)
    loop = asyncio.get_running_loop()
    ran = 0
    stopper = asyncio.ensure_future(stop.wait())
    try:
        while not stop.is_set():
            sleeper = asyncio.ensure_future(service.clock.sleep(period))
            await asyncio.wait({sleeper, stopper},
                               return_when=asyncio.FIRST_COMPLETED)
            if stop.is_set():
                sleeper.cancel()
                break
            try:
                await loop.run_in_executor(None, service.run_one_cycle)
            except Exception as exc:
                service.cycle_failed("timer", exc)
            ran += 1
    finally:
        stopper.cancel()
    return ran


__all__ = ["CANCELLED", "COMPLETED", "CULLED", "JobRecord", "PENDING",
           "RUNNING", "SchedulerService", "run_cycle_loop"]
