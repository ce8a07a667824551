"""The benchmark's workloads: what runs, how it is timed, how it is checked.

Every workload drives the stack through its public entry points only.  The
scheduler sees nothing but the generated job list; timings are taken by
proxies that sit *outside* the program (around ``scheduler.cycle`` and
``rayon.submit`` for the simulated workloads, around ``run_one_cycle`` and
the HTTP round trip for the service), so the untraced run measures the code
exactly as a user runs it.

Sizes are rates: the jobs per second of measured phase that fill
``run_seconds`` (``BENCHMARK.json``) on the 2-core reference box.
``--seconds`` scales the job count linearly, so one (seed, seconds) pair
always names one input.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.api import Scheduler
from repro.cluster.cluster import Cluster
from repro.core.queues import PriorityClass
from repro.core.scheduler import JobRequest, TetriSchedConfig
from repro.pipeline.stages import StageName
from repro.reservation.rayon import RayonReservationSystem
from repro.service.http import serve
from repro.service.service import (COMPLETED, CULLED, PENDING, RUNNING,
                                   SchedulerService)
from repro.sim.adapters import TetriSchedAdapter
from repro.sim.engine import Simulation
from repro.strl.generator import SpaceOption
from repro.valuefn import best_effort_value
from repro.workloads import COMPOSITIONS, GridmixConfig, generate_workload

from bench.trace import Tracer, maybe_span

#: Optimality gap of every workload's MILP solves.  No solver time limit is
#: set, so a schedule depends on the inputs alone and repeats bit for bit.
REL_GAP = 0.02


@dataclass
class Outcome:
    """What one measured phase produced, before it is turned into metrics."""

    #: Latency of every non-empty scheduling cycle, milliseconds.
    cycle_ms: list[float]
    attempted: int
    failed: int
    #: Post-run output checks that did not hold (empty = correct).
    problems: list[str]
    #: End-to-end values that are specific to the workload kind.
    e2e: dict[str, float]
    #: Per-layer counts read from the program's public records.
    counts: dict[str, float]
    #: Values that depend on the inputs alone (equal across repeats).
    reference: dict[str, float] = field(default_factory=dict)


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def warm_solver() -> None:
    """One throw-away cycle on a toy cluster, so HiGHS is loaded before timing."""
    with Scheduler.open("1x4", TetriSchedConfig.partial(rel_gap=REL_GAP)) as api:
        api.submit(JobRequest(
            job_id="warm", options=(SpaceOption(api.cluster.node_names, k=2,
                                                duration_s=8.0),),
            value_fn=best_effort_value(release_time=0.0),
            priority=PriorityClass.BEST_EFFORT, submit_time=0.0))
        api.run_cycle()


def _is_non_empty(stats) -> bool:
    """A cycle that had at least one job to plan got as far as compiling."""
    return StageName.COMPILE in stats.stage_timings


def _cycle_failed(stats, latency_s: float, period_s: float) -> bool:
    """Non-empty cycle without a solution, or any cycle longer than its period."""
    unsolved = (_is_non_empty(stats)
                and StageName.EXTRACT not in stats.stage_timings)
    return unsolved or latency_s > period_s


def _double_booked(intervals: list[tuple[str, float, float, frozenset]]
                   ) -> list[str]:
    """Nodes that hold two jobs over overlapping ``[start, finish)``."""
    by_node: dict[str, list[tuple[float, float, str]]] = {}
    for job_id, start, finish, nodes in intervals:
        for node in nodes:
            by_node.setdefault(node, []).append((start, finish, job_id))
    bad = []
    for node, spans in by_node.items():
        spans.sort()
        for (_, fin_a, job_a), (start_b, _, job_b) in zip(spans, spans[1:]):
            if start_b < fin_a - 1e-9:
                bad.append(f"node {node} double-booked: {job_a} / {job_b}")
    return bad


def _fold_cycles(samples: list[tuple[float, object]], period_s: float
                 ) -> tuple[list[float], int, dict[str, float]]:
    """(non-empty cycle latencies in ms, failed cycles, per-layer counts).

    ``samples`` holds (latency seconds, ``CycleStats``) per cycle; the counts
    are the ones every workload reads from ``CycleStats``.
    """
    all_stats = [stats for _, stats in samples]
    busy = [(latency_s, stats) for latency_s, stats in samples
            if _is_non_empty(stats)]
    # Queue depth a cycle started with: what is left plus what it launched.
    pending = [stats.pending + stats.launched for _, stats in busy]
    counts = {
        "core.scheduler.cycles": len(all_stats),
        "core.scheduler.pending_mean": (float(np.mean(pending))
                                        if pending else 0.0),
        "core.scheduler.pending_max": max(pending, default=0),
        "core.compiler.variables": sum(s.milp_variables for s in all_stats),
        "core.compiler.constraints": sum(s.milp_constraints for s in all_stats),
        "solver.model.nnz": sum(s.milp_nonzeros for s in all_stats),
        "solver.decompose.components": sum(s.components for s in all_stats),
        "solver.bnb_nodes": sum(s.solver_nodes for s in all_stats),
        "core.allocation.placements": sum(s.launched for s in all_stats),
        "strl.culled": sum(s.culled for s in all_stats),
    }
    failed = sum(_cycle_failed(stats, latency_s, period_s)
                 for latency_s, stats in samples)
    return [latency_s * 1e3 for latency_s, _ in busy], failed, counts


# -- simulated workloads -------------------------------------------------------

class TimedScheduler:
    """``ClusterScheduler`` proxy: times every call into the stack from outside."""

    def __init__(self, inner: TetriSchedAdapter) -> None:
        self.inner = inner
        self.name = inner.name
        self.cycle_s = inner.cycle_s
        self.submit_s: dict[str, float] = {}
        #: (simulated now, latency seconds, decisions) per cycle.
        self.cycles: list[tuple[float, float, object]] = []

    def submit(self, job, accepted: bool, now: float) -> None:
        t0 = time.perf_counter()
        self.inner.submit(job, accepted, now)
        self.submit_s[job.job_id] = time.perf_counter() - t0

    def cycle(self, now: float):
        t0 = time.perf_counter()
        decisions = self.inner.cycle(now)
        self.cycles.append((now, time.perf_counter() - t0, decisions))
        return decisions

    def job_finished(self, job_id: str, now: float) -> None:
        self.inner.job_finished(job_id, now)

    @property
    def active_jobs(self) -> int:
        return self.inner.active_jobs


class TimedRayon(RayonReservationSystem):
    """Rayon with its admission call timed from outside."""

    def __init__(self, capacity: int, step_s: float) -> None:
        super().__init__(capacity=capacity, step_s=step_s)
        self.admit_s: dict[str, float] = {}

    def submit(self, job_id: str, **kwargs):
        t0 = time.perf_counter()
        decision = super().submit(job_id, **kwargs)
        self.admit_s[job_id] = time.perf_counter() - t0
        return decision


#: Simulated seconds between bursts: longer than any burst takes to drain.
BURST_GAP_S = 800.0


def _in_bursts(jobs: list, burst_jobs: int) -> list:
    """Re-time generated jobs so they arrive ``burst_jobs`` at a time."""
    out = []
    for i, job in enumerate(jobs):
        burst = i // burst_jobs
        shift = burst * BURST_GAP_S - jobs[burst * burst_jobs].submit_time
        out.append(replace(
            job, submit_time=job.submit_time + shift,
            deadline=None if job.deadline is None else job.deadline + shift))
    return out


@dataclass(frozen=True)
class SimWorkload:
    """``Simulation`` of Rayon + ``TetriSchedAdapter`` replaying a Table 1 mix."""

    name: str
    composition: str
    racks: int
    nodes_per_rack: int
    gpu_racks: int
    #: Jobs per second of measured phase (``num_jobs = this * seconds``).
    jobs_per_second: float
    target_utilization: float
    estimate_error: float
    #: Jobs per burst; 0 keeps the generator's own paced arrivals.  With
    #: bursts, the generated jobs are re-timed to arrive ``burst_jobs`` at a
    #: time, ``BURST_GAP_S`` apart, so the queue depth follows the same
    #: sawtooth on every seed instead of a random walk.
    burst_jobs: int = 0

    def params(self, seconds: float, smoke: bool) -> dict:
        out = asdict(self)
        if smoke:
            out.update(racks=2, nodes_per_rack=8,
                       gpu_racks=min(self.gpu_racks, 1), burst_jobs=0)
        out["num_jobs"] = 24 if smoke else max(
            24, round(self.jobs_per_second * seconds))
        if out["burst_jobs"]:
            out["num_jobs"] = out["burst_jobs"] * max(
                1, round(out["num_jobs"] / out["burst_jobs"]))
        out.update(quantum_s=4.0, cycle_s=4.0, plan_ahead_s=96.0,
                   rel_gap=REL_GAP, backend="auto")
        return out

    def setup(self, seed: int, seconds: float, smoke: bool, audit: bool,
              tracer: Tracer | None) -> Simulation:
        p = self.params(seconds, smoke)
        cluster = Cluster.build(racks=p["racks"],
                                nodes_per_rack=p["nodes_per_rack"],
                                gpu_racks=p["gpu_racks"])
        with maybe_span(tracer, "workloads.generate_workload"):
            jobs = generate_workload(
                COMPOSITIONS[self.composition], cluster,
                GridmixConfig(num_jobs=p["num_jobs"],
                              target_utilization=self.target_utilization,
                              estimate_error=self.estimate_error, seed=seed))
        if p["burst_jobs"]:
            jobs = _in_bursts(jobs, p["burst_jobs"])
        scheduler = TimedScheduler(TetriSchedAdapter(
            cluster, TetriSchedConfig.partial(rel_gap=REL_GAP,
                                              audit_mode=audit)))
        rayon = TimedRayon(capacity=len(cluster), step_s=scheduler.cycle_s)
        warm_solver()
        return Simulation(cluster, scheduler, jobs, rayon=rayon)

    def measure(self, sim: Simulation, tracer: Tracer | None) -> Outcome:
        scheduler: TimedScheduler = sim.scheduler
        t0 = time.perf_counter()
        with maybe_span(tracer, "sim.run"):
            result = sim.run()
        wall_s = time.perf_counter() - t0

        cycle_ms, failed, counts = _fold_cycles(
            [(latency_s, decisions.stats)
             for _, latency_s, decisions in scheduler.cycles],
            scheduler.cycle_s)
        culled: set[str] = set()
        placed_ms: list[float] = []
        for _now, latency_s, decisions in scheduler.cycles:
            culled.update(decisions.culled)
            for alloc in decisions.allocations:
                job = sim.jobs[alloc.job_id]
                placed_ms.append((alloc.start_time - job.submit_time
                                  + latency_s) * 1e3)

        outcomes = result.outcomes
        problems = [f"job {job_id} neither completed nor culled"
                    for job_id, o in outcomes.items()
                    if not o.completed and job_id not in culled]
        problems += [f"job {job_id} never reached the simulator's records"
                     for job_id in sim.jobs if job_id not in outcomes]
        problems += _double_booked(
            [(job_id, o.start_time, o.finish_time, o.nodes)
             for job_id, o in outcomes.items() if o.completed])

        ack_ms = [(scheduler.submit_s[job_id]
                   + sim.rayon.admit_s.get(job_id, 0.0)) * 1e3
                  for job_id in scheduler.submit_s]
        report = result.metrics
        counts.update({
            "sim.run_wall_s": wall_s,
            "sim.events": sum(v for k, v in result.profile.counters.items()
                              if k.startswith("sim.events.")),
            "reservation.admit_calls": len(sim.rayon.admit_s),
            "reservation.rejected": sum(o.is_slo and not o.accepted
                                        for o in outcomes.values()),
        })
        return Outcome(
            cycle_ms=cycle_ms, attempted=len(scheduler.cycles),
            failed=failed + len(problems), problems=problems,
            e2e={"submit_ack_p50_ms": percentile(ack_ms, 50),
                 "placement_p50_ms": percentile(placed_ms, 50),
                 "slo_attainment_pct": report.slo_total_pct,
                 "be_latency_mean_s": report.mean_be_latency_s},
            counts=counts,
            reference={"launched": counts["core.allocation.placements"],
                       "slo_attainment_pct": report.slo_total_pct,
                       "be_latency_mean_s": report.mean_be_latency_s,
                       "objective_sum": sum(
                           decisions.stats.objective
                           for _, _, decisions in scheduler.cycles)})


# -- the service workload ------------------------------------------------------

@dataclass
class ServiceRun:
    """A constructed service plus the open-loop schedule to fire at it."""

    service: SchedulerService
    #: (seconds after the start the request is due, job spec) in due order;
    #: a spec's ``deadline`` is relative to its due time until it is sent.
    schedule: list[tuple[float, dict]]
    settle_s: float


async def _http(port: int, method: str, path: str, payload: dict
                ) -> tuple[int, dict]:
    """One request on its own connection (the server closes after replying)."""
    body = json.dumps(payload).encode()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                     f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, content = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(content)


@dataclass(frozen=True)
class ServiceWorkload:
    """HTTP service on a real clock, one open-loop client, time scaled 1/8."""

    name: str
    racks: int
    nodes_per_rack: int
    gpu_racks: int
    #: ``POST /jobs`` per second, sent on schedule whatever the replies do.
    rate_per_s: float
    #: Quiet time after the last request, so queued jobs get placed.
    settle_s: float
    #: 1/8 of the paper's 4 s quantum and cycle; the window is still 24
    #: quanta.  A finer scale would fit more cycles in a run, but a cycle
    #: that outlasts its period is a failed operation, and on a box whose
    #: host steals CPU a 250 ms period is overrun where 500 ms is not.
    cycle_s: float = 0.5
    plan_ahead_s: float = 12.0
    #: Job runtimes, uniform, in real seconds (6 to 26 s of paper time).
    min_duration_s: float = 0.8
    max_duration_s: float = 3.2
    gpu_fraction: float = 0.35
    slo_fraction: float = 0.70

    def params(self, seconds: float, smoke: bool) -> dict:
        out = asdict(self)
        if smoke:
            out.update(racks=2, nodes_per_rack=8, gpu_racks=1, rate_per_s=1.5,
                       settle_s=1.5)
        out["open_loop_s"] = max(1.0, seconds - out["settle_s"])
        out.update(quantum_s=self.cycle_s, rel_gap=REL_GAP, backend="auto",
                   clients=1, loop="open")
        return out

    def setup(self, seed: int, seconds: float, smoke: bool, audit: bool,
              tracer: Tracer | None) -> ServiceRun:
        p = self.params(seconds, smoke)
        cluster = Cluster.build(racks=p["racks"],
                                nodes_per_rack=p["nodes_per_rack"],
                                gpu_racks=p["gpu_racks"])
        rng = random.Random(seed)
        schedule: list[tuple[float, dict]] = []
        # A constant-rate schedule (the seed draws its phase and every job's
        # shape): each cycle then meets about the same number of new jobs,
        # where Poisson gaps made the median cycle depend on the seed's
        # clumps more than on the code.
        gap = 1.0 / p["rate_per_s"]
        due = rng.uniform(0.0, gap) - gap
        with maybe_span(tracer, "workloads.generate_workload"):
            while True:
                due += gap
                if due >= p["open_loop_s"]:
                    break
                k = rng.randint(2, 6)
                duration = rng.uniform(self.min_duration_s,
                                       self.max_duration_s)
                options = [{"k": k, "duration_s": duration}]
                if rng.random() < self.gpu_fraction:
                    options = [{"k": k, "duration_s": duration, "attr": "gpu",
                                "label": "gpu"},
                               {"k": k, "duration_s": 1.5 * duration,
                                "label": "fallback"}]
                spec = {"job_id": f"j{len(schedule)}", "options": options,
                        "priority": "best_effort"}
                if rng.random() < self.slo_fraction:
                    spec.update(priority="slo", deadline=rng.uniform(
                        2.2, 3.5) * duration)
                schedule.append((due, spec))
        service = SchedulerService(cluster, TetriSchedConfig.partial(
            quantum_s=self.cycle_s, cycle_s=self.cycle_s,
            plan_ahead_s=self.plan_ahead_s, rel_gap=REL_GAP,
            audit_mode=audit))
        warm_solver()
        return ServiceRun(service, schedule, p["settle_s"])

    def measure(self, run: ServiceRun, tracer: Tracer | None) -> Outcome:
        return asyncio.run(self._drive(run))

    async def _drive(self, run: ServiceRun) -> Outcome:
        service = run.service
        #: (service now, latency seconds, CycleResult or the exception).
        cycles: list[tuple[float, float, object]] = []

        def timed_cycle():
            # Looked up on the class at call time, so the traced run's
            # wrapper is the one that gets timed.
            t0 = time.perf_counter()
            try:
                result = SchedulerService.run_one_cycle(service)
            except Exception as exc:
                cycles.append((service.now(), time.perf_counter() - t0, exc))
                raise
            cycles.append((result.stats.now, time.perf_counter() - t0, result))
            return result

        service.run_one_cycle = timed_cycle
        server = await serve(service)
        try:
            start = time.monotonic()
            base = service.now()
            #: (job id, due, late, ack, http status) per request, seconds.
            sent: list[tuple[str, float, float, float, int]] = []
            for due, spec in run.schedule:
                delay = start + due - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                late = time.monotonic() - start - due
                if "deadline" in spec:
                    spec = dict(spec, deadline=base + due + spec["deadline"])
                status, _ = await _http(server.port, "POST", "/jobs", spec)
                sent.append((spec["job_id"], due, late,
                             time.monotonic() - start - due, status))
            await asyncio.sleep(run.settle_s)
            status, final = await _http(server.port, "POST", "/drain", {})
            await server.wait_drained()
        except BaseException:
            await server.drain()  # stop the cycle timer and the listener
            raise

        latency_at = {now: latency for now, latency, _ in cycles}
        spec_of = {spec["job_id"]: spec for _, spec in run.schedule}
        records = {rec["job_id"]: rec for rec in final["jobs"]}
        raised = sum(isinstance(result, Exception) for _, _, result in cycles)
        cycle_ms, failed_cycles, counts = _fold_cycles(
            [(latency_s, result.stats) for _, latency_s, result in cycles
             if not isinstance(result, Exception)], self.cycle_s)
        failed_cycles += raised

        failed_requests = 0
        placed_ms, be_latency, slo_met, slo_total = [], [], 0, 0
        for job_id, due, _late, _ack, http_status in sent:
            rec = records.get(job_id)
            if not 200 <= http_status < 300 or rec is None \
                    or rec["state"] == PENDING:
                failed_requests += 1
                continue
            is_slo = spec_of[job_id]["priority"] == "slo"
            slo_total += is_slo
            if rec["state"] not in (RUNNING, COMPLETED):
                continue  # culled: an SLO miss, never placed
            placed_ms.append((rec["started_at"] - (base + due)
                              + latency_at.get(rec["started_at"], 0.0)) * 1e3)
            if is_slo:
                slo_met += (rec["expected_end"] <= base + due
                            + spec_of[job_id]["deadline"] + 1e-9)
            else:
                be_latency.append(rec["expected_end"] - rec["submitted_at"])

        problems = _double_booked(
            [(rec["job_id"], rec["started_at"], rec["expected_end"],
              frozenset(rec["nodes"]))
             for rec in records.values()
             if rec["state"] in (RUNNING, COMPLETED)])
        if status != 200 or not final["clean"]:
            problems.append(f"drain not clean: HTTP {status}, "
                            f"orphans {final.get('ledger_orphans')}")
        problems += [f"job {rec['job_id']} in unexpected state {rec['state']}"
                     for rec in records.values()
                     if rec["state"] not in (PENDING, RUNNING, COMPLETED,
                                             CULLED)]

        ack_ms = [ack * 1e3 for _, _, _, ack, _ in sent]
        counts.update({
            "service.submit_calls": len(sent),
            "service.submit_p95_ms": percentile(ack_ms, 95),
            "service.placement_p90_ms": percentile(placed_ms, 90),
            "service.generator_late_max_ms": max(
                (late for _, _, late, _, _ in sent), default=0.0) * 1e3,
        })
        return Outcome(
            cycle_ms=cycle_ms, attempted=len(cycles) + len(sent),
            failed=failed_cycles + failed_requests + len(problems),
            problems=problems,
            e2e={"submit_ack_p50_ms": percentile(ack_ms, 50),
                 "placement_p50_ms": percentile(placed_ms, 50),
                 "slo_attainment_pct": (100.0 * slo_met / slo_total
                                        if slo_total else 0.0),
                 "be_latency_mean_s": (float(np.mean(be_latency))
                                       if be_latency else 0.0)},
            counts=counts)


#: Why each workload was chosen is recorded beside its name in
#: ``BENCHMARK.json`` and at length in ``bench/README.md``.
WORKLOADS = {w.name: w for w in (
    SimWorkload(
        name="rc256-grmix-backlog",
        composition="GR MIX", racks=8, nodes_per_rack=32, gpu_racks=0,
        jobs_per_second=45.5, target_utilization=50.0, estimate_error=-0.5,
        burst_jobs=130),
    SimWorkload(
        name="rc256-grmix-steady",
        composition="GR MIX", racks=8, nodes_per_rack=32, gpu_racks=0,
        jobs_per_second=150.0, target_utilization=0.8, estimate_error=-0.5),
    SimWorkload(
        name="rc80-gshet-solve",
        composition="GS HET", racks=4, nodes_per_rack=20, gpu_racks=2,
        jobs_per_second=30.0, target_utilization=0.7, estimate_error=0.0),
    ServiceWorkload(
        name="rc80-service-openloop",
        racks=4, nodes_per_rack=20, gpu_racks=2, rate_per_s=4.5,
        settle_s=2.0),
)}
