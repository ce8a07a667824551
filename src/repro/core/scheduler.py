"""The TetriSched scheduler core (Sec. 3).

On each scheduling cycle TetriSched:

1. generates a STRL expression per pending job, replicating placement
   options over the plan-ahead window and culling valueless options;
2. aggregates them under the top-level SUM (global scheduling) and compiles
   to a MILP (Algorithm 1), with supply drawn from its space-time view of
   cluster availability;
3. solves the MILP (optionally warm-started from the previous cycle's
   solution shifted forward in time, Sec. 3.2.2) — after splitting it into
   independent connected components that solve as separate, smaller
   branch-and-bound problems (:mod:`repro.solver.decompose`);
4. extracts and launches only the placements scheduled to start *now*;
   everything else is reconsidered from scratch next cycle — this is the
   adaptive re-planning that makes TetriSched robust to mis-estimates and
   new arrivals (Sec. 2.3.3).

The cycle itself is an explicit staged pipeline (:mod:`repro.pipeline`):
``StrlGeneration -> Compilation -> ModelBuild -> Decompose -> Solve ->
Extract``; :meth:`TetriSched.run_cycle` is a thin driver around it that
owns queue/state bookkeeping and the per-cycle stats record.

The ablation configurations of Table 2 are expressed as config flags:

* ``global_scheduling=False`` -> TetriSched-NG: jobs are solved one at a
  time in priority-queue order, each seeing the tentative plan of its
  predecessors;
* ``heterogeneity_aware=False`` -> TetriSched-NH: placement preferences are
  collapsed to a whole-cluster equivalence set with the conservative
  (slowed-down) runtime estimate;
* ``plan_ahead_s=0`` -> TetriSched-NP (alsched): jobs may only start now.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.cluster.cluster import Cluster
from repro.cluster.state import ClusterState
from repro.core.allocation import Allocation, PlanAccumulator
from repro.core.compiler import CompiledBatch, StrlCompiler
from repro.core.queues import PriorityClass, PriorityQueues
from repro.errors import SchedulerError
from repro.pipeline.context import CycleContext
from repro.pipeline.driver import global_pipeline, greedy_pipeline
from repro.solver.backend import make_backend
from repro.solver.options import UNSET, SolveOptions, is_set
from repro.strl.ast import Max, NCk, StrlNode
from repro.strl.generator import (DEFAULT_EARLINESS_BIAS, SpaceOption,
                                  generate_elastic_strl, generate_job_strl,
                                  quantize_duration)
from repro.valuefn import ValueFunction

#: Burst guard: an arrival less than this fraction of ``cycle_s`` after the
#: one before it is left to the periodic cycle.  125 ms at 4 s, a decade from
#: a burst's ~12 ms gaps and a steady ~730 ms (``docs/architecture.md`` §5).
ARRIVAL_BURST_FRACTION = 1 / 32


@dataclass(frozen=True)
class JobRequest:
    """A pending job as seen by the scheduler.

    ``options`` carry *estimated* durations (possibly mis-estimated); the
    simulator computes true runtimes separately.  ``deadline`` is used for
    option culling; ``priority`` orders the greedy policy's queues.
    """

    job_id: str
    options: tuple[SpaceOption, ...]
    value_fn: ValueFunction
    priority: PriorityClass
    submit_time: float
    deadline: float | None = None
    #: Malleable gang: ``options`` form a width ladder (one option per
    #: admissible gang width over one equivalence set, narrower widths
    #: carrying longer durations).  With ``config.elastic_mode`` the job
    #: compiles to an :class:`~repro.strl.ast.ElasticNCk` per start and,
    #: once running, re-enters every cycle with grow/shrink/keep options
    #: (per-cycle width re-planning).  Without it the ladder is still
    #: schedulable — the solver picks one width at admission and the job
    #: stays rigid.
    elastic: bool = False

    def __post_init__(self) -> None:
        if not self.options:
            raise SchedulerError(f"job {self.job_id!r} has no placement options")


@dataclass
class TetriSchedConfig:
    """Tunable parameters (defaults follow the paper where it states them)."""

    #: Time quantum used to discretize the plan-ahead window.
    quantum_s: float = 4.0
    #: Scheduling cycle period ("TetriSched cycle period is set to 4s").
    cycle_s: float = 4.0
    #: Plan-ahead window in seconds (Fig. 11 sweeps 0..144).
    plan_ahead_s: float = 96.0
    #: Global (MILP over all pending jobs) vs greedy one-at-a-time (-NG).
    global_scheduling: bool = True
    #: Soft-constraint awareness (-NH when False).
    heterogeneity_aware: bool = True
    #: Deadline/zero-value culling of options and jobs.
    cull: bool = True
    #: Solver backend name (see repro.solver.backend.make_backend).  The
    #: default honors the ``REPRO_BACKEND`` environment variable so test
    #: matrices (CI) can pin ``pure`` vs ``scipy`` without code changes.
    backend: str = field(
        default_factory=lambda: os.environ.get("REPRO_BACKEND", "auto"))
    #: Relative optimality gap ("within 10% of the optimal" in the paper).
    rel_gap: float = 0.01
    #: Wall-clock budget per solve, seconds (None = unlimited).
    solver_time_limit: float | None = None
    #: Seed each solve with the previous cycle's shifted solution.
    warm_start: bool = True
    #: Split the cycle MILP into independent connected components and solve
    #: each as its own (much smaller) branch-and-bound problem.  Schedule-
    #: preserving: the recombined optimum equals the monolithic one.
    decomposition: bool = True
    #: EXTENSION (paper future work, Sec. 7.2): let the MILP preempt
    #: running best-effort jobs when the freed nodes buy more SLO value
    #: than the preemption penalty costs.
    enable_preemption: bool = False
    #: Objective penalty per preemption (in value units; keep above the
    #: best-effort base value so kills only happen for SLO-value gains).
    preemption_penalty: float = 5.0
    #: EXTENSION: per-cycle width re-planning for malleable gangs
    #: (``JobRequest.elastic``).  Pending elastic jobs compile to
    #: :class:`~repro.strl.ast.ElasticNCk` width ladders; *running* elastic
    #: jobs re-enter every global cycle with supply-neutral keep,
    #: quanta-releasing shrink, and penalty-charged grow options, letting
    #: the MILP trade a running gang's width against everything else it
    #: could do with those nodes.  Requires ``global_scheduling``.
    elastic_mode: bool = False
    #: Objective penalty per grow reconfiguration (analogous to
    #: ``preemption_penalty``): widening a running gang forces a restart /
    #: data reshuffle, so grow options pay this much value up front.
    #: Shrinks are free — they only release quanta back to the ledger.
    reconfig_penalty: float = 1.0
    #: DRESS-style congestion guard: when pending min-width demand exceeds
    #: ``threshold * free_nodes``, elastic jobs are capped to a fair-share
    #: max width at admission and running gangs are denied grow options
    #: until the backlog drains.  ``1.0`` engages the guard exactly at
    #: oversubscription; larger values tolerate deeper backlogs.  The
    #: default tolerates transient spikes (plan-ahead can often absorb
    #: them without narrowing anyone) yet still trips whenever free
    #: capacity is nearly exhausted, which is when capping width — and
    #: offering shrinks — actually pays.
    elastic_congestion_threshold: float = 4.0
    #: Deadline slack granted to compensate for duration ceil-rounding, in
    #: quanta.  Quantization rounds estimated runtimes *up* by as much as one
    #: quantum; without this grace, borderline-feasible SLO jobs would be
    #: culled even though their true runtime fits ("optimistically allows
    #: scheduled jobs to complete if their deadline has not passed",
    #: Sec. 7.1).  Attainment metrics always use the true deadline.
    deadline_grace_quanta: float = 1.0
    #: Run the :mod:`repro.verify` oracles on every global cycle: replay
    #: the solve through the MILP certificate checker and the space-time
    #: schedule auditor, raising
    #: :class:`~repro.verify.audit.AuditViolation` on the first cycle
    #: whose emitted schedule breaks an invariant.  Costs one extra
    #: ``O(nonzeros)`` pass per cycle; intended for tests, benchmarks,
    #: and fig-scale regression tripwires rather than production runs.
    audit_mode: bool = False

    @property
    def plan_ahead_quanta(self) -> int:
        return int(round(self.plan_ahead_s / self.quantum_s))

    # -- SolveOptions-style UNSET layering ---------------------------------
    @classmethod
    def partial(cls, **overrides) -> "TetriSchedConfig":
        """A layer: only the named fields are set, the rest are ``UNSET``.

        Mirrors :class:`~repro.solver.options.SolveOptions` layering — a
        partial config documents exactly what it overrides and inherits
        everything else from the layer below via :meth:`merged_into`::

            >>> patch = TetriSchedConfig.partial(plan_ahead_s=48.0)
            >>> patch.merged_into(TetriSchedConfig(quantum_s=2)).plan_ahead_s
            48.0
        """
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(overrides) - names
        if unknown:
            raise SchedulerError(
                f"unknown config field(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(names)}")
        blank = {name: UNSET for name in names}
        blank.update(overrides)
        return cls(**blank)

    def merged_into(self, base: "TetriSchedConfig") -> "TetriSchedConfig":
        """This layer's set fields over ``base`` (UNSET fields inherit)."""
        merged = {}
        for f in dataclasses.fields(self):
            mine = getattr(self, f.name)
            merged[f.name] = mine if is_set(mine) else getattr(base, f.name)
        return TetriSchedConfig(**merged)

    def is_resolved(self) -> bool:
        """Whether every field carries a concrete value (no UNSET left)."""
        return all(is_set(getattr(self, f.name))
                   for f in dataclasses.fields(self))

    def validate(self) -> "TetriSchedConfig":
        """Reject incoherent configurations up front, not mid-cycle.

        Raises :class:`~repro.errors.SchedulerError` naming every field
        involved.  Returns ``self`` so callers can chain.  Requires a
        resolved config (merge partial layers first — see
        :func:`resolve_config`).
        """
        def fail(msg: str) -> None:
            raise SchedulerError(f"invalid TetriSchedConfig: {msg}")

        if not self.is_resolved():
            fail("unresolved (UNSET) fields remain; merge layers via "
                 "merged_into()/resolve_config() before use")
        if self.quantum_s <= 0:
            fail(f"quantum_s must be positive, got {self.quantum_s!r}")
        if self.cycle_s <= 0:
            fail(f"cycle_s must be positive, got {self.cycle_s!r}")
        if self.plan_ahead_s < 0:
            fail(f"plan_ahead_s must be >= 0, got {self.plan_ahead_s!r}")
        if self.elastic_mode and not self.global_scheduling:
            fail("elastic_mode requires global_scheduling=True: width "
                 "re-planning trades a running gang's nodes against the "
                 "whole batch, which the greedy (-NG) one-job-at-a-time "
                 "path cannot express")
        if self.reconfig_penalty < 0:
            fail(f"reconfig_penalty must be >= 0, "
                 f"got {self.reconfig_penalty!r}")
        if self.elastic_congestion_threshold <= 0:
            fail(f"elastic_congestion_threshold must be positive, "
                 f"got {self.elastic_congestion_threshold!r}")
        if self.rel_gap < 0:
            fail(f"rel_gap must be >= 0, got {self.rel_gap!r}")
        if self.deadline_grace_quanta < 0:
            fail(f"deadline_grace_quanta must be >= 0, "
                 f"got {self.deadline_grace_quanta!r}")
        if self.solver_time_limit is not None and self.solver_time_limit <= 0:
            fail(f"solver_time_limit must be positive (None = unlimited), "
                 f"got {self.solver_time_limit!r}")
        return self


def default_config() -> TetriSchedConfig:
    """The base layer every resolved config sits on (documented defaults).

    Constructed fresh per call: the ``backend`` default reads the
    ``REPRO_BACKEND`` environment variable at construction time, so test
    matrices that re-point it between schedulers keep working.
    """
    return TetriSchedConfig()


def resolve_config(config: TetriSchedConfig | None) -> TetriSchedConfig:
    """Merge a (possibly partial) config over the defaults and validate.

    ``None`` resolves to :func:`default_config`.  A fully-concrete config
    is validated and returned unchanged (identity-preserving, so callers
    that keep a reference see the same object the scheduler uses).
    """
    if config is None:
        return default_config()
    if not config.is_resolved():
        config = config.merged_into(default_config())
    return config.validate()


@dataclass
class CycleStats:
    """Per-cycle observability record (drives Fig. 12)."""

    now: float
    pending: int
    launched: int
    culled: int
    solver_latency_s: float
    cycle_latency_s: float
    milp_variables: int = 0
    milp_constraints: int = 0
    objective: float = 0.0
    solves: int = 0
    #: Branch-and-bound nodes explored across this cycle's solves.
    solver_nodes: int = 0
    #: LP-relaxation (simplex) iterations across this cycle's solves.
    lp_iterations: int = 0
    #: Revised-simplex engine work: dual pivots spent in warm restarts,
    #: basis refactorizations, warm restarts attempted / succeeded.
    lp_dual_pivots: int = 0
    lp_refactorizations: int = 0
    lp_warm_restarts: int = 0
    lp_warm_hits: int = 0
    #: Basis-factorization work: total factorizations (cold + refactor),
    #: Forrest–Tomlin basis updates applied in place, columns examined by
    #: partial pricing, and the worst factor fill ratio
    #: (``nnz(L+U+etas) / nnz(B)``) seen across this cycle's solves.
    lp_factorizations: int = 0
    lp_ft_updates: int = 0
    lp_pricing_candidates: int = 0
    lp_fill_ratio: float = 0.0
    #: Whether a warm start was attempted / produced a feasible seed.
    warm_start_attempted: bool = False
    warm_start_hit: bool = False
    #: Independent MILP components solved this cycle (0 = no global solve).
    components: int = 0
    #: Stored nonzeros in the cycle MILP's sparse export.
    milp_nonzeros: int = 0
    #: Jobs cancelled by :meth:`TetriSched.cancel` and drained this cycle.
    cancelled: int = 0
    #: Elastic re-planning accounting (``elastic_mode``; zeros otherwise).
    #: ``elastic_offered`` counts running elastic jobs that re-entered the
    #: batch with resize options this cycle; ``elastic_resized`` those the
    #: solver actually re-sized (``grown``/``shrunk`` split it); the
    #: congestion fields record whether the DRESS-style guard engaged and
    #: the fair-share width cap it imposed (0 = uncapped).
    elastic_offered: int = 0
    elastic_resized: int = 0
    elastic_grown: int = 0
    elastic_shrunk: int = 0
    elastic_congested: bool = False
    elastic_width_cap: int = 0
    #: Wall-clock seconds per pipeline stage.  Keys are the
    #: :class:`repro.pipeline.stages.StageName` values (plain strings after
    #: JSON round-trips; the str-mixin enum indexes both).
    stage_timings: dict[str, float] = field(default_factory=dict)


@dataclass
class SolveTelemetry:
    """Solver-side numbers one cycle accumulates (shared by both modes)."""

    solver_latency_s: float = 0.0
    solves: int = 0
    milp_variables: int = 0
    milp_constraints: int = 0
    objective: float = 0.0
    solver_nodes: int = 0
    lp_iterations: int = 0
    lp_dual_pivots: int = 0
    lp_refactorizations: int = 0
    lp_warm_restarts: int = 0
    lp_warm_hits: int = 0
    lp_factorizations: int = 0
    lp_ft_updates: int = 0
    lp_pricing_candidates: int = 0
    lp_fill_ratio: float = 0.0
    warm_start_attempted: bool = False
    warm_start_hit: bool = False

    def absorb(self, res) -> None:
        """Fold one :class:`~repro.solver.result.MILPResult` in."""
        # A directly booked cycle has a result but invoked no solver.
        self.solves += 1 - int(res.stats.get("direct_booking", 0))
        self.solver_nodes += res.nodes
        self.lp_iterations += int(res.stats.get("lp_iterations", 0))
        self.lp_dual_pivots += int(res.stats.get("lp_dual_pivots", 0))
        self.lp_refactorizations += int(res.stats.get("lp_refactorizations", 0))
        self.lp_warm_restarts += int(res.stats.get("lp_warm_restarts", 0))
        self.lp_warm_hits += int(res.stats.get("lp_warm_hits", 0))
        self.lp_factorizations += int(res.stats.get("lp_factorizations", 0))
        self.lp_ft_updates += int(res.stats.get("lp_ft_updates", 0))
        self.lp_pricing_candidates += int(
            res.stats.get("lp_pricing_candidates", 0))
        # Worst factor fill across this cycle's solves (a max, not a sum).
        self.lp_fill_ratio = max(self.lp_fill_ratio,
                                 float(res.stats.get("lp_fill_ratio", 0.0)))


@dataclass
class CycleResult:
    """What a scheduling cycle decided."""

    allocations: list[Allocation] = field(default_factory=list)
    culled: list[str] = field(default_factory=list)
    #: Running jobs killed by the preemption extension this cycle.
    preempted: list[str] = field(default_factory=list)
    #: Jobs whose :meth:`TetriSched.cancel` request was honored this cycle.
    cancelled: list[str] = field(default_factory=list)
    #: Running elastic jobs whose gang width changed this cycle
    #: (``elastic_mode``).  Each resized job also appears in
    #: ``allocations`` with its *new* node set — callers must treat that
    #: allocation as a reconfiguration of the running job, not a fresh
    #: launch.  Jobs that kept their width are listed nowhere (no-op).
    resized: list[str] = field(default_factory=list)
    stats: CycleStats | None = None


class TetriSched:
    """The scheduler: queue management + per-cycle global rescheduling.

    The :mod:`repro.api` facade (``Scheduler.open``) wraps one of these
    with context-manager lifetime and spec-string clusters:

    >>> from repro.cluster import Cluster
    >>> cluster = Cluster.build(racks=1, nodes_per_rack=4)
    >>> sched = TetriSched(cluster, TetriSchedConfig(quantum_s=10,
    ...                                              plan_ahead_s=30))
    """

    def __init__(self, cluster: Cluster,
                 config: TetriSchedConfig | None = None) -> None:
        self.cluster = cluster
        self.config = resolve_config(config)
        self.state = ClusterState(cluster.node_names)
        self.queues: PriorityQueues = PriorityQueues()
        self.cycle_history: list[CycleStats] = []
        self._backend = make_backend(
            self.config.backend,
            SolveOptions(rel_gap=self.config.rel_gap,
                         time_limit=self.config.solver_time_limit))
        self._global_pipeline = global_pipeline(audit=self.config.audit_mode)
        self._greedy_pipeline = greedy_pipeline()
        # Previous cycle's accepted plan: (job_id, leaf) pairs, and its time.
        self._prev_plan: list[tuple[str, NCk]] = []
        self._prev_now: float = 0.0
        # Requests of currently running jobs (for preemption re-queuing).
        self._launched: dict[str, JobRequest] = {}
        # Elastic re-planning: this cycle's congestion verdict
        # (congested?, fair-share width cap) — recomputed by run_cycle so
        # every _generate/_resize call in one cycle sees the same view.
        self._congestion: tuple[bool, int | None] = (False, None)
        # Cancellation requests not yet drained.  ``cancel`` may be called
        # from another thread mid-cycle (the async service does); requests
        # are honored only at safe points — cycle start, the launch loop
        # (a cancelled job is never ``state.start``-ed), and cycle end — so
        # a cancel can never strand an allocation-ledger entry.
        self._cancelled: set[str] = set()
        # Arrival-cycle policy state (see _arrival_refusal).
        self._last_arrival = float("-inf")
        self._arrival_gap = float("inf")
        self._contended = False

    # -- queue management ----------------------------------------------------
    def submit(self, request: JobRequest) -> None:
        """Add a job to the pending queue (from YARN proxy / reservation)."""
        self.queues.push(request.job_id, request.priority, request)
        self._arrival_gap = request.submit_time - self._last_arrival
        self._last_arrival = max(self._last_arrival, request.submit_time)

    def on_job_finished(self, job_id: str, now: float) -> frozenset[str]:
        """Signal job completion; frees its nodes (Sec. 3.3 interface (c))."""
        self._launched.pop(job_id, None)
        return self.state.finish(job_id)

    def cancel(self, job_id: str) -> None:
        """Request cancellation of a queued or running job.

        Safe to call from another thread while a cycle is in flight (set
        addition is atomic under the GIL); the request is honored at the
        next safe point.  Unknown ids are silently discarded at drain time
        (the job may have finished in the meantime).
        """
        self._cancelled.add(job_id)

    def _drain_cancellations(self) -> list[str]:
        """Apply pending cancellations; returns the job ids drained.

        Queued jobs leave the queue; running jobs are finished on the
        cluster ledger and dropped from the launch registry — the paired
        removal is what keeps the allocation ledger orphan-free (the audit
        oracle checks the invariant every audited cycle).
        """
        if not self._cancelled:
            return []
        drained: list[str] = []
        for job_id in sorted(self._cancelled):
            if job_id in self.queues:
                self.queues.remove(job_id)
                drained.append(job_id)
            elif self.state.is_running(job_id):
                self.state.finish(job_id)
                self._launched.pop(job_id, None)
                drained.append(job_id)
            elif job_id in self._launched:
                # Cancel landed mid-resize: Extract finished the old
                # allocation and the launch loop skipped the re-entry, so
                # only the registry half remains.  Drop it to keep the
                # ledger-registry pairing orphan-free.
                self._launched.pop(job_id)
                drained.append(job_id)
            # else: already finished/culled — nothing to undo.
        self._cancelled.clear()
        return drained

    @property
    def pending_count(self) -> int:
        return len(self.queues)

    # -- per-cycle scheduling --------------------------------------------------
    def run_cycle(self, now: float, arrival: bool = False) -> CycleResult:
        """Run one scheduling cycle at absolute time ``now``.

        Returns the launch decisions; callers (the simulator / YARN proxy)
        are responsible for actually starting the jobs and reporting
        completion via :meth:`on_job_finished`.

        ``arrival=True`` is the off-period cycle a driver asks for right
        after a submission: the same pipeline, ``Solve`` restricted to the
        booking certificate.  A hit is what a periodic cycle would decide for
        the jobs present and launches now; a miss plans nothing (no solver).
        """
        t_cycle = time.monotonic()
        result = CycleResult()
        result.cancelled.extend(self._drain_cancellations())
        self._congestion = self._elastic_congestion()
        tel = SolveTelemetry()
        ctx = CycleContext(scheduler=self, now=now, result=result,
                           telemetry=tel, arrival=arrival)
        pipeline = (self._global_pipeline if self.config.global_scheduling
                    else self._greedy_pipeline)

        outcome = self._arrival_refusal(pipeline) if arrival else None
        pending = self.pending_count
        with obs.span("cycle"):
            if outcome is None:  # else like an empty queue: nothing is built
                pipeline.run(ctx)
            kept: list[Allocation] = []
            resized = set(result.resized)
            for alloc in result.allocations:
                if alloc.job_id in self._cancelled:
                    # Cancelled while the solver ran: never start it, never
                    # touch the ledger.  A queued job stays queued and the
                    # drain below removes it; a resized job's old allocation
                    # was already finished by Extract, so the drain drops
                    # its launch-registry half instead of re-entering it.
                    continue
                if alloc.job_id in resized:
                    # Width re-plan: the old allocation was finished in
                    # Extract; re-enter the running job at its new width.
                    # The request stays in the launch registry untouched.
                    self.state.start(alloc.job_id, alloc.nodes,
                                     alloc.start_time, alloc.expected_end)
                    kept.append(alloc)
                    continue
                req = self.queues.remove(alloc.job_id)
                self._launched[alloc.job_id] = req
                self.state.start(alloc.job_id, alloc.nodes,
                                 alloc.start_time, alloc.expected_end)
                kept.append(alloc)
            result.allocations = kept
            result.resized = [job_id for job_id in result.resized
                              if self.state.is_running(job_id)]
        result.cancelled.extend(self._drain_cancellations())
        if outcome is None:
            booked = bool(ctx.solution
                          and ctx.solution.stats.get("direct_booking"))
            self._contended = ctx.compiled is not None and not booked
            outcome = "booked" if booked else "miss"
        if arrival:
            obs.count(f"scheduler.arrival_cycle.{outcome}")
            obs.emit("scheduler.arrival_cycle", outcome=outcome,
                     pending=pending, launched=len(result.allocations))

        stats = CycleStats(
            now=now, pending=self.pending_count,
            launched=len(result.allocations), culled=len(result.culled),
            solver_latency_s=tel.solver_latency_s,
            cycle_latency_s=time.monotonic() - t_cycle,
            milp_variables=tel.milp_variables,
            milp_constraints=tel.milp_constraints,
            objective=tel.objective, solves=tel.solves,
            solver_nodes=tel.solver_nodes, lp_iterations=tel.lp_iterations,
            lp_dual_pivots=tel.lp_dual_pivots,
            lp_refactorizations=tel.lp_refactorizations,
            lp_warm_restarts=tel.lp_warm_restarts,
            lp_warm_hits=tel.lp_warm_hits,
            lp_factorizations=tel.lp_factorizations,
            lp_ft_updates=tel.lp_ft_updates,
            lp_pricing_candidates=tel.lp_pricing_candidates,
            lp_fill_ratio=tel.lp_fill_ratio,
            warm_start_attempted=tel.warm_start_attempted,
            warm_start_hit=tel.warm_start_hit,
            components=ctx.components, milp_nonzeros=ctx.nnz,
            cancelled=len(result.cancelled),
            elastic_offered=len(ctx.resizable),
            elastic_resized=len(result.resized),
            elastic_grown=ctx.resize_grown,
            elastic_shrunk=ctx.resize_shrunk,
            elastic_congested=self._congestion[0],
            elastic_width_cap=self._congestion[1] or 0,
            stage_timings=dict(ctx.stage_timings))
        self.cycle_history.append(stats)
        result.stats = stats
        return result

    def _arrival_refusal(self, pipeline) -> str | None:
        """Why an arrival cycle is not attempted (constant time, no build).

        The newest arrival came right after the one before it: booked first
        come first served, a burst fills the cluster before the global cycle
        sees it whole.  Or the last non-empty cycle missed the certificate
        and no periodic cycle has booked, or found the queue empty, since: a
        contended stretch wastes one compile.  A greedy cycle certifies
        nothing.
        """
        if pipeline is not self._global_pipeline:
            return "unsupported"
        if self._arrival_gap < self.config.cycle_s * ARRIVAL_BURST_FRACTION:
            return "burst"
        if self._contended:
            return "contended"
        return None

    # -- STRL generation --------------------------------------------------------
    def _generate(self, req: JobRequest, now: float) -> StrlNode | None:
        options = req.options
        if not self.config.heterogeneity_aware:
            options = self._flatten_options(options)
        if req.elastic and self.config.elastic_mode:
            return generate_elastic_strl(
                list(options), req.value_fn, now=now,
                quantum_s=self.config.quantum_s,
                plan_ahead_quanta=self.config.plan_ahead_quanta,
                deadline=req.deadline, cull=self.config.cull,
                width_cap=self._congestion[1])
        return generate_job_strl(
            list(options), req.value_fn, now=now,
            quantum_s=self.config.quantum_s,
            plan_ahead_quanta=self.config.plan_ahead_quanta,
            deadline=req.deadline, cull=self.config.cull)

    def _flatten_options(self, options: tuple[SpaceOption, ...]) -> tuple[SpaceOption, ...]:
        """-NH: one whole-cluster option with the conservative runtime.

        The paper's TetriSched-NH "creates STRL expressions that draw k
        containers from only one possible equivalence set: the whole
        cluster" and "uses the specified slowdown to conservatively estimate
        job's runtime on a (likely) sub-optimal allocation" (Sec. 6.3).
        """
        k = options[0].k
        worst = max(opt.duration_s for opt in options)
        return (SpaceOption(self.cluster.node_names, k=k, duration_s=worst,
                            label="nh-flattened"),)

    # -- global scheduling ---------------------------------------------------------
    def _preemption_candidates(self):
        """Running best-effort jobs the preemption extension may kill."""
        from repro.core.compiler import PreemptionCandidate
        candidates = []
        for job_id, req in self._launched.items():
            if req.priority != PriorityClass.BEST_EFFORT:
                continue
            if req.elastic and self.config.elastic_mode:
                # A running elastic job re-enters the batch as a resize
                # candidate; offering it as a preemption victim too would
                # let one solution free its nodes twice.
                continue
            if not self.state.is_running(job_id):
                continue
            alloc = self.state.allocation_of(job_id)
            candidates.append(PreemptionCandidate(
                job_id=job_id, nodes=alloc.nodes,
                penalty=self.config.preemption_penalty))
        return candidates

    # -- elastic width re-planning ---------------------------------------------------
    def _elastic_congestion(self) -> tuple[bool, int | None]:
        """DRESS-style congestion verdict for this cycle.

        The ledger is congested when the pending jobs' *minimum* node
        demand (each elastic job counted at its narrowest width) exceeds
        ``elastic_congestion_threshold`` times the currently free supply.
        Under congestion every pending elastic job is capped to a
        fair-share max width and running gangs are denied grow options,
        so malleable jobs shrink toward their minimum footprint instead
        of racing the backlog for nodes.
        """
        if not self.config.elastic_mode:
            return (False, None)
        free = len(self.state.free_nodes())
        elastic_pending = 0
        demand = 0
        for _job_id, req in self.queues.items():
            widths = [opt.k for opt in req.options if opt.feasible]
            if not widths:
                continue
            demand += min(widths)
            if req.elastic:
                elastic_pending += 1
        if demand <= self.config.elastic_congestion_threshold * free:
            return (False, None)
        cap = max(1, free // max(1, elastic_pending))
        return (True, cap)

    def _resize_fragments(self, now: float):
        """(job_id, expr, candidate) per running elastic job, for re-entry.

        Each running elastic job contributes one STRL fragment whose root
        indicator doubles as the release decision: activating it frees
        the job's current quanta on the supply rows
        (:func:`~repro.core.compiler.assemble_batch`) and the chosen leaf
        re-consumes the new width.  A supply-neutral *keep* option at the
        current width makes staying put weakly dominate inaction, so the
        fragment competes fairly without ever forcing a resize.
        """
        if not self.config.elastic_mode:  # validate(): implies global
            return []
        from repro.core.compiler import ResizeCandidate
        congested = self._congestion[0]
        fragments = []
        for job_id in sorted(self._launched):
            req = self._launched[job_id]
            if not req.elastic or not self.state.is_running(job_id):
                continue
            alloc = self.state.allocation_of(job_id)
            expr = self._resize_expr(req, alloc, now, congested)
            if expr is None:
                continue
            fragments.append((job_id, expr,
                              ResizeCandidate(job_id=job_id,
                                              nodes=alloc.nodes)))
        return fragments

    def _resize_expr(self, req: JobRequest, alloc, now: float,
                     congested: bool) -> StrlNode | None:
        """Grow/shrink/keep options for one running elastic job.

        Remaining work rescales with width: if the job would need
        ``full(w)`` seconds at width ``w`` from scratch and has a fraction
        ``frac`` of its work left, width ``w`` finishes it in
        ``frac * full(w)`` seconds.  Shrink options draw from the job's
        *current* nodes (no migration, duration grows); grow options draw
        from the full equivalence set and pay ``reconfig_penalty``; the
        keep option re-books exactly the current footprint (supply-neutral
        by construction).  All options start now — a deferred resize is
        just next cycle's re-plan.
        """
        q = self.config.quantum_s
        family = sorted((opt for opt in req.options if opt.feasible),
                        key=lambda o: o.k)
        full = {opt.k: opt.duration_s for opt in family}
        nodes_by_width = {opt.k: opt.nodes for opt in family}
        cur = len(alloc.nodes)
        if cur not in full:
            return None  # footprint no longer matches the ladder
        remaining_s = alloc.expected_end - now
        if remaining_s <= q * 1e-6:
            return None  # completing this quantum; let it finish
        frac = min(1.0, remaining_s / full[cur])
        leaves: list[NCk] = []
        for width in sorted(full):
            if congested and width > cur:
                continue  # grow denied while the backlog outstrips supply
            if not congested and width < cur:
                # Squeezing a gang costs real work (narrow widths run at
                # reduced efficiency), so shrink options exist only while
                # pending demand outstrips free supply.  Otherwise the
                # solver would trade true gang slowdown for the cosmetic
                # earliness of jobs that fit in free capacity anyway.
                continue
            dur_q = quantize_duration(frac * full[width], q)
            completion = now + dur_q * q
            value = req.value_fn(completion)
            if width > cur:
                value -= self.config.reconfig_penalty
            if value > 0.0:
                value *= max(0.1, 1.0 - DEFAULT_EARLINESS_BIAS * dur_q)
            if value <= 0.0:
                if width > cur:
                    continue  # growth must pay for itself
                # Keep/shrink stay offered even when the job's own value
                # has decayed to nothing: a running gang must always be
                # squeezable, or a zero-value wide gang (excluded from
                # preemption candidates) would block SLO bursts forever.
                value = 1e-6 * (1 + width)
            eq_set = alloc.nodes if width <= cur else nodes_by_width[width]
            if width > len(eq_set):
                continue
            leaves.append(NCk(nodes=eq_set, k=width, start=0,
                              duration=dur_q, value=value))
        if not leaves:
            return None
        if len(leaves) == 1:
            return leaves[0]
        return Max(*leaves)

    # -- greedy (-NG) scheduling -------------------------------------------------------
    def _cycle_greedy(self, exprs, requests, now,
                      tel: SolveTelemetry) -> list[Allocation]:
        """One-at-a-time scheduling in priority order (TetriSched-NG).

        Uses the full MILP formulation per job; each job's supply reflects
        the tentative (possibly deferred) placements of jobs decided earlier
        in this cycle.
        """
        acc = PlanAccumulator(self.state, now, self.config.quantum_s)
        order = {job_id: i for i, job_id in enumerate(self.queues.job_ids())}
        exprs_sorted = sorted(exprs, key=lambda kv: order[kv[0]])
        allocs: list[Allocation] = []
        for job_id, expr in exprs_sorted:
            with obs.span("compile"):
                compiler = StrlCompiler(acc, self.config.quantum_s, now)
                compiled = compiler.compile([(job_id, expr)])
            t0 = time.monotonic()
            with obs.span("solve"):
                res = self._backend.solve(compiled.model)
            tel.solver_latency_s += time.monotonic() - t0
            tel.milp_variables += compiled.stats["variables"]
            tel.milp_constraints += compiled.stats["constraints"]
            tel.absorb(res)
            if not res.status.has_solution or res.x is None:
                continue
            tel.objective += res.objective
            with obs.span("decode"):
                placements = compiled.decode(res.x)
            # Reserve *all* chosen placements (incl. deferred) in the
            # accumulator so later jobs see them; launch only start == 0.
            # Picks are transactional per job: if any placement turns out
            # unassignable, every reservation already made for this job is
            # rolled back so later jobs don't see phantom-occupied capacity.
            job_allocs: list[tuple[frozenset[str], int]] = []
            picked: list[tuple[frozenset[str], int, int]] = []
            pick_failed = False
            with obs.span("materialize"):
                for pl in placements:
                    try:
                        nodes = acc.pick(compiled.partitioning,
                                         pl.node_counts, pl.start,
                                         pl.duration)
                    except SchedulerError:
                        # Fragmentation made this tentative placement
                        # unassignable (possible for multi-leaf Min gangs
                        # that the per-leaf interval caps cannot fully
                        # protect).  Skip; the job is re-planned next cycle.
                        pick_failed = True
                        break
                    picked.append((nodes, pl.start, pl.duration))
                    if pl.start == 0:
                        job_allocs.append((nodes, pl.duration))
                if pick_failed:
                    for nodes, start, duration in picked:
                        acc.unreserve(nodes, start, duration)
                    obs.count("scheduler.greedy.pick_rollbacks")
                    continue  # never launch a partial gang
                for nodes, dur in job_allocs:
                    allocs = self._merge_launch(
                        allocs, job_id, nodes,
                        now, now + dur * self.config.quantum_s)
        self._prev_plan = []
        return allocs

    # -- shared helpers -----------------------------------------------------------------
    def _materialize(self, placements, compiled: CompiledBatch,
                     acc: PlanAccumulator, requests, now) -> list[Allocation]:
        """Turn decoded placements into launch decisions for start == 0."""
        allocs: list[Allocation] = []
        # The supply rows hold for every quantum, so any pick order fits;
        # a fixed one (by start, then job) makes the chosen nodes repeatable.
        for pl in sorted(placements, key=lambda p: (p.start, p.job_id)):
            nodes = acc.pick(compiled.partitioning, pl.node_counts,
                             pl.start, pl.duration)
            if pl.start == 0:
                allocs = self._merge_launch(
                    allocs, pl.job_id, nodes, now,
                    now + pl.duration * self.config.quantum_s)
        return allocs

    @staticmethod
    def _merge_launch(allocs: list[Allocation], job_id: str,
                      nodes: frozenset[str], start: float,
                      expected_end: float) -> list[Allocation]:
        """Merge multi-leaf (e.g. Min gang) placements of one job."""
        for i, a in enumerate(allocs):
            if a.job_id == job_id:
                allocs[i] = Allocation(job_id, a.nodes | nodes, a.start_time,
                                       max(a.expected_end, expected_end))
                return allocs
        allocs.append(Allocation(job_id, nodes, start, expected_end))
        return allocs

    # -- warm start --------------------------------------------------------------------------
    @property
    def _warm_start_wanted(self) -> bool:
        """Whether a cycle should build a warm start at all.

        A backend that cannot take an incumbent declares
        ``consumes_warm_start = False`` (HiGHS through scipy has no hook for
        one); building the shifted plan for it is work nobody reads.
        """
        return self.config.warm_start and getattr(
            self._backend, "consumes_warm_start", True)

    def _build_warm_start(self, compiled: CompiledBatch,
                          now: float) -> np.ndarray | None:
        """Previous cycle's plan, shifted forward, as a feasible MILP point.

        Implements the paper's "we cache solver results to serve as a
        feasible initial solution for the next cycle's solver invocation"
        (Sec. 3.2.2).  Jobs that launched, finished, or no longer fit are
        dropped; if nothing survives, returns ``None``.
        """
        if not self._prev_plan:
            return None
        elapsed_q = int(round((now - self._prev_now) / self.config.quantum_s))
        if elapsed_q < 0:
            return None

        # Remaining capacity per (partition, quantum): the profiles the
        # supply rows were written against, drawn down as leaves refill.
        remaining = {pid: profile.copy()
                     for pid, profile in compiled.availability.items()}
        upper = compiled.col_ub

        # Index compiled leaves by (job, eq-set, start, duration).
        by_key: dict[tuple, int] = {}
        for i, (job, leaf) in enumerate(zip(compiled.leaf_job.tolist(),
                                            compiled.leaves)):
            by_key.setdefault((job, leaf.nodes, leaf.start, leaf.duration), i)
        job_index = {job_id: j for j, job_id in enumerate(compiled.job_order)}

        x = np.zeros(upper.shape[0])
        used_any = False
        for job_id, leaf in self._prev_plan:
            new_start = leaf.start - elapsed_q
            if new_start < 0 or job_id not in job_index:
                continue
            i = by_key.get((job_index[job_id], leaf.nodes, new_start,
                            leaf.duration))
            if i is None:
                continue
            # Greedily refill the leaf's demand from its partitions
            # (the leaf table lists them in ascending partition order).
            entries = range(compiled.leaf_ptr[i], compiled.leaf_ptr[i + 1])
            plan: list[tuple[int, int]] = []  # (entry, nodes taken)
            needed = leaf.k
            span = slice(new_start, new_start + leaf.duration)
            for e in entries:
                if needed == 0:
                    break
                # Entry e draws leaf_coef[e] nodes per unit of its column.
                take = min(needed,
                           int(remaining[compiled.leaf_pid[e]][span].min()),
                           int(upper[compiled.leaf_pcol[e]]
                               * compiled.leaf_coef[e]))
                if take > 0:
                    plan.append((e, take))
                    needed -= take
            if needed > 0:
                continue  # no longer fits; drop from warm start
            for e, take in plan:
                x[compiled.leaf_pcol[e]] = take / compiled.leaf_coef[e]
                remaining[compiled.leaf_pid[e]][span] -= take
            x[compiled.leaf_indicator[i]] = 1.0
            x[compiled.job_columns[job_id]] = 1.0
            used_any = True
        if not used_any:
            return None
        if not compiled.model.check_feasible(x):
            return None
        return x
