"""The pipeline stages of one TetriSched scheduling cycle.

Each stage moves one step of the former monolithic ``_cycle_global`` into
a named, separately-timed unit (Sec. 3 of the paper: generate, aggregate
and compile, solve, extract).  ``ModelBuild`` and ``Decompose`` are new
steps introduced by the sparse-core refactor: the first forces the CSR
export (so its cost is visible instead of hiding inside the solver), the
second splits the aggregate MILP into independent blocks that
:func:`repro.solver.decompose.solve_decomposed` handles as separate,
much smaller branch-and-bound problems.
"""

from __future__ import annotations

import enum
import time
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro import obs
from repro.core.allocation import PlanAccumulator
from repro.core.compiler import StrlCompiler
from repro.solver.decompose import decompose, solve_decomposed
from repro.solver.options import SolveOptions
from repro.solver.result import MILPResult, SolveStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.compiler import CompiledBatch
    from repro.core.scheduler import TetriSched
    from repro.pipeline.context import CycleContext
    from repro.solver.decompose import Decomposition


class StageName(str, enum.Enum):
    """Stable names of the pipeline stages.

    These are the documented keys of ``CycleStats.stage_timings`` (and of
    the per-stage :mod:`repro.obs` spans nested under ``"cycle"``).  The
    enum mixes in :class:`str`, so a member hashes and compares equal to
    its plain string value — bench/report code should index timing dicts
    with ``StageName.SOLVE`` rather than string-matching ``"solve"``, and
    archived JSON (where keys are plain strings) still round-trips.
    """

    GENERATE = "generate"
    COMPILE = "compile"
    MODEL_BUILD = "model_build"
    DECOMPOSE = "decompose"
    SOLVE = "solve"
    EXTRACT = "extract"
    AUDIT = "audit"
    GREEDY = "greedy"

    def __str__(self) -> str:  # uniform across py3.10..3.12 str-enum quirks
        return self.value

    __format__ = str.__format__


class Stage(Protocol):
    """One step of a scheduling cycle."""

    name: str

    def run(self, ctx: "CycleContext") -> None:  # pragma: no cover
        ...


class StrlGeneration:
    """Generate one STRL expression per pending job; cull valueless jobs."""

    name = StageName.GENERATE

    def run(self, ctx: "CycleContext") -> None:
        sched = ctx.scheduler
        for job_id, req in list(sched.queues.items()):
            expr = sched._generate(req, ctx.now)
            if expr is None:
                sched.queues.remove(job_id)
                ctx.result.culled.append(job_id)
                continue
            ctx.exprs.append((job_id, expr))
            ctx.requests[job_id] = req
        # Running elastic jobs re-enter the batch with grow/shrink/keep
        # options (elastic_mode): even with an empty queue these fragments
        # keep the cycle alive so a gang can widen as the cluster drains.
        for job_id, expr, cand in sched._resize_fragments(ctx.now):
            ctx.exprs.append((job_id, expr))
            ctx.requests[job_id] = sched._launched[job_id]
            ctx.resizable.append(cand)
        if not ctx.exprs:
            ctx.halt()


class Compilation:
    """Aggregate STRL under the top-level SUM and compile to a MILP."""

    name = StageName.COMPILE

    def run(self, ctx: "CycleContext") -> None:
        sched = ctx.scheduler
        preemptible = (sched._preemption_candidates()
                       if ctx.config.enable_preemption else [])
        ctx.compiled = StrlCompiler(
            sched.state, ctx.config.quantum_s, ctx.now).compile(
                ctx.exprs, preemptible=preemptible, resizable=ctx.resizable)


class ModelBuild:
    """Assemble the model a solver will be handed, and build the warm start.

    The batch assembles its MILP on first read and keeps it: reading it here
    makes that a visible line in the per-stage timings, not noise inside
    ``solve``.  A cycle that books directly (``solve_batch`` reuses the
    attempt) or an arrival cycle hands it to nobody and does not read it.
    The cycle's MILP sizes are read after that, off the model where there
    is one, else counted on the batch's fragments.
    """

    name = StageName.MODEL_BUILD

    def run(self, ctx: "CycleContext") -> None:
        sched = ctx.scheduler
        compiled = ctx.compiled
        assert compiled is not None
        if not ctx.arrival and compiled.book_directly()[0] is None:
            compiled.model.to_sparse_arrays()
        ctx.telemetry.milp_variables = compiled.stats["variables"]
        ctx.telemetry.milp_constraints = compiled.stats["constraints"]
        ctx.nnz = compiled.stats["nonzeros"]
        if sched._warm_start_wanted and not ctx.arrival:
            ctx.telemetry.warm_start_attempted = True
            with obs.span("warm_start"):
                ctx.warm_start = sched._build_warm_start(ctx.compiled, ctx.now)
            # Hit/miss accounting flows through CycleStats (the simulator
            # folds it into the run profile), not the obs registry, so the
            # two layers never double-count.
            ctx.telemetry.warm_start_hit = ctx.warm_start is not None
        obs.emit("scheduler.model_build",
                 variables=compiled.stats["variables"],
                 constraints=compiled.stats["constraints"],
                 nnz=ctx.nnz, assembled=compiled.assembled,
                 packed=compiled.packed)


class Decompose:
    """Split the aggregate MILP into independent connected components."""

    name = StageName.DECOMPOSE

    def run(self, ctx: "CycleContext") -> None:
        assert ctx.compiled is not None
        # A cycle that books directly (solve_batch reuses the attempt) never
        # reaches a solver, nor does an arrival cycle: nothing to split.
        if (not ctx.config.decomposition or ctx.arrival
                or ctx.compiled.book_directly()[0] is not None):
            ctx.components = 1
            return
        ctx.decomposition = decompose(ctx.compiled.model)
        ctx.components = max(1, ctx.decomposition.num_components)
        obs.emit("scheduler.decompose",
                 components=ctx.decomposition.num_components,
                 sizes=ctx.decomposition.component_sizes(),
                 free=int(ctx.decomposition.free_indices.size))


def solve_batch(sched: "TetriSched", compiled: "CompiledBatch",
                decomp: "Decomposition | None",
                warm_start: "np.ndarray | None",
                book_only: bool = False) -> MILPResult | None:
    """One cycle MILP's result: booked directly, or from the backend.

    An uncontended batch never reaches the backend: when every job can
    have its own best option at once,
    :meth:`~repro.core.compiler.CompiledBatch.book_directly` returns that
    point and it is the proven optimum (``gap = 0``, no solver invocation,
    ``stats["direct_booking"]``); every later stage reads it exactly as it
    reads a solver's result.  Anything else is solved — per component when
    ``decomp`` splits the model, with the cycle warm start in the per-call
    :class:`~repro.solver.options.SolveOptions`.  With ``book_only`` (an
    arrival cycle) a missed booking returns ``None``.
    """
    x, miss = compiled.book_directly()
    if x is not None:
        obs.count("scheduler.direct_booking.booked")
        objective = compiled.objective_value(x)
        return MILPResult(SolveStatus.OPTIMAL, x, objective, bound=objective,
                          gap=0.0, stats={"direct_booking": 1})
    if miss is not None:
        job_id, pid, quantum = miss
        obs.emit("scheduler.direct_booking.miss", job=job_id, partition=pid,
                 quantum=quantum)
    if book_only:
        return None
    options = SolveOptions(warm_start=warm_start)
    if decomp is not None and (decomp.num_components > 1
                               or decomp.free_indices.size):
        return solve_decomposed(decomp, sched._backend, options=options)
    return sched._backend.solve(compiled.model, options=options)


class Solve:
    """Solve the cycle MILP (:func:`solve_batch`).

    A decomposed solve is still *one* logical solver invocation in the
    cycle telemetry (Fig. 12's solver-work tables compare global vs
    greedy solve counts; decomposition must not inflate them), and a
    directly booked cycle is none.
    """

    name = StageName.SOLVE

    def run(self, ctx: "CycleContext") -> None:
        sched = ctx.scheduler
        tel = ctx.telemetry
        assert ctx.compiled is not None
        t0 = time.monotonic()
        res = solve_batch(sched, ctx.compiled, ctx.decomposition,
                          ctx.warm_start, book_only=ctx.arrival)
        tel.solver_latency_s += time.monotonic() - t0
        if res is None:
            # Arrival cycle, certificate missed: no block answered; the empty
            # plan (always feasible) is extracted and audited like any result.
            ctx.components = 0
            x = np.zeros(ctx.compiled.num_columns)
            ctx.solution = MILPResult(
                SolveStatus.FEASIBLE, x, ctx.compiled.objective_value(x))
            return
        tel.absorb(res)
        if not res.status.has_solution:
            # All-zero (schedule nothing) is always feasible, so this should
            # only happen under a very tight solver budget.
            sched._prev_plan = []
            ctx.halt()
            return
        tel.objective = res.objective
        ctx.solution = res


class Extract:
    """Decode the solution, apply preemptions, launch start-now placements."""

    name = StageName.EXTRACT

    def run(self, ctx: "CycleContext") -> None:
        sched = ctx.scheduler
        compiled, res = ctx.compiled, ctx.solution
        assert compiled is not None and res is not None and res.x is not None

        # Apply preemption decisions before materializing placements: the
        # freed nodes are part of the supply the solution relied on.
        for victim_id in compiled.preempted_jobs(res.x):
            sched.state.finish(victim_id)
            req = sched._launched.pop(victim_id)
            sched.queues.push(victim_id, req.priority, req)
            ctx.result.preempted.append(victim_id)

        # Apply width re-plans the same way: an actual resize releases the
        # old allocation here (its quanta are supply the solution spent);
        # choosing the current width is the supply-neutral keep option — a
        # no-op whose placement must not be re-booked on the ledger.
        keeps: set[str] = set()
        for job_id, width in sorted(compiled.resize_decisions(res.x).items()):
            cand = compiled.resize_candidates[job_id]
            if width == cand.width:
                keeps.add(job_id)
                continue
            sched.state.finish(job_id)
            ctx.result.resized.append(job_id)
            if width > cand.width:
                ctx.resize_grown += 1
            else:
                ctx.resize_shrunk += 1

        with obs.span("decode"):
            placements = [pl for pl in compiled.decode(res.x)
                          if pl.job_id not in keeps]
            if not ctx.arrival:  # the warm start shifts the periodic plan
                sched._prev_plan = [
                    (job_id, leaf)
                    for job_id, leaf in compiled.chosen_plan(res.x)
                    if job_id not in compiled.resize_candidates]
                sched._prev_now = ctx.now

        with obs.span("materialize"):
            acc = PlanAccumulator(sched.state, ctx.now, ctx.config.quantum_s,
                                  compiled.horizon)
            ctx.result.allocations = sched._materialize(
                placements, compiled, acc, ctx.requests, ctx.now)


class Audit:
    """Independently recheck the cycle's decisions (``audit_mode``).

    Runs the :mod:`repro.verify` oracles between Extract and the launch
    loop — the cluster state already reflects this cycle's preemptions but
    the new allocations have not started, which is exactly the ledger the
    solution's supply constraints were written against.  Raises
    :class:`~repro.verify.audit.AuditViolation` on the first cycle whose
    solve result fails either the MILP certificate replay or the
    space-time schedule audit.  The greedy (NG) pipeline is not audited:
    it never builds an aggregate model for the oracles to replay.
    """

    name = StageName.AUDIT

    def run(self, ctx: "CycleContext") -> None:
        from repro.verify import (AuditViolation, audit_cycle,
                                  check_certificate)
        from repro.verify.audit import check_ledger_orphans

        # Ledger-registry consistency first: a cancellation that finished a
        # running job on the cluster ledger must have dropped it from the
        # launch registry in the same drain — an orphan here means a
        # lifecycle transition (cancel racing the solve) touched one side.
        orphans = check_ledger_orphans(ctx.scheduler.state,
                                       ctx.scheduler._launched)
        if orphans:
            raise AuditViolation(orphans)

        compiled, res = ctx.compiled, ctx.solution
        if compiled is None or res is None:
            return
        cert = check_certificate(compiled.model, res)
        report = audit_cycle(
            ctx.scheduler.state, compiled, res, ctx.exprs,
            quantum_s=ctx.config.quantum_s, now=ctx.now,
            allocations=ctx.result.allocations)
        obs.emit("scheduler.audit",
                 certificate_ok=cert.ok, audit_ok=report.ok,
                 placements=report.placements,
                 quanta_checked=report.quanta_checked,
                 objective_claimed=report.objective_claimed,
                 objective_recomputed=report.objective_recomputed)
        cert.raise_if_failed()
        report.raise_if_failed()


class GreedyScheduling:
    """TetriSched-NG: per-job MILPs in priority order (no aggregation)."""

    name = StageName.GREEDY

    def run(self, ctx: "CycleContext") -> None:
        ctx.components = 0
        ctx.result.allocations = ctx.scheduler._cycle_greedy(
            ctx.exprs, ctx.requests, ctx.now, ctx.telemetry)
