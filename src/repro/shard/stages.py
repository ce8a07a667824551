"""Pipeline stages of one *sharded* scheduling cycle.

The sharded cycle mirrors the monolithic one (generate -> compile ->
model-build -> solve -> extract) but everything between generation and
extraction happens per scheduling domain, with a reconciliation pass for
cross-domain gangs at the end::

    StrlGeneration -> DomainAssign -> DomainCompile -> DomainModelBuild
        -> DomainSolve -> DomainExtract -> DomainReconcile [-> ShardAudit]

Two invariants the stages are written around:

* **shard_count=1 is bit-equal to the monolithic pipeline.**  A single
  whole-cluster domain restricts nothing (assignment preserves queue
  order, option intersection is the identity), compiles through the same
  ``StrlCompiler`` against the same state, warm-starts from the same
  shifted plan, and gets its result from the monolithic Solve stage's own
  :func:`~repro.pipeline.stages.solve_batch` — so the solved ``x``, the
  launch decisions, and the halting behavior coincide.
* **Domains are node-disjoint**, so per-domain models draw from disjoint
  supply and the union of their solutions is feasible globally; the
  shared :class:`~repro.core.allocation.PlanAccumulator` that all domains
  materialize into (and that the reconciliation model compiles against)
  enforces this at node granularity — a real conflict raises instead of
  double-booking.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro import obs
from repro.core.allocation import PlanAccumulator
from repro.core.compiler import StrlCompiler
from repro.errors import SchedulerError
from repro.pipeline.stages import StageName, solve_batch
from repro.solver.decompose import decompose, solve_many_decomposed
from repro.solver.options import SolveOptions

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.context import CycleContext


class DomainAssign:
    """Assign each generated job to a scheduling domain (or to boundary)."""

    name = StageName.SHARD_ASSIGN

    def run(self, ctx: "CycleContext") -> None:
        sched = ctx.scheduler
        ctx.shard = sched._coordinator.assign(sched, ctx.exprs,
                                              ctx.requests, ctx.now)
        sh = ctx.shard
        obs.emit("scheduler.shard_assign",
                 domains=len(sh.active_domains()),
                 boundary=len(sh.boundary), trimmed=len(sh.trimmed),
                 quality_bound=sh.quality_bound)


class DomainCompile:
    """Compile one MILP per active domain."""

    name = StageName.COMPILE

    def run(self, ctx: "CycleContext") -> None:
        sched = ctx.scheduler
        sh = ctx.shard
        assert sh is not None
        for did in sh.active_domains():
            compiled = StrlCompiler(
                sched.state, ctx.config.quantum_s, ctx.now).compile(
                    sh.batches[did])
            sh.compiled[did] = compiled
            ctx.telemetry.milp_variables += compiled.stats["variables"]
            ctx.telemetry.milp_constraints += compiled.stats["constraints"]


class DomainModelBuild:
    """Force per-domain sparse exports and build per-domain warm starts."""

    name = StageName.MODEL_BUILD

    def run(self, ctx: "CycleContext") -> None:
        sched = ctx.scheduler
        sh = ctx.shard
        assert sh is not None
        for did in sh.active_domains():
            sp = sh.compiled[did].model.to_sparse_arrays()
            ctx.nnz += sp.nnz
        obs.emit("scheduler.model_build",
                 variables=ctx.telemetry.milp_variables,
                 constraints=ctx.telemetry.milp_constraints, nnz=ctx.nnz,
                 assembled=True)
        if sched._warm_start_wanted:
            ctx.telemetry.warm_start_attempted = True
            with obs.span("warm_start"):
                for did in sh.active_domains():
                    # The shifted previous plan slices cleanly per domain:
                    # entries for jobs outside this domain's batch have no
                    # indicator in its model and are skipped.
                    sh.warm[did] = sched._build_warm_start(sh.compiled[did],
                                                           ctx.now)
            ctx.telemetry.warm_start_hit = any(
                w is not None for w in sh.warm.values())


class DomainSolve:
    """Solve every domain MILP — all domains in one pooled dispatch.

    With a single active domain the monolithic Solve stage is replicated
    exactly (the same :func:`~repro.pipeline.stages.solve_batch`, the same
    halt on an unsolved cycle), which is the solve half of the
    ``shard_count=1`` bit-equality guarantee.  With several domains, each
    domain model is decomposed into its connected components and *all*
    components across *all* domains go
    to :func:`~repro.solver.decompose.solve_many_decomposed` as one
    worker-pool batch; a domain whose solve produces no solution (e.g. a
    timeout under a tight budget) is marked for the greedy per-job
    fallback instead of halting the whole cycle.
    """

    name = StageName.SOLVE

    def run(self, ctx: "CycleContext") -> None:
        sched = ctx.scheduler
        sh = ctx.shard
        assert sh is not None
        dids = sh.active_domains()
        if not dids:
            return  # pure-boundary cycle: reconciliation does the work
        if len(dids) == 1:
            self._solve_single(ctx, dids[0])
            return

        tel = ctx.telemetry
        if not ctx.config.decomposition:
            # Respect the ablation flag: one monolithic solve per domain.
            ctx.components = 0
            for did in dids:
                compiled = sh.compiled[did]
                groups = None
                if ctx.config.solve_mode != "exact":
                    groups = tuple(compiled.lazy_column_groups())
                t0 = time.monotonic()
                res = sched._backend.solve(
                    compiled.model,
                    options=SolveOptions(warm_start=sh.warm.get(did),
                                         column_groups=groups))
                self._record(ctx, did, res, time.monotonic() - t0)
                ctx.components += 1
            return

        decomps = [decompose(sh.compiled[did].model) for did in dids]
        opts = [SolveOptions(warm_start=sh.warm.get(did),
                             workers=ctx.config.solver_workers,
                             component_cache=sched._component_cache)
                for did in dids]
        ctx.components = sum(max(1, d.num_components) for d in decomps)
        t0 = time.monotonic()
        results = solve_many_decomposed(decomps, sched._backend, opts,
                                        dispatch_seed=ctx.config.seed)
        wall = time.monotonic() - t0
        tel.solver_latency_s += wall
        for did, res in zip(dids, results):
            self._record(ctx, did, res, res.solve_time, add_latency=False)
        obs.emit("scheduler.shard_solve", domains=len(dids),
                 components=ctx.components, wall_s=wall,
                 fallbacks=len(sh.fallback_domains))

    def _record(self, ctx: "CycleContext", did: int, res,
                solve_s: float, add_latency: bool = True) -> None:
        sh = ctx.shard
        tel = ctx.telemetry
        sh.solve_s[did] = solve_s
        if add_latency:
            tel.solver_latency_s += solve_s
        tel.absorb(res)
        if not res.status.has_solution or res.x is None:
            sh.fallback_domains.append(did)
            return
        tel.objective += res.objective
        sh.results[did] = res

    def _solve_single(self, ctx: "CycleContext", did: int) -> None:
        """The monolithic Solve stage, on the one domain."""
        sched = ctx.scheduler
        sh = ctx.shard
        tel = ctx.telemetry
        compiled = sh.compiled[did]
        decomp = decompose(compiled.model) if ctx.config.decomposition \
            else None
        ctx.components = max(1, decomp.num_components) if decomp else 1
        t0 = time.monotonic()
        res = solve_batch(sched, compiled, decomp, sh.warm.get(did))
        sh.solve_s[did] = time.monotonic() - t0
        tel.solver_latency_s += sh.solve_s[did]
        tel.absorb(res)
        if not res.status.has_solution:
            sched._prev_plan = []
            ctx.halt()
            return
        tel.objective = res.objective
        sh.results[did] = res


class DomainExtract:
    """Decode every solved domain into the shared space-time accumulator.

    Fallback domains (no MILP solution) are greedily re-scheduled job by
    job against the same accumulator — TetriSched-NG semantics scoped to
    just the failed domain, so one overloaded domain degrades alone
    instead of starving the cycle.
    """

    name = StageName.EXTRACT

    def run(self, ctx: "CycleContext") -> None:
        sched = ctx.scheduler
        sh = ctx.shard
        assert sh is not None
        acc = PlanAccumulator(sched.state, ctx.now, ctx.config.quantum_s)
        sh.acc = acc
        prev_plan = []
        for did in sh.active_domains():
            res = sh.results.get(did)
            if res is None:
                continue
            compiled = sh.compiled[did]
            with obs.span("decode"):
                placements = compiled.decode(res.x)
                prev_plan.extend(compiled.chosen_plan(res.x))
            with obs.span("materialize"):
                allocs = sched._materialize(placements, compiled, acc,
                                            ctx.requests, ctx.now)
            ctx.result.allocations.extend(allocs)
        sched._prev_plan = prev_plan
        sched._prev_now = ctx.now
        for did in sh.fallback_domains:
            self._greedy_domain(ctx, did, acc)

    def _greedy_domain(self, ctx: "CycleContext", did: int,
                       acc: PlanAccumulator) -> None:
        """Per-job solo MILPs over the shared accumulator (one domain)."""
        sched = ctx.scheduler
        tel = ctx.telemetry
        obs.count("scheduler.shard.greedy_fallback")
        for job_id, expr in ctx.shard.batches[did]:
            compiler = StrlCompiler(acc, ctx.config.quantum_s, ctx.now)
            compiled = compiler.compile([(job_id, expr)])
            t0 = time.monotonic()
            res = sched._backend.solve(compiled.model)
            tel.solver_latency_s += time.monotonic() - t0
            tel.absorb(res)
            if not res.status.has_solution or res.x is None:
                continue
            tel.objective += res.objective
            placements = compiled.decode(res.x)
            _materialize_transactional(ctx, compiled, placements, acc)


def _materialize_transactional(ctx: "CycleContext", compiled, placements,
                               acc: PlanAccumulator) -> None:
    """Reserve decoded placements per job, rolling back on pick failure.

    Models compiled against the accumulator see interval-capped
    availability, which cannot fully protect multi-leaf ``min`` gangs
    from fragmentation — exactly the greedy path's hazard, handled the
    same way: a job whose picks cannot all be assigned reserves nothing
    and is re-planned next cycle.
    """
    sched = ctx.scheduler
    by_job: dict[str, list] = {}
    for pl in placements:
        by_job.setdefault(pl.job_id, []).append(pl)
    for job_id in sorted(by_job):
        picked: list[tuple[frozenset[str], int, int]] = []
        launches: list[tuple[frozenset[str], int]] = []
        failed = False
        for pl in sorted(by_job[job_id], key=lambda p: p.start):
            try:
                nodes = acc.pick(compiled.partitioning, pl.node_counts,
                                 pl.start, pl.duration)
            except SchedulerError:
                failed = True
                break
            picked.append((nodes, pl.start, pl.duration))
            if pl.start == 0:
                launches.append((nodes, pl.duration))
        if failed:
            for nodes, start, duration in picked:
                acc.unreserve(nodes, start, duration)
            obs.count("scheduler.shard.pick_rollbacks")
            continue
        for nodes, dur in launches:
            ctx.result.allocations = sched._merge_launch(
                ctx.result.allocations, job_id, nodes, ctx.now,
                ctx.now + dur * ctx.config.quantum_s)


class DomainReconcile:
    """Schedule the boundary jobs against the residual availability.

    Cross-domain gangs (no single domain can host any of their options)
    were excluded from every domain model; after extraction, the shared
    accumulator holds exactly the capacity the domain solutions left
    over.  Compiling the boundary jobs' *unrestricted* expressions against
    it yields a small coupling MILP whose placements are feasible jointly
    with every domain's — the packing-and-placement reconciliation,
    confined to the boundary jobs only.
    """

    name = StageName.RECONCILE

    def run(self, ctx: "CycleContext") -> None:
        sh = ctx.shard
        assert sh is not None
        if not sh.boundary:
            return
        sched = ctx.scheduler
        tel = ctx.telemetry
        acc = sh.acc
        if acc is None:  # pure-boundary cycle: Extract had nothing to do
            acc = PlanAccumulator(sched.state, ctx.now,
                                  ctx.config.quantum_s)
            sh.acc = acc
        compiler = StrlCompiler(acc, ctx.config.quantum_s, ctx.now)
        compiled = compiler.compile(list(sh.boundary))
        tel.milp_variables += compiled.stats["variables"]
        tel.milp_constraints += compiled.stats["constraints"]
        t0 = time.monotonic()
        res = sched._backend.solve(compiled.model)
        tel.solver_latency_s += time.monotonic() - t0
        tel.absorb(res)
        sh.reconcile = (compiled, res, list(sh.boundary))
        if not res.status.has_solution or res.x is None:
            return
        tel.objective += res.objective
        with obs.span("decode"):
            placements = compiled.decode(res.x)
            sched._prev_plan.extend(compiled.chosen_plan(res.x))
        with obs.span("materialize"):
            _materialize_transactional(ctx, compiled, placements, acc)
        obs.emit("scheduler.shard_reconcile", jobs=len(sh.boundary),
                 objective=res.objective)


class ShardAudit:
    """Verify the reconciled global schedule (``audit_mode``).

    Per-domain MILP certificates plus :func:`repro.verify.audit_sharded`:
    each domain's solution is audited in isolation (capacity, shape,
    objective reconciliation), then the cross-domain invariants — domain
    node-disjointness, no job solved in two domains, globally disjoint
    launch nodes, and aggregate space-time capacity across all batches
    including the reconciliation solve.
    """

    name = StageName.AUDIT

    def run(self, ctx: "CycleContext") -> None:
        from repro.verify import (AuditViolation, audit_sharded,
                                  certify_gap, check_certificate)
        from repro.verify.audit import check_ledger_orphans

        sched = ctx.scheduler
        orphans = check_ledger_orphans(sched.state, sched._launched)
        if orphans:
            raise AuditViolation(orphans)
        sh = ctx.shard
        if sh is None:
            return
        by_id = {d.domain_id: d for d in sh.domains}
        batches = []
        for did in sh.active_domains():
            res = sh.results.get(did)
            if res is None:
                continue
            compiled = sh.compiled[did]
            cert = check_certificate(compiled.model, res)
            if not cert.ok:
                cert.raise_if_failed()
            certify_gap(compiled.model, res).raise_if_failed()
            batches.append((by_id[did].nodes, compiled, res,
                            sh.batches[did]))
        report = audit_sharded(
            sched.state, batches, reconcile=sh.reconcile,
            quantum_s=ctx.config.quantum_s, now=ctx.now,
            allocations=ctx.result.allocations)
        obs.emit("scheduler.shard_audit", audit_ok=report.ok,
                 domains=len(batches), placements=report.placements,
                 quanta_checked=report.quanta_checked)
        report.raise_if_failed()
