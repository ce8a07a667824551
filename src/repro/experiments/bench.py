"""Cycle-pipeline benchmark: tableau oracle vs revised simplex vs
sparse/decomposed variants.

``bench_cycle`` runs the *same* fixed-seed, fig12-scale scheduling cycles
through six configurations of the staged pipeline:

* ``monolithic-tableau`` — decomposition off, dense arrays, LP
  relaxations solved by the legacy dense two-phase tableau (the PR-4
  solver core, kept as the speedup baseline and differential oracle);
* ``monolithic-dense`` — decomposition off, solver consumes the dense
  ``to_standard_arrays`` export over the revised simplex;
* ``monolithic-sparse`` — decomposition off, CSR export + sparse presolve;
* ``monolithic-sparse-lu`` — the sparse pipeline with the Markowitz
  sparse-LU basis factorization forced on in the revised simplex (the
  auto heuristic would keep the LAPACK dense factor at smoke scale);
* ``decomposed-sparse`` — sparse core plus independent-component
  decomposition, solved sequentially in-process;
* ``decomposed-parallel`` — the same components dispatched to the
  persistent :class:`~repro.solver.parallel.WorkerPool` (``--workers``);
* ``decomposed-cached`` — sequential, but with the cross-cycle
  :class:`~repro.solver.parallel.ComponentCache`: the cycle sequence runs
  twice sharing one cache, the first (cold) pass warms it, the second
  (warm) pass is the one reported — every component solve becomes an
  exact-fingerprint replay;
* ``monolithic-repair`` — the relaxation-repair fast path
  (:mod:`repro.solver.repair`): lazy start-time column generation at the
  root, dive repair, audited optimality gap.  Measured against
  ``monolithic-dense`` on the solve stage, and held to its *audited* gap
  of the oracle objective instead of exact agreement;
* ``monolithic-auto-exact`` — ``solve_mode="auto"`` with a negative gap
  threshold, so every cycle escalates to the wrapped exact backend and
  must reproduce ``monolithic-dense`` bit for bit.

The workload is rack-pinned (each job's placement options stay inside one
rack) so the aggregate MILP genuinely splits into one block per rack —
the regime the paper's datacenter workloads live in, where rack-local
preferences dominate (Sec. 2.1).  Distinct per-job values make the
optimum unique, so all five configurations must report the same
objective on every cycle; any mismatch is a correctness bug, and
:func:`bench_cycle` flags it in the returned report
(``results/BENCH_cycle.json`` in CI).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any

from repro.api import Scheduler
from repro.cluster.cluster import Cluster
from repro.core.compiler import StrlCompiler
from repro.core.queues import PriorityClass
from repro.core.scheduler import (JobRequest, SolveTelemetry,
                                  TetriSchedConfig)
from repro.solver.backend import make_backend
from repro.solver.branch_bound import BranchBoundOptions, BranchBoundSolver
from repro.solver.options import SolveOptions
from repro.solver.parallel import ComponentCache
from repro.solver.repair import RepairSolver
from repro.solver.scipy_backend import highs_build
from repro.strl.generator import SpaceOption
from repro.valuefn import StepValue


@dataclass(frozen=True)
class BenchMode:
    """One pipeline configuration the benchmark compares."""

    name: str
    decomposition: bool
    sparse: bool
    #: Worker processes for component solves (0 = sequential in-process).
    workers: int = 0
    #: Run the cycle sequence twice sharing a ComponentCache and report
    #: the warm pass.
    cached: bool = False
    #: LP-relaxation engine for the pure branch-and-bound backend:
    #: ``"revised"`` or the legacy ``"tableau"`` oracle.
    lp_engine: str = "revised"
    #: Solve pipeline: ``"exact"`` (branch and bound), ``"repair"``
    #: (relaxation-repair fast path) or ``"auto"`` (repair, escalating to
    #: exact when the audited gap exceeds ``gap_threshold``).
    solve_mode: str = "exact"
    #: Auto-escalation gap ceiling; negative forces escalation every cycle.
    gap_threshold: float = 0.05


#: Order matters for the speedup report: the first mode is the oracle
#: baseline and ``decomposed-sparse`` is the sequential reference the
#: parallel/cached variants are measured against.
MODES = (
    BenchMode("monolithic-tableau", decomposition=False, sparse=False,
              lp_engine="tableau"),
    BenchMode("monolithic-dense", decomposition=False, sparse=False),
    BenchMode("monolithic-sparse", decomposition=False, sparse=True),
    BenchMode("monolithic-sparse-lu", decomposition=False, sparse=True,
              lp_engine="sparse-lu"),
    BenchMode("decomposed-sparse", decomposition=True, sparse=True),
    BenchMode("decomposed-parallel", decomposition=True, sparse=True,
              workers=2),
    BenchMode("decomposed-cached", decomposition=True, sparse=True,
              cached=True),
    # Monolithic so the compiler's lazy column groups attach (component
    # sub-models renumber columns, which disables colgen when decomposed).
    BenchMode("monolithic-repair", decomposition=False, sparse=False,
              solve_mode="repair"),
    BenchMode("monolithic-auto-exact", decomposition=False, sparse=False,
              solve_mode="auto", gap_threshold=-1.0),
)

_REL_TOL = 1e-6


def _rack_pinned_jobs(cluster: Cluster, jobs_per_rack: int, quantum_s: float,
                      seed: int) -> list[JobRequest]:
    """A deterministic oversubscribed batch of rack-local jobs.

    Values are all distinct so the MILP optimum is unique — the property
    that lets the benchmark demand exact objective agreement across
    solver configurations instead of a loose tolerance.

    A fifth of the jobs ask for three quarters of their rack instead of
    half.  Two such gangs cannot share a rack-quantum, but the LP
    relaxation happily splits them fractionally — so the root relaxation
    is genuinely fractional and exact branch and bound must search,
    which is the regime the relaxation-repair fast path is for (a
    near-integral root makes ``repair`` and ``exact`` do the same work).
    """
    rng = random.Random(seed)
    racks: dict[str, list[str]] = {}
    for name in sorted(cluster.node_names):
        racks.setdefault(name.rsplit("n", 1)[0], []).append(name)
    jobs: list[JobRequest] = []
    for r, rack in enumerate(sorted(racks)):
        nodes = frozenset(racks[rack])
        for j in range(jobs_per_rack):
            wide = rng.random() < 0.2
            k = max(2, (3 * len(nodes)) // 4) if wide \
                else rng.randint(2, max(2, len(nodes) // 2))
            dur_q = rng.randint(2, 4)
            jid = f"{rack}-job{j}"
            jobs.append(JobRequest(
                job_id=jid,
                options=(SpaceOption(nodes, k=k,
                                     duration_s=dur_q * quantum_s),),
                value_fn=StepValue(value=10.0 + len(jobs) * 0.37,
                                   deadline=1e9),
                priority=PriorityClass.SLO_ACCEPTED,
                submit_time=0.0))
    return jobs


def _build_backend(name: str, sparse: bool, rel_gap: float,
                   lp_engine: str = "revised", solve_mode: str = "exact",
                   gap_threshold: float = 0.05):
    """A backend forced onto the dense or sparse array path."""
    backend = make_backend(name, SolveOptions(
        rel_gap=rel_gap, solve_mode=solve_mode,
        repair_gap_threshold=gap_threshold))
    repair = backend if isinstance(backend, RepairSolver) else None
    if repair is not None:
        backend = repair.exact
    if isinstance(backend, BranchBoundSolver):
        opts = backend.options
        backend = BranchBoundSolver(BranchBoundOptions(
            rel_gap=opts.rel_gap, time_limit=opts.time_limit,
            node_limit=opts.node_limit, lp_solver=opts.lp_solver,
            rounding_heuristic=opts.rounding_heuristic,
            presolve=opts.presolve,
            arrays="sparse" if sparse else "dense",
            lp_engine=lp_engine))
    else:
        # Scipy backend: same switch, different spelling.
        backend.use_sparse = sparse
    if repair is not None:
        return RepairSolver(backend, mode=repair.mode,
                            gap_threshold=repair.gap_threshold,
                            rel_gap=rel_gap, time_limit=repair.time_limit)
    return backend


def _run_pass(mode: BenchMode, backend: str, plan_ahead_s: float, racks: int,
              nodes_per_rack: int, jobs_per_rack: int, cycles: int,
              quantum_s: float, seed: int, workers: int,
              cache: ComponentCache | None) -> dict[str, Any]:
    """One full cycle sequence under one mode; returns its report entry.

    A fresh cluster + scheduler every call — only ``cache`` carries state
    between passes (the cached mode's cold/warm pair).
    """
    cluster = Cluster.build(racks=racks, nodes_per_rack=nodes_per_rack)
    cfg = TetriSchedConfig(
        quantum_s=quantum_s, cycle_s=quantum_s,
        plan_ahead_s=plan_ahead_s, backend=backend,
        rel_gap=_REL_TOL, decomposition=mode.decomposition,
        solver_workers=workers if mode.workers else 0,
        solve_mode=mode.solve_mode,
        repair_gap_threshold=mode.gap_threshold,
        # Regression tripwire: every benchmarked cycle also runs the
        # repro.verify oracles — including the gap certifier, which
        # re-derives a repair result's claimed LP bound with an
        # independent engine — so a configuration that drifts from the
        # space-time invariants fails loudly instead of just slower.
        audit_mode=True)
    sched = Scheduler.open(cluster, cfg).core
    sched._backend = _build_backend(backend, mode.sparse, cfg.rel_gap,
                                    mode.lp_engine, mode.solve_mode,
                                    mode.gap_threshold)
    sched._component_cache = cache

    objectives: list[float] = []
    components: list[int] = []
    stage_s: dict[str, float] = {}
    launched = 0
    nodes = lp_iters = 0
    dual_pivots = refactorizations = warm_restarts = warm_hits = 0
    factorizations = ft_updates = pricing_candidates = 0
    fill_ratio = 0.0
    nnz = variables = constraints = 0
    cache_hits = cache_warm_hits = 0
    colgen_rounds = colgen_priced = repair_escalations = 0
    repair_gap = 0.0
    t0 = time.monotonic()
    for c in range(cycles):
        now = c * quantum_s
        # Fresh arrivals each cycle keep the MILP at fig12 scale even
        # after earlier launches consumed capacity.
        for job in _rack_pinned_jobs(cluster, jobs_per_rack, quantum_s,
                                     seed=seed + c):
            sched.submit(JobRequest(
                job_id=f"c{c}-{job.job_id}", options=job.options,
                value_fn=job.value_fn, priority=job.priority,
                submit_time=now))
        res = sched.run_cycle(now)
        stats = res.stats
        objectives.append(stats.objective)
        components.append(stats.components)
        launched += stats.launched
        nodes += stats.solver_nodes
        lp_iters += stats.lp_iterations
        dual_pivots += stats.lp_dual_pivots
        refactorizations += stats.lp_refactorizations
        warm_restarts += stats.lp_warm_restarts
        warm_hits += stats.lp_warm_hits
        factorizations += stats.lp_factorizations
        ft_updates += stats.lp_ft_updates
        pricing_candidates += stats.lp_pricing_candidates
        fill_ratio = max(fill_ratio, stats.lp_fill_ratio)
        cache_hits += stats.cache_hits
        cache_warm_hits += stats.cache_warm_hits
        colgen_rounds += stats.colgen_rounds
        colgen_priced += stats.colgen_columns_priced
        repair_escalations += stats.repair_escalations
        repair_gap = max(repair_gap, stats.repair_gap)
        nnz = max(nnz, stats.milp_nonzeros)
        variables = max(variables, stats.milp_variables)
        constraints = max(constraints, stats.milp_constraints)
        for stage, secs in stats.stage_timings.items():
            stage_s[str(stage)] = stage_s.get(str(stage), 0.0) + secs
    wall_s = time.monotonic() - t0

    entry: dict[str, Any] = {
        "objectives": objectives,
        "components": components,
        "launched": launched,
        "wall_s": wall_s,
        "cycle_mean_ms": 1000.0 * wall_s / cycles,
        "stage_timings_s": stage_s,
        "solver_nodes": nodes,
        "lp_iterations": lp_iters,
        "lp": {"engine": mode.lp_engine, "dual_pivots": dual_pivots,
               "refactorizations": refactorizations,
               "warm_restarts": warm_restarts, "warm_hits": warm_hits,
               "factorizations": factorizations, "ft_updates": ft_updates,
               "pricing_candidates": pricing_candidates,
               "fill_ratio": fill_ratio},
        "workers": workers if mode.workers else 0,
        "cache": {"hits": cache_hits, "warm_hits": cache_warm_hits},
        "milp": {"variables": variables, "constraints": constraints,
                 "nonzeros": nnz},
    }
    if mode.solve_mode != "exact":
        # The gap below is certificate-verified: audit_mode=True ran
        # certify_gap on every cycle, so reaching this line means the
        # claimed bound and gap matched an independent recomputation.
        entry["repair"] = {
            "mode": mode.solve_mode,
            "gap": repair_gap,
            "colgen_rounds": colgen_rounds,
            "columns_priced": colgen_priced,
            "escalations": repair_escalations,
        }
    return entry


def _streaming_jobs(cluster: Cluster, per_rack: int, quantum_s: float,
                    seed: int, tag: str = "") -> list[JobRequest]:
    """Rack-pinned gangs with *far* deadlines for the delta benchmark.

    Two deliberate differences from :func:`_rack_pinned_jobs`: no wide
    3/4-rack gangs (the root relaxation stays near-integral, so the
    oversubscribed queue solves fast enough to benchmark many cycles),
    and the ``StepValue`` deadline sits far beyond the plan-ahead window
    so each job's generated STRL is *shift-invariant* — the expression is
    identical from cycle to cycle, which is the property that lets the
    delta compiler reuse its cached fragment.  Deadline-near jobs
    re-shape their value every cycle and are honestly dirty; a streaming
    steady state of far-deadline jobs is the regime the cross-cycle
    cache is built for.
    """
    rng = random.Random(seed)
    racks: dict[str, list[str]] = {}
    for name in sorted(cluster.node_names):
        racks.setdefault(name.rsplit("n", 1)[0], []).append(name)
    jobs: list[JobRequest] = []
    for rack in sorted(racks):
        nodes = frozenset(racks[rack])
        for j in range(per_rack):
            k = rng.randint(2, max(2, len(nodes) // 2))
            dur_q = rng.randint(2, 4)
            jobs.append(JobRequest(
                job_id=f"{tag}{rack}-s{j}",
                options=(SpaceOption(nodes, k=k,
                                     duration_s=dur_q * quantum_s),),
                value_fn=StepValue(value=10.0 + rng.random() * 5.0,
                                   deadline=1e9),
                priority=PriorityClass.SLO_ACCEPTED,
                submit_time=0.0))
    return jobs


def _delta_stream_pass(delta_mode: str, backend: str, racks: int,
                       nodes_per_rack: int, jobs_per_rack: int, churn: int,
                       cycles: int, plan_ahead_s: float, quantum_s: float,
                       seed: int) -> dict[str, Any]:
    """One streaming cycle sequence under one ``delta_mode``.

    An oversubscribed initial batch keeps a persistent pending queue
    (plan-ahead places most jobs in future quanta, so they stay queued),
    and each later cycle streams in ``churn`` fresh arrivals — well under
    20% of the live batch.  The loose ``rel_gap`` is deliberate: the
    delta legs compare *models*, not optima, and bit-equal models through
    a deterministic solver yield bit-equal objectives at any gap, so the
    benchmark spends its wall-clock on the compile/build stages under
    test instead of proving optimality.
    """
    cluster = Cluster.build(racks=racks, nodes_per_rack=nodes_per_rack)
    cfg = TetriSchedConfig(
        quantum_s=quantum_s, cycle_s=quantum_s, plan_ahead_s=plan_ahead_s,
        backend=backend, rel_gap=0.25, decomposition=True,
        delta_mode=delta_mode)
    sched = Scheduler.open(cluster, cfg).core
    for job in _streaming_jobs(cluster, jobs_per_rack, quantum_s, seed):
        sched.submit(job)

    objectives: list[float] = []
    compile_build_s: list[float] = []
    dirty = clean = rows = cols = full_rebuilds = 0
    t0 = time.monotonic()
    for c in range(cycles):
        now = c * quantum_s
        if c > 0:
            arrivals = _streaming_jobs(cluster, 1, quantum_s,
                                       seed + 100 * c, tag=f"c{c}-")[:churn]
            for job in arrivals:
                sched.submit(job)
        stats = sched.run_cycle(now).stats
        objectives.append(stats.objective)
        compile_build_s.append(
            stats.stage_timings.get("compile", 0.0)
            + stats.stage_timings.get("model_build", 0.0))
        if c > 0:  # steady state only; the first cycle is cold in any mode
            dirty += stats.jobs_dirty
            clean += stats.jobs_clean
            rows += stats.rows_patched
            cols += stats.cols_patched
            full_rebuilds += int(stats.delta_full_rebuild)
    live = dirty + clean
    return {
        "objectives": objectives,
        "wall_s": time.monotonic() - t0,
        "compile_build_s": compile_build_s,
        # Steady-state aggregate: every cycle after the cold first one.
        "steady_compile_build_s": sum(compile_build_s[1:]),
        "jobs_dirty": dirty,
        "jobs_clean": clean,
        "rows_patched": rows,
        "cols_patched": cols,
        "full_rebuilds": full_rebuilds,
        "dirty_fraction": dirty / live if live else 0.0,
    }


def bench_delta(backend: str = "pure", racks: int = 4,
                nodes_per_rack: int = 4, quantum_s: float = 8.0,
                seed: int = 0, jobs_per_rack: int = 8, churn: int = 2,
                cycles: int = 6, plan_ahead_s: float = 64.0) -> dict[str, Any]:
    """The delta-compilation benchmark: full rebuild vs cross-cycle patch.

    Runs the identical streaming workload under ``delta_mode`` off / on /
    verify and reports the steady-state compile+model_build speedup of
    the patched path over the full rebuild.  ``ok`` demands all three at
    once: bit-equal objectives across the modes, the verify leg finishing
    without a :class:`~repro.core.delta.DeltaDivergence`, a sub-20%
    per-cycle churn, and a >=3x compile+build speedup — the acceptance
    bar for the incremental path.
    """
    from repro.core.delta import DeltaDivergence

    params = dict(backend=backend, racks=racks,
                  nodes_per_rack=nodes_per_rack,
                  jobs_per_rack=jobs_per_rack, churn=churn, cycles=cycles,
                  plan_ahead_s=plan_ahead_s, quantum_s=quantum_s, seed=seed)
    section: dict[str, Any] = {"meta": dict(params), "modes": {}}
    verify_ok = True
    for mode in ("off", "on", "verify"):
        try:
            entry = _delta_stream_pass(delta_mode=mode, **params)
        except DeltaDivergence as exc:  # pragma: no cover - regression path
            verify_ok = False
            section["modes"][mode] = {"error": str(exc)}
            continue
        section["modes"][mode] = entry

    section["verify_ok"] = verify_ok
    if verify_ok:
        objs = [section["modes"][m]["objectives"] for m in ("off", "on",
                                                            "verify")]
        section["bit_equal"] = objs[0] == objs[1] == objs[2]
        on = section["modes"]["on"]
        full = section["modes"]["off"]["steady_compile_build_s"]
        patched = on["steady_compile_build_s"]
        section["dirty_fraction"] = on["dirty_fraction"]
        section["churn_below_20pct"] = on["dirty_fraction"] < 0.2
        section["speedup_compile_build"] = full / max(1e-12, patched)
        section["speedup_ok"] = section["speedup_compile_build"] >= 3.0
        section["ok"] = (section["bit_equal"]
                         and section["churn_below_20pct"]
                         and section["speedup_ok"])
    else:
        section["bit_equal"] = False
        section["ok"] = False
    return section


#: LP-engine ablation arms: label, scheduler backend, lp_engine override
#: (``None`` leaves the backend's own LP machinery alone — the scipy arm
#: is HiGHS branch-and-cut end to end).
_LP_ARMS = (
    ("dense-inverse", "pure", "revised-inverse"),
    ("sparse-lu", "pure", "sparse-lu"),
    ("highs", "scipy", None),
)


def _lp_jobs(cluster: Cluster, jobs_per_rack: int, quantum_s: float,
             seed: int) -> list[JobRequest]:
    """Rack-pinned jobs for the LP ablation: no 3/4-rack wide gangs.

    The ``_rack_pinned_jobs`` contention profile is deliberately
    fractional so exact search has something to do; here it would make
    the benchmark measure branch-and-bound tree size instead of LP-engine
    speed.  Half-rack-and-under requests keep the root relaxations
    near-integral, so solve time is dominated by the simplex iterations
    and basis factorizations the ablation is about.
    """
    rng = random.Random(seed)
    racks: dict[str, list[str]] = {}
    for name in sorted(cluster.node_names):
        racks.setdefault(name.rsplit("n", 1)[0], []).append(name)
    jobs: list[JobRequest] = []
    for rack in sorted(racks):
        nodes = frozenset(racks[rack])
        for j in range(jobs_per_rack):
            k = rng.randint(2, max(2, len(nodes) // 2))
            dur_q = rng.randint(2, 4)
            jobs.append(JobRequest(
                job_id=f"{rack}-job{j}",
                options=(SpaceOption(nodes, k=k,
                                     duration_s=dur_q * quantum_s),),
                value_fn=StepValue(value=10.0 + len(jobs) * 0.37,
                                   deadline=1e9),
                priority=PriorityClass.SLO_ACCEPTED,
                submit_time=0.0))
    return jobs


def _lp_pass(backend_name: str, lp_engine: str | None, racks: int,
             nodes_per_rack: int, jobs_per_rack: int, cycles: int,
             quantum_s: float, plan_ahead_s: float,
             seed: int) -> dict[str, Any]:
    """One cycle sequence under one LP-engine arm (monolithic, no audit)."""
    cluster = Cluster.build(racks=racks, nodes_per_rack=nodes_per_rack)
    cfg = TetriSchedConfig(
        quantum_s=quantum_s, cycle_s=quantum_s, plan_ahead_s=plan_ahead_s,
        backend=backend_name, rel_gap=_REL_TOL, decomposition=False)
    sched = Scheduler.open(cluster, cfg).core
    if lp_engine is not None:
        sched._backend = BranchBoundSolver(BranchBoundOptions(
            rel_gap=_REL_TOL, lp_engine=lp_engine, arrays="sparse"))
    objectives: list[float] = []
    solve_s = 0.0
    tel = SolveTelemetry()
    t0 = time.monotonic()
    for c in range(cycles):
        now = c * quantum_s
        for job in _lp_jobs(cluster, jobs_per_rack, quantum_s,
                            seed=seed + c):
            sched.submit(JobRequest(
                job_id=f"c{c}-{job.job_id}", options=job.options,
                value_fn=job.value_fn, priority=job.priority,
                submit_time=now))
        # The arm under test is the LP engine, so the cycle's MILP goes to
        # the backend itself: nothing contends in these half-rack batches
        # and the cycle would book them without solving a single LP.
        compiled = StrlCompiler(sched.state, quantum_s, now).compile(
            [(job_id, sched._generate(req, now))
             for job_id, req in sched.queues.items()])
        t1 = time.monotonic()
        res = sched._backend.solve(compiled.model)
        solve_s += time.monotonic() - t1
        objectives.append(res.objective)
        tel.absorb(res)
        sched.run_cycle(now)  # launch: the next cycle meets a busy cluster
    return {
        "objectives": objectives,
        "wall_s": time.monotonic() - t0,
        "solve_s": solve_s,
        "lp_iterations": tel.lp_iterations,
        "factorizations": tel.lp_factorizations,
        "ft_updates": tel.lp_ft_updates,
        "pricing_candidates": tel.lp_pricing_candidates,
        "fill_ratio": tel.lp_fill_ratio,
    }


def bench_lp(sizes: tuple[int, ...] = (64, 128, 256),
             jobs_per_rack: int = 2, cycles: int = 1, quantum_s: float = 8.0,
             plan_ahead_s: float = 64.0, seed: int = 0) -> dict[str, Any]:
    """LP-engine ablation: dense-inverse vs sparse-LU vs HiGHS by scale.

    Runs the identical monolithic cycle sequence at each cluster size
    through the legacy explicit-inverse revised simplex, the sparse-LU /
    Forrest–Tomlin engine, and (when scipy is installed) HiGHS
    branch-and-cut, recording solve-stage time plus the engine's
    iteration/factorization/fill counters.  The two pure arms share one
    pivot path, so their objectives must agree bit for bit; HiGHS is held
    to the usual relative tolerance.  ``sparse_lu_wins_at_128`` is the
    ROADMAP acceptance verdict: the sparse factorization must beat the
    inverse engine on solve-stage time at every size >= 128 nodes.
    """
    from repro.solver.scipy_backend import scipy_available

    report: dict[str, Any] = {
        "meta": {"sizes": list(sizes), "jobs_per_rack": jobs_per_rack,
                 "cycles": cycles, "quantum_s": quantum_s,
                 "plan_ahead_s": plan_ahead_s, "seed": seed},
        "sizes": [],
    }
    for size in sizes:
        racks = max(1, size // 8)
        nodes_per_rack = size // racks
        engines: dict[str, Any] = {}
        for label, backend_name, lp_engine in _LP_ARMS:
            if backend_name == "scipy" and not scipy_available():
                continue
            engines[label] = _lp_pass(
                backend_name, lp_engine, racks, nodes_per_rack,
                jobs_per_rack, cycles, quantum_s, plan_ahead_s, seed)
        base = engines["dense-inverse"]["objectives"]
        match = engines["sparse-lu"]["objectives"] == base
        if "highs" in engines:
            match = match and all(
                abs(a - b) <= _REL_TOL * 10 * max(1.0, abs(a))
                for a, b in zip(base, engines["highs"]["objectives"]))
        entry: dict[str, Any] = {
            "nodes": size, "racks": racks,
            "nodes_per_rack": nodes_per_rack,
            "engines": engines,
            "objective_match": match,
            # >1 means the sparse LU spent less solve-stage time than the
            # explicit-inverse engine on the identical cycle sequence.
            "sparse_lu_speedup_solve":
                engines["dense-inverse"]["solve_s"]
                / max(1e-12, engines["sparse-lu"]["solve_s"]),
        }
        if "highs" in engines:
            h = max(1e-12, engines["highs"]["solve_s"])
            # Solve-time multiples over HiGHS (lower is closer).
            entry["vs_highs"] = {
                "dense_inverse": engines["dense-inverse"]["solve_s"] / h,
                "sparse_lu": engines["sparse-lu"]["solve_s"] / h,
            }
        report["sizes"].append(entry)
    report["objective_match"] = all(e["objective_match"]
                                    for e in report["sizes"])
    report["sparse_lu_wins_at_128"] = all(
        e["sparse_lu_speedup_solve"] > 1.0
        for e in report["sizes"] if e["nodes"] >= 128)
    return report


def bench_cycle(backend: str = "pure", plan_ahead_s: float = 96.0,
                racks: int = 4, nodes_per_rack: int = 4,
                jobs_per_rack: int = 2, cycles: int = 2,
                quantum_s: float = 8.0, seed: int = 0,
                workers: int = 2) -> dict[str, Any]:
    """Benchmark one fig12-style cycle sequence across the eight modes.

    Returns a JSON-serializable report (written to ``BENCH_cycle.json`` by
    the ``bench-cycle`` CLI command and the fig12 benchmark suite) whose
    ``objective_match`` field is the correctness verdict: every cycle's
    objective must agree across all exact modes within ``1e-6`` relative —
    including the parallel and cache-replay paths, which are required to
    be bit-equal to the sequential solve.  The repair mode is instead held
    to its certificate-verified audited gap of the oracle, and the
    forced-escalation auto mode must match ``monolithic-dense`` bit for
    bit; both checks fold into the same verdict.
    """
    report: dict[str, Any] = {
        "meta": {"backend": backend, "plan_ahead_s": plan_ahead_s,
                 "racks": racks, "nodes_per_rack": nodes_per_rack,
                 "jobs_per_rack": jobs_per_rack, "cycles": cycles,
                 "quantum_s": quantum_s, "seed": seed, "workers": workers,
                 "highs": highs_build()},
        "modes": {},
    }
    per_mode_objectives: dict[str, list[float]] = {}
    for mode in MODES:
        run = lambda cache: _run_pass(  # noqa: E731
            mode, backend, plan_ahead_s, racks, nodes_per_rack,
            jobs_per_rack, cycles, quantum_s, seed, workers, cache)
        if mode.cached:
            cache = ComponentCache()
            cold = run(cache)
            entry = run(cache)  # warm pass: every solve is a cache replay
            entry["cold_wall_s"] = cold["wall_s"]
        else:
            entry = run(None)
        per_mode_objectives[mode.name] = entry["objectives"]
        report["modes"][mode.name] = entry

    oracle = per_mode_objectives[MODES[0].name]
    max_delta = 0.0
    repair_within_gap = True
    for mode in MODES:
        objs = per_mode_objectives[mode.name]
        if mode.solve_mode == "repair":
            # Gap-tolerant: the repaired incumbent may undershoot the
            # oracle, but only by its own *audited* gap — and never
            # overshoot a proven optimum.
            gap = report["modes"][mode.name]["repair"]["gap"]
            for a, b in zip(oracle, objs):
                scale = max(1.0, abs(a))
                shortfall = a - b
                if (shortfall > gap * max(1.0, abs(b)) + _REL_TOL * 10 * scale
                        or shortfall < -_REL_TOL * 10 * scale):
                    repair_within_gap = False
            continue
        for a, b in zip(oracle, objs):
            max_delta = max(max_delta,
                            abs(a - b) / max(1.0, abs(a)))
    # Forced escalation (gap_threshold < 0) must reproduce the exact
    # monolithic-dense objectives bit for bit — same backend, same
    # options, after a discarded repair attempt.
    auto_bitmatch = (per_mode_objectives["monolithic-auto-exact"]
                     == per_mode_objectives["monolithic-dense"])
    report["objective_match"] = (max_delta <= _REL_TOL * 10
                                 and repair_within_gap and auto_bitmatch)
    report["max_objective_delta"] = max_delta
    report["repair_within_gap"] = repair_within_gap
    report["auto_exact_bitmatch"] = auto_bitmatch

    def _wall(mode_name: str) -> float:
        return report["modes"][mode_name]["wall_s"]

    def _solve_s(mode_name: str) -> float:
        return report["modes"][mode_name]["stage_timings_s"].get("solve", 0.0)

    report["speedup"] = {
        # The tentpole number: revised-simplex solve stage vs the legacy
        # tableau on the identical monolithic-dense configuration.
        "revised_vs_tableau": _solve_s("monolithic-tableau")
        / max(1e-12, _solve_s("monolithic-dense")),
        "sparse_vs_dense": _wall("monolithic-dense")
        / max(1e-12, _wall("monolithic-sparse")),
        "decomposed_vs_dense": _wall("monolithic-dense")
        / max(1e-12, _wall("decomposed-sparse")),
        "decomposed_vs_sparse": _wall("monolithic-sparse")
        / max(1e-12, _wall("decomposed-sparse")),
        "parallel_vs_sequential": _wall("decomposed-sparse")
        / max(1e-12, _wall("decomposed-parallel")),
        "cached_vs_sequential": _wall("decomposed-sparse")
        / max(1e-12, _wall("decomposed-cached")),
        # Relaxation-repair fast path vs exact branch and bound on the
        # identical monolithic-dense configuration, solve stage only
        # (the gap-certification overhead lands in the audit stage).
        "repair_vs_exact_solve": _solve_s("monolithic-dense")
        / max(1e-12, _solve_s("monolithic-repair")),
    }
    # The delta-compilation benchmark runs at its own canonical streaming
    # scale (a persistent oversubscribed queue) rather than the caller's
    # fig12 geometry — small smoke geometries would starve the cache of
    # clean fragments and measure nothing.
    report["delta"] = bench_delta(backend=backend, quantum_s=quantum_s,
                                  seed=seed)
    repair_entry = report["modes"]["monolithic-repair"]["repair"]
    report["repair"] = {
        "gap": repair_entry["gap"],
        "gap_ok": repair_entry["gap"] <= 0.05,
        "colgen_rounds": repair_entry["colgen_rounds"],
        "columns_priced": repair_entry["columns_priced"],
        "escalations": repair_entry["escalations"],
        "solve_speedup_vs_exact": report["speedup"]["repair_vs_exact_solve"],
        "auto_escalations":
            report["modes"]["monolithic-auto-exact"]["repair"]["escalations"],
    }
    # Elastic-vs-rigid gang comparison, also at its own canonical
    # contended 256-node geometry: the claim under test (width re-planning
    # beats max-width gangs on utilization *and* value) needs a cluster
    # where rigid gangs genuinely strand capacity.
    report["elastic"] = bench_elastic(backend=backend, seed=seed)
    # LP-engine ablation at its own canonical 64/128/256-node scales —
    # the sparse-LU-vs-inverse claim needs bases big enough for the
    # factorization to matter, not the caller's smoke geometry.
    report["bench_lp"] = bench_lp(seed=seed)
    return report


def _elastic_gangs(cluster: Cluster, quantum_s: float, horizon_q: int,
                   elastic: bool) -> list[JobRequest]:
    """One malleable gang per rack: width 24 of 32 preferred, ladder to 16.

    Durations are work-conserving (``24 * horizon / w``, rounded up to
    quanta), so shrinking a gang trades width for runtime at constant
    node-seconds.  The rigid arm submits the identical gangs as their
    max-width option *only* — the all-or-nothing shape malleability
    replaces.
    """
    jobs: list[JobRequest] = []
    full_q = horizon_q
    for rack in sorted(cluster.rack_names):
        nodes = frozenset(cluster.rack_nodes(rack))
        top = (3 * len(nodes)) // 4
        lo = len(nodes) // 2
        widths = range(lo, top + 1) if elastic else range(top, top + 1)
        jobs.append(JobRequest(
            job_id=f"{rack}-gang",
            options=tuple(
                SpaceOption(nodes, k=w,
                            duration_s=-(-top * full_q // w) * quantum_s,
                            label=f"w{w}")
                for w in sorted(widths, reverse=True)),
            value_fn=StepValue(value=5.0, deadline=1e9),
            priority=PriorityClass.BEST_EFFORT, submit_time=0.0,
            elastic=elastic))
    return jobs


def _elastic_burst(cluster: Cluster, quantum_s: float, now: float,
                   per_rack: int, tag: str) -> list[JobRequest]:
    """A burst of rack-pinned SLO gangs that only fit if gangs shrink.

    Each wants half a rack for one quantum within a three-quantum
    deadline.  With a rigid 3/4-rack gang in place only a quarter rack is
    free, so every one of these is culled; a malleable gang shrunk to
    half-rack leaves exactly the room to run them back to back.
    """
    jobs: list[JobRequest] = []
    for rack in sorted(cluster.rack_names):
        nodes = frozenset(cluster.rack_nodes(rack))
        k = len(nodes) // 2
        deadline = now + 3 * quantum_s
        for j in range(per_rack):
            jobs.append(JobRequest(
                job_id=f"{tag}{rack}-slo{j}",
                options=(SpaceOption(nodes, k=k, duration_s=quantum_s),),
                value_fn=StepValue(value=50.0, deadline=deadline),
                priority=PriorityClass.SLO_ACCEPTED, submit_time=now,
                deadline=deadline))
    return jobs


def _elastic_pass(elastic: bool, backend: str, racks: int,
                  nodes_per_rack: int, quantum_s: float, horizon_q: int,
                  burst_cycles: tuple[int, ...], burst_per_rack: int,
                  plan_ahead_s: float, seed: int,
                  max_cycles: int) -> dict[str, Any]:
    """One arm of the elastic-vs-rigid comparison, run to completion.

    Cycles continue until the cluster drains (no running or pending
    work), so each arm is scored over its *own* makespan — work
    conservation means a shrunk gang runs longer, and cutting it off
    early would flatter the elastic arm.
    """
    cluster = Cluster.build(racks=racks, nodes_per_rack=nodes_per_rack)
    cfg = TetriSchedConfig(
        quantum_s=quantum_s, cycle_s=quantum_s, plan_ahead_s=plan_ahead_s,
        backend=backend, rel_gap=1e-6, decomposition=True,
        elastic_mode=elastic, seed=seed,
        # Every cycle replays the MILP certificate and the schedule
        # auditor (including the elastic-shape conformance checks), so a
        # re-plan that violates capacity or the width ladder fails the
        # bench instead of inflating its utilization.
        audit_mode=True)
    api = Scheduler.open(cluster, cfg)
    capacity = len(cluster)
    for job in _elastic_gangs(cluster, quantum_s, horizon_q, elastic):
        api.submit(job)

    busy_node_s = 0.0
    value_by_job: dict[str, float] = {}
    done: set[str] = set()
    resizes = launched = 0
    cycle_ms: list[float] = []
    end_time = 0.0
    for c in range(max_cycles):
        now = c * quantum_s
        # The facade leaves completion reporting to the caller: every job
        # runs exactly its planned duration here, so finish each one at
        # its (resize-adjusted) expected end.
        for job_id, end in sorted(value_by_job.items()):
            if job_id not in done and end <= now + 1e-9:
                api.job_finished(job_id, now)
                done.add(job_id)
        if c in burst_cycles:
            for job in _elastic_burst(cluster, quantum_s, now,
                                      burst_per_rack, tag=f"b{c}-"):
                api.submit(job)
        t0 = time.monotonic()
        res = api.run_cycle(now)
        cycle_ms.append(1000.0 * (time.monotonic() - t0))
        resizes += len(res.resized)
        launched += len(res.allocations) - len(res.resized)
        for a in res.allocations:
            value_by_job[a.job_id] = a.expected_end
            end_time = max(end_time, a.expected_end)
        busy = capacity - len(api.core.state.free_nodes())
        busy_node_s += busy * quantum_s
        if busy == 0 and api.pending_count == 0 and c >= max(
                burst_cycles, default=0):
            break
    # Realized value: each launched job scored once, at its final
    # expected completion (resizes updated it); culled jobs score zero.
    reqs = {j.job_id: j for j in
            _elastic_gangs(cluster, quantum_s, horizon_q, elastic)}
    for bc in burst_cycles:
        for j in _elastic_burst(cluster, quantum_s, bc * quantum_s,
                                burst_per_rack, tag=f"b{bc}-"):
            reqs[j.job_id] = j
    total_value = sum(reqs[job_id].value_fn(end)
                      for job_id, end in value_by_job.items())
    entry = {
        "elastic_mode": elastic,
        "makespan_s": end_time,
        "utilization": (busy_node_s / (capacity * end_time)
                        if end_time else 0.0),
        "total_value": total_value,
        "launched": launched,
        "resizes": resizes,
        "slo_completed": sum(1 for j in value_by_job if "-slo" in j),
        "slo_offered": len(burst_cycles) * burst_per_rack * racks,
        "cycle_mean_ms": (sum(cycle_ms) / len(cycle_ms)
                          if cycle_ms else 0.0),
        "cycles": len(cycle_ms),
    }
    api.close()
    return entry


def bench_elastic(backend: str = "pure", racks: int = 8,
                  nodes_per_rack: int = 32, quantum_s: float = 8.0,
                  horizon_q: int = 8,
                  burst_cycles: tuple[int, ...] = (2, 5),
                  burst_per_rack: int = 3, plan_ahead_s: float = 64.0,
                  seed: int = 0, max_cycles: int = 24) -> dict[str, Any]:
    """Elastic width re-planning vs rigid max-width gangs at 256 nodes.

    The identical contended workload — one 3/4-rack gang per rack plus
    bursts of half-rack SLO jobs — runs through both arms.  The rigid arm
    submits each gang as its max-width option only; the elastic arm
    submits the full width ladder with ``elastic_mode`` on.  Because gang
    durations are work-conserving, the gangs contribute the same
    node-seconds in both arms; any utilization difference comes from the
    SLO work the cluster could or could not also admit.  Verdict ``ok``
    requires the elastic arm to win on *both* cluster utilization and
    total realized value, with at least one width re-plan actually
    performed (every cycle of both arms ran under the audit oracle).
    """
    params = dict(backend=backend, racks=racks,
                  nodes_per_rack=nodes_per_rack, quantum_s=quantum_s,
                  horizon_q=horizon_q, burst_cycles=burst_cycles,
                  burst_per_rack=burst_per_rack, plan_ahead_s=plan_ahead_s,
                  seed=seed, max_cycles=max_cycles)
    report: dict[str, Any] = {
        "meta": {**params, "burst_cycles": list(burst_cycles),
                 "nodes": racks * nodes_per_rack},
    }
    report["rigid"] = _elastic_pass(elastic=False, **params)
    report["elastic"] = _elastic_pass(elastic=True, **params)
    report["utilization_win"] = (report["elastic"]["utilization"]
                                 > report["rigid"]["utilization"])
    report["value_win"] = (report["elastic"]["total_value"]
                           > report["rigid"]["total_value"])
    report["resizes"] = report["elastic"]["resizes"]
    report["ok"] = (report["utilization_win"] and report["value_win"]
                    and report["resizes"] > 0)
    return report


def format_bench_elastic(report: dict[str, Any]) -> str:
    """Human-readable summary of a :func:`bench_elastic` report."""
    meta = report["meta"]
    lines = [f"bench-elastic: backend={meta['backend']} "
             f"{meta['nodes']} nodes "
             f"({meta['racks']}x{meta['nodes_per_rack']}) "
             f"bursts at cycles {meta['burst_cycles']} seed={meta['seed']}"]
    for arm in ("rigid", "elastic"):
        e = report[arm]
        lines.append(
            f"  {arm:<7}: utilization={e['utilization']:.3f} "
            f"value={e['total_value']:.0f} "
            f"slo={e['slo_completed']}/{e['slo_offered']} "
            f"resizes={e['resizes']} makespan={e['makespan_s']:.0f}s "
            f"({e['cycle_mean_ms']:.0f}ms/cycle x {e['cycles']})")
    lines.append(
        f"  elastic wins utilization: {report['utilization_win']}, "
        f"value: {report['value_win']}, resizes>0: "
        f"{report['resizes'] > 0} -> ok={report['ok']}")
    return "\n".join(lines)


class StreamingStats:
    """Constant-memory accumulator for a metric stream (Welford mean).

    The sharded bench replays hundreds of cycles at up to 1024 nodes;
    keeping every per-cycle record would make peak memory grow with
    trace length.  This keeps five floats per metric and still reports
    count / mean / min / max / total.
    """

    __slots__ = ("n", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)
        self.min = min(self.min, x)
        self.max = max(self.max, x)

    @property
    def total(self) -> float:
        return self.mean * self.n

    @property
    def variance(self) -> float:
        return self._m2 / self.n if self.n else 0.0

    def to_dict(self) -> dict[str, float]:
        if self.n == 0:
            return {"n": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "total": 0.0}
        return {"n": self.n, "mean": self.mean, "min": self.min,
                "max": self.max, "total": self.total}


def _shard_jobs(cluster: Cluster, per_rack: int, quantum_s: float,
                seed: int, tag: str = "") -> list[JobRequest]:
    """Rack-affine gangs with a pod-pair-spanning fallback option.

    Each job prefers its home rack but also carries a wider, longer
    option spanning the next rack over (wrap-around).  The fallbacks
    chain every rack to its neighbour, so the monolithic MILP is one
    giant connected component — the regime where global scheduling at
    1k nodes blows the cycle budget.  Rack-aligned domains cut exactly
    those chains: jobs interior to a domain keep both options
    (untrimmed, exact), jobs at a domain seam lose the spanning
    fallback (trimmed, charged to the declared quality bound).
    """
    rng = random.Random(seed)
    rack_list = sorted(cluster.rack_names)
    jobs: list[JobRequest] = []
    for r, rack in enumerate(rack_list):
        home = frozenset(cluster.rack_nodes(rack))
        pair = home | frozenset(
            cluster.rack_nodes(rack_list[(r + 1) % len(rack_list)]))
        for j in range(per_rack):
            k = rng.randint(2, max(2, len(home) // 2))
            dur_q = rng.randint(2, 4)
            jobs.append(JobRequest(
                job_id=f"{tag}{rack}-g{j}",
                options=(
                    SpaceOption(home, k=k, duration_s=dur_q * quantum_s,
                                label="rack"),
                    SpaceOption(pair, k=k, duration_s=(dur_q + 1) * quantum_s,
                                label="pod-pair"),
                ),
                value_fn=StepValue(value=10.0 + rng.random() * 5.0,
                                   deadline=1e9),
                priority=PriorityClass.SLO_ACCEPTED,
                submit_time=0.0))
    return jobs


def _shard_pass(racks: int, nodes_per_rack: int, shard_mode: str,
                shard_count: int, backend: str, jobs_per_rack: int,
                cycles: int, quantum_s: float, plan_ahead_s: float,
                seed: int, workers: int, time_limit: float,
                audit: bool = False,
                keep_allocs: bool = False) -> dict[str, Any]:
    """One trace replay (monolithic or sharded) with streaming metrics.

    ``cycle_history`` is cleared after each cycle is folded into the
    streaming accumulators, so memory stays constant in trace length —
    the property that makes the 1024-node replay feasible in CI.
    """
    cluster = Cluster.build(racks=racks, nodes_per_rack=nodes_per_rack)
    cfg = TetriSchedConfig(
        quantum_s=quantum_s, cycle_s=quantum_s, plan_ahead_s=plan_ahead_s,
        backend=backend, rel_gap=0.1, decomposition=True,
        solver_workers=workers, solver_time_limit=time_limit,
        shard_mode=shard_mode, shard_count=shard_count, seed=seed,
        audit_mode=audit)
    api = Scheduler.open(cluster, cfg)
    sched = api.core

    cycle_ms = StreamingStats()
    solve_ms = StreamingStats()
    objective = StreamingStats()
    launched = StreamingStats()
    bound = StreamingStats()
    objectives: list[float] = []
    allocs: list[tuple] = []
    boundary_jobs = trimmed_jobs = fallbacks = 0
    t0 = time.monotonic()
    for c in range(cycles):
        now = c * quantum_s
        # Workload stream is derived from the config's single seed so a
        # sharded replay is bit-reproducible end to end.
        for job in _shard_jobs(cluster, jobs_per_rack, quantum_s,
                               seed=cfg.seed + 1000 * c, tag=f"c{c}-"):
            api.submit(job)
        t_cycle = time.monotonic()
        res = api.run_cycle(now)
        cycle_ms.add(1000.0 * (time.monotonic() - t_cycle))
        stats = res.stats
        solve_ms.add(1000.0 * stats.solver_latency_s)
        objective.add(stats.objective)
        launched.add(stats.launched)
        bound.add(stats.shard_quality_bound)
        boundary_jobs += stats.shard_boundary_jobs
        trimmed_jobs += stats.shard_trimmed_jobs
        fallbacks += stats.shard_greedy_fallbacks
        objectives.append(stats.objective)
        if keep_allocs:
            allocs.extend(
                sorted((a.job_id, tuple(sorted(a.nodes)), a.start_time,
                        a.expected_end) for a in res.allocations))
        # Constant memory: fold, then drop the per-cycle record.
        sched.cycle_history.clear()
    entry: dict[str, Any] = {
        "nodes": len(cluster),
        "shard_mode": shard_mode,
        "domains": (len(sched._coordinator.domains)
                    if sched._coordinator is not None else 1),
        "wall_s": time.monotonic() - t0,
        "cycle_ms": cycle_ms.to_dict(),
        "solve_ms": solve_ms.to_dict(),
        "objective": objective.to_dict(),
        "launched": launched.to_dict(),
        "quality_bound": bound.to_dict(),
        "boundary_jobs": boundary_jobs,
        "trimmed_jobs": trimmed_jobs,
        "greedy_fallbacks": fallbacks,
        "objectives": objectives,
    }
    if keep_allocs:
        entry["allocations"] = allocs
    api.close()
    return entry


def bench_shard(sizes: tuple[int, ...] = (256, 512, 1024),
                backend: str = "pure", nodes_per_rack: int = 32,
                jobs_per_rack: int = 2, cycles: int = 3,
                quantum_s: float = 8.0, plan_ahead_s: float = 64.0,
                seed: int = 0, workers: int = 2,
                time_limit: float = 2.0) -> dict[str, Any]:
    """The sharding benchmark: monolithic-parallel vs sharded trace replay.

    For each cluster size, the identical seeded workload stream replays
    through (a) the monolithic pipeline with parallel decomposed solves
    under ``time_limit`` per solve — the best non-sharded configuration —
    and (b) the sharded pipeline (rack-aligned domains).  Per-size
    verdicts:

    * ``speedup_ok`` — sharded mean cycle time at least 2x better;
    * ``quality_ok`` — sharded objective within the *declared* bound of
      the monolithic objective on every cycle (the bound each cycle
      published, audited via ``shard_quality_bound``);

    and once, at the smallest size, ``shard1_bit_equal``: the sharded
    pipeline at ``shard_count=1`` must reproduce the monolithic run's
    allocations and objectives bit for bit.
    """
    report: dict[str, Any] = {
        "meta": {"sizes": list(sizes), "backend": backend,
                 "nodes_per_rack": nodes_per_rack,
                 "jobs_per_rack": jobs_per_rack, "cycles": cycles,
                 "quantum_s": quantum_s, "plan_ahead_s": plan_ahead_s,
                 "seed": seed, "workers": workers,
                 "time_limit": time_limit},
        "sizes": [],
    }
    common = dict(nodes_per_rack=nodes_per_rack, backend=backend,
                  jobs_per_rack=jobs_per_rack, cycles=cycles,
                  quantum_s=quantum_s, plan_ahead_s=plan_ahead_s,
                  seed=seed, workers=workers, time_limit=time_limit)
    all_ok = True
    for size in sizes:
        racks = max(1, size // nodes_per_rack)
        mono = _shard_pass(racks=racks, shard_mode="off", shard_count=0,
                           **common)
        shard = _shard_pass(racks=racks, shard_mode="racks", shard_count=0,
                            audit=True, **common)
        speedup = mono["cycle_ms"]["mean"] / max(1e-9,
                                                 shard["cycle_ms"]["mean"])
        # Per-cycle quality audit: the sharded objective may trail the
        # monolithic one by at most the bound that cycle declared.
        tol = 1e-6
        quality_ok = all(
            s >= m - b - tol * max(1.0, abs(m))
            for m, s, b in zip(
                mono["objectives"], shard["objectives"],
                [shard["quality_bound"]["max"]] * len(mono["objectives"])))
        exact_parity = (shard["trimmed_jobs"] == 0
                        and shard["boundary_jobs"] == 0)
        if exact_parity:
            quality_ok = mono["objectives"] == shard["objectives"]
        entry = {
            "nodes": size, "racks": racks,
            "monolithic": mono, "sharded": shard,
            "speedup_cycle": speedup,
            "speedup_ok": speedup >= 2.0,
            "quality_ok": quality_ok,
            "exact_parity": exact_parity,
        }
        all_ok = all_ok and entry["speedup_ok"] and quality_ok
        report["sizes"].append(entry)

    # shard_count=1 bit-equality at the smallest size: one whole-cluster
    # domain must reproduce the monolithic pipeline exactly.
    racks0 = max(1, min(sizes) // nodes_per_rack)
    small = dict(common, cycles=min(cycles, 2))
    mono1 = _shard_pass(racks=racks0, shard_mode="off", shard_count=0,
                        keep_allocs=True, **small)
    shard1 = _shard_pass(racks=racks0, shard_mode="racks", shard_count=1,
                         keep_allocs=True, **small)
    report["shard1_bit_equal"] = (
        mono1["objectives"] == shard1["objectives"]
        and mono1["allocations"] == shard1["allocations"])
    report["ok"] = all_ok and report["shard1_bit_equal"]
    return report


def format_bench_shard(report: dict[str, Any]) -> str:
    """Human-readable summary of a :func:`bench_shard` report."""
    meta = report["meta"]
    lines = [f"bench-shard: backend={meta['backend']} "
             f"sizes={meta['sizes']} cycles={meta['cycles']} "
             f"seed={meta['seed']} time-limit={meta['time_limit']:g}s"]
    for entry in report["sizes"]:
        mono, shard = entry["monolithic"], entry["sharded"]
        lines.append(
            f"  {entry['nodes']:>5} nodes: monolithic "
            f"{mono['cycle_ms']['mean']:.0f}ms/cycle vs sharded "
            f"{shard['cycle_ms']['mean']:.0f}ms/cycle "
            f"({shard['domains']} domains) -> "
            f"{entry['speedup_cycle']:.2f}x "
            f"(>=2x ok={entry['speedup_ok']})")
        lines.append(
            f"    quality: ok={entry['quality_ok']} "
            f"exact-parity={entry['exact_parity']} "
            f"bound(max)={shard['quality_bound']['max']:.2f} "
            f"trimmed={shard['trimmed_jobs']} "
            f"boundary={shard['boundary_jobs']} "
            f"fallbacks={shard['greedy_fallbacks']}")
    lines.append(f"  shard_count=1 bit-equal: {report['shard1_bit_equal']}")
    lines.append(f"  ok: {report['ok']}")
    return "\n".join(lines)


def format_bench(report: dict[str, Any]) -> str:
    """Human-readable summary of a :func:`bench_cycle` report."""
    lines = []
    meta = report["meta"]
    lines.append(
        f"bench-cycle: backend={meta['backend']} "
        f"plan-ahead={meta['plan_ahead_s']:g}s "
        f"cluster={meta['racks']}x{meta['nodes_per_rack']} "
        f"cycles={meta['cycles']} seed={meta['seed']} "
        f"workers={meta.get('workers', 0)}")
    for mode, m in report["modes"].items():
        stages = " ".join(f"{k}={1000 * v:.1f}ms"
                          for k, v in sorted(m["stage_timings_s"].items()))
        lines.append(
            f"  {mode:<19}: wall={m['wall_s'] * 1000:.1f}ms "
            f"components={m['components']} objectives="
            f"{[round(o, 3) for o in m['objectives']]}")
        lines.append(f"    stages: {stages}")
        lp = m.get("lp", {})
        if lp:
            lines.append(
                f"    lp[{lp.get('engine', '?')}]: "
                f"{m['lp_iterations']} iterations, "
                f"{lp.get('dual_pivots', 0)} dual pivots, "
                f"{lp.get('refactorizations', 0)} refactorizations, "
                f"warm restarts {lp.get('warm_hits', 0)}"
                f"/{lp.get('warm_restarts', 0)}")
        cache = m.get("cache", {})
        if cache.get("hits") or cache.get("warm_hits"):
            lines.append(
                f"    cache: {cache['hits']} exact hits, "
                f"{cache['warm_hits']} warm-start hits "
                f"(cold pass {1000 * m.get('cold_wall_s', 0.0):.1f}ms)")
        repair = m.get("repair")
        if repair:
            lines.append(
                f"    repair[{repair['mode']}]: gap={repair['gap']:.2e} "
                f"colgen rounds={repair['colgen_rounds']} "
                f"priced={repair['columns_priced']} "
                f"escalations={repair['escalations']}")
    sp = report["speedup"]
    lines.append(
        f"  speedup: revised/tableau(solve)={sp['revised_vs_tableau']:.2f}x "
        f"sparse/dense={sp['sparse_vs_dense']:.2f}x "
        f"decomposed/dense={sp['decomposed_vs_dense']:.2f}x "
        f"decomposed/sparse={sp['decomposed_vs_sparse']:.2f}x")
    lines.append(
        f"  parallel/sequential={sp['parallel_vs_sequential']:.2f}x "
        f"cached/sequential={sp['cached_vs_sequential']:.2f}x "
        f"repair/exact(solve)={sp['repair_vs_exact_solve']:.2f}x")
    rep = report.get("repair")
    if rep:
        lines.append(
            f"  repair: certified gap {rep['gap']:.2e} "
            f"(gap_ok={rep['gap_ok']}) "
            f"solve speedup {rep['solve_speedup_vs_exact']:.2f}x, "
            f"auto escalations {rep['auto_escalations']}, "
            f"bit-match {report.get('auto_exact_bitmatch')}")
    delta = report.get("delta")
    if delta:
        on = delta["modes"].get("on", {})
        lines.append(
            f"  delta: compile+build speedup "
            f"{delta.get('speedup_compile_build', 0.0):.2f}x "
            f"(>=3x ok={delta.get('speedup_ok')}) "
            f"dirty fraction {delta.get('dirty_fraction', 0.0):.1%} "
            f"(dirty={on.get('jobs_dirty', 0)} clean={on.get('jobs_clean', 0)} "
            f"full rebuilds={on.get('full_rebuilds', 0)})")
        lines.append(
            f"  delta: bit-equal {delta.get('bit_equal')} "
            f"verify ok {delta.get('verify_ok')} -> ok={delta.get('ok')}")
    lp_rep = report.get("bench_lp")
    if lp_rep:
        for entry in lp_rep["sizes"]:
            engines = entry["engines"]
            parts = []
            for label, arm in engines.items():
                extra = ""
                if arm["factorizations"]:
                    extra = (f" fact={arm['factorizations']}"
                             f" ft={arm['ft_updates']}"
                             f" fill={arm['fill_ratio']:.1f}")
                parts.append(f"{label}={1000 * arm['solve_s']:.0f}ms"
                             f" it={arm['lp_iterations']}{extra}")
            lines.append(f"  lp[{entry['nodes']}n]: " + " | ".join(parts))
            lines.append(
                f"    sparse-lu/inverse solve speedup "
                f"{entry['sparse_lu_speedup_solve']:.2f}x "
                f"match={entry['objective_match']}")
        lines.append(
            f"  lp ablation: sparse-lu wins at >=128n: "
            f"{lp_rep['sparse_lu_wins_at_128']} "
            f"(objectives match: {lp_rep['objective_match']})")
    lines.append(
        f"  objective match: {report['objective_match']} "
        f"(max relative delta {report['max_objective_delta']:.2e}, "
        f"repair within gap {report.get('repair_within_gap')})")
    return "\n".join(lines)
