"""Schedule auditing: recheck a cycle's decisions against STRL semantics.

The compiler (Algorithm 1) encodes space-time feasibility as MILP
constraints; the solver stack then has several configurations that all
claim to respect them.  The auditor trusts none of that.  Given the cluster
state, the compiled batch, and a solve result, it independently rechecks:

* **capacity** — for every (partition, quantum) pair in the plan-ahead
  window, the nodes the solution assigns never exceed the nodes actually
  free, recomputed here from the raw running-allocation ledger;
* **shape conformance** — each ``nCk`` leaf takes exactly ``k`` nodes or
  none, ``LnCk`` at most ``k``, ``max`` activates at most one child,
  ``min`` gangs are all-or-nothing, and a ``barrier`` only yields value
  when its child actually reaches the threshold;
* **double placement** — no already-running job receives new resources
  (unless the solve explicitly preempted it or re-planned its width), and
  this cycle's launch decisions use disjoint, currently-free nodes
  matching the solved counts;
* **elastic lifecycle** — an ``ElasticNCk`` activates at most one width,
  inside its declared ``[min, max]`` band, with value reconciled at the
  *chosen* width; a resize decision must have released the old
  allocation's quanta back to the ledger (no leak) while a keep decision
  must have left it untouched;
* **objective reconciliation** — the claimed MILP objective is recomputed
  bottom-up from the STRL trees (i.e. from the value functions the
  generator baked into the leaves) minus any preemption penalties; a
  solver configuration claiming value the schedule does not deliver is
  flagged.

Violations are structured (:class:`Violation`) and surface either as a
report (:func:`audit_cycle`) or as a raised :class:`AuditViolation`
(the pipeline's audit stage).  The evaluation walks the STRL AST directly
— it shares no code with the compiler's ``gen()`` — so an encoding bug
and its decoder cannot agree by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ReproError
from repro.solver.result import SolveStatus
from repro.strl.ast import (Barrier, ElasticNCk, LnCk, Max, Min, NCk, Scale,
                            StrlNode, Sum)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.cluster.state import ClusterState
    from repro.core.allocation import Allocation
    from repro.core.compiler import CompiledBatch, LeafRecord
    from repro.solver.result import MILPResult


@dataclass(frozen=True)
class Violation:
    """One audited invariant that did not hold.

    ``kind`` is a stable dotted identifier (``"audit.capacity"``,
    ``"certificate.integrality"``, ...) suitable for counting and
    filtering; ``context`` carries the numbers behind the message.
    """

    kind: str
    message: str
    context: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


class AuditViolation(ReproError):
    """Raised when verification finds one or more violations.

    Carries every :class:`Violation` found (``.violations``), not just the
    first, so a failing audit reports the full damage at once.
    """

    def __init__(self, violations: Sequence[Violation]) -> None:
        self.violations: tuple[Violation, ...] = tuple(violations)
        if not self.violations:
            raise ValueError("AuditViolation requires at least one violation")
        head = self.violations[0]
        extra = (f" (+{len(self.violations) - 1} more)"
                 if len(self.violations) > 1 else "")
        super().__init__(f"{head}{extra}")


@dataclass
class AuditReport:
    """Everything one audit pass established about a cycle's solution."""

    violations: tuple[Violation, ...]
    #: Active leaf placements found in the solution.
    placements: int = 0
    #: (partition, quantum) capacity cells rechecked.
    quanta_checked: int = 0
    #: Objective the result claimed.
    objective_claimed: float = float("nan")
    #: Objective recomputed bottom-up from the STRL trees.
    objective_recomputed: float = float("nan")
    #: Jobs the solution chose to preempt.
    preempted: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> None:
        """Raise :class:`AuditViolation` when any invariant failed."""
        if self.violations:
            raise AuditViolation(self.violations)


@dataclass
class _LeafUse:
    """One active leaf's decoded space-time demand."""

    job_id: str
    start: int
    duration: int
    counts: dict[int, int]  # pid -> node count


class _StrlEvaluator:
    """Bottom-up STRL evaluation of a solution, independent of the MILP.

    The compiler creates leaf records in pre-order leaf order per job, so
    zipping ``expr.leaves()`` against that job's records recovers the
    variable mapping without touching compiler internals beyond the
    documented :class:`~repro.core.compiler.LeafRecord` bookkeeping.
    """

    def __init__(self, records: "Iterable[LeafRecord]", x: np.ndarray,
                 violations: list[Violation], tol: float) -> None:
        self._records = iter(records)
        self._x = x
        self._violations = violations
        self._tol = tol
        self.uses: list[_LeafUse] = []

    def evaluate(self, job_id: str, expr: StrlNode) -> float:
        value, _active = self._eval(job_id, expr)
        leftover = next(self._records, None)
        if leftover is not None:
            self._violations.append(Violation(
                "audit.leaf-mismatch",
                f"job {job_id!r}: compiled batch has more leaf records "
                f"than the STRL tree has leaves"))
        return value

    # -- recursive walk ----------------------------------------------------
    def _eval(self, job_id: str, expr: StrlNode) -> tuple[float, bool]:
        if isinstance(expr, (NCk, LnCk)):
            return self._eval_leaf(job_id, expr)
        if isinstance(expr, Max):
            return self._eval_max(job_id, expr)
        if isinstance(expr, ElasticNCk):
            return self._eval_elastic(job_id, expr)
        if isinstance(expr, Min):
            return self._eval_min(job_id, expr)
        if isinstance(expr, Sum):
            values, actives = zip(*(self._eval(job_id, c)
                                    for c in expr.subexprs))
            return sum(values), any(actives)
        if isinstance(expr, Scale):
            value, active = self._eval(job_id, expr.subexpr)
            return expr.factor * value, active
        if isinstance(expr, Barrier):
            return self._eval_barrier(job_id, expr)
        raise ReproError(f"cannot audit STRL node {expr!r}")

    def _eval_leaf(self, job_id: str, leaf: NCk | LnCk) -> tuple[float, bool]:
        rec = next(self._records, None)
        if rec is None or rec.leaf != leaf or rec.job_id != job_id:
            self._violations.append(Violation(
                "audit.leaf-mismatch",
                f"job {job_id!r}: leaf {leaf!r} has no matching compiled "
                f"record (batch/tree structure diverged)"))
            return 0.0, False
        indicator_on = self._x[rec.indicator] > 0.5
        counts: dict[int, int] = {}
        for pid, col in rec.partition_cols.items():
            v = int(round(float(self._x[col]) * rec.coef))
            if v < 0:
                self._violations.append(Violation(
                    "audit.negative-count",
                    f"job {job_id!r}: partition {pid} assigned {v} nodes"))
                v = 0
            if v:
                counts[pid] = v
        total = sum(counts.values())

        if isinstance(leaf, NCk):
            if indicator_on and total != leaf.k:
                self._violations.append(Violation(
                    "audit.nck-shape",
                    f"job {job_id!r}: active nCk leaf (start={leaf.start}, "
                    f"dur={leaf.duration}) took {total} nodes, needs "
                    f"exactly k={leaf.k}",
                    {"job": job_id, "got": total, "k": leaf.k}))
            if not indicator_on and total != 0:
                self._violations.append(Violation(
                    "audit.nck-orphan",
                    f"job {job_id!r}: inactive nCk leaf still holds "
                    f"{total} nodes",
                    {"job": job_id, "got": total}))
            active = indicator_on and total == leaf.k
            value = leaf.value if active else 0.0
        else:  # LnCk
            if total > leaf.k:
                self._violations.append(Violation(
                    "audit.lnck-shape",
                    f"job {job_id!r}: LnCk leaf took {total} nodes, "
                    f"cap is k={leaf.k}",
                    {"job": job_id, "got": total, "k": leaf.k}))
            if total and not indicator_on:
                self._violations.append(Violation(
                    "audit.lnck-orphan",
                    f"job {job_id!r}: LnCk leaf holds {total} nodes with "
                    f"its indicator off"))
            active = total > 0
            value = leaf.value * min(total, leaf.k) / leaf.k

        if total:
            self.uses.append(_LeafUse(job_id, leaf.start, leaf.duration,
                                      counts))
        return value, active

    def _eval_max(self, job_id: str, expr: Max) -> tuple[float, bool]:
        values, actives = zip(*(self._eval(job_id, c)
                                for c in expr.subexprs))
        if sum(actives) > 1:
            self._violations.append(Violation(
                "audit.max-choice",
                f"job {job_id!r}: max activated {sum(actives)} children "
                f"(at most one allowed)",
                {"job": job_id, "active": int(sum(actives))}))
        # Inactive children contribute 0, so the sum is the chosen child.
        return sum(values), any(actives)

    def _eval_elastic(self, job_id: str,
                      expr: ElasticNCk) -> tuple[float, bool]:
        """Elastic-shape conformance: one width, inside ``[min, max]``.

        The per-width options are ordinary ``nCk`` leaves, so the exact-k
        and value-at-chosen-width checks fall out of :meth:`_eval_leaf`;
        what is elastic-specific is that at most one width may be active
        and that any active width lies within the declared band.
        """
        children = expr.children()
        values, actives = zip(*(self._eval(job_id, c) for c in children))
        n_active = int(sum(actives))
        if n_active > 1:
            self._violations.append(Violation(
                "audit.elastic-width-choice",
                f"job {job_id!r}: elastic leaf (start={expr.start}) "
                f"activated {n_active} widths (at most one allowed)",
                {"job": job_id, "active": n_active}))
        for child, active in zip(children, actives):
            if active and not (expr.min_width <= child.k <= expr.max_width):
                self._violations.append(Violation(
                    "audit.elastic-width",
                    f"job {job_id!r}: elastic leaf allocated width "
                    f"{child.k} outside [{expr.min_width}, "
                    f"{expr.max_width}]",
                    {"job": job_id, "width": child.k,
                     "min": expr.min_width, "max": expr.max_width}))
        # Inactive widths contribute 0, so the sum is the chosen width's
        # value — reconciled at that width by the leaf check above.
        return sum(values), any(actives)

    def _eval_min(self, job_id: str, expr: Min) -> tuple[float, bool]:
        values, actives = zip(*(self._eval(job_id, c)
                                for c in expr.subexprs))
        if any(actives) and not all(actives):
            self._violations.append(Violation(
                "audit.min-partial-gang",
                f"job {job_id!r}: min gang partially satisfied "
                f"({sum(actives)}/{len(actives)} children active)",
                {"job": job_id, "active": int(sum(actives)),
                 "children": len(actives)}))
        if all(actives):
            return min(values), True
        return 0.0, False

    def _eval_barrier(self, job_id: str, expr: Barrier) -> tuple[float, bool]:
        value, active = self._eval(job_id, expr.subexpr)
        if active and value < expr.threshold - self._tol:
            self._violations.append(Violation(
                "audit.barrier-underflow",
                f"job {job_id!r}: barrier yielded its threshold "
                f"{expr.threshold:g} but the child only reached {value:g}",
                {"job": job_id, "threshold": expr.threshold,
                 "child_value": value}))
        if active and value >= expr.threshold - self._tol:
            return expr.threshold, True
        return 0.0, False


def _independent_busy_quanta(state: "ClusterState", now: float,
                             quantum_s: float,
                             exclude: frozenset = frozenset()
                             ) -> dict[str, int]:
    """Per-node held-quanta, recomputed from the raw allocation ledger.

    Deliberately re-derives what :meth:`ClusterState.busy_quanta` computes
    (same documented semantics: overdue jobs hold at least one quantum) so
    the audit does not depend on the method the compiler itself used.
    ``exclude`` drops the named jobs' holdings — used for running elastic
    jobs whose *keep* decision re-books their own quanta through a leaf
    placement, mirroring the freed-supply coefficients the MILP carried.
    """
    busy: dict[str, int] = {}
    for alloc in state.running_jobs:
        if alloc.job_id in exclude:
            continue
        remaining = alloc.expected_end - now
        quanta = max(1, math.ceil(remaining / quantum_s - 1e-9))
        for n in alloc.nodes:
            busy[n] = max(busy.get(n, 0), quanta)
    return busy


def audit_cycle(state: "ClusterState", compiled: "CompiledBatch",
                result: "MILPResult",
                exprs: Sequence[tuple[str, StrlNode]], *,
                quantum_s: float, now: float = 0.0,
                allocations: "Sequence[Allocation]" = (),
                tol: float = 1e-6) -> AuditReport:
    """Audit one cycle's solve result against the space-time invariants.

    Parameters
    ----------
    state:
        Cluster state *after* any preemptions chosen by the solution were
        applied and *before* this cycle's launches started — exactly the
        ledger the solution's supply must fit into.  (The pipeline's audit
        stage runs between Extract and the launch loop, which is this
        point; standalone callers without preemption can pass the
        pre-solve state unchanged.)
    compiled:
        The compiled batch the result solves.
    result:
        The solve result under audit.
    exprs:
        The ``(job_id, STRL root)`` pairs that were compiled, in batch
        order — the independent semantic ground truth.
    quantum_s, now:
        Cycle quantization parameters.
    allocations:
        This cycle's launch decisions (``start == 0`` placements already
        merged per job), when available.  Checked for node disjointness,
        freeness, and agreement with the solved counts.
    """
    violations: list[Violation] = []
    if result.x is None:
        if result.status.has_solution:
            violations.append(Violation(
                "audit.missing-point",
                f"status {result.status.value} claims a solution but "
                f"carries no point"))
        return AuditReport(tuple(violations),
                           objective_claimed=result.objective)
    x = np.asarray(result.x, dtype=float)

    # -- objective reconciliation + shape conformance (one STRL walk) -----
    by_job: dict[str, list] = {}
    for rec in compiled.leaf_records:
        by_job.setdefault(rec.job_id, []).append(rec)
    total_value = 0.0
    uses: list[_LeafUse] = []
    for job_id, expr in exprs:
        ev = _StrlEvaluator(by_job.get(job_id, []), x, violations, tol)
        total_value += ev.evaluate(job_id, expr)
        uses.extend(ev.uses)

    preempted = tuple(compiled.preempted_jobs(x))
    for job_id in preempted:
        col = compiled.preemption_columns[job_id]
        # The kill penalty is the (negated) objective coefficient of the
        # preemption binary; read it back rather than trusting a config.
        total_value -= -compiled.model.objective.coeffs.get(col, 0.0)

    # -- elastic width re-planning lifecycle -------------------------------
    # Keep decisions re-book the job's own quanta through a leaf placement
    # (the MILP freed them on the fragment's root indicator), so their
    # holdings leave the busy ledger below; actual resizes must already be
    # *off* the ledger — a still-running old allocation means the freed
    # quanta were spent twice (a ledger leak).
    resize_decisions = compiled.resize_decisions(x)
    keeps: set[str] = set()
    for job_id, width in sorted(resize_decisions.items()):
        cand = compiled.resize_candidates[job_id]
        offered = {rec.leaf.k for rec in by_job.get(job_id, [])}
        if offered and width not in offered:
            violations.append(Violation(
                "audit.elastic-width",
                f"job {job_id!r}: resize chose width {width}, offered "
                f"widths are {sorted(offered)}",
                {"job": job_id, "width": width,
                 "offered": sorted(offered)}))
        if width == cand.width:
            keeps.add(job_id)
            if (not state.is_running(job_id)
                    or state.allocation_of(job_id).nodes != cand.nodes):
                violations.append(Violation(
                    "audit.elastic-keep",
                    f"job {job_id!r}: keep decision (width {width}) but "
                    f"the running allocation changed or vanished",
                    {"job": job_id, "width": width}))
        elif state.is_running(job_id):
            violations.append(Violation(
                "audit.elastic-release",
                f"job {job_id!r}: resized {cand.width} -> {width} but its "
                f"old allocation still holds the ledger (quanta leak)",
                {"job": job_id, "old": cand.width, "new": width}))
    for job_id, cand in sorted(compiled.resize_candidates.items()):
        if job_id not in resize_decisions and not state.is_running(job_id):
            violations.append(Violation(
                "audit.elastic-release",
                f"job {job_id!r}: resize fragment stayed inactive but the "
                f"running allocation vanished from the ledger",
                {"job": job_id, "old": cand.width}))

    scale = max(1.0, abs(total_value))
    if result.objective - total_value > tol * scale:
        violations.append(Violation(
            "audit.objective-phantom",
            f"claimed objective {result.objective:g} exceeds the value the "
            f"schedule actually delivers ({total_value:g})",
            {"claimed": result.objective, "recomputed": total_value}))
    elif (result.status == SolveStatus.OPTIMAL
          and total_value - result.objective > tol * scale):
        # A proven-optimal solve can never under-report either: every
        # auxiliary variable (min's V) is tight at a true optimum.
        violations.append(Violation(
            "audit.objective-underreport",
            f"optimal objective {result.objective:g} under-reports the "
            f"schedule's value ({total_value:g})",
            {"claimed": result.objective, "recomputed": total_value}))

    # -- space-time capacity ----------------------------------------------
    busy = _independent_busy_quanta(state, now, quantum_s,
                                    exclude=frozenset(keeps))
    usage: dict[tuple[int, int], int] = {}
    for use in uses:
        for pid, count in use.counts.items():
            part = compiled.partitioning.partitions[pid]
            if count > len(part.nodes):
                violations.append(Violation(
                    "audit.partition-overflow",
                    f"job {use.job_id!r} takes {count} nodes from "
                    f"partition {pid} of size {len(part.nodes)}"))
            for t in range(use.start, use.start + use.duration):
                usage[(pid, t)] = usage.get((pid, t), 0) + count
    quanta_checked = 0
    for (pid, t), used in sorted(usage.items()):
        part = compiled.partitioning.partitions[pid]
        free = sum(1 for n in part.nodes if busy.get(n, 0) <= t)
        quanta_checked += 1
        if used > free:
            violations.append(Violation(
                "audit.capacity",
                f"partition {pid} oversubscribed at quantum {t}: "
                f"{used} assigned, {free} free",
                {"pid": pid, "t": t, "used": used, "free": free}))

    # -- double placement --------------------------------------------------
    placed_jobs = {use.job_id for use in uses}
    for job_id in sorted(placed_jobs):
        if job_id in compiled.resize_candidates:
            # Width re-planning places running jobs by design: the keep /
            # resize lifecycle was checked above instead.
            continue
        if state.is_running(job_id):
            violations.append(Violation(
                "audit.double-placement",
                f"job {job_id!r} is already running but the solution "
                f"assigns it new resources"))

    # -- launch decisions --------------------------------------------------
    start_now: dict[str, int] = {}
    start_now_parts: dict[str, set[int]] = {}
    for use in uses:
        if use.start == 0:
            start_now[use.job_id] = (start_now.get(use.job_id, 0)
                                     + sum(use.counts.values()))
            start_now_parts.setdefault(use.job_id, set()).update(use.counts)
    free_now = state.free_nodes()
    seen_nodes: dict[str, str] = {}
    for alloc in allocations:
        expected = start_now.get(alloc.job_id)
        if expected is None:
            violations.append(Violation(
                "audit.unplanned-launch",
                f"allocation for {alloc.job_id!r} has no start-now "
                f"placement in the solution"))
        elif len(alloc.nodes) != expected:
            violations.append(Violation(
                "audit.launch-size",
                f"allocation for {alloc.job_id!r} has {len(alloc.nodes)} "
                f"nodes, solution assigns {expected}",
                {"job": alloc.job_id, "got": len(alloc.nodes),
                 "expected": expected}))
        else:
            allowed: set[str] = set()
            for pid in start_now_parts.get(alloc.job_id, ()):
                allowed |= compiled.partitioning.partitions[pid].nodes
            stray = alloc.nodes - allowed
            if stray:
                violations.append(Violation(
                    "audit.launch-nodes",
                    f"allocation for {alloc.job_id!r} uses nodes outside "
                    f"its solved partitions: {sorted(stray)[:4]}"))
        not_free = alloc.nodes - free_now
        if not_free:
            violations.append(Violation(
                "audit.launch-busy-nodes",
                f"allocation for {alloc.job_id!r} uses busy nodes: "
                f"{sorted(not_free)[:4]}"))
        for n in alloc.nodes:
            if n in seen_nodes:
                violations.append(Violation(
                    "audit.launch-overlap",
                    f"node {n!r} launched for both "
                    f"{seen_nodes[n]!r} and {alloc.job_id!r}"))
            seen_nodes[n] = alloc.job_id

    return AuditReport(
        tuple(violations), placements=len(uses),
        quanta_checked=quanta_checked,
        objective_claimed=result.objective,
        objective_recomputed=total_value, preempted=preempted)


def check_ledger_orphans(state: "ClusterState",
                         launched: Mapping[str, object]
                         ) -> tuple[Violation, ...]:
    """Check the allocation ledger against the scheduler's launch registry.

    Every running allocation must belong to a job the scheduler launched
    (and has not yet seen finish or cancel).  An orphan means a lifecycle
    transition touched one side only — the classic stale-state hazard of
    cancellation racing a scheduling cycle: the job's nodes would stay
    held forever while the scheduler forgot the job exists.
    """
    violations: list[Violation] = []
    for alloc in state.running_jobs:
        if alloc.job_id not in launched:
            violations.append(Violation(
                "audit.ledger-orphan",
                f"job {alloc.job_id!r} holds {len(alloc.nodes)} node(s) on "
                f"the cluster ledger but is unknown to the scheduler's "
                f"launch registry",
                context={"job_id": alloc.job_id,
                         "nodes": sorted(alloc.nodes)}))
    return tuple(violations)


__all__ = ["AuditReport", "AuditViolation", "Violation", "audit_cycle",
           "check_ledger_orphans"]
