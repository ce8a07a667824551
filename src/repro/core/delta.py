"""Cross-cycle delta compilation of the scheduling MILP.

TetriSched re-plans everything every cycle (Sec. 3.2) — but between
4-second cycles most pending jobs are *unchanged*: their STRL expressions
regenerate identically (deadline-insensitive value functions are
shift-invariant over the plan-ahead window) and the cycle partitioning is
stable while the set of referenced equivalence sets is.  The
:class:`DeltaCompiler` exploits that: it keeps each job's compiled
:class:`~repro.core.compiler.JobFragment` across cycles and re-runs
Algorithm 1 only for jobs whose expression actually changed, then hands
the fragment list to the shared :func:`~repro.core.compiler.assemble_batch`
assembler.  Because the from-scratch path
(:meth:`~repro.core.compiler.StrlCompiler.compile`) ends in the *same*
assembler, delta-compiled models are bit-identical to full recompiles by
construction — the only possible divergence is a stale cached fragment,
which is exactly what ``delta_mode=verify`` re-checks every cycle.

Fragment identity extends the component-cache fingerprint machinery
(:func:`repro.solver.parallel.fingerprint_arrays`) one level up the
pipeline: a fragment can report the SHA-256 of its local CSR export
(``JobFragment.fingerprint``, computed on first read), and the per-cycle
:class:`CycleDelta` reports how many fragments (and model rows/columns)
were actually recompiled versus replayed.

Fallback rules (each records a full rebuild with a reason):

* first cycle — nothing cached yet;
* the batch's equivalence-set family changed — partition ids, capacities
  and per-leaf variable bounds all derive from the partitioning, so every
  fragment is invalidated at once;
* the availability provider exposes ``interval_free_count`` (the greedy
  path's :class:`~repro.core.allocation.PlanAccumulator`) — fragment
  bounds would depend on tentative reservations and are never cacheable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.state import ClusterState
from repro.core.compiler import (CompiledBatch, JobFragment,
                                 PreemptionCandidate, StrlCompiler,
                                 assemble_batch)
from repro.errors import SchedulerError
from repro.solver.model import Model
from repro.strl.ast import StrlNode

#: Valid values of ``TetriSchedConfig.delta_mode``.
DELTA_MODES = ("off", "on", "verify")


class DeltaDivergence(SchedulerError):
    """A delta-compiled model differs from the from-scratch rebuild.

    Raised by ``delta_mode=verify`` (and the fuzz harness).  Always a bug
    in the fragment cache or the assembler — never expected in operation.
    """


@dataclass(frozen=True)
class CycleDelta:
    """What changed between the previous compiled cycle and this one."""

    #: Jobs compiled for the first time (no cached fragment).
    added: tuple[str, ...] = ()
    #: Jobs that left the batch since last cycle (fragment dropped).
    removed: tuple[str, ...] = ()
    #: Jobs whose regenerated STRL differed — fragment recompiled.
    dirty: tuple[str, ...] = ()
    #: Jobs whose cached fragment was replayed verbatim.
    clean: tuple[str, ...] = ()
    #: Every fragment was recompiled (first cycle / partitioning change).
    full_rebuild: bool = False
    reason: str = ""
    #: Constraint rows written this cycle: recompiled fragments' rows plus
    #: the per-cycle supply rows (always rebuilt — they carry availability).
    rows_patched: int = 0
    #: Columns written this cycle: recompiled fragments' variables plus
    #: the per-cycle preemption decision variables.
    cols_patched: int = 0

    @property
    def jobs_dirty(self) -> int:
        """Jobs whose fragment was recompiled this cycle."""
        return len(self.dirty) + len(self.added)

    @property
    def jobs_clean(self) -> int:
        return len(self.clean)


@dataclass
class DeltaStats:
    """Cumulative fragment-cache accounting across a compiler's lifetime."""

    cycles: int = 0
    full_rebuilds: int = 0
    fragments_compiled: int = 0
    fragments_reused: int = 0


class DeltaCompiler:
    """Cross-cycle incremental compiler over cached job fragments.

    One instance lives on the scheduler and persists across cycles; it is
    a drop-in replacement for per-cycle ``StrlCompiler(...).compile(...)``
    in the global pipeline.  Not usable with the greedy path's
    :class:`~repro.core.allocation.PlanAccumulator` (see module docstring).
    """

    def __init__(self, state: ClusterState, quantum_s: float,
                 minimal_partitioning: bool = True) -> None:
        self.state = state
        self.quantum_s = quantum_s
        self.minimal_partitioning = minimal_partitioning
        self.stats = DeltaStats()
        self._fragments: dict[str, JobFragment] = {}
        self._signature: frozenset[frozenset[str]] | None = None
        self._partitioning = None

    def invalidate(self) -> None:
        """Drop every cached fragment (next cycle is a full rebuild)."""
        self._fragments.clear()
        self._signature = None
        self._partitioning = None

    def compile_cycle(self, batch: list[tuple[str, StrlNode]],
                      preemptible: list[PreemptionCandidate] | None = None,
                      now: float = 0.0, verify: bool = False,
                      resizable: "list | None" = None
                      ) -> tuple[CompiledBatch, CycleDelta]:
        """Compile a cycle batch, reusing cached fragments for clean jobs.

        Returns the :class:`~repro.core.compiler.CompiledBatch` plus the
        :class:`CycleDelta` describing what was actually recompiled.  With
        ``verify=True`` a from-scratch recompile runs alongside and the
        two models are asserted bit-equal (:func:`assert_models_equal`),
        as is the assembled CSR export against the canonical exporter.
        """
        if not batch:
            raise SchedulerError("cannot compile an empty batch")
        seen: set[str] = set()
        for job_id, _ in batch:
            if job_id in seen:
                raise SchedulerError(f"duplicate job id {job_id!r} in batch")
            seen.add(job_id)

        compiler = StrlCompiler(self.state, self.quantum_s, now,
                                self.minimal_partitioning)
        if getattr(self.state, "interval_free_count", None) is not None:
            # Tentative-reservation-aware availability (greedy accumulator):
            # fragment bounds would go stale silently.  Never cache.
            self.invalidate()
            compiled = compiler.compile(batch, preemptible=preemptible,
                                        resizable=resizable)
            return compiled, CycleDelta(
                added=tuple(job_id for job_id, _ in batch),
                full_rebuild=True, reason="interval-capped availability",
                rows_patched=compiled.model.num_constraints,
                cols_patched=compiled.model.num_variables)

        signature = frozenset(leaf.nodes for _, expr in batch
                              for leaf in expr.leaves())
        full_rebuild = False
        reason = ""
        if self._partitioning is None:
            full_rebuild, reason = True, "first cycle"
        elif signature != self._signature:
            full_rebuild, reason = True, "partitioning changed"
        if full_rebuild:
            self._fragments.clear()
            self._partitioning = compiler.build_partitioning(
                [expr for _, expr in batch])
            self._signature = signature
            self.stats.full_rebuilds += 1

        batch_ids = {job_id for job_id, _ in batch}
        removed = tuple(sorted(j for j in self._fragments
                               if j not in batch_ids))
        for job_id in removed:
            del self._fragments[job_id]

        added: list[str] = []
        dirty: list[str] = []
        clean: list[str] = []
        fragments: list[JobFragment] = []
        for job_id, expr in batch:
            cached = self._fragments.get(job_id)
            if cached is not None and cached.expr == expr:
                clean.append(job_id)
                self.stats.fragments_reused += 1
                fragments.append(cached)
                continue
            (dirty if cached is not None else added).append(job_id)
            frag = compiler.compile_fragment(job_id, expr,
                                             self._partitioning)
            self._fragments[job_id] = frag
            self.stats.fragments_compiled += 1
            fragments.append(frag)

        horizon = max(frag.horizon for frag in fragments)
        compiled = assemble_batch(
            fragments, self._partitioning, horizon, self.state,
            self.quantum_s, now, preemptible=preemptible,
            resizable=resizable)
        self.stats.cycles += 1

        recompiled = [f for f in fragments
                      if f.job_id not in set(clean)]
        supply_rows = (compiled.model.num_constraints
                       - sum(f.num_constraints for f in fragments))
        delta = CycleDelta(
            added=tuple(added), removed=removed, dirty=tuple(dirty),
            clean=tuple(clean), full_rebuild=full_rebuild, reason=reason,
            rows_patched=(sum(f.num_constraints for f in recompiled)
                          + supply_rows),
            cols_patched=(sum(f.num_variables for f in recompiled)
                          + len(compiled.preemption_columns)))
        if verify:
            self.verify_cycle(batch, compiled, preemptible=preemptible,
                              now=now, resizable=resizable)
        return compiled, delta

    def verify_cycle(self, batch: list[tuple[str, StrlNode]],
                     compiled: CompiledBatch,
                     preemptible: list[PreemptionCandidate] | None = None,
                     now: float = 0.0,
                     resizable: "list | None" = None) -> None:
        """Assert the delta-compiled model equals a from-scratch rebuild.

        Also rebuilds the delta model's object view from its arrays and
        re-derives the CSR export from those objects through the canonical
        exporter, asserting bit-equality — so what the audit oracles and
        ``to_lp_string`` read is verified to be the model that was solved.
        """
        reference = StrlCompiler(
            self.state, self.quantum_s, now,
            self.minimal_partitioning).compile(batch,
                                               preemptible=preemptible,
                                               resizable=resizable)
        assert_models_equal(compiled.model, reference.model)
        assert_installed_export(compiled.model)


def merge_cycle_deltas(deltas: "list[CycleDelta]") -> CycleDelta:
    """Fold per-domain :class:`CycleDelta` records into one cycle record.

    Job sets are concatenated (domains are job-disjoint, so no
    double-counting); ``full_rebuild`` is true when *any* domain rebuilt
    (with the reasons joined) — the cycle-stats flag answers "did this
    cycle pay a rebuild anywhere", not "everywhere".
    """
    if not deltas:
        return CycleDelta()
    reasons = sorted({d.reason for d in deltas if d.reason})
    return CycleDelta(
        added=tuple(j for d in deltas for j in d.added),
        removed=tuple(j for d in deltas for j in d.removed),
        dirty=tuple(j for d in deltas for j in d.dirty),
        clean=tuple(j for d in deltas for j in d.clean),
        full_rebuild=any(d.full_rebuild for d in deltas),
        reason="; ".join(reasons),
        rows_patched=sum(d.rows_patched for d in deltas),
        cols_patched=sum(d.cols_patched for d in deltas))


class DomainDeltaStores:
    """Per-domain :class:`DeltaCompiler` stores for the sharded pipeline.

    Sharding splits the cycle into per-domain batches; a single fragment
    store would see every domain's partitioning signature interleaved and
    full-rebuild on every compile.  One store per domain keeps each
    domain's signature (and fragments) stable across cycles — the sticky
    job->domain assignment is what makes the stores stay warm.  Stores
    are created lazily on a domain's first non-empty batch (a domain
    emptied by drain simply stops being compiled; its store keeps its
    fragments for when jobs come back).
    """

    def __init__(self, state: ClusterState, quantum_s: float) -> None:
        self.state = state
        self.quantum_s = quantum_s
        self._stores: dict[int, DeltaCompiler] = {}

    def store(self, domain_id: int) -> DeltaCompiler:
        """The (lazily created) fragment store of one domain."""
        compiler = self._stores.get(domain_id)
        if compiler is None:
            compiler = DeltaCompiler(self.state, self.quantum_s)
            self._stores[domain_id] = compiler
        return compiler

    def compile_domain(self, domain_id: int,
                       batch: list[tuple[str, StrlNode]],
                       now: float = 0.0, verify: bool = False
                       ) -> tuple[CompiledBatch, CycleDelta]:
        """Delta-compile one domain's batch through its own store."""
        return self.store(domain_id).compile_cycle(batch, now=now,
                                                   verify=verify)

    def invalidate_all(self) -> None:
        """Drop every domain's cached fragments (next cycles rebuild)."""
        for compiler in self._stores.values():
            compiler.invalidate()

    def aggregate_stats(self) -> DeltaStats:
        """Summed fragment-cache accounting across all domain stores."""
        total = DeltaStats()
        for compiler in self._stores.values():
            total.cycles = max(total.cycles, compiler.stats.cycles)
            total.full_rebuilds += compiler.stats.full_rebuilds
            total.fragments_compiled += compiler.stats.fragments_compiled
            total.fragments_reused += compiler.stats.fragments_reused
        return total


def _sparse_fields(sa) -> list[tuple[str, np.ndarray]]:
    out = [("c", sa.c), ("b_ub", sa.b_ub), ("b_eq", sa.b_eq),
           ("lb", sa.lb), ("ub", sa.ub), ("integrality", sa.integrality)]
    for mat_name, mat in (("a_ub", sa.a_ub), ("a_eq", sa.a_eq)):
        out += [(f"{mat_name}.indptr", mat.indptr),
                (f"{mat_name}.indices", mat.indices),
                (f"{mat_name}.data", mat.data)]
    return out


def _compare_exports(label_a: str, sa, label_b: str, sb) -> None:
    if sa.a_ub.shape != sb.a_ub.shape or sa.a_eq.shape != sb.a_eq.shape:
        raise DeltaDivergence(
            f"{label_a} shapes (ub={sa.a_ub.shape}, eq={sa.a_eq.shape}) != "
            f"{label_b} (ub={sb.a_ub.shape}, eq={sb.a_eq.shape})")
    if (sa.obj_constant != sb.obj_constant
            or sa.obj_sign != sb.obj_sign):
        raise DeltaDivergence(
            f"{label_a} objective constant/sign "
            f"({sa.obj_constant}, {sa.obj_sign}) != {label_b} "
            f"({sb.obj_constant}, {sb.obj_sign})")
    for (name, arr_a), (_, arr_b) in zip(_sparse_fields(sa),
                                         _sparse_fields(sb)):
        if not np.array_equal(arr_a, arr_b):
            raise DeltaDivergence(
                f"{label_a}.{name} differs from {label_b}.{name}")


def assert_models_equal(model_a: Model, model_b: Model) -> None:
    """Raise :class:`DeltaDivergence` unless the models are bit-identical.

    "Bit-identical" means: same variables (name, index, bounds, domain, in
    order), same constraints (name, sense, rhs, coefficient dicts *and*
    their insertion order — CSR layout depends on it), same objective, and
    byte-equal canonical sparse exports.
    """
    if model_a.num_variables != model_b.num_variables:
        raise DeltaDivergence(
            f"variable counts differ: {model_a.num_variables} != "
            f"{model_b.num_variables}")
    for va, vb in zip(model_a.variables, model_b.variables):
        if (va.name, va.index, va.lb, va.ub, va.domain) != (
                vb.name, vb.index, vb.lb, vb.ub, vb.domain):
            raise DeltaDivergence(
                f"variable {va.index} differs: "
                f"{va.name!r} ({va.lb}, {va.ub}, {va.domain}) != "
                f"{vb.name!r} ({vb.lb}, {vb.ub}, {vb.domain})")
    if model_a.num_constraints != model_b.num_constraints:
        raise DeltaDivergence(
            f"constraint counts differ: {model_a.num_constraints} != "
            f"{model_b.num_constraints}")
    for ca, cb in zip(model_a.constraints, model_b.constraints):
        if (ca.name != cb.name or ca.sense != cb.sense
                or ca.rhs != cb.rhs
                or ca.expr.coeffs != cb.expr.coeffs
                or list(ca.expr.coeffs) != list(cb.expr.coeffs)
                or ca.expr.constant != cb.expr.constant):
            raise DeltaDivergence(
                f"constraint {ca.name!r} differs from {cb.name!r}")
    obj_a, obj_b = model_a.objective, model_b.objective
    if (model_a.objective_sense != model_b.objective_sense
            or obj_a.coeffs != obj_b.coeffs
            or list(obj_a.coeffs) != list(obj_b.coeffs)
            or obj_a.constant != obj_b.constant):
        raise DeltaDivergence("objectives differ")
    _compare_exports("delta", model_a.export_from_objects(),
                     "full", model_b.export_from_objects())


def assert_installed_export(model: Model) -> None:
    """Raise unless the model's export matches a recompute from its objects.

    For an array-backed (compiled) model this is the round trip arrays ->
    ``variables`` / ``constraints`` / ``objective`` -> canonical
    per-constraint exporter, which must be the identity.
    """
    _compare_exports("installed", model.to_sparse_arrays(),
                     "recomputed", model.export_from_objects())


__all__ = [
    "CycleDelta", "DELTA_MODES", "DeltaCompiler", "DeltaDivergence",
    "DeltaStats", "DomainDeltaStores", "assert_installed_export",
    "assert_models_equal", "merge_cycle_deltas",
]
