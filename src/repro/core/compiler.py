"""STRL -> MILP compilation (Algorithm 1, Sec. 5).

The compiler walks the aggregated STRL expression with a single recursive
``gen(expr, I)`` function.  The three key ideas from the paper:

1. **Indicator variables** — every sub-expression gets a binary ``I`` saying
   whether the solver assigns resources to it.  ``max`` constrains the sum of
   child indicators by its own indicator (OR with at-most-one choice);
   ``min`` passes its *own* indicator to all children (AND).
2. **Objectives flow upward** — ``gen`` returns the sub-expression's
   objective contribution; the root's return becomes the MILP objective.
   ``min`` introduces a continuous ``V`` with ``V <= f_i`` for each child.
3. **Partition variables** — leaves create one integer variable per cluster
   partition (not per node!), with *demand* constraints tying them to the
   indicator and *supply* constraints capping total use per partition per
   time slice (added once at the end over the ``used(x, t)`` ledger).  An
   ``nCk`` leaf with its own indicator and a single partition is the
   time-indexed column itself: ``P == k * I`` is substituted away and the
   indicator enters the supply rows with coefficient ``k``.

Compilation is independent of any solver backend; the result carries enough
bookkeeping to map a MILP solution back to per-job space-time allocations.

The unit of compilation is one job, and the output is flat arrays, never
objects.  ``gen`` appends every column (bound, domain), row (entries,
sense), objective term and leaf-table entry it generates straight onto the
list buffers of a :class:`JobFragment`, numbered in the cycle's column
space (fragments are compiled in batch order, each starting where the one
before ended); nothing builds a ``LinExpr``, a ``Variable`` or a
``Constraint``.  :func:`assemble_batch` reads every partition's
availability and keeps the fragments as they are: their buffers are the
leaf table's one eager form.  A cycle that books directly reads the leaves
it tries from them and records what it chose, and its MILP's sizes are
counted run by run on them (:func:`_sizes`).  The table's arrays are
packed, one conversion per buffer, the first time something reads the whole
table; the MILP — the cross-job supply rows, derived by one grouped sort
over the packed table (which doubles as the ``used(x, t)`` ledger), and the
CSR export wrapped in an array-backed :class:`~repro.solver.model.Model` —
the first time something reads :attr:`CompiledBatch.model`.

The export is pinned bit for bit — column order, within-row coefficient
order, bounds, right-hand sides, signed zeros — by
``tests/core/test_golden_export.py`` against digests recorded from the
object-building compiler this one replaced.  Names (``nCk[job-3]#2``) are
job-scoped, stable across cycles, and only generated when somebody reads
``model.variables`` / ``model.constraints``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from operator import add, mul

import numpy as np

from repro import obs
from repro.cluster.partitions import Partitioning
from repro.cluster.state import ClusterState
from repro.errors import SchedulerError
from repro.solver.model import (ArrayLayout, Model, SparseArrays,
                                SparseMatrix)
from repro.strl.ast import (Barrier, ElasticNCk, LnCk, Max, Min, NCk, Scale,
                            StrlNode, Sum)

#: Column domain codes (indices into ``repro.solver.model.DOMAIN_BY_CODE``).
_CONTINUOUS, _INTEGER, _BINARY = 0, 1, 2

#: Row kinds of a fragment, for constraint names.
_ROW_TAGS = ("demand[nCk[{job}]#{n}]", "demand[LnCk[{job}]#{n}]",
             "choice[{job}]#{n}", "min[{job}]#{n}", "barrier[{job}]#{n}")
_DEMAND_NCK, _DEMAND_LNCK, _CHOICE, _MIN, _BARRIER = range(5)


@dataclass
class LeafRecord:
    """One row of the leaf table as an object (the audit/test view).

    Maps the leaf's decision columns back to scheduling semantics.  A
    solver's point decodes through :class:`CompiledBatch`'s packed leaf
    arrays; these records are built from them on first access to
    :attr:`CompiledBatch.leaf_records`.
    """

    job_id: str
    leaf: NCk | LnCk
    indicator: int                  # model column of I
    partition_cols: dict[int, int]  # pid -> model column drawing on it
    coef: float = 1.0               # nodes drawn per unit of such a column

    def chosen_counts(self, x: np.ndarray) -> dict[int, int]:
        """Per-partition node counts selected by the solution (empty if none)."""
        if isinstance(self.leaf, NCk) and x[self.indicator] < 0.5:
            return {}
        counts = {pid: int(round(float(x[col]) * self.coef))
                  for pid, col in self.partition_cols.items()}
        return {pid: v for pid, v in counts.items() if v > 0}


@dataclass
class PlannedPlacement:
    """One active leaf in the solved schedule: a space-time allocation."""

    job_id: str
    start: int                 # quanta from "now"
    duration: int              # quanta
    node_counts: dict[int, int]  # pid -> count
    value: float

    @property
    def total_nodes(self) -> int:
        return sum(self.node_counts.values())


@dataclass(frozen=True)
class ResizeCandidate:
    """A running malleable job the solver may grow or shrink this cycle.

    The job re-enters the cycle MILP with a fresh fragment (an
    :class:`~repro.strl.ast.ElasticNCk` over its admissible widths, plus a
    supply-neutral "keep" option at the current width).  Choosing *any* of
    those options — the fragment's root indicator going to 1 — returns the
    job's currently-held nodes to the supply of every affected time slice,
    mirroring :class:`PreemptionCandidate`'s freed-nodes mechanism but
    without a separate decision variable: the root indicator *is* the
    release decision.  Grow options carry the reconfiguration penalty
    folded into their leaf values, so no extra objective terms are needed
    either.
    """

    job_id: str
    #: Nodes currently held by the running job.
    nodes: frozenset[str]

    @property
    def width(self) -> int:
        """The job's current gang width."""
        return len(self.nodes)


@dataclass(frozen=True)
class PreemptionCandidate:
    """A running job the solver may choose to kill for its nodes.

    Preemption inside TetriSched is explicitly future work in the paper
    (Sec. 7.2); this extension models it MILP-natively: a binary decision
    per candidate returns the victim's nodes to the supply from the current
    quantum onward, at a ``penalty`` subtracted from the objective (the
    victim's lost value plus re-execution cost).
    """

    job_id: str
    nodes: frozenset[str]
    penalty: float


@dataclass
class CompiledBatch:
    """A compiled scheduling-cycle MILP plus decode metadata.

    The decode metadata is a flat *leaf table*: leaf ``i`` of the batch is
    ``leaves[i]``, belongs to job ``job_order[j]`` for the ``j`` with
    ``job_first[j] <= i < job_first[j+1]``, is switched by column
    ``leaf_indicator[i]`` and owns the entries
    ``leaf_ptr[i]:leaf_ptr[i+1]``, in ascending partition order: entry ``e``
    draws ``leaf_coef[e] * x[leaf_pcol[e]]`` nodes from partition
    ``leaf_pid[e]`` — a partition variable with coefficient 1, or the
    leaf's own indicator with coefficient ``k`` where ``P == k * I`` was
    substituted (:meth:`StrlCompiler._leaves`).

    The table's one eager form is the :attr:`fragments`' list buffers.  Its
    arrays — those above and :attr:`col_ub` — are packed by one vectorized
    pass the first time something reads the whole table: the model's
    assembly, the audit, a warm start, a test.  A booked cycle reads none of
    them: its sizes (:attr:`stats`) are counted on the fragments, the
    booking attempt (:meth:`book_directly`) reads the buffers of the leaves
    it tries and records what it chose, :meth:`decode` /
    :meth:`chosen_plan` return that record for the booked point, and
    :attr:`objective` is built on its own from the fragments' objective
    maps.

    Everything here was read from the cluster ledger when the batch was
    compiled; nothing reads it again, whenever :attr:`model` is assembled.
    """

    partitioning: Partitioning
    horizon: int
    #: The jobs' compiled fragments, in batch order, numbered back to back
    #: in the cycle's column space.
    fragments: list[JobFragment]
    #: Top-level indicator column of every job in the batch.
    job_columns: dict[str, int]
    #: ``avail(x, t)``, one row per partition: the free-node count per
    #: quantum the supply rows are written against.
    supply: np.ndarray
    #: Kill-decision column per preemption candidate.
    preemption_columns: dict[str, int] = field(default_factory=dict)
    #: Elastic extension: running jobs whose width the solver may re-plan.
    resize_candidates: dict[str, ResizeCandidate] = field(default_factory=dict)
    #: Every job's fragment is flat (see :attr:`JobFragment.flat`).
    flat: bool = False
    #: What the model adds to the fragments: each kill decision's objective
    #: penalty, the candidates' supply credits (:func:`_freed_entries`) and
    #: one resize-commit row per job that needs one.
    _penalties: list[float] = field(default_factory=list)
    _freed: tuple[list[int], list[int], list[float]] | None = None
    _commit_rows: dict[str, dict[int, float]] = field(default_factory=dict)
    _model: Model | None = None
    _records: list[LeafRecord] | None = None
    _booking: tuple | None = None
    #: ``(leaf index, job id, leaf, {pid: count})`` per leaf the booked
    #: point switches on, in table order.
    _booked: list[tuple[int, str, NCk, dict[int, int]]] = field(
        default_factory=list)

    @property
    def model(self) -> Model:
        """The cycle MILP, assembled the first time something reads it: a
        backend, ``decompose``, the audit, a warm start's feasibility check.
        A cycle that books directly hands it to nobody."""
        if self._model is None:
            self._model = self._assemble()
        return self._model

    @property
    def assembled(self) -> bool:
        return self._model is not None

    @cached_property
    def stats(self) -> dict[str, int]:
        """:meth:`Model.stats` of the cycle MILP, assembled or not: read
        off the model where it was assembled, else counted on the fragments
        (:func:`_sizes`)."""
        if self._model is not None:
            return self._model.stats()
        return _sizes(self.fragments, len(self._penalties))

    @property
    def num_columns(self) -> int:
        """The MILP's columns: the fragments', then the kill decisions."""
        last = self.fragments[-1]
        return last.base + len(last.col_ub) + len(self._penalties)

    # -- the leaf table, packed on first read ----------------------------
    @cached_property
    def _packed(self) -> _Packed:
        obs.count("scheduler.leaf_table.packed")
        return _Packed(self.fragments)

    @property
    def packed(self) -> bool:
        """Whether something has read the leaf table's arrays."""
        return "_packed" in self.__dict__

    @property
    def leaf_indicator(self) -> np.ndarray:
        return self._packed.leaf_indicator

    @property
    def leaf_ptr(self) -> np.ndarray:
        return self._packed.leaf_ptr

    @property
    def leaf_pcol(self) -> np.ndarray:
        return self._packed.leaf_pcol

    @property
    def leaf_pid(self) -> np.ndarray:
        return self._packed.leaf_pid

    @property
    def leaf_coef(self) -> np.ndarray:
        return self._packed.leaf_coef

    @cached_property
    def col_ub(self) -> np.ndarray:
        """Per model column: upper bound (the lower bound is 0)."""
        if not self._penalties:
            return self._packed.col_ub
        return np.concatenate([self._packed.col_ub,
                               np.ones(len(self._penalties))])

    @cached_property
    def objective(self) -> np.ndarray:
        """Per model column: maximize-sense objective coefficient (a kill
        decision's is ``-penalty``)."""
        frags = self.fragments
        objective = np.zeros(self.num_columns)
        cols = np.fromiter(_chained(frags, "objective"), np.int64)
        objective[cols] = np.fromiter(
            chain.from_iterable(f.objective.values() for f in frags),
            float, count=cols.shape[0])
        if self._penalties:
            objective[-len(self._penalties):] = [-p for p in self._penalties]
        return objective

    @cached_property
    def leaves(self) -> list[NCk | LnCk]:
        """Leaf ``i`` of the table."""
        return list(_chained(self.fragments, "leaves"))

    @cached_property
    def job_order(self) -> list[str]:
        return [frag.job_id for frag in self.fragments]

    @cached_property
    def job_first(self) -> list[int]:
        """Leaf-table index of each job's first leaf, then the table length."""
        return list(accumulate((len(f.leaves) for f in self.fragments),
                               initial=0))

    @cached_property
    def availability(self) -> dict[int, np.ndarray]:
        """:attr:`supply` of every partition some leaf draws on, by pid."""
        pids = set(chain.from_iterable(f.leaf_pid for f in self.fragments))
        return {pid: self.supply[pid] for pid in sorted(pids)}

    def objective_value(self, x: np.ndarray) -> float:
        """``model.objective_value(x)``, bit for bit, without the model."""
        return float(self.objective @ x) + 0.0

    def job_of(self, leaf: int) -> str:
        """Job id owning row ``leaf`` of the leaf table."""
        return self.job_order[bisect_right(self.job_first, leaf) - 1]

    @property
    def leaf_job(self) -> np.ndarray:
        """Per leaf: the :attr:`job_order` index of the job owning it."""
        return np.repeat(np.arange(len(self.job_order)),
                         np.diff(self.job_first))

    @property
    def leaf_records(self) -> list[LeafRecord]:
        """The leaf table as :class:`LeafRecord` objects (built once)."""
        if self._records is None:
            ptr, pcol, pid, coef = (
                self.leaf_ptr.tolist(), self.leaf_pcol.tolist(),
                self.leaf_pid.tolist(), self.leaf_coef.tolist())
            self._records = [
                LeafRecord(self.job_order[job], leaf, ind,
                           dict(zip(pid[ptr[i]:ptr[i + 1]],
                                    pcol[ptr[i]:ptr[i + 1]])),
                           coef[ptr[i]])
                for i, (leaf, job, ind) in enumerate(zip(
                    self.leaves, self.leaf_job.tolist(),
                    self.leaf_indicator.tolist()))]
        return self._records

    def preempted_jobs(self, x: np.ndarray) -> list[str]:
        """Preemption candidates the solution chose to kill."""
        return [job_id for job_id, col in self.preemption_columns.items()
                if x[col] > 0.5]

    def resize_decisions(self, x: np.ndarray) -> dict[str, int]:
        """Chosen width per resize candidate whose fragment was activated.

        Maps job id to the new gang width (the total node count of the
        job's chosen start-0 placement).  A candidate whose root indicator
        stayed off keeps running untouched and is absent; a candidate that
        chose its *current* width picked the supply-neutral "keep" option
        (the extract stage treats it as a no-op, not a migration).
        """
        if not self.resize_candidates:
            return {}
        active = self.scheduled_jobs(x)
        widths: dict[str, int] = {}
        for p in self.decode(x):
            if p.job_id in self.resize_candidates and p.start == 0:
                widths[p.job_id] = widths.get(p.job_id, 0) + p.total_nodes
        return {job_id: w for job_id, w in widths.items()
                if job_id in active and w > 0}

    def active_leaves(self, x: np.ndarray) -> list[tuple[int, dict[int, int]]]:
        """``(leaf index, {pid: node count})`` of every leaf the solution uses.

        One gather over the leaf table's columns: an entry counts when it
        rounds to a positive node count and — for an ``nCk`` leaf — the
        leaf's indicator is on.  Leaves come out in table order, counts in
        ascending partition order.
        """
        x = np.asarray(x, dtype=float)
        counts = np.rint(x[self.leaf_pcol] * self.leaf_coef)
        drawn = (counts > 0).nonzero()[0]
        chosen: dict[int, dict[int, int]] = {}
        # Only the entries that draw nodes are mapped back to their leaves.
        for leaf, pid, count in zip(
                np.searchsorted(self.leaf_ptr[1:], drawn, "right").tolist(),
                self.leaf_pid[drawn].tolist(), counts[drawn].tolist()):
            if (type(self.leaves[leaf]) is not NCk
                    or x[self.leaf_indicator[leaf]] >= 0.5):
                chosen.setdefault(leaf, {})[pid] = int(count)
        return list(chosen.items())

    def _chosen(self, x: np.ndarray
                ) -> list[tuple[int, str, NCk | LnCk, dict[int, int]]]:
        """``(leaf index, job id, leaf, {pid: count})`` of every leaf the
        solution uses: what booking recorded, for the booked point; none,
        for the all-zero point; else :meth:`active_leaves` over the packed
        table."""
        if self._booking is not None and x is self._booking[0]:
            return self._booked
        if not np.any(x):  # the empty plan (an arrival cycle's miss)
            return []
        first, frags = self.job_first, self.fragments
        chosen = []
        for i, counts in self.active_leaves(x):
            j = bisect_right(first, i) - 1
            chosen.append((i, frags[j].job_id,
                           frags[j].leaves[i - first[j]], counts))
        return chosen

    def decode(self, x: np.ndarray) -> list[PlannedPlacement]:
        """Decode a MILP solution into the set of active placements."""
        return [PlannedPlacement(job_id=job_id, start=leaf.start,
                                 duration=leaf.duration, node_counts=counts,
                                 value=leaf.value)
                for _, job_id, leaf, counts in self._chosen(x)]

    def chosen_plan(self, x: np.ndarray) -> list[tuple[str, NCk | LnCk]]:
        """``(job id, leaf)`` of every active leaf: next cycle's warm start."""
        return [(job_id, leaf) for _, job_id, leaf, _ in self._chosen(x)]

    def scheduled_jobs(self, x: np.ndarray) -> set[str]:
        """Jobs whose top-level indicator is on in the solution."""
        return {job_id for job_id, col in self.job_columns.items()
                if x[col] > 0.5}

    def book_directly(self) -> tuple[np.ndarray | None,
                                     tuple[str, int, int] | None]:
        """The cycle MILP's optimum without a solver, when nothing contends.

        A flat job (:attr:`JobFragment.flat`) switches on at most one leaf,
        and the supply rows only ever remove options, so job ``j`` is worth
        at most ``U_j``, the best value among its leaves that fit the
        cycle's supply on their own, and the MILP at most ``sum_j U_j``.
        This books such a leaf for one job after another on what the
        earlier bookings left of the ``partition x quantum`` supply.  If
        every job gets one, the booked point attains the bound: it *is* an
        optimum, returned as ``(x, None)``.  The first job whose ``U_j``
        leaves no longer fit ends the attempt with ``(None, (job id,
        partition, quantum))``, naming the supply cell where earlier
        bookings took the most from under its best leaf — the cycle is
        contended and goes to the solver.  ``(None, None)`` when the bound
        does not hold: a job that is not flat, or preemption / resize
        credits that add supply.

        Equality, not a gap, decides: a job is never moved to a cheaper
        leaf to make the others fit.  The batch remembers the attempt, so
        every stage that asks shares one.
        """
        if self._booking is None:
            self._booking = self._book()
        return self._booking

    def _book(self) -> tuple[np.ndarray | None, tuple[str, int, int] | None]:
        if not self.flat or self.preemption_columns or self.resize_candidates:
            return None, None
        # Reads the fragments' buffers, never the packed table, and loops
        # over what a decision visits: the jobs booked before the first
        # miss, and the leaves tried for each.  The tie-breaks are counted
        # (over the fragments' partition buffers) the first time a decision
        # has a tie to break.
        supply = self.supply
        left = supply.astype(float)
        counted: Counter = Counter()

        def crowding() -> Counter:
            """Leaf-table entries per partition: how much of the batch can
            use it."""
            if not counted:
                counted.update(chain.from_iterable(
                    f.leaf_pid for f in self.fragments))
            return counted

        def room(grid: np.ndarray, caps: list, pids: list,
                 span: slice) -> list:
            """Nodes a leaf can take from each of its partitions."""
            return [min(c, grid[p, span].min()) for c, p in zip(caps, pids)]

        x = np.zeros(self.num_columns)
        booked = self._booked
        offset = 0  # leaf-table index of the fragment's first leaf
        for frag in self.fragments:
            # The job's leaves, best value first; among equals, the one whose
            # partitions the rest of the batch can use least.
            leaves, base = frag.leaves, frag.base
            pid_of, parts = frag.leaf_pid, frag.leaf_parts
            keys = [-leaf.value for leaf in leaves]
            if len(set(keys)) < len(keys):
                # A run's leaves draw on the same partitions: one sum each.
                wanted = crowding()
                keys = list(zip(keys, chain.from_iterable(
                    [sum(wanted[p] for p in pids)] * n
                    for _, n, pids in frag.runs)))
            lost = None  # best leaf that fits the supply but not what is left
            for i in sorted(range(len(leaves)), key=keys.__getitem__):
                leaf = leaves[i]
                if leaf.value <= 0.0 or (lost is not None
                                         and leaf.value < leaves[lost].value):
                    break
                e0 = sum(parts[:i])
                e1 = e0 + parts[i]
                pids, pcols = pid_of[e0:e1], frag.leaf_pcol[e0:e1]
                coefs = frag.leaf_coef[e0:e1]
                caps = [frag.col_ub[c - base] * coef
                        for c, coef in zip(pcols, coefs)]
                span = slice(leaf.start, leaf.start + leaf.duration)
                free = room(left, caps, pids, span)
                if sum(free) < leaf.k:
                    if (lost is None
                            and sum(room(supply, caps, pids, span)) >= leaf.k):
                        lost = i
                    continue
                # Draw from the partitions the rest of the batch can use
                # least first, so a wide leaf does not empty the only
                # partition a narrower one can live in.
                need, order = leaf.k, range(e1 - e0)
                if len(order) > 1:
                    wanted = crowding()
                    order = sorted(order, key=lambda e: wanted[pids[e]])
                taken = [0] * (e1 - e0)
                for e in order:
                    take = min(need, free[e])
                    if take > 0:
                        x[pcols[e]] = take / coefs[e]
                        left[pids[e], span] -= take
                        need -= take
                        taken[e] = take
                x[frag.leaf_indicator[i]] = 1.0
                x[base] = 1.0
                booked.append((offset + i, frag.job_id, leaf, {
                    pid: int(take) for pid, take in zip(pids, taken)
                    if take > 0}))
                lost = None
                break
            if lost is not None:
                booked.clear()
                e0 = sum(parts[:lost])
                rows = pid_of[e0:e0 + parts[lost]]
                span = slice(leaves[lost].start,
                             leaves[lost].start + leaves[lost].duration)
                taken = supply[rows, span] - left[rows, span]
                row, quantum = np.unravel_index(np.argmax(taken), taken.shape)
                return None, (frag.job_id, int(rows[row]),
                              leaves[lost].start + int(quantum))
            offset += len(leaves)
        return x, None

    def jobs_by_component(self, decomp) -> list[list[str]]:
        """Job ids whose indicator landed in each decomposition block.

        ``decomp`` is a :class:`repro.solver.decompose.Decomposition` of
        this batch's model.  Jobs in different blocks share no
        ``(partition, time-slice)`` supply constraint — they contend for
        disjoint capacity, which is why they solve independently.
        """
        owner = {col: job_id for job_id, col in self.job_columns.items()}
        return [[owner[int(gi)] for gi in comp.global_indices
                 if int(gi) in owner]
                for comp in decomp.components]

    def _assemble(self) -> Model:
        """Fragment rows, then resize-commit rows, then supply rows
        (:func:`_supply_rows`), as a CSR export in an array-backed model."""
        obs.count("scheduler.model.assembled")
        packed, horizon, fragments = self._packed, self.horizon, self.fragments
        (lengths, cols, coefs, rhs), supply_keys = _supply_rows(
            packed, horizon, self.supply, self._freed)
        commit_rows = self._commit_rows
        if commit_rows:
            lengths = np.concatenate(
                [[len(row) for row in commit_rows.values()], lengths])
            cols = np.concatenate([np.fromiter(chain.from_iterable(
                commit_rows.values()), np.int64), cols])
            coefs = np.concatenate([np.fromiter(chain.from_iterable(
                row.values() for row in commit_rows.values()), float), coefs])
            rhs = np.concatenate([np.zeros(len(commit_rows)), rhs])
        domains = np.concatenate([
            packed.col_domain,
            np.full(len(self._penalties), _BINARY, dtype=np.int8)])
        arrays, row_is_eq = packed.export((lengths, cols, coefs, rhs),
                                          self.col_ub, self.objective,
                                          domains)
        victims, commits = list(self.preemption_columns), list(commit_rows)

        def col_names() -> list[str]:
            return (list(chain.from_iterable(
                f.column_names() for f in fragments))
                + [f"R[{job_id}]" for job_id in victims])

        def row_names() -> list[str]:
            return (list(chain.from_iterable(f.row_names() for f in fragments))
                    + [f"resize-commit[{job_id}]" for job_id in commits]
                    + [f"supply[p{key // horizon},t{key % horizon}]"
                       for key in supply_keys.tolist()])

        return Model.from_arrays("tetrisched-cycle", arrays, ArrayLayout(
            domains=domains, row_is_eq=row_is_eq, col_names=col_names,
            row_names=row_names))


@dataclass
class JobFragment:
    """One job's compiled STRL slice of a cycle model.

    Flat buffers, written once by Algorithm 1's walk and only ever
    concatenated afterwards.  The fragment owns the cycle columns
    ``base .. base + n - 1`` (column ``base`` is the job's top-level
    indicator), and every buffer holding columns holds cycle columns, so the
    batch's arrays are the fragments' buffers back to back.  Nothing in it
    depends on cluster *availability* (supply right-hand sides are added by
    :func:`assemble_batch`), only on the cycle
    :class:`~repro.cluster.partitions.Partitioning`'s membership and
    capacity.

    Every column has lower bound 0; every row has right-hand side 0 and is
    either ``<=`` or ``==``.
    """

    job_id: str
    #: Cycle column of the fragment's first column, its root indicator.
    base: int = 0
    #: Per column: upper bound (``inf`` = none), domain code, and the
    #: ``#n`` of its name (0 for the root indicator).
    col_ub: list[float] = field(default_factory=list)
    col_domain: list[int] = field(default_factory=list)
    col_counter: list[int] = field(default_factory=list)
    #: Rows in emission (= model constraint) order: length, equality flag,
    #: name kind and ``#n``; ``row_cols`` / ``row_coefs`` hold the rows'
    #: entries back to back, in within-row coefficient order.
    row_len: list[int] = field(default_factory=list)
    row_is_eq: list[bool] = field(default_factory=list)
    row_kind: list[int] = field(default_factory=list)
    row_counter: list[int] = field(default_factory=list)
    row_cols: list[int] = field(default_factory=list)
    row_coefs: list[float] = field(default_factory=list)
    #: Objective contribution, column -> coefficient (maximize sense).
    objective: dict[int, float] = field(default_factory=dict)
    #: Leaf table.  ``leaf_pcol`` / ``leaf_pid`` / ``leaf_coef`` hold each
    #: leaf's ``leaf_parts[i]`` entries back to back; together with
    #: ``leaf_start`` / ``leaf_duration`` they *are* the used ledger:
    #: entry ``e`` draws ``leaf_coef[e]`` nodes per unit of column
    #: ``leaf_pcol[e]`` on partition ``leaf_pid[e]`` for every quantum of
    #: its leaf's interval.
    leaves: list[NCk | LnCk] = field(default_factory=list)
    leaf_indicator: list[int] = field(default_factory=list)
    leaf_start: list[int] = field(default_factory=list)
    leaf_duration: list[int] = field(default_factory=list)
    leaf_parts: list[int] = field(default_factory=list)
    leaf_pcol: list[int] = field(default_factory=list)
    leaf_pid: list[int] = field(default_factory=list)
    leaf_coef: list[float] = field(default_factory=list)
    #: One ``(first leaf, leaves, partitions)`` per run ``_leaves`` wrote:
    #: leaves ``first .. first + leaves - 1`` all draw on the same
    #: partitions, so the supply cells a run covers are one union of
    #: intervals per run (:func:`_sizes`).
    runs: list[tuple[int, int, list[int]]] = field(default_factory=list)
    #: The last quantum any leaf touches, plus one.
    horizon: int = 0
    #: The root is an ``nCk`` or a ``max`` of ``nCk``: the job switches on at
    #: most one leaf and is worth exactly that leaf's value, which is what
    #: :meth:`CompiledBatch.book_directly`'s bound rests on.
    flat: bool = False

    @property
    def num_variables(self) -> int:
        return len(self.col_ub)

    @property
    def num_constraints(self) -> int:
        return len(self.row_len)

    def column_names(self) -> list[str]:
        """Job-scoped (``nCk[job-3]#2``), so fragments never collide and
        names are stable across cycles regardless of batch composition."""
        job = self.job_id
        names = [f"I[{job}]#{n}" if dom == _BINARY else f"V[{job}]#{n}"
                 for dom, n in zip(self.col_domain, self.col_counter)]
        names[0] = f"I[{job}]"
        entry = 0
        for leaf, parts, ind in zip(self.leaves, self.leaf_parts,
                                    self.leaf_indicator):
            kind = "nCk" if type(leaf) is NCk else "LnCk"
            for e in range(entry, entry + parts):
                col = self.leaf_pcol[e] - self.base
                if col != ind - self.base:  # a P column, not a substituted I
                    names[col] = (f"P[{kind}[{job}]#{self.col_counter[col]},"
                                  f"p{self.leaf_pid[e]}]")
            entry += parts
        return names

    def row_names(self) -> list[str]:
        return [_ROW_TAGS[kind].format(job=self.job_id, n=n)
                for kind, n in zip(self.row_kind, self.row_counter)]


def _chained(fragments: list[JobFragment], attr: str):
    """The same list buffer of every fragment, back to back."""
    return chain.from_iterable(getattr(f, attr) for f in fragments)


def _concat(fragments: list[JobFragment], attr: str,
            dtype=np.int64) -> np.ndarray:
    """One array out of the same list buffer of every fragment."""
    return np.fromiter(_chained(fragments, attr), dtype)


def _csr(lengths: np.ndarray, cols: np.ndarray, coefs: np.ndarray,
         ncols: int) -> SparseMatrix:
    indptr = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return SparseMatrix((lengths.shape[0], ncols), indptr, cols, coefs)


class _Packed:
    """The fragments' leaf tables and columns back to back, each buffer
    converted once.

    Fragments number their columns in the cycle's column space, so packing
    is concatenation: every integer buffer of the leaf table goes through
    one ``fromiter``, the float buffers through another, and the attributes
    below are views of those.  Rows are
    packed only by :meth:`export`; they keep fragment order and, within a
    fragment, emission order — which is the assembled model's constraint
    order, so splitting them by ``row_is_eq`` yields the export's ``a_ub`` /
    ``a_eq`` blocks directly.
    """

    def __init__(self, fragments: list[JobFragment]) -> None:
        self.fragments = fragments
        ncols = fragments[-1].base + len(fragments[-1].col_ub)
        leaves = sum(len(f.leaves) for f in fragments)
        entries = sum(len(f.leaf_pcol) for f in fragments)
        # Four per leaf (leaf_parts after a 0: it becomes leaf_ptr in place),
        # then two per leaf-table entry.
        ints = np.fromiter(chain(
            _chained(fragments, "leaf_indicator"),
            _chained(fragments, "leaf_start"),
            _chained(fragments, "leaf_duration"),
            (0,), _chained(fragments, "leaf_parts"),
            _chained(fragments, "leaf_pcol"), _chained(fragments, "leaf_pid")),
            np.int64, count=4 * leaves + 1 + 2 * entries)
        self.leaf_indicator = ints[:leaves]
        #: Per leaf-table entry: its leaf's interval (start, then duration).
        self.entry_start, self.entry_dur = ints[leaves:3 * leaves].reshape(
            2, leaves).repeat(ints[3 * leaves + 1:4 * leaves + 1], axis=1)
        self.leaf_ptr = ints[3 * leaves:4 * leaves + 1]
        self.leaf_ptr.cumsum(out=self.leaf_ptr)
        at = 4 * leaves + 1
        self.leaf_pcol = ints[at:at + entries]
        self.leaf_pid = ints[at + entries:]
        floats = np.fromiter(chain(_chained(fragments, "col_ub"),
                                   _chained(fragments, "leaf_coef")),
                             float, count=ncols + entries)
        #: Per fragment column: upper bound and domain code.
        self.col_ub = floats[:ncols]
        self.col_domain = _concat(fragments, "col_domain", np.int8)
        self.leaf_coef = floats[ncols:]

    def export(self, extra_ub: tuple[np.ndarray, ...], col_ub: np.ndarray,
               objective: np.ndarray, domains: np.ndarray
               ) -> tuple[SparseArrays, np.ndarray]:
        """The CSR export and its per-row equality flags: fragment rows,
        then the ``extra_ub`` rows ``(lengths, cols, coefs, rhs)``, over
        columns with the given bounds, (maximize-sense) objective and
        domain codes."""
        n, frags = col_ub.shape[0], self.fragments
        row_len = _concat(frags, "row_len")
        row_is_eq = _concat(frags, "row_is_eq", dtype=bool)
        row_cols = _concat(frags, "row_cols")
        row_coefs = _concat(frags, "row_coefs", dtype=float)
        entry_eq = np.repeat(row_is_eq, row_len)
        lengths, cols, coefs, rhs = extra_ub
        ub_len = np.concatenate([row_len[~row_is_eq], lengths])
        # Fragment rows read ``... <= 0`` / ``... == 0`` with the constant
        # moved across, i.e. a right-hand side of -(0.0).
        b_ub = np.concatenate([np.full(ub_len.shape[0] - rhs.shape[0], -0.0),
                               rhs])
        eq_len = row_len[row_is_eq]
        arrays = SparseArrays(
            c=-objective, obj_constant=0.0, obj_sign=-1.0,
            a_ub=_csr(ub_len, np.concatenate([row_cols[~entry_eq], cols]),
                      np.concatenate([row_coefs[~entry_eq], coefs]), n),
            b_ub=b_ub,
            a_eq=_csr(eq_len, row_cols[entry_eq], row_coefs[entry_eq], n),
            b_eq=np.full(eq_len.shape[0], -0.0),
            lb=np.zeros(n), ub=col_ub, integrality=domains != _CONTINUOUS)
        return arrays, np.concatenate(
            [row_is_eq, np.zeros(lengths.shape[0], dtype=bool)])


def _freed_entries(candidates: list[tuple[frozenset[str], int]],
                   partitioning: Partitioning, state, horizon: int,
                   quantum_s: float, now: float
                   ) -> tuple[list[int], list[int], list[float]]:
    """Supply credits of kill / re-plan decisions, as ledger entries.

    ``candidates`` pairs the nodes a running job holds with the column
    whose activation releases them.  A released node returns to
    ``(partition, t)`` supply for every quantum the job would otherwise
    still hold it — unless it is drained: drained nodes never return to
    supply.  Returns parallel ``(pid * horizon + t, column, -freed)`` lists.
    """
    busy = state.busy_quanta(now, quantum_s)
    drained = getattr(state, "drained_nodes", frozenset())
    pid_of = {n: part.pid for part in partitioning.partitions
              for n in part.nodes}
    keys: list[int] = []
    cols: list[int] = []
    coefs: list[float] = []
    for nodes, col in candidates:
        held: dict[int, list[int]] = {}
        for n in nodes:
            if n not in drained:
                held.setdefault(pid_of[n], []).append(busy.get(n, 0))
        for pid, quanta in held.items():
            for t in range(min(max(quanta), horizon)):
                keys.append(pid * horizon + t)
                cols.append(col)
                coefs.append(-float(sum(1 for q in quanta if q > t)))
    return keys, cols, coefs


def _supply_rows(packed: _Packed, horizon: int, grid: np.ndarray,
                 freed: tuple[list[int], list[int], list[float]] | None
                 ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """``sum of P in used(x, t) <= avail(x, t)`` for every used ``(x, t)``.

    The used ledger is the leaf table: each (leaf, partition) entry, a
    ``coef * column`` draw (see :class:`CompiledBatch`), is expanded over
    the leaf's interval and the expansion is stably sorted by
    ``(partition, t)``.  Rows therefore come out in ascending
    ``(pid, t)`` order with coefficients in registration order (job order,
    then leaf order, then partition order), followed by the ``freed``
    supply credits (:func:`_freed_entries`) in candidate order.  Right-hand
    sides are read off ``grid``, the ``partitions x horizon`` availability.
    Returns the rows as ``(lengths, cols, coefs, rhs)`` and their
    ``pid * horizon + t`` keys.
    """
    entry_dur = packed.entry_dur
    # Expand entry e into its quanta start[e] .. start[e] + dur[e] - 1.
    source = np.repeat(np.arange(entry_dur.shape[0]), entry_dur)
    first = np.cumsum(entry_dur) - entry_dur
    t = np.arange(source.shape[0]) - first[source] + packed.entry_start[source]
    keys = packed.leaf_pid[source] * horizon + t
    cols = packed.leaf_pcol[source]
    coefs = packed.leaf_coef[source]
    if freed is not None:
        f_keys = np.asarray(freed[0], dtype=np.int64)
        wanted = np.isin(f_keys, keys)  # credits only where someone draws
        keys = np.concatenate([keys, f_keys[wanted]])
        cols = np.concatenate(
            [cols, np.asarray(freed[1], dtype=np.int64)[wanted]])
        coefs = np.concatenate([coefs, np.asarray(freed[2])[wanted]])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    row_keys = keys[starts]
    lengths = np.diff(starts, append=keys.shape[0])
    rhs = grid[np.divmod(row_keys, horizon)].astype(float)
    return (lengths, cols[order], coefs[order], rhs), row_keys


def _sizes(fragments: list[JobFragment], kills: int) -> dict[str, int]:
    """:meth:`Model.stats` of the MILP of ``fragments`` plus ``kills``
    kill-decision columns and no supply credits, counted on the fragments'
    buffers: a supply row per distinct ``(partition, quantum)`` cell some
    leaf-table entry covers — per partition, the union (bit ``t`` = quantum
    ``t`` of a Python int) of its runs' intervals — and a nonzero per entry
    and quantum covered."""
    cells: dict[int, int] = {}
    binary = continuous = rows = nonzeros = 0
    for frag in fragments:
        starts, durations = frag.leaf_start, frag.leaf_duration
        for first, leaves, pids in frag.runs:
            covered = 0
            for start, duration in zip(starts[first:first + leaves],
                                       durations[first:first + leaves]):
                covered |= ~(-1 << duration) << start
            for pid in pids:
                cells[pid] = cells.get(pid, 0) | covered
        binary += frag.col_domain.count(_BINARY)
        continuous += frag.col_domain.count(_CONTINUOUS)
        rows += len(frag.row_len)
        nonzeros += len(frag.row_cols) + sum(map(mul, frag.leaf_parts,
                                                 durations))
    variables = fragments[-1].base + len(fragments[-1].col_ub) + kills
    return {
        "variables": variables,
        "integer_variables": variables - continuous,
        "binary_variables": binary + kills,
        "constraints": rows + sum(c.bit_count() for c in cells.values()),
        "nonzeros": nonzeros}


def assemble_batch(fragments: list[JobFragment], partitioning: Partitioning,
                   state: ClusterState, quantum_s: float, now: float,
                   preemptible: list[PreemptionCandidate] | None = None,
                   resizable: list[ResizeCandidate] | None = None
                   ) -> CompiledBatch:
    """Assemble compiled job fragments into one cycle :class:`CompiledBatch`.

    The fragments are kept as they are, next to one binary kill-decision
    column per ``preemptible`` candidate; everything that depends on the
    cluster is read here: every partition's availability up to the batch
    horizon (the last quantum any leaf touches), the candidates' supply
    credits.  ``resizable`` entries add no columns: each candidate's
    fragment root indicator doubles as the release decision, freeing the
    job's currently-held nodes in every supply row they appear in.

    The leaf table's arrays are packed by the first read of one of them,
    and the model — fragment rows, supply rows (:func:`_supply_rows`), CSR
    export — by the first read of :attr:`CompiledBatch.model`; both at once
    for a batch with candidates, which cannot book directly and whose size
    depends on the credits.
    """
    obs.count("scheduler.model.compiled")
    preemptible = preemptible or []
    resizable = resizable or []
    horizon = max(frag.horizon for frag in fragments)
    job_columns = {frag.job_id: frag.base for frag in fragments}
    first_kill = fragments[-1].base + len(fragments[-1].col_ub)
    preemption_columns = {cand.job_id: first_kill + i
                          for i, cand in enumerate(preemptible)}
    #: (held nodes, releasing column): kills first, then width re-plans.
    candidates = [(cand.nodes, preemption_columns[cand.job_id])
                  for cand in preemptible]

    # Elastic extension: the release decision of a width re-plan is the
    # candidate's own fragment root indicator (no new variable, no extra
    # objective term — grow penalties live in the fragment's leaf values).
    active_resizes: list[ResizeCandidate] = []
    commit_rows: dict[str, dict[int, float]] = {}  # job id -> row
    for cand in resizable:
        root = job_columns.get(cand.job_id)
        if root is None:
            continue  # every width option was culled this cycle
        active_resizes.append(cand)
        candidates.append((cand.nodes, root))
        # Commit row: the root indicator both grants the freed-nodes
        # supply credit and must therefore imply an actual width choice —
        # ``I <= sum(leaf indicators)``.  Without it the solver could
        # activate the root for the credit alone, a phantom release of a
        # still-running gang.  (A single-leaf fragment already ties the
        # root to its demand row.)
        frag = next(f for f in fragments if f.job_id == cand.job_id)
        leaf_inds = set(frag.leaf_indicator)
        if leaf_inds != {root}:
            coeffs = {i: -1.0 for i in leaf_inds}
            coeffs[root] = coeffs.get(root, 0.0) + 1.0
            commit_rows[cand.job_id] = coeffs

    batch = CompiledBatch(
        partitioning=partitioning, horizon=horizon, fragments=fragments,
        job_columns=job_columns,
        supply=state.availability_grid(partitioning, horizon, now, quantum_s),
        preemption_columns=preemption_columns,
        resize_candidates={cand.job_id: cand for cand in active_resizes},
        flat=all(frag.flat for frag in fragments),
        _penalties=[float(cand.penalty) for cand in preemptible],
        _freed=(_freed_entries(candidates, partitioning, state, horizon,
                               quantum_s, now) if candidates else None),
        _commit_rows=commit_rows)
    if candidates:  # assembled at once (see above)
        batch._model = batch._assemble()
    return batch


def _merge(acc: dict[int, float], terms: dict[int, float]) -> dict[int, float]:
    """``acc += terms`` on ``{column: coefficient}`` maps, in place.

    A coefficient that cancels to exactly zero leaves the map and a new
    column joins at the end — ``LinExpr.__add__``'s rules, which fix the
    within-row coefficient order (insertion order) the export is pinned to.
    """
    for col, coef in terms.items():
        total = acc.get(col, 0.0) + coef
        if total == 0.0:
            acc.pop(col, None)
        else:
            acc[col] = total
    return acc


def _scaled(terms: dict[int, float], factor: float) -> dict[int, float]:
    if factor == 0.0:
        return {}
    return {col: coef * factor for col, coef in terms.items()}


def _equivalence_sets(exprs, seen: dict) -> dict:
    """Distinct leaf equivalence sets under ``exprs``, in first-seen order."""
    for expr in exprs:
        if isinstance(expr, (NCk, LnCk)):
            seen[expr.nodes] = None
        else:
            _equivalence_sets(expr.children(), seen)
    return seen


class StrlCompiler:
    """Compiles a batch of per-job STRL expressions into one MILP.

    Parameters
    ----------
    state:
        Current cluster availability view; drives the supply constraints'
        right-hand sides (``avail(x, t)``).
    quantum_s:
        Length of one time quantum in seconds.
    now:
        Absolute time of this scheduling cycle.
    """

    def __init__(self, state: ClusterState, quantum_s: float,
                 now: float = 0.0, minimal_partitioning: bool = True) -> None:
        self.state = state
        self.quantum_s = quantum_s
        self.now = now
        #: Ablation knob: when False, every node is its own partition,
        #: disabling the paper's dynamic-partitioning optimization (TR
        #: Appendix A).  Schedules are identical; MILPs are much larger.
        self.minimal_partitioning = minimal_partitioning

    def compile(self, batch: list[tuple[str, StrlNode]],
                preemptible: list[PreemptionCandidate] | None = None,
                resizable: list[ResizeCandidate] | None = None
                ) -> CompiledBatch:
        """Compile ``[(job_id, strl_expr), ...]`` into a :class:`CompiledBatch`.

        The batch is aggregated under the top-level SUM (global scheduling);
        supply constraints are added for every (partition, time slice) pair
        touched by any leaf.

        ``preemptible`` (extension, see :class:`PreemptionCandidate`) adds a
        binary kill-decision per running victim: choosing it returns the
        victim's still-held nodes to the supply of every affected time slice
        at a value penalty in the objective.

        ``resizable`` (elastic extension, see :class:`ResizeCandidate`)
        marks running malleable jobs whose batch fragment doubles as a
        width re-plan: activating the fragment frees the job's current
        nodes in the supply rows.
        """
        if not batch:
            raise SchedulerError("cannot compile an empty batch")
        seen_ids = set()
        for job_id, _ in batch:
            if job_id in seen_ids:
                raise SchedulerError(f"duplicate job id {job_id!r} in batch")
            seen_ids.add(job_id)

        partitioning = self.build_partitioning([expr for _, expr in batch])
        fragments: list[JobFragment] = []
        base = 0
        for job_id, expr in batch:
            fragments.append(self.compile_fragment(job_id, expr,
                                                   partitioning, base))
            base += fragments[-1].num_variables
        return assemble_batch(fragments, partitioning, self.state,
                              self.quantum_s, self.now,
                              preemptible=preemptible, resizable=resizable)

    def build_partitioning(self, exprs: list[StrlNode]) -> Partitioning:
        """Dynamic minimal partitioning over a batch's equivalence sets:
        the cycle before's, when it referenced the same family of sets."""
        eq_sets = _equivalence_sets(exprs, {})
        if self.minimal_partitioning:
            return self.state.partitioning(frozenset(eq_sets))
        # Ablation: singleton partitions (one integer variable per node
        # per leaf) — the naive formulation the paper optimizes away.
        singletons = [frozenset({n}) for n in self.state.universe]
        return Partitioning(self.state.universe, [*eq_sets, *singletons])

    def compile_fragment(self, job_id: str, expr: StrlNode,
                         partitioning: Partitioning,
                         base: int = 0) -> JobFragment:
        """Compile one job's STRL into a :class:`JobFragment` whose columns
        start at cycle column ``base``.

        Runs Algorithm 1's ``gen`` with the fragment's buffers as the
        output: every column, row, objective term and leaf-table entry is
        appended where it is generated.  Nothing here reads cluster
        availability or ``now``.
        """
        self._partitioning = partitioning
        # When the availability provider knows about node-level fragmentation
        # (the greedy mode's PlanAccumulator), each partition variable is
        # capped by the number of nodes free for the leaf's *whole* interval.
        # Per-slice supply alone can overestimate capacity once tentative
        # reservations create non-prefix busy intervals.
        self._free_rows = getattr(self.state, "free_rows", None)
        frag = self._frag = JobFragment(job_id, base)
        # Job-scoped naming: the counter restarts per fragment and names
        # embed the job id, so names are unique across any batch and
        # *stable* across cycles no matter which jobs come and go.
        self._counter = 0
        self._column(1.0, _BINARY, 0)
        frag.objective = self._gen(expr, base)
        frag.flat = type(expr) is NCk or (
            type(expr) is Max and set(map(type, expr.subexprs)) == {NCk})
        del self._frag
        return frag

    # -- buffer writers ------------------------------------------------------
    def _fresh(self) -> int:
        self._counter += 1
        return self._counter

    def _column(self, ub: float, domain: int, counter: int) -> int:
        frag = self._frag
        frag.col_ub.append(ub)
        frag.col_domain.append(domain)
        frag.col_counter.append(counter)
        return frag.base + len(frag.col_ub) - 1

    def _row(self, terms: dict[int, float], is_eq: bool, kind: int,
             counter: int) -> None:
        frag = self._frag
        frag.row_len.append(len(terms))
        frag.row_is_eq.append(is_eq)
        frag.row_kind.append(kind)
        frag.row_counter.append(counter)
        frag.row_cols.extend(terms)
        frag.row_coefs.extend(terms.values())

    def _leaves(self, run: tuple[NCk | LnCk, ...],
                indicator: int | None = None,
                bounds: list[list[float]] | None = None,
                ) -> tuple[list[int], list[int]]:
        """Emit leaves of one type drawing the same ``k`` from the same
        equivalence set; returns their (indicator, partition) columns.

        Each leaf gets one integer variable per partition of the set and
        its demand row — ``sum_x P_x == k * I`` (nCk) or ``<= k * I``
        (LnCk, any count up to k) — and its leaf-table rows, which are
        also its ledger entries.  With ``indicator=None`` (the children of
        a choice) every leaf also gets a fresh binary indicator column in
        front of its partition variables; otherwise the leaves hang under
        the given column.  ``bounds`` are the partition variables' upper
        bounds, per partition and leaf, where the caller already has them.

        An ``nCk`` leaf with its own indicator that draws on one partition
        satisfies ``P == k * I`` identically: it gets neither ``P`` nor the
        row, and its one ledger entry is ``k`` nodes per unit of ``I`` (the
        time-indexed column).  Where an interval cap leaves fewer than
        ``k`` nodes, ``P <= bound < k`` and the row stay, and force
        ``I = 0``.  A leaf under a given indicator keeps ``P`` too: that
        column may switch other leaves or carry a supply credit.

        The leaves differ only in start, duration and value, so all of
        them are the same column block and the same row shape: the
        buffers are filled by strided slices, block by block, and come out
        exactly as leaf-by-leaf emission would write them.
        """
        frag = self._frag
        is_nck = type(run[0]) is NCk
        pids, part_rows = self._partitioning.parts_of(run[0].nodes)
        r, m, k = len(run), len(pids), run[0].k
        own = indicator is None
        if bounds is None and self._free_rows is None:
            bounds = [[float(min(k, len(rows)))] * r for rows in part_rows]
        elif bounds is None:
            bounds = [[float(min(k, len(self._free_rows(
                rows, leaf.start, leaf.duration)))) for leaf in run]
                for rows in part_rows]
        identity = own and is_nck and m == 1
        fits = [identity and bound >= k for bound in bounds[0]]
        if any(fits) and not all(fits):  # an interval cap split the run
            singles = [self._leaves((leaf,), None, [bounds[0][j:j + 1]])
                       for j, leaf in enumerate(run)]
            return tuple(list(chain.from_iterable(cols))
                         for cols in zip(*singles))
        substitute = fits[0]
        mp = 0 if substitute else m  # partition variables per leaf
        stride = mp + own
        col0 = frag.base + len(frag.col_ub)
        cols = range(col0, col0 + stride * r)
        indicators = list(cols[::stride]) if own else [indicator] * r
        pcols = (indicators if substitute else
                 [c for c in cols if (c - col0) % stride >= own])

        # Leaf j takes one counter for its indicator (if any), one for itself.
        step, ctr0 = own + 1, self._counter
        self._counter += step * r
        leaf_ctrs = range(ctr0 + step, ctr0 + step * r + 1, step)
        ub = [1.0] * (stride * r)
        domain = [_BINARY] * (stride * r)
        counters = [0] * (stride * r)
        if own:
            counters[::stride] = range(ctr0 + 1, ctr0 + step * r, step)
        for q in range(mp):
            ub[q + own::stride] = bounds[q]
            domain[q + own::stride] = [_INTEGER] * r
            counters[q + own::stride] = leaf_ctrs
        frag.col_ub.extend(ub)
        frag.col_domain.extend(domain)
        frag.col_counter.extend(counters)

        if mp:
            # Demand rows, partition variables first.
            demand = [0] * ((m + 1) * r)
            for q in range(m):
                demand[q::m + 1] = cols[q + own::stride]
            demand[m::m + 1] = indicators
            frag.row_len.extend([m + 1] * r)
            frag.row_is_eq.extend([is_nck] * r)
            frag.row_kind.extend(
                [_DEMAND_NCK if is_nck else _DEMAND_LNCK] * r)
            frag.row_counter.extend(leaf_ctrs)
            frag.row_cols.extend(demand)
            frag.row_coefs.extend(([1.0] * m + [-float(k)]) * r)

        starts = [leaf.start for leaf in run]
        durations = [leaf.duration for leaf in run]
        frag.runs.append((len(frag.leaves), r, pids))
        end = max(map(add, starts, durations))  # the run's last quantum
        if end > frag.horizon:
            frag.horizon = end
        frag.leaves.extend(run)
        frag.leaf_indicator.extend(indicators)
        frag.leaf_start.extend(starts)
        frag.leaf_duration.extend(durations)
        frag.leaf_parts.extend([m] * r)
        frag.leaf_pcol.extend(pcols)
        frag.leaf_pid.extend(pids * r)
        frag.leaf_coef.extend([float(k) if substitute else 1.0] * (m * r))
        return indicators, pcols

    # -- Algorithm 1's gen(expr, I) -----------------------------------------
    def _gen(self, expr: StrlNode, indicator: int) -> dict[int, float]:
        """Emit ``expr`` under indicator column ``indicator``.

        Returns the sub-expression's objective contribution as a
        ``{column: coefficient}`` map (objectives flow upward).
        """
        if isinstance(expr, NCk):
            self._leaves((expr,), indicator)
            return {indicator: expr.value}
        if isinstance(expr, LnCk):
            # Value is linear in the count: v * sum_x P_x / k.
            _, pcols = self._leaves((expr,), indicator)
            return _scaled(dict.fromkeys(pcols, 1.0),
                           float(expr.value / expr.k))
        if isinstance(expr, (Max, ElasticNCk)):
            # ElasticNCk desugars to max over per-width nCk options: exactly
            # the paper's combinators, one indicator per (width, start).
            return self._gen_choice(expr, indicator, at_most=1)
        if isinstance(expr, Sum):
            return self._gen_choice(expr, indicator,
                                    at_most=len(expr.subexprs))
        if isinstance(expr, Min):
            return self._gen_min(expr, indicator)
        if isinstance(expr, Scale):
            return _scaled(self._gen(expr.subexpr, indicator),
                           float(expr.factor))
        if isinstance(expr, Barrier):
            return self._gen_barrier(expr, indicator)
        raise SchedulerError(f"cannot compile STRL node {expr!r}")

    def _gen_choice(self, expr: Max | Sum | ElasticNCk, indicator: int,
                    at_most: int) -> dict[int, float]:
        objective: dict[int, float] = {}
        row: dict[int, float] = {}
        children = expr.children()
        i, n = 0, len(children)
        while i < n:
            child = children[i]
            j = i + 1
            if type(child) is NCk:
                # A job's max is mostly one placement option replicated
                # over start times: same equivalence set, same k.  Emit
                # each such run of children in one go.
                nodes, k = child.nodes, child.k
                while (j < n and type(children[j]) is NCk
                       and children[j].nodes is nodes and children[j].k == k):
                    j += 1
                run = children[i:j]
                indicators, _ = self._leaves(run)
                row.update(dict.fromkeys(indicators, 1.0))
                # Fresh columns: merging them only drops the zero values.
                objective.update({ci: leaf.value for ci, leaf
                                  in zip(indicators, run) if leaf.value})
            else:
                ci = self._column(1.0, _BINARY, self._fresh())
                row[ci] = 1.0
                _merge(objective, self._gen(child, ci))
            i = j
        # max: sum I_i <= I; sum: sum I_i <= n * I.
        row[indicator] = -float(at_most)
        self._row(row, False, _CHOICE, self._fresh())
        return objective

    def _gen_min(self, expr: Min, indicator: int) -> dict[int, float]:
        v = self._column(np.inf, _CONTINUOUS, self._fresh())
        for child in expr.subexprs:
            # Children share the parent's I; V <= f_i for each of them.
            f_i = self._gen(child, indicator)
            self._row(_merge({v: 1.0}, _scaled(f_i, -1.0)), False, _MIN,
                      self._fresh())
        return {v: 1.0}

    def _gen_barrier(self, expr: Barrier, indicator: int) -> dict[int, float]:
        f = self._gen(expr.subexpr, indicator)
        # v * I <= f: only yield the threshold if the child reaches it.
        threshold = float(expr.threshold)
        lhs = {indicator: threshold} if threshold != 0.0 else {}
        self._row(_merge(lhs, _scaled(f, -1.0)), False, _BARRIER,
                  self._fresh())
        return {indicator: expr.threshold}
