"""Independent-component decomposition of MILP models.

A scheduling-cycle MILP is block-separable whenever two groups of jobs share
no ``(partition, time-slice)`` supply constraint: the constraint matrix is
block-diagonal up to row/column permutation, so the monolithic optimum is
exactly the union of the per-block optima, and ``k`` blocks of size ``n/k``
are cheaper to branch and bound than one block of size ``n``.  What that
buys was measured (PR 23, HiGHS, 8x32 nodes): the paper's GR MIX and GS HET
workloads are one block per cycle, so nothing; an 8-tenant mix with every
job pinned to its tenant's rack splits into ~6.8 blocks per solved cycle
and spends 2.4x less total solve time, 7x less at p90, than the
monolithic model (1.8x / 1.5x on a second seed).  This is the one way the repository partitions a MILP
(``docs/architecture.md``, "Why there is one partitioner").

:func:`decompose` labels the blocks with vectorised min-label propagation
over the model's CSR export (:func:`component_labels`), slices one
independent array-backed sub-:class:`Model` per block out of that export,
and handles variables that appear in *no* constraint (e.g. a preemption
decision whose victim frees no contested node) analytically from their
bounds.  A model that is one block with nothing free — every cycle of the
benchmark workloads — is returned as its own single component, untouched.
:func:`solve_decomposed` solves the components in process, in column order,
through any :class:`~repro.solver.backend.MILPBackend`: each gets the
full-model warm start sliced to its columns and a share of the cycle's time
budget proportional to its size (:func:`carve_time_budgets`), and
solutions, objective, bound and search statistics recombine into a single
:class:`MILPResult` whose ``x`` is indistinguishable from a monolithic
solve.

Decomposition is *schedule-preserving by construction*: with exact solves
the recombined objective equals the monolithic optimum; with a relative
gap each component is within the gap, so the union is too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import SolverError
from repro.solver.model import (EQ, ArrayLayout, Model, SparseArrays,
                                SparseMatrix)
from repro.solver.options import UNSET, SolveOptions
from repro.solver.result import MILPResult, SolveStatus


@dataclass
class SubProblem:
    """One independent block: a standalone model plus its column mapping."""

    model: Model
    #: Global (source-model) variable index of each local column, sorted.
    global_indices: np.ndarray

    @property
    def num_variables(self) -> int:
        return int(self.global_indices.shape[0])


@dataclass
class Decomposition:
    """A model split into independent blocks plus analytic leftovers."""

    source: Model
    components: list[SubProblem]
    #: Variables appearing in no constraint, fixed at their best bound.
    free_indices: np.ndarray
    free_values: np.ndarray
    #: Objective contribution of the free variables (model sense).
    free_objective: float
    #: The source objective's constant term.
    constant: float

    @property
    def num_components(self) -> int:
        return len(self.components)

    def component_sizes(self) -> list[int]:
        return [c.num_variables for c in self.components]

    def assemble(self, solutions: list[np.ndarray]) -> np.ndarray:
        """Scatter per-component solutions back into source column order."""
        x = np.zeros(self.source.num_variables)
        for comp, xs in zip(self.components, solutions):
            x[comp.global_indices] = xs
        if self.free_indices.size:
            x[self.free_indices] = self.free_values
        return x

    def slice_warm_start(self, x_full: np.ndarray | None,
                         comp: SubProblem) -> np.ndarray | None:
        """Restrict a full-model feasible point to one component's columns.

        Constraints are component-local, so the restriction of a feasible
        point is feasible for the sub-model; this is how the previous
        cycle's shifted plan seeds each block's incumbent.
        """
        if x_full is None:
            return None
        return np.asarray(x_full, dtype=float)[comp.global_indices]


def _row_firsts(mat: SparseMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(mask of rows with entries, the first column of each such row)."""
    nonempty = np.diff(mat.indptr) > 0
    return nonempty, mat.indices[mat.indptr[:-1][nonempty]]


def component_labels(n: int, matrices: list[SparseMatrix]) -> np.ndarray:
    """Label each of ``n`` columns with the smallest column it is connected to.

    Two columns are connected when some row of some matrix mentions both.
    Every row contributes the edges (entry column, the row's first column);
    labels then converge by repeated *hook* (the root of each edge
    endpoint adopts the smaller of the two endpoint labels) and *compress*
    (``labels = labels[labels]`` until stable) — pointers only ever move to
    smaller columns, so there are no cycles, and the fixed point labels
    every column with the minimum column index of its component.  A column
    in no row keeps its own index.
    """
    u = np.concatenate([mat.indices for mat in matrices])
    anchors = []
    for mat in matrices:
        nonempty, firsts = _row_firsts(mat)
        anchors.append(np.repeat(firsts, np.diff(mat.indptr)[nonempty]))
    v = np.concatenate(anchors)
    labels = np.arange(n)
    while True:
        lu, lv = labels[u], labels[v]
        low = np.minimum(lu, lv)
        hooked = labels.copy()
        np.minimum.at(hooked, lu, low)
        np.minimum.at(hooked, lv, low)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, labels):
            return labels
        labels = hooked


def _free_values(model: Model, sa: SparseArrays,
                 free: np.ndarray) -> np.ndarray:
    """Optimal values of unconstrained variables, from their bounds."""
    c, lb, ub = sa.c[free], sa.lb[free], sa.ub[free]
    indifferent = np.where(np.isfinite(lb), lb,
                           np.where(np.isfinite(ub), np.minimum(0.0, ub),
                                    0.0))
    # Minimization orientation: a negative cost wants the upper bound.
    pick = np.where(c == 0.0, indifferent, np.where(c < 0.0, ub, lb))
    runaway = np.flatnonzero(~np.isfinite(pick))
    if runaway.size:
        name = model.variables[int(free[runaway[0]])].name
        raise SolverError(
            f"unconstrained variable {name!r} is unbounded in the "
            f"objective direction")
    integral = sa.integrality[free]
    pick[integral] = np.rint(pick[integral])
    return pick


def _sub_model(model: Model, sa: SparseArrays, k: int, cols: np.ndarray,
               local: np.ndarray, ub_rows: np.ndarray,
               eq_rows: np.ndarray) -> Model:
    """Block ``k``: columns ``cols`` and the export rows that touch them."""
    def block(mat: SparseMatrix, keep: np.ndarray) -> SparseMatrix:
        rows = mat.select_rows(keep)
        return SparseMatrix((rows.shape[0], cols.shape[0]), rows.indptr,
                            local[rows.indices], rows.data)

    arrays = SparseArrays(
        c=sa.c[cols], obj_constant=0.0, obj_sign=sa.obj_sign,
        a_ub=block(sa.a_ub, ub_rows), b_ub=sa.b_ub[ub_rows],
        a_eq=block(sa.a_eq, eq_rows), b_eq=sa.b_eq[eq_rows],
        lb=sa.lb[cols], ub=sa.ub[cols], integrality=sa.integrality[cols])

    def row_names() -> list[str]:
        by_kind = {False: [], True: []}
        for con in model.constraints:
            by_kind[con.sense == EQ].append(con.name)
        return ([by_kind[False][r] for r in np.flatnonzero(ub_rows)]
                + [by_kind[True][r] for r in np.flatnonzero(eq_rows)])

    # The sub-model lists its rows in export order: inequalities (a GE
    # source row appears negated, as exported), then equalities.
    n_ub, n_eq = int(ub_rows.sum()), int(eq_rows.sum())
    return Model.from_arrays(f"{model.name}#c{k}", arrays, ArrayLayout(
        domains=model.column_domains()[cols],
        row_is_eq=np.repeat([False, True], [n_ub, n_eq]),
        col_names=lambda: [model.variables[i].name for i in cols.tolist()],
        row_names=row_names))


def decompose(model: Model) -> Decomposition:
    """Split ``model`` into independent connected components.

    Two variables are connected when some constraint mentions both; the
    components of that graph are exactly the blocks of the (permuted)
    block-diagonal constraint matrix.  Every constraint lands in exactly
    one component (all its variables share a label by construction).
    Components are ordered by their smallest column index.
    """
    sa = model.to_sparse_arrays()
    n = model.num_variables
    labels = component_labels(n, [sa.a_ub, sa.a_eq])
    constrained = np.zeros(n, dtype=bool)
    constrained[sa.a_ub.indices] = True
    constrained[sa.a_eq.indices] = True
    roots = np.unique(labels[constrained])
    if roots.size == 1 and constrained.all():
        # The untouched source model's own result already carries its
        # objective constant, so the decomposition adds none on top.
        whole = SubProblem(model=model,
                           global_indices=np.arange(n, dtype=np.int64))
        return Decomposition(source=model, components=[whole],
                             free_indices=np.zeros(0, dtype=np.int64),
                             free_values=np.zeros(0), free_objective=0.0,
                             constant=0.0)

    # Component of every column (-1: free) and its position within it.
    comp = np.where(constrained, np.searchsorted(roots, labels), -1)
    local = np.zeros(n, dtype=np.int64)
    components: list[SubProblem] = []

    def row_comp(mat: SparseMatrix) -> np.ndarray:
        """Component of each export row (-1 for a row with no entries)."""
        nonempty, firsts = _row_firsts(mat)
        out = np.full(nonempty.shape[0], -1)
        out[nonempty] = comp[firsts]
        return out

    ub_comp, eq_comp = row_comp(sa.a_ub), row_comp(sa.a_eq)
    for k in range(roots.size):
        cols = np.flatnonzero(comp == k)
        local[cols] = np.arange(cols.shape[0])
        components.append(SubProblem(
            model=_sub_model(model, sa, k, cols, local,
                             ub_comp == k, eq_comp == k),
            global_indices=cols))

    free = np.flatnonzero(~constrained)
    free_values = _free_values(model, sa, free)
    # Summed left to right, so the value does not depend on numpy's
    # pairwise (or Python 3.12's compensated) summation order.
    free_objective = 0.0
    for term in (sa.obj_sign * sa.c[free] * free_values).tolist():
        free_objective += term
    return Decomposition(source=model, components=components,
                         free_indices=free, free_values=free_values,
                         free_objective=free_objective,
                         constant=sa.obj_constant)


#: Never hand a component less than this share of a second: tiny budgets
#: buy nothing but still cost a solver invocation's setup.
MIN_COMPONENT_BUDGET_S = 0.05


def carve_time_budgets(total: float | None,
                       sizes: list[int]) -> list[float | None]:
    """Split a cycle wall-clock budget across components by variable count.

    ``None`` (unlimited) stays unlimited for everyone.  Shares are
    proportional to component size with a small floor, so a dominant block
    gets most of the budget without starving the rest.  The floor is paid
    for by renormalizing the above-floor shares, so the carved budgets
    never sum past ``total`` — with many tiny components a naive
    ``max(floor, share)`` oversubscribes the cycle budget and the
    sequential solve then blows the wall clock.
    """
    if total is None:
        return [None] * len(sizes)
    n = len(sizes)
    if not n:
        return []
    if total <= MIN_COMPONENT_BUDGET_S * n:
        # Floor unaffordable: fall back to an even split of what there is.
        return [total / n] * n
    weight = sum(sizes) or 1
    shares = [total * size / weight for size in sizes]
    # Water-fill: components below the floor get exactly the floor; the
    # rest share what remains, proportionally.  Renormalizing can push
    # more shares under the floor, so iterate (n rounds at most).
    floored = [s <= MIN_COMPONENT_BUDGET_S for s in shares]
    while True:
        above = [sizes[i] for i in range(n) if not floored[i]]
        remaining = total - MIN_COMPONENT_BUDGET_S * (n - len(above))
        above_weight = sum(above) or 1
        changed = False
        for i in range(n):
            if floored[i]:
                continue
            shares[i] = remaining * sizes[i] / above_weight
            if shares[i] <= MIN_COMPONENT_BUDGET_S:
                floored[i] = True
                changed = True
        if not changed:
            break
    return [MIN_COMPONENT_BUDGET_S if floored[i] else shares[i]
            for i in range(n)]


def _gather_results(decomp: Decomposition, backend,
                    opts: SolveOptions) -> list[MILPResult]:
    """Solve the components in column order; one result per solved block.

    Each block gets the cycle warm start (the scheduler's time-shifted
    previous plan, Sec. 3.2.2) sliced to its columns and a wall-clock
    budget carved from the cycle budget (``opts.time_limit``, else the
    backend's configured limit) in proportion to its size.  The loop stops
    at the first block that comes back without a solution: it decides the
    recombined status, so the blocks after it are never solved.
    """
    from repro.solver.backend import backend_time_limit

    total_budget = opts.get("time_limit", UNSET)
    if total_budget is UNSET:
        total_budget = backend_time_limit(backend)
    budgets = carve_time_budgets(total_budget, decomp.component_sizes())
    warm_full = opts.get("warm_start")
    results: list[MILPResult] = []
    for comp, budget in zip(decomp.components, budgets):
        ws = decomp.slice_warm_start(warm_full, comp)
        call = (SolveOptions(warm_start=ws) if budget is None
                else SolveOptions(warm_start=ws, time_limit=budget))
        res = backend.solve(comp.model, options=call)
        results.append(res)
        if not res.status.has_solution:
            break
    return results


def _recombine(decomp: Decomposition,
               results: list[MILPResult]) -> MILPResult:
    """Fold per-component results back into one :class:`MILPResult`.

    The recombined :class:`MILPResult` carries the summed objective/bound,
    the max component gap, summed node/iteration counts, and
    ``stats["components"]``; its ``x`` lives in source-model column order,
    so callers decode it exactly as they would a monolithic solution.
    """
    objective = decomp.constant + decomp.free_objective
    bound = objective
    gap = 0.0
    nodes = 0
    # Per-component LP-engine work, summed into the recombined stats so
    # cycle telemetry sees decomposed solves exactly like monolithic ones.
    lp_work = {key: 0 for key in ("lp_iterations", "lp_dual_pivots",
                                  "lp_refactorizations", "lp_warm_restarts",
                                  "lp_warm_hits", "lp_cold_fallbacks",
                                  "lp_factorizations", "lp_ft_updates",
                                  "lp_pricing_candidates")}
    #: Worst factor fill ratio across components (max, not sum).
    lp_fill_ratio = 0.0
    solve_time = 0.0
    proven = True
    solutions: list[np.ndarray] = []
    for res in results:
        nodes += res.nodes
        solve_time += res.solve_time
        for key in lp_work:
            lp_work[key] += int(res.stats.get(key, 0))
        lp_fill_ratio = max(lp_fill_ratio,
                            float(res.stats.get("lp_fill_ratio", 0.0)))
        if res.status in (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED):
            # An infeasible/unbounded block makes the whole model so.
            return MILPResult(res.status, None,
                              math.nan if res.status == SolveStatus.INFEASIBLE
                              else res.objective,
                              nodes=nodes, solve_time=solve_time,
                              stats={"components": decomp.num_components,
                                     **lp_work})
        if not res.status.has_solution:
            return MILPResult(SolveStatus.NO_SOLUTION, None, math.nan,
                              nodes=nodes, solve_time=solve_time,
                              stats={"components": decomp.num_components,
                                     **lp_work})
        solutions.append(res.x)
        objective += res.objective
        bound += res.bound if not math.isnan(res.bound) else res.objective
        if not math.isnan(res.gap):
            gap = max(gap, res.gap)
        proven = proven and res.status == SolveStatus.OPTIMAL

    x = decomp.assemble(solutions)
    obs.count("solver.decompose.components", decomp.num_components)
    obs.emit("solver.decomposed_solve",
             components=decomp.num_components,
             sizes=decomp.component_sizes(),
             objective=objective, nodes=nodes,
             time_ms=1000.0 * solve_time)
    stats = {"components": decomp.num_components,
             "component_sizes": decomp.component_sizes(),
             **lp_work}
    if lp_fill_ratio:
        stats["lp_fill_ratio"] = lp_fill_ratio
    return MILPResult(
        status=SolveStatus.OPTIMAL if proven else SolveStatus.FEASIBLE,
        x=x, objective=objective, bound=bound, gap=gap, nodes=nodes,
        solve_time=solve_time, stats=stats)


def solve_decomposed(decomp: Decomposition, backend,
                     options: SolveOptions | None = None) -> MILPResult:
    """Solve every component through ``backend`` and recombine.

    ``options`` governs the whole decomposed solve: ``warm_start`` is the
    full-model seed (sliced per component) and ``time_limit`` the cycle
    budget carved across components (:func:`carve_time_budgets`).
    """
    return _recombine(decomp, _gather_results(
        decomp, backend, options if options is not None else SolveOptions()))
