"""Independent-component decomposition of MILP models.

A scheduling-cycle MILP is block-separable whenever two groups of jobs share
no ``(partition, time-slice)`` supply constraint: the constraint matrix is
block-diagonal up to row/column permutation, so the monolithic optimum is
exactly the union of the per-block optima.  Branch and bound is
super-linear in problem size, so solving ``k`` blocks of size ``n/k`` is
far cheaper than one block of size ``n`` — the structure-exploitation
argument CvxCluster makes for consensus problems (100-1000x) applies
directly here.

:func:`decompose` labels the blocks with vectorised min-label propagation
over the model's CSR export (:func:`component_labels`), slices one
independent array-backed sub-:class:`Model` per block out of that export,
and handles variables that appear in *no* constraint (e.g. a preemption
decision whose victim frees no contested node) analytically from their
bounds.  A model that is one block with nothing free — every cycle of the
benchmark workloads — is returned as its own single component, untouched.
:func:`solve_decomposed` solves every component
through any :class:`~repro.solver.backend.MILPBackend`, slices a full-model
warm start down to each component, and recombines solutions, objective,
bound and search statistics into a single :class:`MILPResult` whose ``x``
is indistinguishable from a monolithic solve.

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


def _gather_results(decomps: list[Decomposition], backend,
                    opts_list: list[SolveOptions],
                    dispatch_seed: int | None = None
                    ) -> tuple[list[list[MILPResult | None]],
                               list[dict[str, int]]]:
    """One :class:`MILPResult` per component, per decomposition.

    The three supply paths, applied per component in this order:

    1. **cache exact hit** — an identical numeric model was solved before;
       replay its stored result (bit-equal, zero solver cost);
    2. **worker pool** — remaining components (across *every*
       decomposition — the sharded cycle's domain models all land in one
       dispatch) ship to the persistent process pool when
       ``opts.workers >= 2`` (falling back to in-process solving on any
       pool failure);
    3. **in-process solve** — the sequential path; once a component comes
       back infeasible/unbounded, the remaining components of *that*
       decomposition are skipped (their entries stay ``None``; the
       recombination loop never reads past the failure) while other
       decompositions keep solving.

    Each solved component gets a wall-clock budget carved from the cycle
    budget (``opts.time_limit``, else the backend's configured limit) in
    proportion to its size, and a warm start chosen as the better feasible
    seed of the sliced cycle warm start (the scheduler's time-shifted
    previous plan, Sec. 3.2.2) and a cache near-miss solution.

    ``dispatch_seed`` (the scheduler's single RNG seed) deterministically
    shuffles the dispatch order so big and small components interleave
    across pool workers; results scatter back by index, so the solution is
    bit-identical for every seed — only the wall-clock balance moves.
    """
    from repro.solver.backend import backend_time_limit
    from repro.solver.parallel import (best_warm_start, carve_time_budgets,
                                       get_pool)

    shared = opts_list[0]
    cache = shared.get("component_cache")
    workers = shared.get("workers", 0) or 0

    results: list[list[MILPResult | None]] = [
        [None] * d.num_components for d in decomps]
    cache_stats: list[dict[str, int]] = [
        {"cache_hits": 0, "cache_warm_hits": 0, "cache_evictions": 0}
        for _ in decomps]
    evictions_before = cache.stats.evictions if cache is not None else 0
    #: (decomp idx, component idx, model, warm start), in natural order.
    pending: list[tuple[int, int, Model, np.ndarray | None]] = []
    fingerprints: dict[tuple[int, int], object] = {}
    for di, (decomp, opts) in enumerate(zip(decomps, opts_list)):
        warm_full = opts.get("warm_start")
        for i, comp in enumerate(decomp.components):
            ws = decomp.slice_warm_start(warm_full, comp)
            if cache is not None:
                hit = cache.lookup(comp.model)
                fingerprints[(di, i)] = hit.fingerprint
                if hit.result is not None:
                    results[di][i] = hit.result
                    cache_stats[di]["cache_hits"] += 1
                    continue
                if hit.warm_start is not None:
                    cache_stats[di]["cache_warm_hits"] += 1
                    ws = best_warm_start(comp.model, ws, hit.warm_start)
            pending.append((di, i, comp.model, ws))

    total_budget = shared.get("time_limit", UNSET)
    if total_budget is UNSET:
        total_budget = backend_time_limit(backend)
    budgets = carve_time_budgets(
        total_budget, [model.num_variables for _, _, model, _ in pending])

    def call_options(ws: np.ndarray | None,
                     budget: float | None) -> SolveOptions:
        if budget is None:
            return SolveOptions(warm_start=ws)
        return SolveOptions(warm_start=ws, time_limit=budget)

    order = list(range(len(pending)))
    if dispatch_seed is not None and len(order) > 1:
        import random
        random.Random(dispatch_seed).shuffle(order)

    solved: dict[int, MILPResult] | None = None
    if workers >= 2 and len(pending) > 1:
        with obs.span("parallel_dispatch"):
            solved = get_pool(workers).solve_many(
                backend,
                [(pos, pending[pos][2], call_options(pending[pos][3],
                                                     budgets[pos]))
                 for pos in order])
    if solved is not None:
        for pos, res in solved.items():
            di, i, _, _ = pending[pos]
            results[di][i] = res
    else:  # sequential (or pool fallback): skip a doomed decomposition
        doomed: set[int] = set()
        for pos in order:
            di, i, model, ws = pending[pos]
            if di in doomed:
                continue
            res = backend.solve(model, options=call_options(ws,
                                                            budgets[pos]))
            results[di][i] = res
            if not res.status.has_solution:
                doomed.add(di)

    if cache is not None:
        # Memoize only freshly-solved components (never re-store replays).
        for di, i, _, _ in pending:
            if results[di][i] is not None:
                cache.store(decomps[di].components[i].model, results[di][i],
                            fingerprint=fingerprints.get((di, i)))
        # LRU pressure during *this* solve (the cache outlives cycles, so
        # the cumulative counter alone cannot be attributed to a cycle).
        # Attributed to the first decomposition's stats; cycle telemetry
        # sums across decompositions, so the total stays right.
        cache_stats[0]["cache_evictions"] = (cache.stats.evictions
                                             - evictions_before)
    return results, cache_stats


def _recombine(decomp: Decomposition,
               results: list[MILPResult | None],
               cache_stats: dict[str, int]) -> MILPResult:
    """Fold per-component results back into one :class:`MILPResult`.

    Regardless of how a component's result was produced — fresh solve,
    pool worker, or cache replay — recombination walks components in their
    deterministic (column-order) sequence, so the assembled ``x`` and
    objective are identical to a sequential in-process solve.

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
                                  "lp_pricing_candidates",
                                  "colgen_rounds", "colgen_columns_priced",
                                  "repair_escalations")}
    #: Worst factor fill ratio across components (max, not sum).
    lp_fill_ratio = 0.0
    #: Worst audited repair gap across components (max, not sum).
    repair_gap = 0.0
    solve_time = 0.0
    proven = True
    solutions: list[np.ndarray] = []
    for res in results:
        if res is None:  # sequential early exit hit a doomed block earlier
            continue
        nodes += res.nodes
        solve_time += res.solve_time
        for key in lp_work:
            lp_work[key] += int(res.stats.get(key, 0))
        lp_fill_ratio = max(lp_fill_ratio,
                            float(res.stats.get("lp_fill_ratio", 0.0)))
        repair_gap = max(repair_gap, float(res.stats.get("repair_gap", 0.0)))
        if res.status in (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED):
            # An infeasible/unbounded block makes the whole model so.
            return MILPResult(res.status, None,
                              math.nan if res.status == SolveStatus.INFEASIBLE
                              else res.objective,
                              nodes=nodes, solve_time=solve_time,
                              stats={"components": decomp.num_components,
                                     **lp_work, **cache_stats})
        if not res.status.has_solution:
            return MILPResult(SolveStatus.NO_SOLUTION, None, math.nan,
                              nodes=nodes, solve_time=solve_time,
                              stats={"components": decomp.num_components,
                                     **lp_work, **cache_stats})
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
             **lp_work, **cache_stats}
    if lp_fill_ratio:
        stats["lp_fill_ratio"] = lp_fill_ratio
    if repair_gap:
        stats["repair_gap"] = repair_gap
    return MILPResult(
        status=SolveStatus.OPTIMAL if proven else SolveStatus.FEASIBLE,
        x=x, objective=objective, bound=bound, gap=gap, nodes=nodes,
        solve_time=solve_time, stats=stats)


def solve_many_decomposed(decomps: list[Decomposition], backend,
                          options: SolveOptions | list[SolveOptions] | None
                          = None,
                          dispatch_seed: int | None = None
                          ) -> list[MILPResult]:
    """Solve several decompositions as one pooled batch, recombining each.

    This is the sharded cycle's solve primitive: every domain MILP is
    decomposed independently, but all their pending components flatten
    into a *single* worker-pool dispatch, so a cluster of small domains
    saturates the pool instead of paying one dispatch round-trip per
    domain.  ``options`` is either one :class:`SolveOptions` shared by all
    decompositions or a per-decomposition list (warm starts differ per
    domain; ``workers`` / ``component_cache`` / ``time_limit`` are read
    from the first entry and govern the whole batch).

    Returns one recombined :class:`MILPResult` per decomposition, in input
    order.  With a single decomposition this is exactly
    :func:`solve_decomposed` — same cache traffic, same budgets, same
    assembled ``x``.
    """
    if not decomps:
        return []
    if options is None:
        opts_list = [SolveOptions() for _ in decomps]
    elif isinstance(options, SolveOptions):
        opts_list = [options] * len(decomps)
    else:
        if len(options) != len(decomps):
            raise SolverError(
                f"solve_many_decomposed: {len(decomps)} decompositions but "
                f"{len(options)} option sets")
        opts_list = list(options)
    all_results, all_cache_stats = _gather_results(
        decomps, backend, opts_list, dispatch_seed=dispatch_seed)
    return [_recombine(decomp, results, cache_stats)
            for decomp, results, cache_stats
            in zip(decomps, all_results, all_cache_stats)]


def solve_decomposed(decomp: Decomposition, backend,
                     options: SolveOptions | None = None) -> MILPResult:
    """Solve every component through ``backend`` and recombine.

    ``options`` governs the whole decomposed solve: ``warm_start`` is the
    full-model seed (sliced per component), ``workers`` enables the
    persistent process pool, ``component_cache`` the cross-cycle
    memoization, and ``time_limit`` the cycle budget carved across
    components (see :mod:`repro.solver.parallel`).  A thin wrapper over
    :func:`solve_many_decomposed` with a one-element batch — the two are
    bit-equal by construction.
    """
    return solve_many_decomposed([decomp], backend, options)[0]
