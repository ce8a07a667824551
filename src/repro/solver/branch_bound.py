"""Branch-and-bound MILP solver over a pluggable LP-relaxation engine.

Together with :mod:`repro.solver.simplex` this forms the from-scratch MILP
backend replacing the paper's CPLEX (see DESIGN.md).  It supports the two
solver controls the paper relies on (Sec. 3.2.2):

* **bounded suboptimality** — stop when the relative optimality gap drops
  below ``rel_gap`` (the paper configures CPLEX to return solutions within
  10 % of optimal after a parametrizable time), or when ``time_limit`` /
  ``node_limit`` is hit, returning the best incumbent;
* **warm starting** — an initial feasible point (e.g., the previous
  scheduling cycle's solution shifted forward in time) seeds the incumbent,
  letting the search prune immediately.

The search is best-bound-first with most-fractional branching and a simple
rounding heuristic at every node to find incumbents early.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.errors import SolverError
from repro.solver.model import Model
from repro.solver.options import SolveOptions, is_set
from repro.solver.result import LPResult, MILPResult, SolveStatus
from repro.solver.revised_simplex import RevisedSimplexEngine
from repro.solver.simplex import solve_lp as simplex_solve_lp

_INT_TOL = 1e-6

LPSolveFn = Callable[..., LPResult]


@dataclass
class BranchBoundOptions:
    """Tuning knobs for the branch-and-bound search."""

    rel_gap: float = 1e-6
    time_limit: float | None = None
    node_limit: int | None = 200_000
    lp_solver: LPSolveFn = simplex_solve_lp
    #: Round the LP relaxation at each node and test feasibility.
    rounding_heuristic: bool = True
    #: Apply bound-tightening / row-dropping reductions before the search.
    presolve: bool = True
    #: Model export to consume: ``"sparse"`` (CSR triplets, presolved
    #: sparsely, densified only at the LP-engine boundary) or ``"dense"``
    #: (the historical `to_standard_arrays` path, kept as a test oracle).
    arrays: str = "sparse"
    #: LP relaxation engine when ``lp_solver`` is the built-in simplex:
    #: ``"revised"`` (bounded-variable revised simplex, basis factorization
    #: picked automatically by size/density), ``"sparse-lu"`` (force the
    #: Markowitz sparse LU with Forrest–Tomlin updates),
    #: ``"revised-dense"`` (force the LAPACK dense LU fallback) or
    #: ``"tableau"`` (the dense two-phase tableau, kept as the differential
    #: oracle).  Ignored for external ``lp_solver`` callables such as
    #: scipy/HiGHS.
    lp_engine: str = "revised"


@dataclass(order=True)
class _Node:
    bound: float
    seq: int
    lb: np.ndarray = field(compare=False)
    ub: np.ndarray = field(compare=False)
    depth: int = field(compare=False, default=0)
    #: Parent's optimal basis (:class:`repro.solver.revised_simplex.BasisState`)
    #: when the revised engine is active; seeds a dual-simplex warm restart.
    basis: object | None = field(compare=False, default=None)


class BranchBoundSolver:
    """Solve a :class:`~repro.solver.model.Model` by branch and bound.

    Example
    -------
    >>> from repro.solver.model import Model
    >>> m = Model()
    >>> x = m.add_integer("x", ub=10); y = m.add_integer("y", ub=10)
    >>> _ = m.add_constraint(3*x + 5*y, "<=", 15)
    >>> m.set_objective(2*x + 3*y, sense="maximize")
    >>> res = BranchBoundSolver().solve(m)
    >>> res.status.name, res.objective
    ('OPTIMAL', 10.0)
    """

    def __init__(self, options: BranchBoundOptions | None = None) -> None:
        self.options = options or BranchBoundOptions()

    def _effective_options(self, options: SolveOptions | None
                           ) -> BranchBoundOptions:
        """Constructor options with any per-call overrides applied."""
        if options is None:
            return self.options
        overrides = {name: getattr(options, name)
                     for name in ("rel_gap", "time_limit", "node_limit")
                     if is_set(getattr(options, name))}
        if not overrides:
            return self.options
        return dataclasses.replace(self.options, **overrides)

    def solve(self, model: Model,
              options: SolveOptions | None = None) -> MILPResult:
        warm_start = options.get("warm_start") if options is not None else None
        t0 = time.monotonic()
        opts = self._effective_options(options)
        presolve_stats: dict = {}
        sparse = opts.arrays == "sparse"
        arrays = (model.to_sparse_arrays() if sparse
                  else model.to_standard_arrays())
        if opts.presolve:
            from repro.solver.presolve import presolve, presolve_sparse
            reduction = (presolve_sparse if sparse else presolve)(arrays)
            presolve_stats = {
                "presolve_rows_dropped": reduction.rows_dropped,
                "presolve_bounds_tightened": reduction.bounds_tightened,
            }
            obs.count("solver.presolve.rows_dropped", reduction.rows_dropped)
            obs.count("solver.presolve.bounds_tightened",
                      reduction.bounds_tightened)
            if reduction.infeasible:
                return MILPResult(SolveStatus.INFEASIBLE, None, math.nan,
                                  solve_time=time.monotonic() - t0,
                                  stats=presolve_stats)
            arrays = reduction.arrays
        # The two-phase simplex underneath is a dense algorithm; on the
        # sparse path this densification (post-presolve, so after row
        # drops) is the only point where full matrices materialize.
        sa = arrays.to_standard() if sparse else arrays
        n = len(sa.c)
        int_idx = np.nonzero(sa.integrality)[0]

        incumbent: np.ndarray | None = None
        incumbent_obj = math.inf  # minimization orientation
        lp_iterations = 0
        nodes_pruned = 0
        incumbents = 0
        nodes_processed = 0

        def note_incumbent(source: str, gap: float | None = None) -> None:
            nonlocal incumbents
            incumbents += 1
            obs.emit("solver.incumbent", source=source,
                     objective=sa.obj_sign * incumbent_obj + sa.obj_constant,
                     gap=gap, nodes=nodes_processed)

        if warm_start is not None:
            ws = np.asarray(warm_start, dtype=float)
            if ws.shape[0] == n and model.check_feasible(ws):
                incumbent = ws.copy()
                incumbent_obj = float(sa.c @ ws)
                note_incumbent("warm-start")

        counter = itertools.count()
        root = _Node(-math.inf, next(counter), sa.lb.copy(), sa.ub.copy())
        heap: list[_Node] = [root]
        # Weakest bound among gap-pruned subtrees: their optimum may lie up
        # to rel_gap below the incumbent, so the proven global lower bound
        # is min(open-node bounds, pruned bounds, incumbent) — never more.
        pruned_bound = math.inf
        infeasible_everywhere = True

        engine: RevisedSimplexEngine | None = None
        if opts.lp_solver is simplex_solve_lp:
            factor_mode = {"revised": "auto", "sparse-lu": "sparse",
                           "revised-dense": "dense"}.get(opts.lp_engine)
            if factor_mode is not None:
                if sparse:
                    # Feed the CSR export straight into the engine's CSC
                    # build — the `sa` densification above stays only for
                    # the tableau oracle, rounding and warm-start checks.
                    engine = RevisedSimplexEngine.from_sparse(
                        arrays, factor=factor_mode)
                else:
                    engine = RevisedSimplexEngine(sa.c, sa.a_ub, sa.b_ub,
                                                  sa.a_eq, sa.b_eq,
                                                  factor=factor_mode)
            elif opts.lp_engine != "tableau":
                raise SolverError(
                    f"unknown lp_engine {opts.lp_engine!r}; expected "
                    "'revised', 'sparse-lu', 'revised-dense' or "
                    "'tableau'")

        def lp_at(node: _Node) -> LPResult:
            if engine is not None:
                return engine.solve(node.lb, node.ub, start=node.basis)
            return opts.lp_solver(sa.c, a_ub=sa.a_ub, b_ub=sa.b_ub,
                                  a_eq=sa.a_eq, b_eq=sa.b_eq,
                                  lb=node.lb, ub=node.ub)

        def gap_now() -> float:
            if incumbent is None:
                return math.inf
            # heap[0] is the min of a (bound, seq)-ordered min-heap, so the
            # best open bound is O(1) — no full-heap scan per call.
            open_bound = heap[0].bound if heap else math.inf
            bound = min(open_bound, pruned_bound, incumbent_obj)
            return abs(incumbent_obj - bound) / max(1.0, abs(incumbent_obj))

        while heap:
            if opts.time_limit is not None and time.monotonic() - t0 > opts.time_limit:
                break
            if opts.node_limit is not None and nodes_processed >= opts.node_limit:
                break
            node = heapq.heappop(heap)
            if node.bound >= incumbent_obj - abs(incumbent_obj) * opts.rel_gap - 1e-12:
                # Cannot improve on the incumbent by more than the gap.
                pruned_bound = min(pruned_bound, node.bound)
                nodes_pruned += 1
                continue
            nodes_processed += 1

            lp = lp_at(node)
            lp_iterations += lp.iterations
            if lp.status == SolveStatus.INFEASIBLE:
                nodes_pruned += 1
                continue
            if lp.status == SolveStatus.UNBOUNDED:
                # With a finite incumbent the true MILP may still be bounded,
                # but our models always have bounded relaxations at the root;
                # treat as unbounded only when nothing is integral-restricted.
                if int_idx.size == 0:
                    return MILPResult(SolveStatus.UNBOUNDED, None,
                                      -sa.obj_sign * math.inf)
                continue
            infeasible_everywhere = False
            assert lp.x is not None
            if lp.objective >= incumbent_obj - 1e-12:
                nodes_pruned += 1
                continue  # bound dominated

            frac = np.abs(lp.x[int_idx] - np.round(lp.x[int_idx])) if int_idx.size else np.zeros(0)
            fractional = np.nonzero(frac > _INT_TOL)[0]
            if fractional.size == 0:
                # Integral LP optimum: new incumbent.
                if lp.objective < incumbent_obj:
                    incumbent = lp.x.copy()
                    incumbent[int_idx] = np.round(incumbent[int_idx])
                    incumbent_obj = float(sa.c @ incumbent)
                    note_incumbent("lp-integral", gap=gap_now())
                continue

            if opts.rounding_heuristic:
                cand = lp.x.copy()
                cand[int_idx] = np.round(cand[int_idx])
                cand = np.clip(cand, node.lb, node.ub)
                if float(sa.c @ cand) < incumbent_obj and model.check_feasible(
                        _to_model_space(cand)):
                    incumbent = cand.copy()
                    incumbent_obj = float(sa.c @ cand)
                    note_incumbent("rounding", gap=gap_now())

            # Most-fractional branching.
            pick = int(int_idx[fractional[np.argmax(frac[fractional])]])
            val = lp.x[pick]
            lo, hi = math.floor(val), math.ceil(val)

            # Children inherit this node's optimal basis: tightening one
            # bound keeps it dual-feasible, so the child re-optimizes in a
            # few dual pivots instead of a fresh phase-1/phase-2 solve.
            down = _Node(lp.objective, next(counter), node.lb.copy(),
                         node.ub.copy(), node.depth + 1, basis=lp.basis)
            down.ub[pick] = min(down.ub[pick], lo)
            up = _Node(lp.objective, next(counter), node.lb.copy(),
                       node.ub.copy(), node.depth + 1, basis=lp.basis)
            up.lb[pick] = max(up.lb[pick], hi)
            for child in (down, up):
                if child.lb[pick] <= child.ub[pick]:
                    heapq.heappush(heap, child)

            if incumbent is not None and gap_now() <= opts.rel_gap:
                break

        solve_time = time.monotonic() - t0
        search_stats = dict(presolve_stats)
        search_stats.update({"lp_iterations": lp_iterations,
                             "nodes_pruned": nodes_pruned,
                             "incumbents": incumbents})
        if engine is not None:
            search_stats.update({
                "lp_dual_pivots": engine.counters["dual_pivots"],
                "lp_refactorizations": engine.counters["refactorizations"],
                "lp_warm_restarts": engine.counters["warm_restarts"],
                "lp_warm_hits": engine.counters["warm_hits"],
                "lp_cold_fallbacks": engine.counters["cold_fallbacks"],
                "lp_factorizations": engine.counters["factorizations"],
                "lp_ft_updates": engine.counters["ft_updates"],
                "lp_pricing_candidates":
                    engine.counters["pricing_candidates"],
                "lp_fill_ratio": engine.fill_ratio,
            })
        obs.count("solver.bnb.pruned", nodes_pruned)
        obs.count("solver.bnb.incumbents", incumbents)
        if incumbent is None:
            if infeasible_everywhere and not heap:
                return MILPResult(SolveStatus.INFEASIBLE, None, math.nan,
                                  nodes=nodes_processed, solve_time=solve_time,
                                  stats=search_stats)
            return MILPResult(SolveStatus.NO_SOLUTION, None, math.nan,
                              nodes=nodes_processed, solve_time=solve_time,
                              stats=search_stats)

        open_bound = min(heap[0].bound if heap else math.inf,
                         pruned_bound, incumbent_obj)
        gap = abs(incumbent_obj - open_bound) / max(1.0, abs(incumbent_obj))
        proven = not heap or gap <= opts.rel_gap
        # Convert back to the model's objective sense.
        model_obj = sa.obj_sign * incumbent_obj + sa.obj_constant
        model_bound = sa.obj_sign * open_bound + sa.obj_constant
        obs.emit("solver.solve", status="optimal" if proven else "feasible",
                 objective=model_obj, gap=gap, nodes=nodes_processed,
                 lp_iterations=lp_iterations, time_ms=1000.0 * solve_time)
        return MILPResult(
            status=SolveStatus.OPTIMAL if proven else SolveStatus.FEASIBLE,
            x=incumbent, objective=model_obj, bound=model_bound, gap=gap,
            nodes=nodes_processed, solve_time=solve_time,
            stats=search_stats)


def _to_model_space(x: np.ndarray) -> np.ndarray:
    """Standard arrays keep model column order, so this is the identity.

    Kept as a named hook so a future sparse/permuted export only needs one
    change site.
    """
    return x
