"""Optional scipy (HiGHS) backends.

The paper stresses that "the internal MILP model can be translated to any
MILP backend" (Sec. 3.2.2).  When scipy is installed, these backends give a
large speedup over the pure-Python simplex/branch-and-bound pair and are the
default for the benchmark harness.  The library degrades gracefully to the
pure backend when scipy is absent.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro import obs
from repro.errors import SolverError
from repro.solver.model import Model
from repro.solver.options import SolveOptions
from repro.solver.result import LPResult, MILPResult, SolveStatus

try:  # pragma: no cover - environment-dependent
    from scipy import optimize as _sciopt

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    _sciopt = None
    HAVE_SCIPY = False

try:  # pragma: no cover - environment-dependent
    # The highspy binding scipy >= 1.15 ships (private: CI asserts it loads).
    from scipy.optimize._highspy import _core as _highs
except ImportError:  # pragma: no cover
    _highs = None


def scipy_available() -> bool:
    """True when scipy's HiGHS solvers can be used."""
    return HAVE_SCIPY


def highs_build() -> dict:
    """HiGHS version and hand-over path, for run metadata.

    Schedules are a function of the HiGHS build: which of several optima
    inside ``rel_gap`` comes back is the solver's choice, not the model's.
    """
    if _highs is None:
        return {"version": None, "direct": False}
    return {"version": _highs._Highs().version(), "direct": True}


def _run_highs(sa, rel_gap: float, time_limit: float | None):
    """Solve a sparse export on HiGHS itself, without ``scipy.optimize.milp``.

    The CSR rows go in as they are (``a_ub`` then ``a_eq``, row-wise), which
    skips the wrapper's CSR->CSC conversion and its per-column Python loops
    over bound marginals no MILP caller reads.  Returns what ``milp`` would:
    its status code, ``x`` (``None`` without a solution) and the MIP fields.
    """
    n, n_ub = sa.c.size, sa.b_ub.size
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = n_ub + sa.b_eq.size
    lp.a_matrix_.format_ = _highs.MatrixFormat.kRowwise
    lp.a_matrix_.start_ = np.concatenate(
        [sa.a_ub.indptr, sa.a_eq.indptr[1:] + sa.a_ub.nnz])
    # (Lists cross the binding about twice as fast as arrays.)
    lp.a_matrix_.index_ = np.concatenate(
        [sa.a_ub.indices, sa.a_eq.indices]).tolist()
    lp.a_matrix_.value_ = np.concatenate(
        [sa.a_ub.data, sa.a_eq.data]).tolist()
    lp.row_lower_ = np.concatenate([np.full(n_ub, -np.inf), sa.b_eq])
    lp.row_upper_ = np.concatenate([sa.b_ub, sa.b_eq])
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = sa.c, sa.lb, sa.ub
    kinds = (_highs.HighsVarType.kContinuous, _highs.HighsVarType.kInteger)
    lp.integrality_ = [kinds[i] for i in sa.integrality.tolist()]
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "on")
    highs.setOptionValue("mip_rel_gap", float(rel_gap))
    if time_limit is not None:
        highs.setOptionValue("time_limit", float(time_limit))
    # The feasibility-jump pass is a quarter to a third of a contended call
    # and its point is never the incumbent (measured: same ``x`` without
    # it).  A HiGHS too old to know the option rejects it: nothing to skip.
    highs.setOptionValue("mip_heuristic_run_feasibility_jump", False)
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        return _sciopt.OptimizeResult(status=2, x=None)
    highs.run()
    ms, info = _highs.HighsModelStatus, highs.getInfo()
    res = _sciopt.OptimizeResult(x=None, status={
        ms.kOptimal: 0, ms.kTimeLimit: 1, ms.kIterationLimit: 1,
        ms.kModelError: 2, ms.kInfeasible: 2, ms.kUnbounded: 3,
    }.get(highs.getModelStatus(), 4))
    # As the wrapper reads it: an LP has a solution only when optimal, a
    # MIP also at a limit when an incumbent was found.
    is_mip = bool(sa.integrality.any())
    if res.status == 0 or (res.status == 1 and is_mip and
                           info.objective_function_value != _highs.kHighsInf):
        res.x = np.array(highs.getSolution().col_value)
        if is_mip:
            res.update(mip_dual_bound=info.mip_dual_bound,
                       mip_gap=info.mip_gap,
                       mip_node_count=info.mip_node_count)
    return res


def _run_milp(sa, a_ub, a_eq, rel_gap: float, time_limit: float | None):
    """The same solve through ``scipy.optimize.milp`` (HiGHS's defaults)."""
    constraints = []
    if sa.b_ub.size:
        constraints.append(_sciopt.LinearConstraint(a_ub, -np.inf, sa.b_ub))
    if sa.b_eq.size:
        constraints.append(_sciopt.LinearConstraint(a_eq, sa.b_eq, sa.b_eq))
    milp_options = {"mip_rel_gap": rel_gap, "presolve": True}
    if time_limit is not None:
        milp_options["time_limit"] = time_limit
    return _sciopt.milp(
        c=sa.c,
        constraints=constraints or None,
        integrality=sa.integrality.astype(int),
        bounds=_sciopt.Bounds(sa.lb, sa.ub),
        options=milp_options)


def solve_lp_scipy(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                   lb=None, ub=None, **_ignored) -> LPResult:
    """LP relaxation via ``scipy.optimize.linprog`` (HiGHS).

    Drop-in replacement for :func:`repro.solver.simplex.solve_lp`, usable as
    the ``lp_solver`` of :class:`~repro.solver.branch_bound.BranchBoundSolver`.
    """
    if not HAVE_SCIPY:
        raise SolverError("scipy is not installed")
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=float)
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float)
    if np.any(lb > ub):
        return LPResult(SolveStatus.INFEASIBLE, None, np.inf)
    res = _sciopt.linprog(
        c,
        A_ub=a_ub if a_ub is not None and np.size(a_ub) else None,
        b_ub=b_ub if b_ub is not None and np.size(b_ub) else None,
        A_eq=a_eq if a_eq is not None and np.size(a_eq) else None,
        b_eq=b_eq if b_eq is not None and np.size(b_eq) else None,
        bounds=np.column_stack([lb, ub]),
        method="highs")
    if res.status == 2:
        return LPResult(SolveStatus.INFEASIBLE, None, np.inf)
    if res.status == 3:
        return LPResult(SolveStatus.UNBOUNDED, None, -np.inf)
    if not res.success:
        raise SolverError(f"linprog failed: {res.message}")
    duals = reduced = None
    ineq = getattr(res, "ineqlin", None)
    eq = getattr(res, "eqlin", None)
    if ineq is not None and eq is not None:
        # HiGHS marginals are d(objective)/d(rhs) in minimization
        # orientation (<= 0 for binding <= rows), the same convention the
        # pure engines report.  Reduced costs are recomputed in caller
        # space so bound-row duals fold in identically across engines.
        y_ub = np.asarray(ineq.marginals, dtype=float)
        y_eq = np.asarray(eq.marginals, dtype=float)
        duals = np.concatenate([y_ub, y_eq])
        reduced = c.copy()
        if a_ub is not None and np.size(a_ub):
            reduced -= np.asarray(a_ub, dtype=float).T @ y_ub
        if a_eq is not None and np.size(a_eq):
            reduced -= np.asarray(a_eq, dtype=float).T @ y_eq
    return LPResult(SolveStatus.OPTIMAL, np.asarray(res.x), float(res.fun),
                    iterations=int(getattr(res, "nit", 0)),
                    duals=duals, reduced_costs=reduced)


class ScipyMILPSolver:
    """Full-MILP backend on scipy's HiGHS (branch & cut).

    Mirrors :class:`~repro.solver.branch_bound.BranchBoundSolver.solve`'s
    interface so the scheduler can swap backends freely.  The model goes to
    HiGHS through the binding scipy ships (:func:`_run_highs`); through
    ``scipy.optimize.milp`` only where that binding is missing (scipy <
    1.15) or the dense reference is asked for.

    Parameters
    ----------
    rel_gap:
        Relative MIP gap at which HiGHS may stop (paper uses 10 % with a
        time budget; we default to exact).
    time_limit:
        Wall-clock limit in seconds, or ``None``.
    use_sparse:
        Feed HiGHS the model's CSR export (the default); ``False`` keeps
        the dense ``to_standard_arrays`` export through ``milp`` as a
        cross-check oracle.
    """

    #: HiGHS is handed no incumbent (it could stop on one inside
    #: ``rel_gap``, which changes the schedule): a ``warm_start`` in the
    #: options is accepted and ignored, so callers need not build one.
    consumes_warm_start = False

    def __init__(self, rel_gap: float = 1e-6,
                 time_limit: float | None = None,
                 use_sparse: bool = True) -> None:
        if not HAVE_SCIPY:
            raise SolverError("scipy is not installed")
        self.rel_gap = rel_gap
        self.time_limit = time_limit
        self.use_sparse = use_sparse

    def solve(self, model: Model,
              options: SolveOptions | None = None) -> MILPResult:
        t0 = time.monotonic()
        rel_gap = options.get("rel_gap", self.rel_gap) \
            if options is not None else self.rel_gap
        time_limit = options.get("time_limit", self.time_limit) \
            if options is not None else self.time_limit
        if not self.use_sparse:  # the differential tests' dense reference
            sa = model.to_standard_arrays()
            res = _run_milp(sa, sa.a_ub, sa.a_eq, rel_gap, time_limit)
        else:
            sa = model.to_sparse_arrays()
            if _highs is not None:
                res = _run_highs(sa, rel_gap, time_limit)
            else:  # scipy < 1.15 ships no binding
                res = _run_milp(sa, sa.a_ub.to_scipy(), sa.a_eq.to_scipy(),
                                rel_gap, time_limit)
        solve_time = time.monotonic() - t0
        if res.status == 2:
            return MILPResult(SolveStatus.INFEASIBLE, None, math.nan,
                              solve_time=solve_time)
        if res.status == 3:
            return MILPResult(SolveStatus.UNBOUNDED, None,
                              -sa.obj_sign * math.inf, solve_time=solve_time)
        if res.x is None:
            return MILPResult(SolveStatus.NO_SOLUTION, None, math.nan,
                              solve_time=solve_time)
        x = np.asarray(res.x, dtype=float)
        x[sa.integrality] = np.round(x[sa.integrality])
        obj = sa.obj_sign * float(sa.c @ x) + sa.obj_constant
        gap = float(getattr(res, "mip_gap", 0.0) or 0.0)
        # HiGHS's dual bound is on ``c @ x``; the model's sense and constant
        # apply to it as they do to the objective.  (A solve that stopped
        # inside ``rel_gap`` has ``bound != objective``.)
        dual = getattr(res, "mip_dual_bound", None)
        bound = (sa.obj_sign * float(dual) + sa.obj_constant
                 if dual is not None and math.isfinite(dual) else obj)
        status = SolveStatus.OPTIMAL if res.status == 0 else SolveStatus.FEASIBLE
        nodes = int(getattr(res, "mip_node_count", 0) or 0)
        obs.emit("solver.solve", status=status.value, objective=obj, gap=gap,
                 nodes=nodes, time_ms=1000.0 * solve_time)
        return MILPResult(status=status, x=x, objective=obj,
                          bound=bound, gap=gap, nodes=nodes,
                          solve_time=solve_time)
