"""Backend registry: pick a MILP solver by name.

The scheduler core only depends on the tiny :class:`MILPBackend` protocol,
mirroring the paper's pluggable-solver design (CPLEX there; pure-Python
branch-and-bound or scipy/HiGHS here).  All tunables arrive through one
:class:`~repro.solver.options.SolveOptions` value; the scattered per-call
keyword arguments of earlier releases have been removed after their
one-release deprecation window.
"""

from __future__ import annotations

from typing import Protocol

from repro.errors import SolverError
from repro.solver.branch_bound import BranchBoundOptions, BranchBoundSolver
from repro.solver.model import Model
from repro.solver.options import SolveOptions, resolve
from repro.solver.result import MILPResult
from repro.solver.scipy_backend import ScipyMILPSolver, scipy_available, solve_lp_scipy


class MILPBackend(Protocol):
    """Anything with a ``solve(model, options=None) -> MILPResult``.

    A backend that ignores ``options.warm_start`` may say so with a false
    ``consumes_warm_start`` attribute; the scheduler then skips building
    one.  Backends without the attribute are assumed to use it.
    """

    def solve(self, model: Model,
              options: SolveOptions | None = None) -> MILPResult: ...


#: Names accepted by :func:`make_backend`.
BACKEND_NAMES = ("pure", "pure-sparse-lu", "pure-tableau", "pure-scipy-lp",
                 "scipy", "auto")


def make_backend(name: str = "auto",
                 options: SolveOptions | None = None) -> MILPBackend:
    """Construct a MILP backend.

    Parameters
    ----------
    name:
        * ``"pure"`` — from-scratch branch-and-bound over the bounded-variable
          revised simplex (dual-simplex warm restarts across nodes);
        * ``"pure-sparse-lu"`` — same search with the Markowitz sparse LU
          basis factorization forced on (``"pure"`` picks it automatically
          once the basis is large and sparse enough);
        * ``"pure-tableau"`` — same search over the legacy dense two-phase
          tableau, kept as the differential oracle;
        * ``"pure-scipy-lp"`` — our branch-and-bound over HiGHS LP relaxations;
        * ``"scipy"`` — HiGHS branch-and-cut via ``scipy.optimize.milp``;
        * ``"auto"`` — ``"scipy"`` when available, else ``"pure"``.
    options:
        Solver tunables (gap, budgets, ...); unset fields take the library
        defaults in :data:`repro.solver.options.DEFAULT_OPTIONS`.

    Every backend solves the MILP exactly, to ``rel_gap``: there is one
    solve strategy (``docs/architecture.md``, "Why there is one solve
    strategy").
    """
    opts = resolve(options)
    if name == "auto":
        name = "scipy" if scipy_available() else "pure"
    if name == "scipy":
        if not scipy_available():
            raise SolverError("scipy backend requested but scipy is missing")
        return ScipyMILPSolver(rel_gap=opts.rel_gap,
                               time_limit=opts.time_limit)
    if name == "pure":
        return BranchBoundSolver(BranchBoundOptions(
            rel_gap=opts.rel_gap, time_limit=opts.time_limit,
            node_limit=opts.node_limit))
    if name == "pure-sparse-lu":
        return BranchBoundSolver(BranchBoundOptions(
            rel_gap=opts.rel_gap, time_limit=opts.time_limit,
            node_limit=opts.node_limit, lp_engine="sparse-lu"))
    if name == "pure-tableau":
        return BranchBoundSolver(BranchBoundOptions(
            rel_gap=opts.rel_gap, time_limit=opts.time_limit,
            node_limit=opts.node_limit, lp_engine="tableau"))
    if name == "pure-scipy-lp":
        if not scipy_available():
            raise SolverError("pure-scipy-lp backend requested but scipy is missing")
        return BranchBoundSolver(BranchBoundOptions(
            rel_gap=opts.rel_gap, time_limit=opts.time_limit,
            node_limit=opts.node_limit, lp_solver=solve_lp_scipy))
    raise SolverError(f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")


def backend_time_limit(backend) -> float | None:
    """The wall-clock budget a backend was configured with, if any.

    Used by :func:`repro.solver.decompose.solve_decomposed` to carve
    per-component budgets when the caller did not pass an explicit cycle
    budget.  Unknown (duck-typed) backends report ``None`` (unlimited).
    """
    if isinstance(backend, BranchBoundSolver):
        return backend.options.time_limit
    return getattr(backend, "time_limit", None)
