"""MILP solver substrate (replaces the paper's CPLEX dependency).

Public surface:

* :class:`Model`, :class:`Variable`, :class:`LinExpr`, :func:`linear_sum` —
  model construction;
* :class:`SolveOptions` — every solve tunable in one value object;
* :class:`BranchBoundSolver` / :func:`make_backend` — solving, exactly to
  ``rel_gap`` (the one solve strategy);
* :func:`decompose` / :func:`solve_decomposed` — independent-component
  solving, in process, in column order;
* :class:`MILPResult`, :class:`SolveStatus` — results;
* :func:`solve_lp` — the standalone two-phase tableau LP solver (oracle);
* :func:`solve_lp_revised` / :class:`RevisedSimplexEngine` — the
  bounded-variable revised simplex (production LP core).
"""

from repro.solver.backend import (BACKEND_NAMES, MILPBackend,
                                  backend_time_limit, make_backend)
from repro.solver.branch_bound import BranchBoundOptions, BranchBoundSolver
from repro.solver.decompose import Decomposition, decompose, solve_decomposed
from repro.solver.expr import BINARY, CONTINUOUS, INTEGER, LinExpr, Variable, linear_sum
from repro.solver.model import EQ, GE, LE, MAXIMIZE, MINIMIZE, Constraint, Model
from repro.solver.options import DEFAULT_OPTIONS, UNSET, SolveOptions
from repro.solver.presolve import PresolveResult, presolve
from repro.solver.result import LPResult, MILPResult, SolveStatus
from repro.solver.revised_simplex import (BasisState, RevisedSimplexEngine,
                                          solve_lp_revised)
from repro.solver.scipy_backend import ScipyMILPSolver, scipy_available
from repro.solver.simplex import solve_lp

__all__ = [
    "BACKEND_NAMES", "BINARY", "BasisState", "BranchBoundOptions",
    "BranchBoundSolver", "CONTINUOUS", "Constraint", "DEFAULT_OPTIONS",
    "Decomposition", "EQ", "GE", "INTEGER", "LE", "LPResult", "LinExpr",
    "MAXIMIZE", "MILPBackend", "MILPResult", "MINIMIZE", "Model",
    "PresolveResult", "RevisedSimplexEngine", "ScipyMILPSolver",
    "SolveOptions", "SolveStatus", "UNSET", "Variable", "backend_time_limit",
    "decompose", "linear_sum", "make_backend", "presolve", "scipy_available",
    "solve_decomposed", "solve_lp", "solve_lp_revised",
]
