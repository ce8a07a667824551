"""MILP certificate checking.

A solver's :class:`~repro.solver.result.MILPResult` is a *claim*: "this
point is feasible and achieves this objective".  :func:`check_certificate`
replays that claim against the model's canonical CSR export
(:meth:`~repro.solver.model.Model.to_sparse_arrays`) — variable bounds,
integrality, every inequality and equality row, the recomputed objective,
and consistency of the reported dual bound.  The check is a direct
``O(nonzeros)`` evaluation that shares no code with any solve path, so a
decomposed recombination can never silently diverge from the monolithic
model: a wrong assembled ``x`` or a lied-about objective fails here no
matter which configuration produced it.

Tolerances are absolute-plus-relative: a row with right-hand side ``b``
may be violated by at most ``tol * max(1, |b|)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.solver.model import MAXIMIZE, Model, SparseMatrix
from repro.solver.result import MILPResult
from repro.verify.audit import AuditViolation, Violation


def _csr_matvec(mat: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """``mat @ x`` straight off the CSR triplets (no densification)."""
    out = np.zeros(mat.shape[0])
    if mat.nnz:
        prod = mat.data * x[mat.indices]
        counts = np.diff(mat.indptr)
        nonempty = counts > 0
        # reduceat over the start offsets of non-empty rows only: each
        # segment then runs to the next non-empty row's start, which is
        # exactly that row's extent (empty rows contribute nothing).
        out[nonempty] = np.add.reduceat(prod, mat.indptr[:-1][nonempty])
    return out


@dataclass
class CertificateReport:
    """Outcome of replaying one :class:`MILPResult` against its model.

    ``violations`` is empty iff the certificate checks out; the ``max_*``
    fields carry the worst observed deviation of each kind (0.0 when that
    class of check passed or was not applicable).
    """

    violations: tuple[Violation, ...]
    #: Objective recomputed from the export at the claimed point, in the
    #: model's own sense (NaN when there was no point to evaluate).
    objective_recomputed: float = float("nan")
    max_bound_violation: float = 0.0
    max_integrality_violation: float = 0.0
    max_row_violation: float = 0.0
    objective_delta: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> None:
        """Raise :class:`AuditViolation` when any check failed."""
        if self.violations:
            raise AuditViolation(self.violations)


def check_certificate(model: Model, result: MILPResult,
                      tol: float = 1e-6) -> CertificateReport:
    """Verify a solve result against the model's sparse export.

    Checks, in order: the status/point contract (a status claiming a
    solution must carry one and vice versa), point shape and finiteness,
    variable bounds, integrality, all ``a_ub @ x <= b_ub`` and
    ``a_eq @ x == b_eq`` rows, the recomputed objective against
    ``result.objective``, and that the reported dual ``bound`` does not
    contradict the incumbent.  Statuses without a solution (INFEASIBLE,
    UNBOUNDED, NO_SOLUTION) have no point to replay and pass vacuously.

    Example
    -------
    >>> from repro.solver import BranchBoundSolver, Model
    >>> m = Model()
    >>> x = m.add_binary("x"); y = m.add_binary("y")
    >>> _ = m.add_constraint(x + y, "<=", 1)
    >>> m.set_objective(2 * x + 3 * y, sense="maximize")
    >>> res = BranchBoundSolver().solve(m)
    >>> check_certificate(m, res).ok
    True
    >>> res.x[0] = 1.0  # corrupt one assignment bit: x + y = 2 > 1
    >>> check_certificate(m, res).ok
    False
    """
    violations: list[Violation] = []
    if result.x is None:
        if result.status.has_solution:
            violations.append(Violation(
                "certificate.missing-point",
                f"status {result.status.value} claims a solution "
                f"but result.x is None"))
        return CertificateReport(tuple(violations))
    if not result.status.has_solution:
        violations.append(Violation(
            "certificate.unexpected-point",
            f"status {result.status.value} carries a solution point"))

    x = np.asarray(result.x, dtype=float)
    n = model.num_variables
    if x.shape != (n,):
        violations.append(Violation(
            "certificate.shape",
            f"point has shape {x.shape}, model has {n} variables"))
        return CertificateReport(tuple(violations))
    if not np.all(np.isfinite(x)):
        violations.append(Violation(
            "certificate.non-finite",
            f"{int(np.sum(~np.isfinite(x)))} non-finite entries in x"))
        return CertificateReport(tuple(violations))

    sa = model.to_sparse_arrays()

    # Variable bounds.
    below = np.maximum(0.0, sa.lb - x)
    above = np.maximum(0.0, x - sa.ub)
    max_bound = float(max(below.max(initial=0.0), above.max(initial=0.0)))
    if max_bound > tol:
        i = int(np.argmax(np.maximum(below, above)))
        violations.append(Violation(
            "certificate.bounds",
            f"variable {model.variables[i].name!r} = {x[i]:g} outside "
            f"[{sa.lb[i]:g}, {sa.ub[i]:g}] by {max_bound:.3e}",
            {"index": i, "magnitude": max_bound}))

    # Integrality.
    max_integrality = 0.0
    if sa.integrality.any():
        frac = np.abs(x[sa.integrality] - np.round(x[sa.integrality]))
        max_integrality = float(frac.max(initial=0.0))
        if max_integrality > tol:
            which = np.nonzero(sa.integrality)[0][int(np.argmax(frac))]
            violations.append(Violation(
                "certificate.integrality",
                f"integer variable {model.variables[int(which)].name!r} "
                f"= {x[which]:g} is fractional by {max_integrality:.3e}",
                {"index": int(which), "magnitude": max_integrality}))

    # Constraint rows (CSR, minimization orientation: GE already negated).
    max_row = 0.0
    ub_excess = (_csr_matvec(sa.a_ub, x) - sa.b_ub
                 if sa.b_ub.size else np.zeros(0))
    eq_excess = (np.abs(_csr_matvec(sa.a_eq, x) - sa.b_eq)
                 if sa.b_eq.size else np.zeros(0))
    for kind, excess, rhs, offset in (
            ("ub", ub_excess, sa.b_ub, 0),
            ("eq", eq_excess, sa.b_eq, int(sa.b_ub.size))):
        if not excess.size:
            continue
        scaled = excess / np.maximum(1.0, np.abs(rhs))
        max_row = max(max_row, float(scaled.max(initial=0.0)))
        bad = np.nonzero(scaled > tol)[0]
        if bad.size:
            r = int(bad[int(np.argmax(scaled[bad]))])
            # Row order matches model.constraints (UB rows first, then EQ
            # rows, both in constraint order) only per-kind; recover the
            # source constraint by scanning senses.
            name = _row_constraint_name(model, kind, r)
            violations.append(Violation(
                f"certificate.row-{kind}",
                f"{bad.size} {kind} row(s) violated; worst is {name!r} "
                f"by {float(excess[r]):.3e}",
                {"rows": [int(b) for b in bad[:8]],
                 "magnitude": float(scaled[r])}))

    # Objective reconciliation: model objective = obj_sign*(c@x) + const.
    recomputed = float(sa.obj_sign * (sa.c @ x) + sa.obj_constant)
    scale = max(1.0, abs(recomputed))
    delta = abs(recomputed - result.objective) / scale
    if delta > tol:
        violations.append(Violation(
            "certificate.objective",
            f"claimed objective {result.objective:g} but the point "
            f"evaluates to {recomputed:g} (relative delta {delta:.3e})",
            {"claimed": result.objective, "recomputed": recomputed}))

    # Dual-bound sanity: the incumbent can never beat the proven bound.
    if np.isfinite(result.bound):
        slack = (recomputed - result.bound
                 if model.objective_sense == MAXIMIZE
                 else result.bound - recomputed)
        if slack > tol * scale:
            violations.append(Violation(
                "certificate.bound",
                f"incumbent {recomputed:g} beats the reported dual bound "
                f"{result.bound:g} — the bound proof cannot be valid",
                {"bound": result.bound, "recomputed": recomputed}))

    return CertificateReport(
        tuple(violations), objective_recomputed=recomputed,
        max_bound_violation=max_bound,
        max_integrality_violation=max_integrality,
        max_row_violation=max_row, objective_delta=delta)


def _row_constraint_name(model: Model, kind: str, row: int) -> str:
    """Name of the model constraint behind sparse row ``row`` of ``kind``."""
    want_eq = kind == "eq"
    i = -1
    for con in model.constraints:
        if (con.sense == "==") == want_eq:
            i += 1
            if i == row:
                return con.name
    return f"{kind}[{row}]"


__all__ = ["CertificateReport", "check_certificate"]
