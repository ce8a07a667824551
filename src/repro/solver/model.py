"""MILP model container.

A :class:`Model` owns decision variables, linear constraints, and a single
linear objective.  It is solver-agnostic: backends (pure-Python simplex +
branch-and-bound, or scipy/HiGHS) consume the model through its sparse
CSR-triplet export, :meth:`Model.to_sparse_arrays`.  The dense export,
:meth:`Model.to_standard_arrays`, is retained as the *test oracle*: it is
built independently of the sparse path, and the equivalence suite
(``tests/solver/test_sparse.py``) asserts both describe the same constraint
system.

Scheduling MILPs are extremely sparse — a supply row touches only the
partition variables of leaves alive in one time slice — so the dense
``O(vars x constraints)`` materialization used to dominate cycle time as
the plan-ahead window grew (Fig. 12 regimes).  The CSR export is
``O(nonzeros)`` and is cached on the model (invalidated by any mutation),
so the pipeline's ModelBuild stage and the solver share one export.

A model is built one of two ways.  Hand-written models go through the
object API (``add_integer`` / ``add_constraint`` / ``set_objective``).  The
scheduling cycle instead *is* its export: the STRL compiler and the
decomposer assemble :class:`SparseArrays` directly and wrap them with
:meth:`Model.from_arrays`; sizes, feasibility checks and objective values
are then array reads, and ``variables`` / ``constraints`` / ``objective``
are rebuilt from the arrays (plus an :class:`ArrayLayout` of names and
domains) only for a consumer that asks — the audit oracles,
:meth:`Model.to_lp_string`, tests.

This mirrors the paper's architecture where "the internal MILP model can be
translated to any MILP backend" (Sec. 3.2.2).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ModelError
from repro.solver.expr import (BINARY, CONTINUOUS, INTEGER, ExprLike, LinExpr,
                               Variable, as_expr)

#: Constraint senses.
LE = "<="
GE = ">="
EQ = "=="
_SENSES = (LE, GE, EQ)

#: Objective senses.
MAXIMIZE = "maximize"
MINIMIZE = "minimize"


@dataclass(frozen=True)
class Constraint:
    """A linear constraint ``expr (sense) rhs``.

    The stored ``expr`` has its constant folded into ``rhs`` so that
    ``expr.constant == 0`` always holds.
    """

    name: str
    expr: LinExpr
    sense: str
    rhs: float

    def violation(self, x: np.ndarray) -> float:
        """How far a point ``x`` (dense column vector) violates the constraint.

        Returns 0.0 when satisfied; positive magnitude otherwise.
        """
        lhs = sum(c * x[i] for i, c in self.expr.coeffs.items()) + self.expr.constant
        if self.sense == LE:
            return max(0.0, lhs - self.rhs)
        if self.sense == GE:
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)


@dataclass
class StandardArrays:
    """Dense-array export of a model, in *minimization* orientation.

    Attributes
    ----------
    c:
        Objective coefficients (minimize ``c @ x``).
    obj_constant:
        Constant term dropped from the objective (add back to solver value).
    obj_sign:
        +1 if the model was already minimizing, -1 if it was maximizing
        (so ``model objective = obj_sign * (c @ x) + obj_constant`` ... see
        :meth:`Model.objective_value`).
    a_ub, b_ub:
        Inequality rows ``a_ub @ x <= b_ub`` (GE rows are negated into LE).
    a_eq, b_eq:
        Equality rows.
    lb, ub:
        Per-variable bounds, ``np.inf`` / ``-np.inf`` where unbounded.
    integrality:
        Boolean mask, True where the variable must be integral.
    """

    c: np.ndarray
    obj_constant: float
    obj_sign: float
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray


@dataclass(frozen=True)
class SparseMatrix:
    """A read-only CSR matrix: row ``r`` holds ``indices[indptr[r]:indptr[r+1]]``.

    Plain numpy triplets rather than ``scipy.sparse`` so the pure backend has
    no scipy dependency; :meth:`to_scipy` bridges when scipy is present.
    """

    shape: tuple[int, int]
    indptr: np.ndarray   # int64, len rows + 1
    indices: np.ndarray  # int64, len nnz (column ids)
    data: np.ndarray     # float64, len nnz

    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    def row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """(column indices, coefficients) of row ``r`` — views, not copies."""
        lo, hi = self.indptr[r], self.indptr[r + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.shape[0]),
                         np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def to_scipy(self):
        """As a ``scipy.sparse.csr_matrix`` (scipy backends only)."""
        from scipy.sparse import csr_matrix
        return csr_matrix((self.data, self.indices, self.indptr),
                          shape=self.shape)

    def select_rows(self, keep: np.ndarray) -> "SparseMatrix":
        """A new matrix with only the rows where ``keep`` is True."""
        counts = np.diff(self.indptr)
        mask = np.repeat(keep, counts)
        new_counts = counts[keep]
        indptr = np.concatenate([[0], np.cumsum(new_counts)])
        return SparseMatrix((int(keep.sum()), self.shape[1]),
                            indptr.astype(np.int64),
                            self.indices[mask], self.data[mask])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Row activities ``A @ x`` without densifying (``O(nonzeros)``).

        Empty rows (possible: constant constraints keep a row with no
        stored coefficients) contribute an activity of exactly 0.0.
        """
        rows = self.shape[0]
        if self.nnz == 0:
            return np.zeros(rows)
        prod = self.data * x[self.indices]
        row_ids = np.repeat(np.arange(rows), np.diff(self.indptr))
        return np.bincount(row_ids, weights=prod, minlength=rows)


def _rows_to_csr(rows: list[tuple[dict, float]], n: int,
                 scale: list[float]) -> tuple[SparseMatrix, np.ndarray]:
    """Pack ``[(coeffs, rhs), ...]`` (with per-row sign) into CSR + rhs."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    idx: list[int] = []
    dat: list[float] = []
    b = np.zeros(len(rows))
    for r, ((coeffs, rhs), s) in enumerate(zip(rows, scale)):
        indptr[r + 1] = indptr[r] + len(coeffs)
        idx.extend(coeffs.keys())
        dat.extend(s * v for v in coeffs.values())
        b[r] = s * rhs
    indices = np.asarray(idx, dtype=np.int64) if idx else np.zeros(0, np.int64)
    data = np.asarray(dat, dtype=float) if dat else np.zeros(0)
    return SparseMatrix((len(rows), n), indptr, indices, data), b


@dataclass
class SparseArrays:
    """Sparse export of a model, minimization orientation (CSR constraints).

    Field semantics match :class:`StandardArrays` exactly; only the matrix
    representation differs.  :meth:`to_standard` densifies — backends use it
    at their dense-algorithm boundary (the pure simplex), tests use it to
    cross-check against the independent dense export.
    """

    c: np.ndarray
    obj_constant: float
    obj_sign: float
    a_ub: SparseMatrix
    b_ub: np.ndarray
    a_eq: SparseMatrix
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray

    @property
    def nnz(self) -> int:
        return self.a_ub.nnz + self.a_eq.nnz

    def to_standard(self) -> StandardArrays:
        """Densify into a :class:`StandardArrays` (same row/column order)."""
        return StandardArrays(
            c=self.c, obj_constant=self.obj_constant, obj_sign=self.obj_sign,
            a_ub=self.a_ub.to_dense(), b_ub=self.b_ub,
            a_eq=self.a_eq.to_dense(), b_eq=self.b_eq,
            lb=self.lb, ub=self.ub, integrality=self.integrality)


@dataclass(frozen=True)
class ExportFingerprint:
    """SHA-256 identity of a :class:`SparseArrays` export.

    ``exact`` covers every number that can influence a solve: sparsity
    pattern, coefficients, right-hand sides, objective, bounds and
    integrality (names excluded).  ``structural`` leaves out the right-hand
    sides and the variable bounds: the same problem with shifted supply.
    """

    exact: str
    structural: str


def _digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"|")  # keep field boundaries unambiguous
    return h.hexdigest()


def fingerprint_arrays(sa: SparseArrays) -> ExportFingerprint:
    """Fingerprint an export: the bit-equality oracle of the test suite.

    Two exports with equal ``exact`` digests are the same MILP to the last
    bit (the golden export digests of ``tests/core/test_golden_export.py``).
    """
    structural_parts = [
        repr((sa.a_ub.shape, sa.a_eq.shape)).encode(),
        sa.a_ub.indptr.tobytes(), sa.a_ub.indices.tobytes(),
        sa.a_ub.data.tobytes(),
        sa.a_eq.indptr.tobytes(), sa.a_eq.indices.tobytes(),
        sa.a_eq.data.tobytes(),
        sa.c.tobytes(), repr((sa.obj_constant, sa.obj_sign)).encode(),
        sa.integrality.tobytes(),
    ]
    exact_parts = structural_parts + [
        sa.b_ub.tobytes(), sa.b_eq.tobytes(),
        sa.lb.tobytes(), sa.ub.tobytes(),
    ]
    return ExportFingerprint(exact=_digest(exact_parts),
                             structural=_digest(structural_parts))


#: Column domain tags by :attr:`ArrayLayout.domains` code.
DOMAIN_BY_CODE = (CONTINUOUS, INTEGER, BINARY)


@dataclass(frozen=True)
class ArrayLayout:
    """What :meth:`Model.from_arrays` needs, beyond the export, to rebuild
    the object view of a model on demand."""

    #: Per column: index into :data:`DOMAIN_BY_CODE` (an integer column
    #: with bounds ``[0, 1]`` is still ``INTEGER``, not ``BINARY``).
    domains: np.ndarray
    #: Per constraint, in model order: True for an equality row.  The k-th
    #: True is export row ``a_eq[k]``, the k-th False is ``a_ub[k]``.
    row_is_eq: np.ndarray
    #: ``() -> names`` of the columns / of the constraints (model order),
    #: each called at most once.
    col_names: Callable[[], list[str]]
    row_names: Callable[[], list[str]]


class Model:
    """A mixed integer linear program.

    Example
    -------
    >>> m = Model("knapsack")
    >>> x = [m.add_binary(f"x{i}") for i in range(3)]
    >>> _ = m.add_constraint(2*x[0] + 3*x[1] + 4*x[2], "<=", 5, name="cap")
    >>> m.set_objective(3*x[0] + 4*x[1] + 5*x[2], sense="maximize")
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        # ``None`` while the model is array-backed and nobody has asked for
        # the object view yet (see :meth:`from_arrays`).
        self._variables: list[Variable] | None = []
        self._constraints: list[Constraint] | None = []
        self._objective: LinExpr | None = LinExpr()
        self.objective_sense: str = MAXIMIZE
        self._names: set[str] = set()
        self._sparse_cache: SparseArrays | None = None
        self._layout: ArrayLayout | None = None

    @classmethod
    def from_arrays(cls, name: str, arrays: SparseArrays,
                    layout: ArrayLayout) -> "Model":
        """An array-backed model: ``arrays`` *is* the model.

        No :class:`Variable`, :class:`Constraint` or :class:`LinExpr` is
        created until one of :attr:`variables`, :attr:`constraints`,
        :attr:`objective` is read (or the model is mutated through the
        object API, which rebuilds them first).  Only cheap shape checks
        run here.
        """
        n = arrays.c.shape[0]
        rows = arrays.b_ub.shape[0] + arrays.b_eq.shape[0]
        if layout.domains.shape[0] != n or arrays.lb.shape[0] != n:
            raise ModelError(
                f"layout covers {layout.domains.shape[0]} columns, "
                f"arrays have {n}")
        if layout.row_is_eq.shape[0] != rows:
            raise ModelError(
                f"layout covers {layout.row_is_eq.shape[0]} rows, "
                f"arrays have {rows}")
        model = cls(name)
        model._variables = model._constraints = model._objective = None
        model.objective_sense = MAXIMIZE if arrays.obj_sign < 0 else MINIMIZE
        model._sparse_cache = arrays
        model._layout = layout
        return model

    @property
    def variables(self) -> list[Variable]:
        if self._variables is None:
            sa, layout = self._sparse_cache, self._layout
            names = layout.col_names()
            self._variables = [
                Variable(name, i, None if lo == -np.inf else lo,
                         None if hi == np.inf else hi, DOMAIN_BY_CODE[code])
                for i, (name, lo, hi, code) in enumerate(zip(
                    names, sa.lb.tolist(), sa.ub.tolist(),
                    layout.domains.tolist()))]
            self._names = set(names)
        return self._variables

    @property
    def constraints(self) -> list[Constraint]:
        if self._constraints is None:
            sa, layout = self._sparse_cache, self._layout
            names = layout.row_names()
            next_row = {False: 0, True: 0}
            constraints = []
            for name, is_eq in zip(names, layout.row_is_eq.tolist()):
                mat, b = (sa.a_eq, sa.b_eq) if is_eq else (sa.a_ub, sa.b_ub)
                r = next_row[is_eq]
                next_row[is_eq] = r + 1
                cols, coefs = mat.row(r)
                constraints.append(Constraint(
                    name, LinExpr(dict(zip(cols.tolist(), coefs.tolist()))),
                    EQ if is_eq else LE, float(b[r])))
            self._constraints = constraints
        return self._constraints

    @property
    def objective(self) -> LinExpr:
        if self._objective is None:
            sa = self._sparse_cache
            nz = np.flatnonzero(sa.c)
            self._objective = LinExpr(
                dict(zip(nz.tolist(), (sa.obj_sign * sa.c[nz]).tolist())),
                sa.obj_constant)
        return self._objective

    @property
    def _arrays(self) -> SparseArrays | None:
        """The arrays of an array-backed model, ``None`` for an object-built
        one — the one test every size/value read below forks on."""
        return self._sparse_cache if self._layout is not None else None

    def _own_objects(self) -> None:
        """Before a mutation: make the object view the model's only form."""
        if self._layout is not None:
            _ = self.variables
            _ = self.constraints
            _ = self.objective
            self._layout = None
        self._sparse_cache = None

    # -- variables ---------------------------------------------------------
    def _add_var(self, name: str, lb, ub, domain: str) -> Variable:
        self._own_objects()
        if name in self._names:
            raise ModelError(f"duplicate variable name {name!r}")
        var = Variable(name, len(self._variables), lb, ub, domain)
        self._variables.append(var)
        self._names.add(name)
        return var

    def add_continuous(self, name: str, lb: float | None = 0.0,
                       ub: float | None = None) -> Variable:
        """Add a continuous variable (default domain ``[0, +inf)``)."""
        return self._add_var(name, lb, ub, CONTINUOUS)

    def add_integer(self, name: str, lb: float = 0.0,
                    ub: float | None = None) -> Variable:
        """Add a general integer variable (default domain ``{0,1,2,...}``)."""
        return self._add_var(name, lb, ub, INTEGER)

    def add_binary(self, name: str) -> Variable:
        """Add a 0/1 variable."""
        return self._add_var(name, 0.0, 1.0, BINARY)

    @property
    def num_variables(self) -> int:
        sa = self._arrays
        return len(self._variables) if sa is None else int(sa.c.shape[0])

    @property
    def num_integer_variables(self) -> int:
        sa = self._arrays
        if sa is not None:
            return int(np.count_nonzero(sa.integrality))
        return sum(1 for v in self._variables if v.is_integral)

    @property
    def num_constraints(self) -> int:
        sa = self._arrays
        if sa is not None:
            return int(sa.b_ub.shape[0] + sa.b_eq.shape[0])
        return len(self._constraints)

    def column_domains(self) -> np.ndarray:
        """Per column: its domain as an index into :data:`DOMAIN_BY_CODE`."""
        if self._layout is not None:
            return self._layout.domains
        return np.array([DOMAIN_BY_CODE.index(v.domain)
                         for v in self.variables], dtype=np.int8)

    # -- constraints ---------------------------------------------------------
    def add_constraint(self, lhs: ExprLike, sense: str, rhs: ExprLike,
                       name: str | None = None) -> Constraint:
        """Add ``lhs (sense) rhs``; either side may contain variables.

        The constraint is normalized so all variables live on the left and
        the right-hand side is a plain number.
        """
        if sense not in _SENSES:
            raise ModelError(f"unknown constraint sense {sense!r}")
        expr = as_expr(lhs) - as_expr(rhs)
        rhs_value = -expr.constant
        expr = LinExpr(expr.coeffs, 0.0)
        if not expr.coeffs:
            # Constant constraint: check it immediately, keep models clean.
            ok = {LE: 0.0 <= rhs_value, GE: 0.0 >= rhs_value,
                  EQ: rhs_value == 0.0}[sense]
            if not ok:
                raise ModelError(
                    f"constraint {name or ''} is constant and unsatisfiable: "
                    f"0 {sense} {rhs_value}")
        self._own_objects()
        if name is None:
            name = f"c{len(self._constraints)}"
        con = Constraint(name, expr, sense, float(rhs_value))
        self._constraints.append(con)
        return con

    # -- objective -----------------------------------------------------------
    def set_objective(self, expr: ExprLike, sense: str = MAXIMIZE) -> None:
        if sense not in (MAXIMIZE, MINIMIZE):
            raise ModelError(f"unknown objective sense {sense!r}")
        self._own_objects()
        self._objective = as_expr(expr).copy()
        self.objective_sense = sense

    def objective_value(self, x: np.ndarray) -> float:
        """Evaluate the model objective (in its own sense) at point ``x``."""
        sa = self._arrays
        if sa is not None:
            return sa.obj_sign * float(sa.c @ x) + sa.obj_constant
        return (sum(c * x[i] for i, c in self._objective.coeffs.items())
                + self._objective.constant)

    # -- export ----------------------------------------------------------------
    def to_sparse_arrays(self) -> SparseArrays:
        """Export CSR triplets in minimization orientation (``O(nonzeros)``).

        This is the export backends consume; row and column order matches
        :meth:`to_standard_arrays` exactly (inequality rows in constraint
        order with GE rows negated into LE, then equality rows).  The result
        is cached until the model is mutated, so the pipeline's ModelBuild
        stage and the solve share one export; for an array-backed model it
        is the arrays the model was built from.
        """
        if self._sparse_cache is None:
            self._sparse_cache = self.export_from_objects()
        return self._sparse_cache

    def export_from_objects(self) -> SparseArrays:
        """The CSR export recomputed from the object view, cache bypassed.

        What :meth:`to_sparse_arrays` caches for a hand-built model.  On an
        array-backed model it round-trips arrays -> objects -> arrays,
        which ``tests/core/test_compiler_properties.py`` asserts is the
        identity.
        """
        n = self.num_variables
        c = np.zeros(n)
        for i, coef in self.objective.coeffs.items():
            c[i] = coef
        obj_sign = 1.0
        if self.objective_sense == MAXIMIZE:
            c = -c
            obj_sign = -1.0

        ub_rows: list[tuple[dict, float]] = []
        ub_scale: list[float] = []
        eq_rows: list[tuple[dict, float]] = []
        for con in self.constraints:
            if con.sense == LE:
                ub_rows.append((con.expr.coeffs, con.rhs))
                ub_scale.append(1.0)
            elif con.sense == GE:
                ub_rows.append((con.expr.coeffs, con.rhs))
                ub_scale.append(-1.0)
            else:
                eq_rows.append((con.expr.coeffs, con.rhs))
        a_ub, b_ub = _rows_to_csr(ub_rows, n, ub_scale)
        a_eq, b_eq = _rows_to_csr(eq_rows, n, [1.0] * len(eq_rows))
        lb = np.array([v.lb if v.lb is not None else -np.inf
                       for v in self.variables])
        ub = np.array([v.ub if v.ub is not None else np.inf
                       for v in self.variables])
        integrality = np.array([v.is_integral for v in self.variables],
                               dtype=bool)
        return SparseArrays(
            c=c, obj_constant=self.objective.constant, obj_sign=obj_sign,
            a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
            lb=lb, ub=ub, integrality=integrality)

    def to_standard_arrays(self) -> StandardArrays:
        """Export dense arrays in minimization orientation.

        Deliberately independent of :meth:`to_sparse_arrays` so it can serve
        as the test oracle for the sparse path; production backends consume
        the sparse export.
        """
        n = self.num_variables
        c = np.zeros(n)
        for i, coef in self.objective.coeffs.items():
            c[i] = coef
        obj_sign = 1.0
        if self.objective_sense == MAXIMIZE:
            c = -c
            obj_sign = -1.0

        ub_rows: list[tuple[LinExpr, float]] = []
        eq_rows: list[tuple[LinExpr, float]] = []
        for con in self.constraints:
            if con.sense == LE:
                ub_rows.append((con.expr, con.rhs))
            elif con.sense == GE:
                ub_rows.append((con.expr * -1.0, -con.rhs))
            else:
                eq_rows.append((con.expr, con.rhs))

        def to_matrix(rows: list[tuple[LinExpr, float]]) -> tuple[np.ndarray, np.ndarray]:
            a = np.zeros((len(rows), n))
            b = np.zeros(len(rows))
            for r, (expr, rhs) in enumerate(rows):
                for i, coef in expr.coeffs.items():
                    a[r, i] = coef
                b[r] = rhs
            return a, b

        a_ub, b_ub = to_matrix(ub_rows)
        a_eq, b_eq = to_matrix(eq_rows)
        lb = np.array([v.lb if v.lb is not None else -np.inf for v in self.variables])
        ub = np.array([v.ub if v.ub is not None else np.inf for v in self.variables])
        integrality = np.array([v.is_integral for v in self.variables], dtype=bool)
        return StandardArrays(c=c, obj_constant=self.objective.constant,
                              obj_sign=obj_sign, a_ub=a_ub, b_ub=b_ub,
                              a_eq=a_eq, b_eq=b_eq, lb=lb, ub=ub,
                              integrality=integrality)

    # -- diagnostics -------------------------------------------------------------
    def check_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """True if ``x`` satisfies all constraints, bounds and integrality.

        When the sparse export is already cached (the common case inside a
        scheduling cycle: ModelBuild forces it before the warm-start check),
        the test is fully vectorized — two masked comparisons over the bound
        arrays and one :meth:`SparseMatrix.matvec` per constraint block —
        instead of a Python loop over every variable and constraint.
        """
        sa = self._sparse_cache
        if sa is not None:
            xv = np.asarray(x, dtype=float)
            lb_ok = np.all(xv >= sa.lb - tol)
            ub_ok = np.all(xv <= sa.ub + tol)
            if not (lb_ok and ub_ok):
                return False
            xi = xv[sa.integrality]
            if xi.size and np.max(np.abs(xi - np.round(xi))) > tol:
                return False
            # GE rows are negated into LE in the export, so one-sided and
            # two-sided checks below cover all three senses.
            if np.any(sa.a_ub.matvec(xv) > sa.b_ub + tol):
                return False
            return not np.any(np.abs(sa.a_eq.matvec(xv) - sa.b_eq) > tol)
        for v in self.variables:
            if v.lb is not None and x[v.index] < v.lb - tol:
                return False
            if v.ub is not None and x[v.index] > v.ub + tol:
                return False
            if v.is_integral and abs(x[v.index] - round(x[v.index])) > tol:
                return False
        return all(con.violation(x) <= tol for con in self.constraints)

    def stats(self) -> dict[str, int]:
        """Size summary used by the scalability experiments (Fig. 12)."""
        sa = self._arrays
        if sa is not None:
            binary = int(np.count_nonzero(
                self._layout.domains == DOMAIN_BY_CODE.index(BINARY)))
            nonzeros = sa.nnz
        else:
            binary = sum(1 for v in self.variables if v.domain == BINARY)
            nonzeros = sum(len(c.expr.coeffs) for c in self.constraints)
        return {
            "variables": self.num_variables,
            "integer_variables": self.num_integer_variables,
            "binary_variables": binary,
            "constraints": self.num_constraints,
            "nonzeros": nonzeros,
        }

    def to_lp_string(self) -> str:
        """Render the model in (a readable subset of) CPLEX LP format.

        For debugging and archiving; parseable by most LP tools.  Variable
        names are sanitized to alphanumerics/underscores.
        """
        def vname(i: int) -> str:
            raw = self.variables[i].name
            return "".join(ch if ch.isalnum() else "_" for ch in raw)

        def render(expr: LinExpr) -> str:
            parts = []
            for i, coef in sorted(expr.coeffs.items()):
                sign = "+" if coef >= 0 else "-"
                parts.append(f"{sign} {abs(coef):g} {vname(i)}")
            text = " ".join(parts) if parts else "0"
            return text.lstrip("+ ").strip() or "0"

        lines = [f"\\ Model: {self.name}"]
        lines.append("Maximize" if self.objective_sense == MAXIMIZE
                     else "Minimize")
        lines.append(f" obj: {render(self.objective)}")
        lines.append("Subject To")
        sense_map = {LE: "<=", GE: ">=", EQ: "="}
        for con in self.constraints:
            lines.append(f" {con.name}: {render(con.expr)} "
                         f"{sense_map[con.sense]} {con.rhs:g}")
        lines.append("Bounds")
        for v in self.variables:
            lo = "-inf" if v.lb is None else f"{v.lb:g}"
            hi = "+inf" if v.ub is None else f"{v.ub:g}"
            lines.append(f" {lo} <= {vname(v.index)} <= {hi}")
        integral = [vname(v.index) for v in self.variables
                    if v.domain == INTEGER]
        binary = [vname(v.index) for v in self.variables
                  if v.domain == BINARY]
        if integral:
            lines.append("Generals")
            lines.append(" " + " ".join(integral))
        if binary:
            lines.append("Binaries")
            lines.append(" " + " ".join(binary))
        lines.append("End")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"Model({self.name!r}, vars={self.num_variables}, "
                f"cons={self.num_constraints}, sense={self.objective_sense})")
