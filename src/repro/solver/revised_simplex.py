"""Bounded-variable revised simplex over a factorized basis.

This is the production LP core underneath :mod:`repro.solver.branch_bound`
(the dense two-phase tableau in :mod:`repro.solver.simplex` is retained as
the differential oracle).  Four properties make it fast on the
binary-heavy scheduling MILPs this repo compiles:

* **Native bounds** — variables sit at their lower or upper bound while
  nonbasic.  Finite upper bounds never become constraint rows (the tableau
  path adds one ``<=`` row per bounded variable, nearly doubling the row
  count on all-binary models) and free variables are never column-split.
* **Factor-solve, never an inverse** — the basis is consumed exclusively
  through FTRAN/BTRAN triangular solves on a factorization object from
  :mod:`repro.solver.sparse_lu`: a Markowitz-pivoted sparse LU with
  Forrest–Tomlin updates for large sparse bases, or a LAPACK dense LU
  with a product-form eta file for small/dense ones (``factor="auto"``
  picks per instance).  The constraint matrix itself is held as a CSC of
  the structural columns only; slack columns of ``[A | I]`` are implicit,
  so entering columns are pulled sparsely and pricing is O(nnz).
* **Partial pricing with projected-steepest-edge weights** — reduced
  costs are computed per column *section* against the BTRAN'd duals, a
  rotating cursor collects a small candidate list, and the entering
  variable maximizes ``d_j^2 / w_j`` under Devex-style reference weights
  (reset to the reference framework — an exact recompute — at every
  refactorization).  Optimality is only ever declared after a full wrap
  of the column space, and a stalled phase falls back to Bland's rule
  (full scan, lowest eligible index), so the partial scan is a pure
  optimization.  The dual simplex uses the mirrored Devex row weights
  for its leaving-row choice.
* **A dual simplex phase** — when branch and bound tightens a single
  variable bound at a child node, the parent's optimal basis stays *dual*
  feasible (reduced costs do not depend on bounds), so the child
  re-optimizes in a handful of dual pivots from the inherited
  :class:`BasisState` instead of a fresh phase-1/phase-2 solve.  Any
  factorization failure, stalled dual phase, or lost dual feasibility
  falls back to a cold solve — warm restarting is an optimization, never
  a correctness dependency.

Phase 1 of a cold solve minimizes the total bound infeasibility of the
basic variables (the composite / Maros phase-1 objective: cost ``-1`` for
a basic variable below its lower bound, ``+1`` above its upper bound),
starting from the all-slack basis, so no artificial columns are ever
added.  Equality rows carry a slack fixed at ``[0, 0]``, which keeps the
working matrix a single ``[A | I]`` block.

Counters for pivots, dual pivots, (re)factorizations, Forrest–Tomlin
updates, pricing-candidate volume and warm-restart outcomes are reported
through :mod:`repro.obs` and on the engine's ``counters`` dict (folded
into ``MILPResult.stats`` by the branch-and-bound driver); the worst
factor fill ratio seen is on :attr:`RevisedSimplexEngine.fill_ratio`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import SolverError
from repro.solver.result import LPResult, SolveStatus
from repro.solver.sparse_lu import make_factor

_FEAS_TOL = 1e-8
_DUAL_TOL = 1e-9
_PIVOT_TOL = 1e-10
#: Dual-feasibility slack tolerated when validating an inherited basis.
_WARM_DUAL_TOL = 1e-6
#: Below this many rows the dense LU factor wins on BLAS throughput;
#: ``factor="auto"`` switches to the sparse LU at or above it.
_SPARSE_MIN_ROWS = 128
#: Partial pricing: columns scanned per section and the candidate-list
#: size that stops the scan early (a full wrap always happens before
#: optimality is declared).
_PRICE_SECTION = 512
_PRICE_TARGET = 48

#: Variable statuses (values of :attr:`BasisState.vstat`).
NB_LOWER = np.int8(0)
NB_UPPER = np.int8(1)
BASIC = np.int8(2)
NB_FREE = np.int8(3)


class _NumericalTrouble(Exception):
    """Internal: the current factorization/status state cannot proceed."""


@dataclass(frozen=True)
class BasisState:
    """A (re)startable simplex basis.

    ``basic`` holds the column index of the basic variable of each row (in
    row order, over the engine's full column space: structural variables
    first, then one slack per row).  ``vstat`` assigns every column a
    status (:data:`NB_LOWER`, :data:`NB_UPPER`, :data:`BASIC`,
    :data:`NB_FREE`).  The state is value-free: nonbasic values are
    recovered from the *current* bounds, which is exactly what lets a
    branch-and-bound child node reuse its parent's basis after tightening
    a bound.
    """

    basic: np.ndarray
    vstat: np.ndarray


class RevisedSimplexEngine:
    """Bounded-variable revised simplex over a fixed constraint matrix.

    The matrix (``a_ub``/``a_eq``), right-hand sides and objective are
    fixed at construction; :meth:`solve` takes per-call variable bounds
    (the only thing branch and bound changes between nodes) plus an
    optional :class:`BasisState` to warm-restart from.  Construct from
    dense arrays, or — preferred for compiled models — via
    :meth:`from_sparse` straight off a
    :class:`~repro.solver.model.SparseArrays` export, which never
    densifies the constraint matrix.

    ``factor`` selects the basis factorization backend: ``"sparse"``
    (Markowitz LU + Forrest–Tomlin), ``"dense"`` (LAPACK LU + PFI etas)
    or ``"auto"`` (sparse at/above ``sparse_min_rows`` rows).
    """

    def __init__(self, c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                 refactor_every: int = 64, factor: str = "auto",
                 sparse_min_rows: int = _SPARSE_MIN_ROWS) -> None:
        c = np.atleast_1d(np.asarray(c, dtype=float))
        n = c.shape[0]
        a_ub = np.zeros((0, n)) if a_ub is None else \
            np.atleast_2d(np.asarray(a_ub, dtype=float))
        b_ub = np.zeros(0) if b_ub is None else \
            np.atleast_1d(np.asarray(b_ub, dtype=float))
        a_eq = np.zeros((0, n)) if a_eq is None else \
            np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.zeros(0) if b_eq is None else \
            np.atleast_1d(np.asarray(b_eq, dtype=float))
        if a_ub.shape[0] != b_ub.shape[0] or a_eq.shape[0] != b_eq.shape[0]:
            raise SolverError("constraint matrix / rhs shape mismatch")
        a = np.vstack([a_ub, a_eq]) if a_ub.size or a_eq.size else \
            np.zeros((a_ub.shape[0] + a_eq.shape[0], n))
        # Column-major nonzero scan = CSC construction order.
        cols, rows = np.nonzero(a.T)
        vals = a.T[cols, rows]
        self._init_core(c, a_ub.shape[0], a_eq.shape[0],
                        np.concatenate([b_ub, b_eq]), rows, cols, vals,
                        refactor_every, factor, sparse_min_rows)

    @classmethod
    def from_sparse(cls, arrays, refactor_every: int = 64,
                    factor: str = "auto",
                    sparse_min_rows: int = _SPARSE_MIN_ROWS
                    ) -> "RevisedSimplexEngine":
        """Build an engine from a :class:`~repro.solver.model.SparseArrays`
        export without ever densifying the constraint matrix."""
        self = cls.__new__(cls)
        c = np.asarray(arrays.c, dtype=float)
        n = c.shape[0]
        ub_m, eq_m = arrays.a_ub, arrays.a_eq
        m_ub = ub_m.shape[0]
        m_eq = eq_m.shape[0]
        rows = np.concatenate([
            np.repeat(np.arange(m_ub, dtype=np.int64),
                      np.diff(ub_m.indptr)),
            np.repeat(np.arange(m_eq, dtype=np.int64) + m_ub,
                      np.diff(eq_m.indptr))])
        cols = np.concatenate([ub_m.indices, eq_m.indices]).astype(np.int64)
        vals = np.concatenate([ub_m.data, eq_m.data]).astype(float)
        order = np.lexsort((rows, cols))
        b = np.concatenate([np.asarray(arrays.b_ub, dtype=float),
                            np.asarray(arrays.b_eq, dtype=float)])
        if cols.size and n and cols.max() >= n:
            raise SolverError("sparse arrays column index out of range")
        self._init_core(c, m_ub, m_eq, b, rows[order], cols[order],
                        vals[order], refactor_every, factor, sparse_min_rows)
        return self

    def _init_core(self, c, m_ub, m_eq, b, rows, cols, vals,
                   refactor_every, factor, sparse_min_rows) -> None:
        n = c.shape[0]
        m = m_ub + m_eq
        self.n = n
        self.m = m
        self.refactor_every = max(1, refactor_every)
        # CSC of the structural block of [A | I]; slack columns implicit.
        counts = np.bincount(cols, minlength=n) if cols.size else \
            np.zeros(n, dtype=np.int64)
        self._ap = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self._ap[1:])
        self._ai = np.asarray(rows, dtype=np.int64)
        self._ax = np.asarray(vals, dtype=float)
        self._colids = np.asarray(cols, dtype=np.int64)
        self._nnz = int(self._ax.size)
        self.b = np.asarray(b, dtype=float)
        self.c_full = np.concatenate([c, np.zeros(m)])
        # Slacks: free-ish on <= rows, pinned to zero on equality rows.
        self.slack_lb = np.zeros(m)
        self.slack_ub = np.concatenate(
            [np.full(m_ub, np.inf), np.zeros(m_eq)])
        self._factor_mode = factor
        self._sparse_min_rows = sparse_min_rows
        self._factor = None
        self.counters: dict[str, int] = {
            "pivots": 0, "dual_pivots": 0, "refactorizations": 0,
            "warm_restarts": 0, "warm_hits": 0, "cold_fallbacks": 0,
            "factorizations": 0, "ft_updates": 0, "pricing_candidates": 0,
        }
        #: Worst factor fill ratio observed (nnz(L+U+etas) / nnz(B)).
        self.fill_ratio = 0.0
        # Working state (set up per solve).
        self._basic: np.ndarray | None = None
        self._vstat: np.ndarray | None = None
        self._x: np.ndarray | None = None
        self._lb: np.ndarray | None = None
        self._ub: np.ndarray | None = None
        self._etas = 0
        self._iters = 0
        self._price_cursor = 0
        self._devex = np.ones(n + m)
        self._devex_rows = np.ones(m)
        self._devex_epoch = 0

    # -- public API ----------------------------------------------------------
    def solve(self, lb=None, ub=None, start: BasisState | None = None,
              max_iter: int = 50_000) -> LPResult:
        """Solve under the given bounds; warm-restart from ``start`` if set.

        The warm restart is a dual-simplex reoptimization: branch and bound
        only ever *tightens* bounds, which keeps the inherited basis
        dual-feasible.

        Returns an :class:`~repro.solver.result.LPResult` whose ``basis``
        field carries the terminal :class:`BasisState` (for OPTIMAL
        results), ready to seed a child node's solve.
        """
        n = self.n
        lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=float)
        ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float)
        if np.any(lb > ub + _FEAS_TOL):
            return LPResult(SolveStatus.INFEASIBLE, None, np.inf)
        self._lb = np.concatenate([lb, self.slack_lb])
        self._ub = np.concatenate([ub, self.slack_ub])
        self._price_cursor = 0
        before = dict(self.counters)
        result: LPResult | None = None
        if start is not None:
            self.counters["warm_restarts"] += 1
            result = self._warm_solve(start, max_iter)
            if result is not None:
                self.counters["warm_hits"] += 1
            else:
                self.counters["cold_fallbacks"] += 1
        if result is None:
            result = self._cold_solve(max_iter)
        obs.count("solver.lp.revised.solves")
        for key in ("pivots", "dual_pivots", "refactorizations",
                    "factorizations", "ft_updates"):
            delta = self.counters[key] - before[key]
            if delta:
                obs.count(f"solver.lp.revised.{key}", delta)
        result.stats = {
            "factorizations":
                self.counters["factorizations"] - before["factorizations"],
            "ft_updates": self.counters["ft_updates"] - before["ft_updates"],
            "pricing_candidates": self.counters["pricing_candidates"]
                - before["pricing_candidates"],
            "fill_ratio": self.fill_ratio,
        }
        return result

    # -- solve drivers -------------------------------------------------------
    def _cold_solve(self, max_iter: int) -> LPResult:
        lb, ub = self._lb, self._ub
        n, m = self.n, self.m
        vstat = np.full(n + m, NB_FREE, dtype=np.int8)
        finite_lb = np.isfinite(lb[:n])
        finite_ub = np.isfinite(ub[:n])
        vstat[:n][finite_lb] = NB_LOWER
        vstat[:n][~finite_lb & finite_ub] = NB_UPPER
        vstat[n:] = BASIC
        self._basic = np.arange(n, n + m, dtype=np.int64)
        self._vstat = vstat
        self._factorize_basis()
        self._iters = 0
        self._set_nonbasic_values()
        self._recompute_basics()
        try:
            status = self._primal(phase1=True, max_iter=max_iter)
            if status == "infeasible":
                return LPResult(SolveStatus.INFEASIBLE, None, np.inf,
                                self._iters)
            if status != "feasible":
                raise SolverError("revised simplex phase-1 iteration limit")
            status = self._primal(phase1=False, max_iter=max_iter)
        except _NumericalTrouble as exc:
            raise SolverError(f"revised simplex failed: {exc}") from exc
        if status == "unbounded":
            return LPResult(SolveStatus.UNBOUNDED, None, -np.inf, self._iters)
        if status != "optimal":
            raise SolverError("revised simplex iteration limit reached")
        return self._package()

    def _warm_solve(self, start: BasisState, max_iter: int) -> LPResult | None:
        """Dual-simplex reoptimization from an inherited basis.

        Returns ``None`` when the basis cannot be used (shape mismatch,
        singular factorization, lost dual feasibility, stalled dual phase)
        — the caller then falls back to a cold solve.
        """
        if not self._install_start(start):
            return None
        vstat = self._vstat
        # The inherited basis must still price dual-feasible; bound changes
        # never break this (reduced costs ignore bounds), but guard anyway.
        # A fixed column (lb == ub) is dual-feasible at any reduced cost —
        # it cannot move either way — and branching fixes binaries all the
        # time, so skipping it here is what makes child warm starts land.
        d = self._reduced_costs(self.c_full)
        viol = np.where(vstat == NB_LOWER, -d,
                        np.where(vstat == NB_UPPER, d, 0.0))
        free_mask = vstat == NB_FREE
        if free_mask.any():
            viol[free_mask] = np.abs(d[free_mask])
        viol[~(self._ub - self._lb > _FEAS_TOL)] = 0.0
        if viol.max(initial=0.0) > _WARM_DUAL_TOL:
            return None
        try:
            status = self._dual(max_iter=max_iter)
        except _NumericalTrouble:
            return None
        if status == "infeasible":
            return LPResult(SolveStatus.INFEASIBLE, None, np.inf, self._iters)
        if status != "optimal":
            return None
        return self._package()

    def _install_start(self, start: BasisState) -> bool:
        """Adopt an inherited basis: repair statuses, refactorize, price."""
        n, m = self.n, self.m
        if start.basic.shape[0] != m or start.vstat.shape[0] != n + m:
            return False
        vstat = start.vstat.copy()
        # Repair nonbasic statuses against the *current* bounds: a status
        # can point at a bound that is not finite here (e.g. a basis
        # donated across presolve variants).
        lb, ub = self._lb, self._ub
        nonbasic = vstat != BASIC
        bad_lo = nonbasic & (vstat == NB_LOWER) & ~np.isfinite(lb)
        vstat[bad_lo & np.isfinite(ub)] = NB_UPPER
        vstat[bad_lo & ~np.isfinite(ub)] = NB_FREE
        bad_hi = nonbasic & (vstat == NB_UPPER) & ~np.isfinite(ub)
        vstat[bad_hi & np.isfinite(lb)] = NB_LOWER
        vstat[bad_hi & ~np.isfinite(lb)] = NB_FREE
        self._basic = start.basic.copy()
        self._vstat = vstat
        self._iters = 0
        try:
            self._refactorize()
        except np.linalg.LinAlgError:
            return False
        self._set_nonbasic_values()
        self._recompute_basics()
        return True

    # -- linear algebra ------------------------------------------------------
    def _col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Column ``j`` of ``[A | I]`` as sparse (rows, values)."""
        if j >= self.n:
            return (np.array([j - self.n], dtype=np.int64), np.ones(1))
        s, e = self._ap[j], self._ap[j + 1]
        return self._ai[s:e], self._ax[s:e]

    def _factorize_basis(self) -> None:
        """Fresh factorization of the current basis columns."""
        if self.m == 0:
            return
        if self._factor is None:
            self._factor = make_factor(self.m, self._factor_mode,
                                       self._nnz + self.m,
                                       self._sparse_min_rows)
        self._factor.factorize([self._col(int(j)) for j in self._basic])
        self.counters["factorizations"] += 1
        self.fill_ratio = max(self.fill_ratio, self._factor.fill_ratio)
        self._etas = 0
        self._reset_devex()

    def _refactorize(self) -> None:
        """Rebuild the basis factorization (LU of B; never an inverse)."""
        self.counters["refactorizations"] += 1
        self._factorize_basis()

    def _reset_devex(self) -> None:
        """Reset pricing weights to the reference framework.

        At a fresh factorization every nonbasic column *is* the reference
        framework, where its exact projected-steepest-edge weight is 1 —
        so the periodic "exact recompute" is exactly this reset.
        """
        self._devex.fill(1.0)
        self._devex_rows.fill(1.0)
        self._devex_epoch += 1

    def _ftran(self, v: np.ndarray) -> np.ndarray:
        return self._factor.ftran(v) if self.m else np.zeros(0)

    def _btran(self, v: np.ndarray) -> np.ndarray:
        return self._factor.btran(v) if self.m else np.zeros(0)

    def _ftran_col(self, j: int) -> np.ndarray:
        rows, vals = self._col(j)
        v = np.zeros(self.m)
        v[rows] = vals
        return self._ftran(v)

    def _at_y(self, y: np.ndarray) -> np.ndarray:
        """``A^T y`` over the structural columns, O(nnz)."""
        if not self._nnz:
            return np.zeros(self.n)
        return np.bincount(self._colids, weights=self._ax * y[self._ai],
                           minlength=self.n)

    def _a_times(self, xs: np.ndarray) -> np.ndarray:
        """``A @ xs`` for structural values ``xs``, O(nnz)."""
        if not self._nnz:
            return np.zeros(self.m)
        return np.bincount(self._ai, weights=self._ax * xs[self._colids],
                           minlength=self.m)

    def _basis_update(self, enter: int, leave_row: int,
                      w: np.ndarray) -> None:
        """Advance the factorization after a basis exchange.

        Tries the in-place factor update (Forrest–Tomlin on the sparse
        factor, a PFI eta on the dense one); on refusal — instability or
        fill growth — or on eta-budget exhaustion, refactorizes instead.
        """
        rows, vals = self._col(enter)
        if self._factor.update(leave_row, w, rows, vals):
            self.counters["ft_updates"] += 1
            self.fill_ratio = max(self.fill_ratio, self._factor.fill_ratio)
            self._etas += 1
            if self._etas >= self.refactor_every:
                self._refactorize()
                self._recompute_basics()
        else:
            self._refactorize()
            self._recompute_basics()

    def _set_nonbasic_values(self) -> None:
        x = np.zeros(self.n + self.m)
        vstat, lb, ub = self._vstat, self._lb, self._ub
        at_lo = vstat == NB_LOWER
        at_hi = vstat == NB_UPPER
        x[at_lo] = lb[at_lo]
        x[at_hi] = ub[at_hi]
        self._x = x

    def _recompute_basics(self) -> None:
        """``x_B = B^-1 (b - N x_N)`` from the current nonbasic values."""
        x = self._x
        xn = x.copy()
        xn[self._basic] = 0.0
        if not self.m:
            return
        rhs = self.b - self._a_times(xn[:self.n]) - xn[self.n:]
        x[self._basic] = self._ftran(rhs)

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        if self.m:
            y = self._btran(cost[self._basic])
            d = np.empty(self.n + self.m)
            d[:self.n] = cost[:self.n] - self._at_y(y)
            d[self.n:] = cost[self.n:] - y
        else:
            d = cost.copy()
        d[self._basic] = 0.0
        return d

    # -- pricing -------------------------------------------------------------
    def _d_block(self, cost: np.ndarray, y: np.ndarray, j0: int,
                 j1: int) -> np.ndarray:
        """Reduced costs for the contiguous column block ``[j0, j1)``."""
        n = self.n
        d = np.empty(j1 - j0)
        if j0 < n:
            hi = min(j1, n)
            s, e = self._ap[j0], self._ap[hi]
            seg = np.zeros(hi - j0)
            if e > s:
                seg = np.bincount(self._colids[s:e] - j0,
                                  weights=self._ax[s:e] * y[self._ai[s:e]],
                                  minlength=hi - j0)
            d[:hi - j0] = cost[j0:hi] - seg
        if j1 > n:
            lo = max(j0, n)
            d[lo - j0:] = cost[lo:j1] - y[lo - n:j1 - n]
        return d

    def _price(self, cost: np.ndarray, y: np.ndarray, fixed: np.ndarray,
               full: bool) -> tuple[np.ndarray, np.ndarray]:
        """Collect eligible entering candidates and their reduced costs.

        Partial pricing: scan column sections from a rotating cursor and
        stop once the candidate list is full.  A wrap over the whole
        column space happens before an empty result is returned, so
        "no candidates" always means "priced optimal".  ``full`` forces a
        single whole-space scan (the Bland fallback).
        """
        vstat = self._vstat
        total = self.n + self.m
        if full:
            spans = [(0, total)]
        else:
            spans = []
            pos = self._price_cursor % total if total else 0
            scanned = 0
            while scanned < total:
                hi = min(pos + _PRICE_SECTION, total)
                spans.append((pos, hi))
                scanned += hi - pos
                pos = hi % total
        cands: list[np.ndarray] = []
        dvals: list[np.ndarray] = []
        found = 0
        for j0, j1 in spans:
            d = self._d_block(cost, y, j0, j1)
            vs = vstat[j0:j1]
            elig = (((vs == NB_LOWER) & (d < -_DUAL_TOL))
                    | ((vs == NB_UPPER) & (d > _DUAL_TOL))
                    | ((vs == NB_FREE) & (np.abs(d) > _DUAL_TOL)))
            elig &= ~fixed[j0:j1]
            idx = np.nonzero(elig)[0]
            if idx.size:
                cands.append(idx + j0)
                dvals.append(d[idx])
                found += idx.size
            if not full and found >= _PRICE_TARGET:
                self._price_cursor = j1 % total
                break
        else:
            self._price_cursor = 0
        if not cands:
            return (np.empty(0, dtype=np.int64), np.empty(0))
        cand = np.concatenate(cands)
        self.counters["pricing_candidates"] += int(cand.size)
        return cand, np.concatenate(dvals)

    def _update_devex_primal(self, enter: int, leaving: int, leave_row: int,
                             w: np.ndarray, cand: np.ndarray,
                             epoch: int) -> None:
        """Devex reference-weight update over the priced candidate list.

        ``alpha_j`` (the pivot row) is recovered for the candidates only,
        via a BTRAN of the leaving unit row — the standard projected
        steepest-edge recurrence restricted to the columns partial
        pricing actually looked at.
        """
        if epoch != self._devex_epoch:
            return  # a refactorization reset the reference framework
        alpha_q = w[leave_row]
        if alpha_q == 0.0:
            return
        devex = self._devex
        gq = max(devex[enter], 1.0)
        e = np.zeros(self.m)
        e[leave_row] = 1.0
        rho = self._btran(e)
        n = self.n
        alpha = np.empty(n + self.m)
        alpha[:n] = self._at_y(rho)
        alpha[n:] = rho
        inv_aq2 = 1.0 / (alpha_q * alpha_q)
        aj = alpha[cand]
        devex[cand] = np.maximum(devex[cand], (aj * aj) * (inv_aq2 * gq))
        devex[leaving] = max(gq * inv_aq2, 1.0)

    # -- primal simplex (phases 1 and 2) -------------------------------------
    def _primal(self, phase1: bool, max_iter: int) -> str:
        """Run bounded-variable primal iterations.

        Phase 1 minimizes total bound infeasibility of the basic variables
        (composite objective re-priced every iteration); phase 2 assumes a
        feasible basis and minimizes the true cost.  Returns ``"optimal"``
        (phase-2) / ``"feasible"`` (phase-1 done), ``"infeasible"``,
        ``"unbounded"`` or ``"iteration_limit"``.
        """
        lb, ub = self._lb, self._ub
        basic, vstat = self._basic, self._vstat
        fixed = ~(ub - lb > _FEAS_TOL)
        stall_after = max(200, 20 * (self.m + self.n))
        local_iters = 0
        while self._iters < max_iter:
            x = self._x
            xb = x[basic]
            lbB, ubB = lb[basic], ub[basic]
            below = xb < lbB - _FEAS_TOL
            above = xb > ubB + _FEAS_TOL
            if phase1:
                if not (below.any() or above.any()):
                    return "feasible"
                cost = np.zeros(self.n + self.m)
                cost[basic[below]] = -1.0
                cost[basic[above]] = 1.0
            else:
                cost = self.c_full
            y = self._btran(cost[basic]) if self.m else np.zeros(0)
            bland = local_iters > stall_after
            cand, d_cand = self._price(cost, y, fixed, full=bland)
            if cand.size == 0:
                if phase1:
                    total = (np.maximum(lbB - xb, 0.0).sum()
                             + np.maximum(xb - ubB, 0.0).sum())
                    return "infeasible" if total > 1e-6 else "feasible"
                return "optimal"
            if not bland:
                scores = d_cand * d_cand / self._devex[cand]
                pick = int(np.argmax(scores))
            else:
                pick = 0  # Bland: lowest index, no cycling
            enter = int(cand[pick])
            d_enter = float(d_cand[pick])
            direction = 1.0 if (vstat[enter] == NB_LOWER
                                or (vstat[enter] == NB_FREE
                                    and d_enter < 0.0)) else -1.0

            w = self._ftran_col(enter)
            rate = -direction * w  # d x_B / d t
            # Blocking targets per basic row.  Infeasible rows block only
            # at the bound they are moving back *into* (composite phase 1).
            target_lo = np.where(above, ubB, np.where(below, -np.inf, lbB))
            target_hi = np.where(below, lbB, np.where(above, np.inf, ubB))
            with np.errstate(divide="ignore", invalid="ignore"):
                t_lo = np.where(rate < -_PIVOT_TOL,
                                (xb - target_lo) / -rate, np.inf)
                t_hi = np.where(rate > _PIVOT_TOL,
                                (target_hi - xb) / rate, np.inf)
            t_rows = np.minimum(
                np.nan_to_num(t_lo, nan=np.inf, posinf=np.inf),
                np.nan_to_num(t_hi, nan=np.inf, posinf=np.inf))
            t_rows = np.maximum(t_rows, 0.0)  # degenerate steps stay at 0
            t_block = t_rows.min() if t_rows.size else np.inf
            t_own = ub[enter] - lb[enter] if vstat[enter] != NB_FREE \
                else np.inf

            self._iters += 1
            local_iters += 1
            step = min(t_block, t_own)
            if not np.isfinite(step):
                if phase1:
                    raise _NumericalTrouble("phase-1 unbounded descent")
                return "unbounded"
            if t_own <= t_block:
                # Bound flip: the entering variable crosses to its other
                # bound; the basis is unchanged.
                x[basic] = xb - step * direction * w
                if vstat[enter] == NB_LOWER:
                    vstat[enter] = NB_UPPER
                    x[enter] = ub[enter]
                else:
                    vstat[enter] = NB_LOWER
                    x[enter] = lb[enter]
                continue
            leave_row = self._pick_leave_row(t_rows, t_block, local_iters,
                                             stall_after)
            if abs(w[leave_row]) <= _PIVOT_TOL:
                self._handle_tiny_pivot()
                continue
            leaving = int(basic[leave_row])
            epoch = self._devex_epoch
            self._pivot(enter, leave_row, w, xb - step * direction * w,
                        x[enter] + step * direction)
            self.counters["pivots"] += 1
            if not bland:
                self._update_devex_primal(enter, leaving, leave_row, w,
                                          cand, epoch)
        return "iteration_limit"

    def _pick_leave_row(self, t_rows: np.ndarray, t_block: float,
                        local_iters: int, stall_after: int) -> int:
        ties = np.nonzero(t_rows <= t_block + 1e-12)[0]
        if local_iters <= stall_after:
            # Stability: among the blocking rows, pivot on the largest
            # eligible magnitude later; here prefer the first minimal.
            return int(ties[np.argmin(t_rows[ties])])
        return int(ties[np.argmin(self._basic[ties])])  # Bland

    def _pivot(self, enter: int, leave_row: int, w: np.ndarray,
               new_xb: np.ndarray, enter_value: float) -> None:
        basic, vstat, x = self._basic, self._vstat, self._x
        lb, ub = self._lb, self._ub
        leaving = int(basic[leave_row])
        x[basic] = new_xb
        # Snap the leaving variable to its nearest finite bound.
        v = x[leaving]
        lo, hi = lb[leaving], ub[leaving]
        if np.isfinite(lo) and (not np.isfinite(hi)
                                or abs(v - lo) <= abs(v - hi)):
            vstat[leaving] = NB_LOWER
            x[leaving] = lo
        elif np.isfinite(hi):
            vstat[leaving] = NB_UPPER
            x[leaving] = hi
        else:  # pragma: no cover - free rows never win the ratio test
            raise _NumericalTrouble("free variable left the basis")
        basic[leave_row] = enter
        vstat[enter] = BASIC
        x[enter] = enter_value
        self._basis_update(enter, leave_row, w)

    def _handle_tiny_pivot(self) -> None:
        """A blocking row priced with a ~zero pivot: refresh and retry."""
        if self._etas == 0:
            raise _NumericalTrouble("tiny pivot on a fresh factorization")
        self._refactorize()
        self._recompute_basics()

    # -- dual simplex --------------------------------------------------------
    def _dual(self, max_iter: int) -> str:
        """Restore primal feasibility while keeping dual feasibility.

        Assumes the current basis prices dual-feasible (the warm-restart
        precondition).  The leaving row maximizes ``viol^2 / w`` under the
        dual Devex row weights.  Returns ``"optimal"``, ``"infeasible"``
        (primal — the dual ray proves it) or ``"iteration_limit"``.
        """
        lb, ub = self._lb, self._ub
        basic, vstat = self._basic, self._vstat
        fixed = ~(ub - lb > _FEAS_TOL)
        while self._iters < max_iter:
            x = self._x
            xb = x[basic]
            lbB, ubB = lb[basic], ub[basic]
            viol = np.maximum(lbB - xb, xb - ubB)
            if not viol.size or viol.max() <= _FEAS_TOL:
                return "optimal"
            scores = np.where(viol > _FEAS_TOL,
                              viol * viol / self._devex_rows, -np.inf)
            r = int(np.argmax(scores))
            leaving_low = xb[r] < lbB[r]

            e = np.zeros(self.m)
            e[r] = 1.0
            rho = self._btran(e)
            alpha = np.empty(self.n + self.m)
            alpha[:self.n] = self._at_y(rho)
            alpha[self.n:] = rho
            alpha[basic] = 0.0
            d = self._reduced_costs(self.c_full)
            if leaving_low:
                elig = (((vstat == NB_LOWER) & (alpha < -_PIVOT_TOL))
                        | ((vstat == NB_UPPER) & (alpha > _PIVOT_TOL))
                        | ((vstat == NB_FREE)
                           & (np.abs(alpha) > _PIVOT_TOL)))
            else:
                elig = (((vstat == NB_LOWER) & (alpha > _PIVOT_TOL))
                        | ((vstat == NB_UPPER) & (alpha < -_PIVOT_TOL))
                        | ((vstat == NB_FREE)
                           & (np.abs(alpha) > _PIVOT_TOL)))
            elig &= ~fixed
            cand = np.nonzero(elig)[0]
            if cand.size == 0:
                return "infeasible"
            # Dual ratio test: the entering column minimizing |d_j/alpha_j|
            # keeps every reduced cost on its feasible side.
            scores = np.abs(d[cand]) / np.abs(alpha[cand])
            best = scores.min()
            near = cand[scores <= best + _DUAL_TOL]
            enter = int(near[np.argmax(np.abs(alpha[near]))])

            w = self._ftran_col(enter)
            if abs(w[r]) <= _PIVOT_TOL:
                self._handle_tiny_pivot()
                continue
            target = lbB[r] if leaving_low else ubB[r]
            delta = (xb[r] - target) / w[r]
            self._iters += 1
            epoch = self._devex_epoch
            wr = float(w[r])
            self._pivot(enter, r, w, xb - delta * w, x[enter] + delta)
            self.counters["dual_pivots"] += 1
            if epoch == self._devex_epoch:
                # Dual Devex row-weight recurrence (approximate, reset to
                # the reference framework at each refactorization).
                dw = self._devex_rows
                ratio = w / wr
                np.maximum(dw, ratio * ratio * dw[r], out=dw)
                dw[r] = max(dw[r] / (wr * wr), 1.0)
        return "iteration_limit"

    # -- result packaging ----------------------------------------------------
    def _package(self) -> LPResult:
        n = self.n
        x = self._x[:n].copy()
        obj = float(self.c_full[:n] @ x)
        basis = BasisState(self._basic.copy(), self._vstat.copy())
        # Simplex multipliers for the caller's rows ([ub; eq] order, the
        # construction order of the CSC) and structural reduced costs.  A
        # nonbasic slack of a binding <= row sits at its lower bound, so
        # its reduced cost -y_i is >= 0, i.e. y_ub <= 0 at optimality —
        # the same sign convention HiGHS reports for marginals.
        if self.m:
            y = self._btran(self.c_full[self._basic])
            d = self.c_full[:n] - self._at_y(y)
        else:
            y = np.zeros(0)
            d = self.c_full[:n].copy()
        d[self._vstat[:n] == BASIC] = 0.0
        return LPResult(SolveStatus.OPTIMAL, x, obj, self._iters,
                        basis=basis, duals=y, reduced_costs=d)


def solve_lp_revised(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                     lb=None, ub=None, max_iter: int = 50_000) -> LPResult:
    """One-shot functional interface mirroring :func:`repro.solver.simplex.solve_lp`.

    Builds a throwaway :class:`RevisedSimplexEngine` and cold-solves.  Use
    the engine directly (as branch and bound does) to amortize matrix
    setup and warm-restart across related solves.
    """
    with obs.span("solver.lp"):
        engine = RevisedSimplexEngine(c, a_ub, b_ub, a_eq, b_eq)
        result = engine.solve(lb, ub, max_iter=max_iter)
    obs.count("solver.lp.solves")
    return result


__all__ = ["BASIC", "BasisState", "NB_FREE", "NB_LOWER", "NB_UPPER",
           "RevisedSimplexEngine", "solve_lp_revised"]
