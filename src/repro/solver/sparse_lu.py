"""Basis factorizations for the revised simplex: sparse LU and dense LU.

The revised simplex engine never materializes ``B^-1``.  Every iteration
consumes the basis through two triangular-solve primitives on a *factor*
object:

* ``ftran(v)``  — solve ``B x = v``   (entering column, basic values),
* ``btran(v)``  — solve ``B^T y = v`` (duals, dual-simplex pivot row),

plus an in-place ``update`` applied after each basis exchange, and a full
``factorize`` when the update budget is exhausted or numerics degrade.

Two implementations share that contract:

:class:`SparseBasisFactor`
    A right-looking sparse LU with **Markowitz threshold pivoting**
    (pivots chosen to minimize ``(r_i - 1)(c_j - 1)`` fill among entries
    passing a relative-magnitude threshold; column/row singletons — the
    vast majority on slack-heavy scheduler bases — eliminate with zero
    arithmetic).  ``L`` is kept as a product of column elimination
    operators, ``U`` in *both* row-wise and column-wise adjacency so that
    FTRAN sweeps columns and BTRAN sweeps rows.  The triangular solves
    iterate only *active* pivot positions (off-diagonal entries or a
    non-unit diagonal); trivial positions — most of them, on scheduler
    bases — are gathered in one vectorized move.  The active lists are
    maintained *incrementally* across updates (entries reference the live
    adjacency objects and are re-ordered by a monotone pivot sequence
    number), so an update costs work proportional to what it touched,
    never O(m).

    Basis exchanges apply genuine **Forrest–Tomlin updates**: the spike
    ``s = L̄^-1 a_q`` replaces the leaving column of ``U``, a row eta
    ``R = I - e_p r^T`` (with ``U'^T r = u_p'``) annihilates the leaving
    row, and the permuted pair moves to the last pivot position.  Each
    update monitors spike growth and the new diagonal; instability or
    excessive fill reports ``False`` and the engine refactorizes —
    correctness never depends on the update succeeding.

:class:`DenseBasisFactor`
    LAPACK LU factor-solve (``scipy.linalg.lu_factor`` / ``lu_solve``,
    i.e. ``getrf``/``getrs``) with a product-form (PFI) eta file between
    refactorizations.  This replaces the old explicit
    ``np.linalg.inv(B)`` path: same O(m^3) factorization cost but one
    triangular pair instead of a full inverse, and markedly better
    conditioning on the near-degenerate bases branch-and-bound produces.
    When scipy is unavailable the factorization falls back to a one-off
    ``np.linalg.inv`` per refactorization (never per solve).

Both factors raise :class:`SingularBasisError` (a
``numpy.linalg.LinAlgError`` subclass, so existing cold-fallback paths
keep working) from ``factorize`` when the basis is numerically singular
— e.g. a stale inherited basis with duplicated columns.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left

import numpy as np

try:  # pragma: no cover - exercised implicitly everywhere scipy exists
    from scipy.linalg import lu_factor as _sp_lu_factor
    from scipy.linalg import lu_solve as _sp_lu_solve
except Exception:  # pragma: no cover - container image ships scipy
    _sp_lu_factor = None
    _sp_lu_solve = None

#: Entries smaller than this are dropped from the sparse factors.
_DROP_TOL = 1e-13
#: Absolute floor under which a pivot candidate is treated as zero.
_ABS_PIVOT_TOL = 1e-11
#: Forrest–Tomlin acceptance: |new diagonal| must exceed this fraction of
#: the spike's largest magnitude, else the update is refused.
_FT_STABILITY_TOL = 1e-7
#: Markowitz threshold: a pivot must reach this fraction of its column max.
_MARKOWITZ_TOL = 0.1
#: Columns examined per pivot before settling for the best seen so far.
_PIVOT_CANDIDATES = 8
#: An update whose fill pushes nnz(factor) past this multiple of the
#: fresh-factorization nnz forces a refactorization instead.
_FILL_REFACTOR_RATIO = 8.0


class SingularBasisError(np.linalg.LinAlgError):
    """The basis matrix is (numerically) singular; refactorization failed."""


class DenseBasisFactor:
    """LAPACK LU factor-solve with a product-form eta file.

    The factorization is ``P B0 = L U`` via ``getrf``; between
    refactorizations each basis exchange appends a PFI eta
    ``E = I - (w - e_r) e_r^T / w_r`` so that
    ``B_k^-1 = E_k ... E_1 B0^-1``.  FTRAN applies the base solve then
    the etas in order; BTRAN applies the transposed etas in reverse then
    the transposed base solve.
    """

    kind = "dense"

    def __init__(self, m: int) -> None:
        self.m = m
        self._lu = None          # (lu, piv) from scipy
        self._inv = None         # np fallback when scipy is absent
        self._etas: list[tuple[int, np.ndarray]] = []
        self.nnz_factor = 0
        self.fill_ratio = 1.0
        self.updates = 0

    def factorize(self, cols) -> None:
        m = self.m
        basis = np.zeros((m, m))
        nnz_in = 0
        for slot, (rows, vals) in enumerate(cols):
            basis[rows, slot] = vals
            nnz_in += len(rows)
        self._etas = []
        self.updates = 0
        if _sp_lu_factor is not None:
            with warnings.catch_warnings():
                # A singular basis raises SingularBasisError below; the
                # LinAlgWarning getrf emits first is just noise.
                warnings.simplefilter("ignore")
                lu, piv = _sp_lu_factor(basis, check_finite=False)
            diag = np.abs(np.diag(lu))
            scale = max(float(np.abs(basis).max(initial=0.0)), 1.0)
            if m and float(diag.min()) <= 1e-12 * scale:
                raise SingularBasisError("singular basis (zero U diagonal)")
            self._lu = (lu, piv)
            self._inv = None
        else:
            try:
                self._inv = np.linalg.inv(basis)
            except np.linalg.LinAlgError as exc:
                raise SingularBasisError(str(exc)) from exc
            self._lu = None
        self.nnz_factor = m * m
        self.fill_ratio = float(m * m) / max(1, nnz_in)

    def ftran(self, v: np.ndarray) -> np.ndarray:
        if self._lu is not None:
            x = _sp_lu_solve(self._lu, v, check_finite=False)
        else:
            x = self._inv @ v
        for r, u in self._etas:
            t = x[r]
            if t != 0.0:
                x -= u * t
        return x

    def btran(self, v: np.ndarray) -> np.ndarray:
        y = np.array(v, dtype=float, copy=True)
        for r, u in reversed(self._etas):
            y[r] -= u @ y
        if self._lu is not None:
            return _sp_lu_solve(self._lu, y, trans=1, check_finite=False)
        return self._inv.T @ y

    def update(self, leave_slot: int, w: np.ndarray,
               col_rows: np.ndarray, col_vals: np.ndarray) -> bool:
        """Append a PFI eta for replacing basis slot ``leave_slot`` by the
        column whose FTRAN is ``w``.  Always succeeds (the engine rejects
        tiny pivots before getting here)."""
        u = np.array(w, dtype=float, copy=True)
        u[leave_slot] -= 1.0
        u /= w[leave_slot]
        self._etas.append((leave_slot, u))
        self.updates += 1
        return True


class _UAdj:
    """Mutable adjacency for one row or column of ``U``.

    Labels + values as parallel lists, with the numpy-array view cached
    between mutations — the triangular solves hit ``arrays()`` on every
    active position, the update path mutates a handful of adjacencies.
    """

    __slots__ = ("idx", "val", "_arr")

    def __init__(self) -> None:
        self.idx: list[int] = []
        self.val: list[float] = []
        self._arr: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.idx)

    def add(self, label: int, value: float) -> None:
        self.idx.append(label)
        self.val.append(value)
        self._arr = None

    def remove(self, label: int) -> None:
        try:
            k = self.idx.index(label)
        except ValueError:
            return
        self.idx.pop(k)
        self.val.pop(k)
        self._arr = None

    def clear(self) -> None:
        self.idx.clear()
        self.val.clear()
        self._arr = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        arr = self._arr
        if arr is None:
            arr = (np.asarray(self.idx, dtype=np.int64),
                   np.asarray(self.val, dtype=float))
            self._arr = arr
        return arr


def _plan_pop(plan: list, seq: int) -> bool:
    """Remove the entry with pivot-sequence ``seq`` from a sorted plan."""
    i = bisect_left(plan, seq, key=lambda e: e[0])
    if i < len(plan) and plan[i][0] == seq:
        del plan[i]
        return True
    return False


class SparseBasisFactor:
    """Markowitz-pivoted sparse LU with Forrest–Tomlin updates.

    Labels: *rows* are constraint-row indices of the basis matrix, *cols*
    are basis-slot indices (the position in the engine's ``basic`` array).
    ``ftran`` returns slot-indexed solutions, ``btran`` row-indexed duals
    — exactly the spaces the simplex iterations live in.

    Internal representation after ``factorize``/``update``:

    * ``_lops``   — column elimination operators of ``L^-1`` in pivot
      order: ``(pivot_row, rows, multipliers)`` meaning
      ``w[rows] -= multipliers * w[pivot_row]``.
    * ``_etas``   — Forrest–Tomlin row etas ``R = I - e_p r^T`` appended
      by updates, applied after the L ops in FTRAN.
    * ``_urow[r]`` / ``_ucol[c]`` — off-diagonal entries of ``U`` in both
      orientations; ``_diag[c]`` the diagonal, ``_order`` the pivot
      sequence as (row, col) pairs.
    * ``_fplan`` / ``_bplan`` — the active positions for the U solves, in
      pivot order, as ``(seq, row, col, adjacency)`` referencing the live
      ``_UAdj`` objects; trivial positions sit in the ``_ftriv``/
      ``_btriv`` index arrays and are solved in one vectorized gather.
    """

    kind = "sparse"

    def __init__(self, m: int, markowitz_tol: float = _MARKOWITZ_TOL,
                 ft_tol: float = _FT_STABILITY_TOL) -> None:
        self.m = m
        self.markowitz_tol = markowitz_tol
        self.ft_tol = ft_tol
        self._lops: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._etas: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._urow: list[_UAdj] = []
        self._ucol: list[_UAdj] = []
        self._diag = np.ones(m)
        self._order: list[tuple[int, int]] = []
        self._base_nnz = 1
        self.nnz_factor = 0
        self.fill_ratio = 1.0
        self.updates = 0
        self.spike_growth = 0.0

    # -- factorization -----------------------------------------------------
    def factorize(self, cols) -> None:
        m = self.m
        coldata = []
        nnz_in = 0
        for rows, vals in cols:
            d = dict(zip(rows.tolist(), vals.tolist()))
            nnz_in += len(d)
            coldata.append(d)
        rowpat: list[set[int]] = [set() for _ in range(m)]
        for j, d in enumerate(coldata):
            for i in d:
                rowpat[i].add(j)
        # Column-length buckets for cheap smallest-count-first scanning.
        buckets: list[set[int]] = [set() for _ in range(m + 1)]
        for j, d in enumerate(coldata):
            buckets[len(d)].add(j)

        lops: list[tuple[int, np.ndarray, np.ndarray]] = []
        order: list[tuple[int, int]] = []
        urow = [_UAdj() for _ in range(m)]
        ucol = [_UAdj() for _ in range(m)]
        diag = np.ones(m)
        tol = self.markowitz_tol

        def rebucket(j: int, old_len: int) -> None:
            buckets[old_len].discard(j)
            buckets[len(coldata[j])].add(j)

        for _ in range(m):
            # Pivot selection: scan shortest columns first, keep the entry
            # with the smallest Markowitz cost among magnitude-acceptable
            # candidates (ties: smaller column, then larger magnitude).
            best = None  # (cost, col_len, -|val|, row, col)
            examined = 0
            for length in range(1, m + 1):
                bucket = buckets[length]
                if not bucket:
                    continue
                if best is not None and best[0] <= (length - 1) ** 2 // 4:
                    break
                for j in sorted(bucket):
                    d = coldata[j]
                    colmax = max(abs(v) for v in d.values())
                    if colmax <= _ABS_PIVOT_TOL:
                        continue
                    for i, v in d.items():
                        if abs(v) < tol * colmax:
                            continue
                        cost = (len(rowpat[i]) - 1) * (length - 1)
                        key = (cost, length, -abs(v))
                        if best is None or key < best[:3]:
                            best = (cost, length, -abs(v), i, j)
                    examined += 1
                    if examined >= _PIVOT_CANDIDATES and best is not None:
                        break
                if examined >= _PIVOT_CANDIDATES and best is not None:
                    break
                if best is not None and best[0] == 0:
                    break
            if best is None:
                raise SingularBasisError("sparse LU: no acceptable pivot")
            prow, pcol = best[3], best[4]
            pdict = coldata[pcol]
            pval = pdict[prow]

            # Retire the pivot column.
            buckets[len(pdict)].discard(pcol)
            for i in pdict:
                rowpat[i].discard(pcol)
            lrows = [i for i in pdict if i != prow]
            if lrows:
                mults = np.array([pdict[i] / pval for i in lrows])
                lrows_arr = np.array(lrows, dtype=np.int64)
                lops.append((prow, lrows_arr, mults))
            order.append((prow, pcol))
            diag[pcol] = pval

            # Eliminate the pivot row from every remaining active column:
            # the popped entries *are* row ``prow`` of U, and the rank-1
            # update with the L multipliers generates the fill.
            touched = [k for k in rowpat[prow]]
            rowpat[prow].clear()
            for k in touched:
                dk = coldata[k]
                old_len = len(dk)
                uval = dk.pop(prow)
                urow[prow].add(k, uval)
                ucol[k].add(prow, uval)
                if lrows:
                    for i, mi in zip(lrows, mults):
                        newv = dk.get(i)
                        if newv is None:
                            f = -mi * uval
                            if abs(f) > _DROP_TOL:
                                dk[i] = f
                                rowpat[i].add(k)
                        else:
                            newv -= mi * uval
                            if abs(newv) <= _DROP_TOL:
                                del dk[i]
                                rowpat[i].discard(k)
                            else:
                                dk[i] = newv
                if len(dk) != old_len:
                    rebucket(k, old_len)

        self._lops = lops
        self._etas = []
        self._urow = urow
        self._ucol = ucol
        self._diag = diag
        self._order = order
        self._base_nnz = max(1, nnz_in)
        self.updates = 0
        self.spike_growth = 0.0
        self.nnz_factor = (m + sum(len(a) for a in urow)
                           + sum(len(r) for _, r, _ in lops))
        self.fill_ratio = float(self.nnz_factor) / self._base_nnz
        self._build_solve_plan()

    def _build_solve_plan(self) -> None:
        """Split pivot positions into active (Python sweep) and trivial
        (one vectorized gather) for each solve direction."""
        diag = self._diag
        self._col_row = {cl: rl for rl, cl in self._order}
        self._row_col = {rl: cl for rl, cl in self._order}
        self._seq_of = {cl: p for p, (_, cl) in enumerate(self._order)}
        self._next_seq = self.m
        fplan, bplan = [], []
        fset, bset = set(), set()
        ftriv_r, ftriv_c, btriv_r, btriv_c = [], [], [], []
        for p, (rl, cl) in enumerate(self._order):
            unit = diag[cl] == 1.0
            if self._ucol[cl].idx or not unit:
                fplan.append((p, rl, cl, self._ucol[cl]))
                fset.add(cl)
            else:
                ftriv_r.append(rl)
                ftriv_c.append(cl)
            if self._urow[rl].idx or not unit:
                bplan.append((p, rl, cl, self._urow[rl]))
                bset.add(rl)
            else:
                btriv_r.append(rl)
                btriv_c.append(cl)
        self._fplan, self._bplan = fplan, bplan
        self._fset, self._bset = fset, bset
        self._ftriv_r = np.array(ftriv_r, dtype=np.int64)
        self._ftriv_c = np.array(ftriv_c, dtype=np.int64)
        self._btriv_r = np.array(btriv_r, dtype=np.int64)
        self._btriv_c = np.array(btriv_c, dtype=np.int64)

    def _activate_b(self, rl: int) -> None:
        """Promote row ``rl``'s pivot position into the BTRAN sweep."""
        if rl in self._bset:
            return
        cl = self._row_col[rl]
        seq = self._seq_of[cl]
        entry = (seq, rl, cl, self._urow[rl])
        self._bplan.insert(
            bisect_left(self._bplan, seq, key=lambda e: e[0]), entry)
        self._bset.add(rl)
        keep = self._btriv_r != rl
        self._btriv_r = self._btriv_r[keep]
        self._btriv_c = self._btriv_c[keep]

    # -- solves ------------------------------------------------------------
    def _apply_l(self, w: np.ndarray) -> np.ndarray:
        """Apply ``R_k ... R_1 L^-1`` in place (the FTRAN prefix)."""
        for pr, rows, mults in self._lops:
            t = w[pr]
            if t != 0.0:
                w[rows] -= mults * t
        for pr, rows, vals in self._etas:
            w[pr] -= vals @ w[rows]
        return w

    def ftran(self, v: np.ndarray) -> np.ndarray:
        w = self._apply_l(np.array(v, dtype=float, copy=True))
        diag = self._diag
        x = np.empty(self.m)
        for _, rl, cl, adj in reversed(self._fplan):
            t = w[rl]
            if t != 0.0:
                t /= diag[cl]
                rows, vals = adj.arrays()
                if rows.size:
                    w[rows] -= vals * t
            x[cl] = t
        x[self._ftriv_c] = w[self._ftriv_r]
        return x

    def btran(self, v: np.ndarray) -> np.ndarray:
        diag = self._diag
        w = np.array(v, dtype=float, copy=True)
        y = np.empty(self.m)
        for _, rl, cl, adj in self._bplan:
            t = w[cl]
            if t != 0.0:
                t /= diag[cl]
                cols, vals = adj.arrays()
                if cols.size:
                    w[cols] -= vals * t
            y[rl] = t
        y[self._btriv_r] = w[self._btriv_c]
        for pr, rows, vals in reversed(self._etas):
            t = y[pr]
            if t != 0.0:
                y[rows] -= vals * t
        for pr, rows, mults in reversed(self._lops):
            y[pr] -= mults @ y[rows]
        return y

    # -- Forrest–Tomlin update --------------------------------------------
    def update(self, leave_slot: int, w: np.ndarray,
               col_rows: np.ndarray, col_vals: np.ndarray) -> bool:
        """Replace basis slot ``leave_slot`` by the column
        ``(col_rows, col_vals)``.  Returns ``False`` (leaving the factor
        untouched) when the new diagonal is unstable or fill has grown
        past the refactorization threshold — the engine then refactorizes.
        """
        m = self.m
        pos = None
        for p, (rl, cl) in enumerate(self._order):
            if cl == leave_slot:
                pos = p
                prow = rl
                break
        if pos is None:  # pragma: no cover - defensive
            return False

        # Spike: the entering column pushed through L̄^-1 (L ops + etas).
        s = np.zeros(m)
        s[col_rows] = col_vals
        self._apply_l(s)
        smax = float(np.abs(s).max(initial=0.0))

        # Row eta r solving U'^T r = u_p' over positions beyond ``pos``.
        r_rows: list[int] = []
        r_vals: list[float] = []
        u_p = self._urow[prow]
        if u_p.idx:
            work = np.zeros(m)
            cols0, vals0 = u_p.arrays()
            work[cols0] = vals0
            for rl2, cl2 in self._order[pos + 1:]:
                t2 = work[cl2]
                if t2 != 0.0:
                    t2 /= self._diag[cl2]
                    ur2 = self._urow[rl2]
                    if ur2.idx:
                        cols2, vals2 = ur2.arrays()
                        work[cols2] -= vals2 * t2
                    r_rows.append(rl2)
                    r_vals.append(t2)

        new_diag = s[prow]
        if r_rows:
            new_diag -= float(np.dot(r_vals, s[r_rows]))
        if abs(new_diag) <= self.ft_tol * max(smax, 1.0):
            return False
        spike_rows = np.nonzero(np.abs(s) > _DROP_TOL)[0]
        if self.nnz_factor + spike_rows.size \
                > _FILL_REFACTOR_RATIO * self._base_nnz + 4 * m:
            return False

        # Commit: drop the old column and the old row, splice in the spike
        # as the last pivot position, and record the row eta.  The solve
        # plans reference the adjacency objects, so mutations are applied
        # in place and only the moved pair changes plan membership.
        nnz_delta = 0
        old_col = self._ucol[leave_slot]
        for i in old_col.idx:
            self._urow[i].remove(leave_slot)
        nnz_delta -= len(old_col)
        old_col.clear()
        old_row = self._urow[prow]
        for cl in old_row.idx:
            self._ucol[cl].remove(prow)
        nnz_delta -= len(old_row)
        old_row.clear()

        for i in spike_rows:
            i = int(i)
            if i == prow:
                continue
            sv = float(s[i])
            old_col.add(i, sv)
            self._urow[i].add(leave_slot, sv)
            self._activate_b(i)
            nnz_delta += 1
        self._diag[leave_slot] = new_diag

        # Move the (prow, leave_slot) pair to the last pivot position.
        seq = self._seq_of[leave_slot]
        if not _plan_pop(self._fplan, seq):
            keep = self._ftriv_c != leave_slot
            self._ftriv_r = self._ftriv_r[keep]
            self._ftriv_c = self._ftriv_c[keep]
        else:
            self._fset.discard(leave_slot)
        if _plan_pop(self._bplan, seq):
            self._bset.discard(prow)
        else:
            keep = self._btriv_r != prow
            self._btriv_r = self._btriv_r[keep]
            self._btriv_c = self._btriv_c[keep]
        new_seq = self._next_seq
        self._next_seq += 1
        self._seq_of[leave_slot] = new_seq
        self._fplan.append((new_seq, prow, leave_slot, old_col))
        self._fset.add(leave_slot)
        self._bplan.append((new_seq, prow, leave_slot, self._urow[prow]))
        self._bset.add(prow)
        del self._order[pos]
        self._order.append((prow, leave_slot))

        if r_rows:
            self._etas.append((prow, np.array(r_rows, dtype=np.int64),
                               np.array(r_vals)))
            nnz_delta += len(r_rows)
        self.updates += 1
        self.spike_growth = max(self.spike_growth, smax)
        self.nnz_factor += nnz_delta
        self.fill_ratio = max(self.fill_ratio,
                              float(self.nnz_factor) / self._base_nnz)
        return True


def make_factor(m: int, mode: str, nnz: int,
                sparse_min_rows: int) -> "SparseBasisFactor | DenseBasisFactor":
    """Pick a factorization backend for an ``m``-row basis.

    ``mode`` is ``"dense"``, ``"sparse"`` or ``"auto"``; auto uses the
    sparse factor once the basis is large enough that O(m^3)
    refactorizations dominate (``sparse_min_rows``) *and* the matrix is
    actually sparse, so tiny or dense component LPs keep the BLAS path.
    """
    if mode == "sparse":
        return SparseBasisFactor(m)
    if mode == "dense":
        return DenseBasisFactor(m)
    density = nnz / max(1, m * m)
    if m >= sparse_min_rows and density < 0.5:
        return SparseBasisFactor(m)
    return DenseBasisFactor(m)


__all__ = ["DenseBasisFactor", "SingularBasisError", "SparseBasisFactor",
           "make_factor"]
