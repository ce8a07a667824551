"""Tests for the sparse LU / Forrest–Tomlin basis factorization.

Four families:

* unit tests on the factor objects themselves — FTRAN/BTRAN against a
  dense reference across chains of Forrest–Tomlin (resp. product-form)
  updates, singularity detection, fill accounting, mode selection;
* differential property tests: the sparse-LU engine must reproduce the
  dense-LU engine's terminal objective *and* terminal basis on random
  bounded-variable LPs, including degenerate/duplicate-column instances
  built to stall pricing and force the Bland anti-cycling fallback;
* pricing tests: Devex reference weights are reset ("exact recompute")
  at every refactorization, so forcing a refactorization every pivot
  must not change the terminal result;
* warm-restart regression: a stale or singular inherited basis must
  fall back to a cold factorization, never crash or mis-solve.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.solver import BranchBoundOptions, BranchBoundSolver, SolveStatus
from repro.solver.revised_simplex import BasisState, RevisedSimplexEngine
from repro.solver.sparse_lu import (DenseBasisFactor, SingularBasisError,
                                    SparseBasisFactor, make_factor)
from tests.strategies import degenerate_lps, lp_problems, mixed_bound_lps

ALL_FACTORS = (SparseBasisFactor, DenseBasisFactor)


def _random_basis(rng, m, max_col_nnz=4):
    """A random sparse well-conditioned basis as (dense, column list).

    A unit diagonal plus a few off-diagonal entries per column keeps the
    matrix nonsingular at any size (raw sparse random matrices are
    singular more often than not as ``m`` grows).
    """
    while True:
        basis = np.eye(m)
        for j in range(m):
            k = rng.integers(0, min(m, max_col_nnz))
            rows = rng.choice(m, size=k, replace=False)
            basis[rows, j] += rng.normal(size=k)
        if np.linalg.cond(basis) < 1e6:
            cols = [(np.nonzero(basis[:, j])[0],
                     basis[np.nonzero(basis[:, j])[0], j])
                    for j in range(m)]
            return basis, cols


def _cols_of(basis):
    return [(np.nonzero(basis[:, j])[0],
             basis[np.nonzero(basis[:, j])[0], j])
            for j in range(basis.shape[1])]


class TestFactorSolves:
    @pytest.mark.parametrize("factor_cls", ALL_FACTORS)
    def test_ftran_btran_match_dense_reference(self, factor_cls):
        rng = np.random.default_rng(3)
        for m in (1, 2, 5, 17, 40):
            basis, cols = _random_basis(rng, m)
            f = factor_cls(m)
            f.factorize(cols)
            for _ in range(3):
                v = rng.normal(size=m)
                np.testing.assert_allclose(basis @ f.ftran(v), v, atol=1e-8)
                np.testing.assert_allclose(basis.T @ f.btran(v), v, atol=1e-8)

    @pytest.mark.parametrize("factor_cls", ALL_FACTORS)
    def test_update_chain_tracks_column_replacements(self, factor_cls):
        """Ten successive basis exchanges stay consistent with a dense
        reference rebuilt from scratch at every step."""
        rng = np.random.default_rng(11)
        m = 14
        basis, cols = _random_basis(rng, m)
        f = factor_cls(m)
        f.factorize(cols)
        for _ in range(10):
            slot = int(rng.integers(m))
            k = int(rng.integers(1, 5))
            rows = rng.choice(m, size=k, replace=False)
            vals = rng.normal(size=k)
            new_basis = basis.copy()
            new_basis[:, slot] = 0.0
            new_basis[rows, slot] = vals
            if abs(np.linalg.det(new_basis)) < 1e-6:
                continue
            col = np.zeros(m)
            col[rows] = vals
            ok = f.update(slot, f.ftran(col), rows, vals)
            if not ok:  # refused update => engine would refactorize
                f.factorize(_cols_of(new_basis))
            basis = new_basis
            v = rng.normal(size=m)
            np.testing.assert_allclose(basis @ f.ftran(v), v, atol=1e-7)
            np.testing.assert_allclose(basis.T @ f.btran(v), v, atol=1e-7)

    @pytest.mark.parametrize("factor_cls", ALL_FACTORS)
    def test_singular_basis_raises(self, factor_cls):
        m = 5
        basis = np.eye(m)
        basis[:, 3] = basis[:, 2]  # duplicate column => singular
        f = factor_cls(m)
        with pytest.raises(SingularBasisError):
            f.factorize(_cols_of(basis))

    def test_singular_error_is_linalgerror(self):
        # Warm-restart cold-fallback paths catch np.linalg.LinAlgError;
        # the factor's singularity signal must stay a subclass of it.
        assert issubclass(SingularBasisError, np.linalg.LinAlgError)

    def test_sparse_fill_ratio_stays_small_on_sparse_basis(self):
        rng = np.random.default_rng(5)
        _, cols = _random_basis(rng, 60, max_col_nnz=3)
        f = SparseBasisFactor(60)
        f.factorize(cols)
        assert 1.0 <= f.fill_ratio < 5.0
        dense = DenseBasisFactor(60)
        dense.factorize(cols)
        assert dense.fill_ratio > f.fill_ratio

    def test_forrest_tomlin_refuses_unstable_pivot(self):
        # Replacing a column so the new diagonal is ~0 must be refused
        # (returns False), leaving the old factor untouched.
        m = 3
        basis = np.eye(m)
        f = SparseBasisFactor(m)
        f.factorize(_cols_of(basis))
        rows = np.array([0, 1])  # new column with no support on row 2
        vals = np.array([1.0, 1.0])
        col = np.zeros(m)
        col[rows] = vals
        assert f.update(2, f.ftran(col), rows, vals) is False
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(f.ftran(v), v)  # still the identity

    def test_make_factor_mode_selection(self):
        assert make_factor(4, "sparse", 16, 128).kind == "sparse"
        assert make_factor(600, "dense", 10, 128).kind == "dense"
        # auto: small basis stays dense, big sparse basis goes sparse,
        # big *dense* basis stays dense.
        assert make_factor(16, "auto", 40, 128).kind == "dense"
        assert make_factor(600, "auto", 3000, 128).kind == "sparse"
        assert make_factor(600, "auto", 600 * 600, 128).kind == "dense"


def _engines(lp, factors=("sparse", "dense")):
    return [RevisedSimplexEngine(lp["c"], lp["a_ub"], lp["b_ub"],
                                 lp["a_eq"], lp["b_eq"], factor=mode)
            for mode in factors]


def _assert_terminal_basis_is_optimal(lp, res, tol=1e-7):
    """Primal feasibility, dual feasibility and complementary slackness of
    an :class:`LPResult`, recomputed from its point and row multipliers."""
    x, y = res.x, res.duals
    slack = lp["b_ub"] - lp["a_ub"] @ x
    assert np.all(x >= lp["lb"] - tol) and np.all(x <= lp["ub"] + tol)
    assert np.all(slack >= -tol)
    assert np.all(y <= tol)  # minimization: a <= row's multiplier is <= 0
    assert np.all(np.abs(y * slack) <= tol)
    reduced = lp["c"] - lp["a_ub"].T @ y
    assert np.all(reduced[x > lp["lb"] + tol] <= tol)  # may not rise
    assert np.all(reduced[x < lp["ub"] - tol] >= -tol)  # may not fall


class TestEngineEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(lp=lp_problems())
    def test_sparse_lu_matches_dense_objective_and_basis(self, lp):
        sparse_eng, dense_eng = _engines(lp)
        rs = sparse_eng.solve(lp["lb"], lp["ub"])
        rd = dense_eng.solve(lp["lb"], lp["ub"])
        assert rs.status == rd.status
        if rs.status == SolveStatus.OPTIMAL:
            # Objectives agree to ULP noise regardless of pivot path.  The
            # terminal bases need not: under a degenerate tie the engines
            # can take as many pivots along different paths and stop at
            # different optimal vertices.  Each basis is instead checked on
            # its own, for primal and dual feasibility.
            assert rs.objective == pytest.approx(rd.objective,
                                                 rel=1e-12, abs=1e-12)
            _assert_terminal_basis_is_optimal(lp, rs)
            _assert_terminal_basis_is_optimal(lp, rd)

    @settings(max_examples=60, deadline=None)
    @given(lp=degenerate_lps())
    def test_degenerate_duplicate_column_instances_agree(self, lp):
        """Duplicate columns/rows + zero RHS: ties stall Devex pricing
        into the Bland fallback and hand the factorization dependent
        candidate bases.  A one-ULP difference in the ftran'd pivot
        column can flip which of two *identical* columns wins a tied
        ratio test, so pivot paths may diverge — but both engines must
        terminate OPTIMAL at the same objective."""
        sparse_eng, dense_eng = _engines(lp)
        rs = sparse_eng.solve(lp["lb"], lp["ub"])
        rd = dense_eng.solve(lp["lb"], lp["ub"])
        assert rs.status == rd.status == SolveStatus.OPTIMAL
        assert rs.objective == pytest.approx(rd.objective,
                                             rel=1e-9, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(lp=mixed_bound_lps())
    def test_sparse_lu_matches_dense_on_mixed_bounds(self, lp):
        sparse_eng, dense_eng = _engines(lp)
        rs = sparse_eng.solve(lp["lb"], lp["ub"])
        rd = dense_eng.solve(lp["lb"], lp["ub"])
        assert rs.status == rd.status
        if rs.status == SolveStatus.OPTIMAL:
            assert rs.objective == pytest.approx(rd.objective, abs=1e-9)

    def test_engine_reports_factor_stats(self):
        c = np.array([-1.0, -2.0, -1.0])
        a_ub = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b_ub = np.array([4.0, 5.0])
        eng = RevisedSimplexEngine(c, a_ub, b_ub, None, None, factor="sparse")
        res = eng.solve(np.zeros(3), np.full(3, 9.0))
        assert res.status == SolveStatus.OPTIMAL
        assert res.stats["factorizations"] >= 1
        assert res.stats["fill_ratio"] >= 1.0
        assert eng.counters["pricing_candidates"] > 0


class TestDevexRecompute:
    @settings(max_examples=30, deadline=None)
    @given(lp=lp_problems())
    def test_refactorize_every_pivot_is_equivalent(self, lp):
        """refactor_every=1 resets the Devex reference framework (weights
        back to 1) after *every* pivot — the "exact recompute" limit.  A
        run with the default update budget must land on the same terminal
        objective and basis, or the reference-weight bookkeeping between
        refactorizations is drifting from the recompute."""
        budget = RevisedSimplexEngine(lp["c"], lp["a_ub"], lp["b_ub"],
                                      lp["a_eq"], lp["b_eq"],
                                      factor="sparse")
        fresh = RevisedSimplexEngine(lp["c"], lp["a_ub"], lp["b_ub"],
                                     lp["a_eq"], lp["b_eq"],
                                     factor="sparse", refactor_every=1)
        rb = budget.solve(lp["lb"], lp["ub"])
        rf = fresh.solve(lp["lb"], lp["ub"])
        assert rb.status == rf.status
        if rb.status == SolveStatus.OPTIMAL:
            assert rb.objective == pytest.approx(rf.objective, abs=1e-9)
        # The per-pivot variant must actually have refactorized more.
        assert (fresh.counters["factorizations"]
                >= budget.counters["factorizations"])

    def test_devex_weights_reset_on_refactorization(self):
        rng = np.random.default_rng(0)
        n, m = 12, 8
        a_ub = rng.normal(size=(m, n))
        eng = RevisedSimplexEngine(rng.normal(size=n), a_ub,
                                   np.abs(rng.normal(size=m)) + 1.0,
                                   None, None, factor="sparse")
        res = eng.solve(np.zeros(n), np.full(n, 10.0))
        assert res.status == SolveStatus.OPTIMAL
        epoch = eng._devex_epoch
        eng._refactorize()
        assert eng._devex_epoch == epoch + 1
        np.testing.assert_array_equal(eng._devex, np.ones(n + m))


class TestWarmRestartRegressions:
    def _engine(self):
        c = np.array([-3.0, -5.0, -4.0, -1.0])
        a_ub = np.array([[2.0, 3.0, 0.0, 1.0],
                         [0.0, 2.0, 5.0, 0.0],
                         [3.0, 2.0, 4.0, 1.0]])
        b_ub = np.array([8.0, 10.0, 15.0])
        return RevisedSimplexEngine(c, a_ub, b_ub, None, None,
                                    factor="sparse")

    def test_singular_inherited_basis_falls_back_cold(self):
        """A basis that is shape-valid but singular (the same structural
        column basic in two rows) must be detected at install time and
        fall back to a cold solve with the right answer."""
        eng = self._engine()
        lb, ub = np.zeros(4), np.full(4, 6.0)
        ref = eng.solve(lb, ub)
        assert ref.status == SolveStatus.OPTIMAL
        vstat = np.zeros(4 + 3, dtype=np.int8)
        vstat[[0, 6]] = 2
        singular = BasisState(basic=np.array([0, 0, 6]), vstat=vstat)
        before = eng.counters["cold_fallbacks"]
        res = eng.solve(lb, ub, start=singular)
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == ref.objective
        assert eng.counters["cold_fallbacks"] == before + 1

    def test_stale_shape_mismatched_basis_falls_back_cold(self):
        eng = self._engine()
        lb, ub = np.zeros(4), np.full(4, 6.0)
        junk = BasisState(basic=np.array([0]),
                          vstat=np.array([2], dtype=np.int8))
        res = eng.solve(lb, ub, start=junk)
        assert res.status == SolveStatus.OPTIMAL
        assert eng.counters["cold_fallbacks"] == 1


class TestBackendIntegration:
    def test_pure_sparse_lu_backend_matches_pure(self):
        from repro.solver import make_backend
        from repro.solver.model import Model
        m = Model()
        xs = [m.add_integer(f"x{i}", ub=6) for i in range(5)]
        m.add_constraint(sum(2 * x for x in xs), "<=", 13)
        m.add_constraint(3 * xs[0] + xs[2] + 4 * xs[4], "<=", 11)
        m.set_objective(sum((i + 1) * x for i, x in enumerate(xs)),
                        sense="maximize")
        sparse_lu = make_backend("pure-sparse-lu")
        assert sparse_lu.options.lp_engine == "sparse-lu"
        a = sparse_lu.solve(m)
        b = make_backend("pure").solve(m)
        assert a.status == b.status == SolveStatus.OPTIMAL
        assert a.objective == b.objective

    def test_search_stats_carry_factorization_counters(self):
        from repro.solver.model import Model
        m = Model()
        xs = [m.add_integer(f"x{i}", ub=7) for i in range(4)]
        m.add_constraint(sum(3 * x for x in xs), "<=", 17)
        m.add_constraint(2 * xs[0] + 5 * xs[1] + xs[2], "<=", 11)
        m.set_objective(2 * xs[0] + 3 * xs[1] + 5 * xs[2] + 7 * xs[3],
                        sense="maximize")
        res = BranchBoundSolver(BranchBoundOptions(
            lp_engine="sparse-lu", presolve=False)).solve(m)
        assert res.status == SolveStatus.OPTIMAL
        assert res.stats["lp_factorizations"] >= 1
        assert res.stats["lp_fill_ratio"] >= 1.0
        assert res.stats["lp_pricing_candidates"] > 0
        assert "lp_ft_updates" in res.stats
