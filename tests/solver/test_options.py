"""SolveOptions: merge semantics, defaults, and removed legacy kwargs."""

import dataclasses

import numpy as np
import pytest

from repro.solver import (BranchBoundSolver, Model, SolveOptions,
                          make_backend, solve_decomposed)
from repro.solver.decompose import decompose
from repro.solver.options import DEFAULT_OPTIONS, UNSET, is_set, resolve
from repro.solver.scipy_backend import scipy_available


def knapsack():
    m = Model("knapsack")
    xs = [m.add_binary(f"x{i}") for i in range(3)]
    m.add_constraint(3 * xs[0] + 4 * xs[1] + 2 * xs[2], "<=", 5)
    m.set_objective(10 * xs[0] + 13 * xs[1] + 7 * xs[2], sense="maximize")
    return m


class TestUnsetSentinel:
    def test_unset_is_falsy_singleton(self):
        from repro.solver.options import _Unset
        assert not UNSET
        assert _Unset() is UNSET

    def test_is_set_distinguishes_none_from_unset(self):
        # None is a meaningful value (e.g. time_limit=None = unlimited).
        assert is_set(None)
        assert is_set(0)
        assert not is_set(UNSET)

    def test_fields_default_to_unset(self):
        opts = SolveOptions()
        for name in ("rel_gap", "time_limit", "node_limit", "warm_start"):
            assert getattr(opts, name) is UNSET
        assert len(dataclasses.fields(SolveOptions)) == 4


class TestMerge:
    def test_merged_into_overrides_only_set_fields(self):
        base = SolveOptions(rel_gap=0.5, time_limit=9.0)
        merged = SolveOptions(time_limit=2.0).merged_into(base)
        assert merged.time_limit == 2.0
        assert merged.rel_gap == 0.5  # untouched

    def test_merge_preserves_explicit_none(self):
        base = SolveOptions(time_limit=9.0)
        merged = SolveOptions(time_limit=None).merged_into(base)
        assert merged.time_limit is None  # None overrides: unlimited

    def test_resolve_fills_defaults(self):
        opts = resolve(SolveOptions(rel_gap=0.25))
        assert opts.rel_gap == 0.25
        assert opts.node_limit == DEFAULT_OPTIONS.node_limit
        assert resolve(None) is DEFAULT_OPTIONS

    def test_get_with_default(self):
        opts = SolveOptions(rel_gap=0.1)
        assert opts.get("rel_gap") == 0.1
        assert opts.get("time_limit", 7.0) == 7.0


class TestLegacyKwargsRemoved:
    """The one-release DeprecationWarning shims are gone: TypeError now."""

    def test_shim_helper_is_gone(self):
        import repro.solver.options as options_mod
        assert not hasattr(options_mod, "deprecated_kwargs_to_options")

    def test_make_backend_rejects_legacy_kwargs(self):
        with pytest.raises(TypeError):
            make_backend("pure", rel_gap=0.125)
        with pytest.raises(TypeError):
            make_backend("pure", time_limit=3.0)
        with pytest.raises(TypeError):
            make_backend("pure", node_limit=77)

    def test_make_backend_options_replacement_works(self):
        backend = make_backend("pure", SolveOptions(rel_gap=0.125,
                                                    node_limit=77))
        assert backend.options.rel_gap == 0.125
        assert backend.options.node_limit == 77

    def test_branch_bound_solve_rejects_warm_start_kwarg(self):
        with pytest.raises(TypeError):
            BranchBoundSolver().solve(knapsack(),
                                      warm_start=np.array([1.0, 0.0, 1.0]))

    def test_solve_decomposed_rejects_warm_start_kwarg(self):
        decomp = decompose(knapsack())
        with pytest.raises(TypeError):
            solve_decomposed(decomp, BranchBoundSolver(),
                             warm_start=np.array([1.0, 0.0, 1.0]))

    def test_solve_decomposed_options_warm_start_works(self):
        decomp = decompose(knapsack())
        res = solve_decomposed(
            decomp, BranchBoundSolver(),
            SolveOptions(warm_start=np.array([1.0, 0.0, 1.0])))
        assert res.objective == pytest.approx(17.0)

    @pytest.mark.skipif(not scipy_available(), reason="scipy not installed")
    def test_scipy_solve_rejects_warm_start_kwarg(self):
        from repro.solver.scipy_backend import ScipyMILPSolver
        with pytest.raises(TypeError):
            ScipyMILPSolver().solve(knapsack(), warm_start=np.zeros(3))


class TestPerCallOverrides:
    def test_options_do_not_leak_into_backend(self):
        backend = make_backend("pure", SolveOptions(rel_gap=1e-6))
        backend.solve(knapsack(), SolveOptions(rel_gap=0.9))
        assert backend.options.rel_gap == 1e-6

    def test_options_warm_start_matches_cold_solve(self):
        m1, m2 = knapsack(), knapsack()
        ws = np.array([1.0, 0.0, 1.0])
        warm = BranchBoundSolver().solve(m1, SolveOptions(warm_start=ws))
        cold = BranchBoundSolver().solve(m2)
        assert warm.objective == cold.objective
        assert np.array_equal(warm.x, cold.x)

    @pytest.mark.skipif(not scipy_available(), reason="scipy not installed")
    def test_scipy_per_call_gap_override(self):
        from repro.solver.scipy_backend import ScipyMILPSolver
        backend = ScipyMILPSolver(rel_gap=1e-6)
        res = backend.solve(knapsack(), SolveOptions(rel_gap=0.5))
        assert res.status.has_solution
        assert backend.rel_gap == 1e-6
