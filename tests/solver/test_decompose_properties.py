"""Vectorised decomposition == the union-find, object-built reference.

``repro.solver.decompose`` labels components by min-label propagation over
the CSR export and slices sub-models out of it.  The implementation it
replaced — a union-find sweep over constraint dicts, sub-models rebuilt row
by row through ``Model.add_constraint`` — lives on here as the reference:
the two must agree on the blocks, on every sub-model's export (bit for
bit) and on the free-variable bookkeeping, for models with several blocks,
one block, unconstrained variables and constant (empty) rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver.backend import make_backend
from repro.solver.decompose import (MIN_COMPONENT_BUDGET_S,
                                    carve_time_budgets, component_labels,
                                    decompose, solve_decomposed)
from repro.solver.expr import LinExpr
from repro.solver.model import (MAXIMIZE, MINIMIZE, Model,
                                fingerprint_arrays)
from repro.solver.result import MILPResult, SolveStatus
from tests.strategies import multi_component_models


class UnionFind:
    """Array-based union-find with path halving and union by size."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def reference_blocks(model: Model) -> tuple[list[list[int]], list[int]]:
    """(blocks as sorted column lists, ordered by first column; free columns)."""
    n = model.num_variables
    uf = UnionFind(n)
    constrained = [False] * n
    for con in model.constraints:
        cols = list(con.expr.coeffs)
        for i in cols:
            constrained[i] = True
        for i in cols[1:]:
            uf.union(cols[0], i)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        if constrained[i]:
            groups.setdefault(uf.find(i), []).append(i)
    return (sorted(groups.values()),
            [i for i in range(n) if not constrained[i]])


def reference_sub_model(model: Model, cols: list[int]) -> Model:
    """One block rebuilt through the object API, constraint by constraint."""
    local = {gi: li for li, gi in enumerate(cols)}
    sub = Model("reference")
    for gi in cols:
        v = model.variables[gi]
        sub._add_var(v.name, v.lb, v.ub, v.domain)
    sub.set_objective(
        LinExpr({local[gi]: coef
                 for gi, coef in model.objective.coeffs.items()
                 if gi in local}),
        sense=model.objective_sense)
    for con in model.constraints:
        if con.expr.coeffs and next(iter(con.expr.coeffs)) in local:
            sub.add_constraint(
                LinExpr({local[gi]: c for gi, c in con.expr.coeffs.items()}),
                con.sense, con.rhs, name=con.name)
    return sub


@st.composite
def structured_models(draw) -> Model:
    """Sparse random models: several blocks, free columns, empty rows."""
    n = draw(st.integers(1, 10))
    m = Model("random")
    for i in range(n):
        kind = draw(st.sampled_from(["binary", "integer", "continuous"]))
        if kind == "binary":
            m.add_binary(f"x{i}")
        elif kind == "integer":
            m.add_integer(f"x{i}", lb=draw(st.integers(-2, 0)),
                          ub=draw(st.integers(1, 6)))
        else:
            m.add_continuous(f"x{i}", lb=float(draw(st.integers(-3, 0))),
                             ub=draw(st.integers(1, 9)) / 2)
    for _ in range(draw(st.integers(0, 8))):
        cols = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
        coefs = {c: float(draw(st.integers(1, 4))) for c in cols}
        sense = draw(st.sampled_from(["<=", ">=", "=="]))
        if not cols:  # a constant row must hold to be accepted
            sense, rhs = "<=", draw(st.integers(0, 3))
        else:
            rhs = draw(st.integers(0, 6))
        m.add_constraint(LinExpr(coefs), sense, rhs)
    objective = {c: float(draw(st.integers(-3, 3)))
                 for c in draw(st.lists(st.integers(0, n - 1), unique=True))}
    m.set_objective(LinExpr(objective, constant=draw(st.integers(-5, 5))),
                    sense=draw(st.sampled_from([MAXIMIZE, MINIMIZE])))
    return m


def assert_solves_like_monolithic(model: Model) -> None:
    """Decomposed objective and bound == one solve of the whole model."""
    backend = make_backend("pure")
    whole = backend.solve(model)
    split = solve_decomposed(decompose(model), backend)
    assert split.status.has_solution == whole.status.has_solution
    if whole.status.has_solution:
        assert split.objective == pytest.approx(whole.objective, abs=1e-6)
        assert split.bound == pytest.approx(whole.bound, abs=1e-6)
        assert model.objective_value(split.x) == pytest.approx(
            split.objective, abs=1e-6)


def assert_matches_reference(model: Model) -> None:
    blocks, free = reference_blocks(model)
    decomp = decompose(model)
    assert [c.global_indices.tolist() for c in decomp.components] == blocks
    assert decomp.free_indices.tolist() == free
    for comp, cols in zip(decomp.components, blocks):
        if comp.model is model:
            # One block, nothing free: the source itself (which, unlike a
            # rebuilt block, still carries any constant rows).
            assert len(blocks) == 1 and not free
            continue
        want = reference_sub_model(model, cols).to_sparse_arrays()
        got = comp.model.to_sparse_arrays()
        assert fingerprint_arrays(got) == fingerprint_arrays(want)
        # ... and the sliced model's own object view exports the same.
        assert (fingerprint_arrays(comp.model.export_from_objects())
                == fingerprint_arrays(want))

    # Free variables sit at their best bound and price accordingly.
    coeffs = model.objective.coeffs
    assert decomp.free_objective == sum(
        coeffs.get(i, 0.0) * v for i, v in zip(free, decomp.free_values))
    for i, v in zip(free, decomp.free_values):
        var, coef = model.variables[i], coeffs.get(i, 0.0)
        if model.objective_sense == MINIMIZE:
            coef = -coef
        assert v == (var.ub if coef > 0 else var.lb)

    # slice -> assemble is the identity on constrained columns.
    x = np.arange(1.0, model.num_variables + 1.0)
    back = decomp.assemble(
        [decomp.slice_warm_start(x, comp) for comp in decomp.components])
    expected = x.copy()
    expected[free] = decomp.free_values
    assert np.array_equal(back, expected)


class TestAgainstUnionFindReference:
    @settings(max_examples=150, deadline=None)
    @given(structured_models())
    def test_structured_models(self, model):
        assert_matches_reference(model)

    @settings(max_examples=40, deadline=None)
    @given(multi_component_models())
    def test_knapsack_blocks(self, drawn):
        model, k = drawn
        assert decompose(model).num_components == k
        assert_matches_reference(model)

    @settings(max_examples=100, deadline=None)
    @given(structured_models())
    def test_labels_are_component_minima(self, model):
        sa = model.to_sparse_arrays()
        labels = component_labels(model.num_variables, [sa.a_ub, sa.a_eq])
        blocks, free = reference_blocks(model)
        for cols in blocks:
            assert set(labels[cols].tolist()) == {cols[0]}
        assert labels[free].tolist() == free

    def test_long_chain_converges(self):
        # x0 - x1 - ... - x199: the worst case for naive label propagation.
        m = Model("chain")
        xs = [m.add_binary(f"x{i}") for i in range(200)]
        order = np.random.default_rng(0).permutation(199)
        for i in order.tolist():
            m.add_constraint(xs[i] + xs[i + 1], "<=", 1)
        sa = m.to_sparse_arrays()
        assert not component_labels(200, [sa.a_ub, sa.a_eq]).any()


class TestObjectiveConstant:
    """The source objective's constant is counted once, however it splits."""

    @settings(max_examples=60, deadline=None)
    @given(structured_models())
    def test_structured_models(self, model):
        assert_solves_like_monolithic(model)

    @settings(max_examples=30, deadline=None)
    @given(multi_component_models(), st.integers(-7, 7))
    def test_knapsack_blocks(self, drawn, constant):
        model, _ = drawn
        model.set_objective(model.objective + constant, sense="maximize")
        assert_solves_like_monolithic(model)

    def test_single_block(self):
        m = Model("one")
        x, y = m.add_integer("x", ub=3), m.add_integer("y", ub=3)
        m.add_constraint(x + y, "<=", 4)
        m.set_objective(x + y + 10, sense="maximize")
        decomp = decompose(m)
        assert decomp.components[0].model is m
        res = solve_decomposed(decomp, make_backend("pure"))
        assert res.objective == res.bound == 14.0

    def test_two_blocks_and_a_free_column(self):
        m = Model("two")
        x, y = m.add_integer("x", ub=3), m.add_integer("y", ub=3)
        z = m.add_binary("z")
        m.add_constraint(x, "<=", 2)
        m.add_constraint(y, "<=", 1)
        m.set_objective(x + y + z + 10, sense="maximize")
        decomp = decompose(m)
        assert decomp.num_components == 2
        res = solve_decomposed(decomp, make_backend("pure"))
        assert res.objective == res.bound == 14.0


class TestSingleBlockShortCircuit:
    def test_source_model_returned_untouched(self):
        m = Model("one")
        x, y = m.add_integer("x", ub=3), m.add_integer("y", ub=3)
        m.add_constraint(x + y, "<=", 4)
        m.set_objective(x + 2 * y, sense="maximize")
        decomp = decompose(m)
        assert decomp.num_components == 1
        assert decomp.components[0].model is m
        assert decomp.components[0].global_indices.tolist() == [0, 1]
        assert decomp.free_indices.size == 0

    def test_one_block_plus_a_free_column_still_splits(self):
        m = Model("one-plus-free")
        x, y = m.add_integer("x", ub=3), m.add_integer("y", ub=3)
        m.add_binary("idle")
        m.add_constraint(x + y, "<=", 4)
        m.set_objective(x + 2 * y, sense="maximize")
        decomp = decompose(m)
        assert decomp.num_components == 1
        assert decomp.components[0].model is not m
        assert decomp.free_indices.tolist() == [2]


def knapsack(capacity: int = 5, values=(10, 13, 7)) -> Model:
    m = Model("knapsack")
    xs = [m.add_binary(f"x{i}") for i in range(3)]
    m.add_constraint(3 * xs[0] + 4 * xs[1] + 2 * xs[2], "<=", capacity)
    m.set_objective(sum(v * x for v, x in zip(values, xs)),
                    sense="maximize")
    return m


def fingerprint(model: Model):
    return fingerprint_arrays(model.to_sparse_arrays())


class TestFingerprint:
    """``fingerprint_arrays``: the digest every bit-equality test leans on."""

    def test_identical_models_share_both_fingerprints(self):
        fp1, fp2 = (fingerprint(knapsack()) for _ in range(2))
        assert fp1.exact == fp2.exact
        assert fp1.structural == fp2.structural

    def test_rhs_change_breaks_exact_keeps_structural(self):
        fp1 = fingerprint(knapsack(capacity=5))
        fp2 = fingerprint(knapsack(capacity=4))
        assert fp1.exact != fp2.exact
        assert fp1.structural == fp2.structural

    def test_coefficient_change_breaks_both(self):
        fp1 = fingerprint(knapsack(values=(10, 13, 7)))
        fp2 = fingerprint(knapsack(values=(10, 13, 8)))
        assert fp1.exact != fp2.exact
        assert fp1.structural != fp2.structural

    def test_variable_names_do_not_matter(self):
        m1 = knapsack()
        m2 = Model("renamed")
        ys = [m2.add_binary(f"y{i}") for i in range(3)]
        m2.add_constraint(3 * ys[0] + 4 * ys[1] + 2 * ys[2], "<=", 5)
        m2.set_objective(10 * ys[0] + 13 * ys[1] + 7 * ys[2],
                         sense="maximize")
        assert fingerprint(m1).exact == fingerprint(m2).exact


class TestBudgets:
    def test_unlimited_stays_unlimited(self):
        assert carve_time_budgets(None, [5, 10]) == [None, None]

    def test_proportional_split_with_floor(self):
        budgets = carve_time_budgets(1.0, [90, 10])
        assert budgets[0] == pytest.approx(0.9)
        assert budgets[1] == pytest.approx(0.1)
        tiny = carve_time_budgets(0.1, [99, 1])
        assert tiny[1] == MIN_COMPONENT_BUDGET_S

    def test_empty_components(self):
        assert carve_time_budgets(1.0, []) == []

    def test_hundred_tiny_components_never_oversubscribe(self):
        # Regression: the old proportional carve topped every small
        # share up to MIN_COMPONENT_BUDGET_S without renormalizing, so
        # 100 tiny components were handed 5s of a 1s budget.  The
        # water-filled split degrades to even shares instead.
        budgets = carve_time_budgets(1.0, [1] * 100)
        assert sum(budgets) <= 1.0 + 1e-9
        assert all(b == pytest.approx(0.01) for b in budgets)

    def test_floor_topups_come_out_of_the_large_shares(self):
        budgets = carve_time_budgets(1.0, [997, 1, 1, 1])
        assert budgets[1:] == [MIN_COMPONENT_BUDGET_S] * 3
        assert budgets[0] == pytest.approx(1.0 - 3 * MIN_COMPONENT_BUDGET_S)
        assert sum(budgets) <= 1.0 + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(total=st.floats(0.01, 10.0),
           sizes=st.lists(st.integers(1, 1000), min_size=1, max_size=120))
    def test_sum_never_exceeds_total(self, total, sizes):
        budgets = carve_time_budgets(total, sizes)
        assert len(budgets) == len(sizes)
        assert all(b > 0.0 for b in budgets)
        assert sum(budgets) <= total + 1e-9


class TestDoomedBlockStopsTheLoop:
    def test_blocks_after_an_infeasible_one_are_never_solved(self):
        m = Model("blocks")
        for b in range(3):
            xs = [m.add_binary(f"b{b}x{i}") for i in range(3)]
            m.add_constraint(3 * xs[0] + 4 * xs[1] + 2 * xs[2], "<=", 5)
        m.set_objective(sum(m.variables), sense="maximize")
        decomp = decompose(m)
        assert decomp.num_components == 3

        class SecondBlockInfeasible:
            def __init__(self):
                self.inner = make_backend("pure")
                self.solved = []

            def solve(self, model, options=None):
                self.solved.append(model.name)
                if len(self.solved) == 2:
                    return MILPResult(SolveStatus.INFEASIBLE, None,
                                      float("nan"))
                return self.inner.solve(model, options=options)

        backend = SecondBlockInfeasible()
        res = solve_decomposed(decomp, backend)
        assert backend.solved == ["blocks#c0", "blocks#c1"]
        assert res.status == SolveStatus.INFEASIBLE and res.x is None
        assert res.stats["components"] == 3
