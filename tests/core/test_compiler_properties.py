"""Property-based tests for the STRL->MILP compiler.

Invariants checked on random STRL batches:

1. both MILP backends produce the same optimal objective;
2. the objective never exceeds the batch's theoretical maximum value
   (sum over jobs of ``max_value``);
3. decoded placements never exceed per-partition per-quantum supply;
4. every nCk placement allocates exactly its ``k`` nodes;
5. bulk emission of leaf runs writes the same model as leaf-by-leaf;
6. the export the solver gets is the export of the objects the audit reads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterState
from repro.core import PlanAccumulator, StrlCompiler
from repro.solver import make_backend, scipy_available
from repro.solver.model import fingerprint_arrays
from repro.strl import ElasticNCk, LnCk, Max, Min, NCk
from tests.core.test_substitution import _compile, _instances

NODES = [f"n{i}" for i in range(6)]
UNIVERSE = frozenset(NODES)


@st.composite
def _leaf(draw):
    size = draw(st.integers(1, 6))
    nodes = frozenset(draw(st.permutations(NODES))[:size])
    k = draw(st.integers(1, len(nodes)))
    return NCk(nodes=nodes, k=k,
               start=draw(st.integers(0, 3)),
               duration=draw(st.integers(1, 3)),
               value=float(draw(st.integers(1, 10))))


@st.composite
def _job_expr(draw):
    kind = draw(st.sampled_from(["leaf", "max", "min"]))
    if kind == "leaf":
        return draw(_leaf())
    if kind == "max":
        return Max(*draw(st.lists(_leaf(), min_size=1, max_size=4)))
    # Min over disjoint halves keeps AND-gangs satisfiable sometimes.
    left = frozenset(NODES[:3])
    right = frozenset(NODES[3:])
    return Min(
        NCk(left, draw(st.integers(1, 3)), 0, draw(st.integers(1, 2)), 2.0),
        NCk(right, draw(st.integers(1, 3)), 0, draw(st.integers(1, 2)), 2.0))


@st.composite
def _batches(draw):
    exprs = draw(st.lists(_job_expr(), min_size=1, max_size=4))
    return [(f"job{i}", e) for i, e in enumerate(exprs)]


def _supply_ok(compiled, x) -> bool:
    """Recompute per-(partition, quantum) usage from the leaf records."""
    usage: dict[tuple[int, int], int] = {}
    for rec in compiled.leaf_records:
        counts = rec.chosen_counts(x)
        for pid, count in counts.items():
            for t in range(rec.leaf.start, rec.leaf.start + rec.leaf.duration):
                usage[(pid, t)] = usage.get((pid, t), 0) + count
    for (pid, _t), used in usage.items():
        if used > compiled.partitioning.partitions[pid].capacity:
            return False
    return True


class TestCompilerInvariants:
    @settings(max_examples=60, deadline=None)
    @given(_batches())
    def test_objective_bounded_and_feasible(self, batch):
        state = ClusterState(UNIVERSE)
        compiled = StrlCompiler(state, quantum_s=10).compile(batch)
        res = make_backend("pure").solve(compiled.model)
        assert res.status.has_solution
        upper = sum(expr.max_value() for _, expr in batch)
        assert res.objective <= upper + 1e-6
        assert res.objective >= -1e-9
        assert compiled.model.check_feasible(res.x)
        assert _supply_ok(compiled, res.x)

    @settings(max_examples=40, deadline=None)
    @given(_batches())
    def test_backends_agree(self, batch):
        if not scipy_available():
            pytest.skip("scipy required")
        state = ClusterState(UNIVERSE)
        compiled = StrlCompiler(state, quantum_s=10).compile(batch)
        pure = make_backend("pure").solve(compiled.model)
        ref = make_backend("scipy").solve(compiled.model)
        assert pure.objective == pytest.approx(ref.objective, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(_batches())
    def test_nck_placements_exact(self, batch):
        state = ClusterState(UNIVERSE)
        compiled = StrlCompiler(state, quantum_s=10).compile(batch)
        res = make_backend("auto").solve(compiled.model)
        for pl in compiled.decode(res.x):
            assert pl.total_nodes >= 1

        # Exact-k: every chosen nCk leaf record allocates exactly k.
        for rec in compiled.leaf_records:
            if isinstance(rec.leaf, NCk) and res.x[rec.indicator] > 0.5:
                total = sum(rec.chosen_counts(res.x).values())
                assert total == rec.leaf.k

    @settings(max_examples=30, deadline=None)
    @given(_batches(), st.integers(0, 3))
    def test_busy_cluster_respects_reduced_supply(self, batch, busy_count):
        state = ClusterState(UNIVERSE)
        busy = sorted(UNIVERSE)[:busy_count]
        if busy:
            state.start("blocker", frozenset(busy), 0.0, 1e6)
        compiled = StrlCompiler(state, quantum_s=10).compile(batch)
        res = make_backend("auto").solve(compiled.model)
        assert res.status.has_solution
        # No placement may use a busy node's capacity: recompute usage
        # against the reduced availability profile.
        for rec in compiled.leaf_records:
            for pid, count in rec.chosen_counts(res.x).items():
                part = compiled.partitioning.partitions[pid]
                free = len(part.nodes - frozenset(busy))
                assert count <= free


@st.composite
def _replicated_jobs(draw):
    """Jobs shaped like the STRL generator's: options x start times.

    Consecutive children of one ``max`` share an equivalence set (the same
    frozenset object) and ``k`` — the runs the compiler emits in bulk —
    with the odd elastic option or linear leaf breaking a run up.
    """
    batch = []
    for j in range(draw(st.integers(1, 3))):
        children = []
        for _ in range(draw(st.integers(1, 3))):
            size = draw(st.integers(1, 6))
            nodes = frozenset(draw(st.permutations(NODES))[:size])
            k = draw(st.integers(1, size))
            duration = draw(st.integers(1, 3))
            shape = draw(st.sampled_from(["rigid", "rigid", "elastic",
                                          "linear"]))
            for start in range(draw(st.integers(1, 5))):
                value = float(draw(st.integers(0, 9)))
                if shape == "elastic" and k > 1:
                    children.append(ElasticNCk(
                        nodes, k - 1, k, start, (duration + 1, duration),
                        (value, value + 1.0)))
                elif shape == "linear":
                    children.append(LnCk(nodes, k, start, duration, value))
                else:
                    children.append(NCk(nodes, k, start, duration, value))
        batch.append((f"job{j}", Max(*children)))
    return batch


def _unshared(expr):
    """The same tree with every leaf holding its own copy of its node set."""
    if isinstance(expr, (NCk, LnCk)):
        return type(expr)(frozenset(sorted(expr.nodes)), expr.k, expr.start,
                          expr.duration, expr.value)
    if isinstance(expr, Max):
        return Max(*[_unshared(child) for child in expr.subexprs])
    return expr


class TestBulkEmission:
    @settings(max_examples=60, deadline=None)
    @given(_replicated_jobs())
    def test_leaf_runs_equal_leaf_by_leaf_emission(self, batch):
        # Children of one max that share an equivalence set *object* and k
        # are emitted as one run.  Equal-but-distinct sets break every run
        # into single leaves; an idle plan accumulator caps nothing but
        # makes every bound a per-leaf lookup.  Same model all three ways,
        # down to the names.
        state = ClusterState(UNIVERSE)
        bulk = StrlCompiler(state, quantum_s=10).compile(batch)
        others = [
            StrlCompiler(state, quantum_s=10).compile(
                [(job_id, _unshared(expr)) for job_id, expr in batch]),
            StrlCompiler(PlanAccumulator(state, 0.0, 10.0),
                         quantum_s=10).compile(batch)]
        for other in others:
            assert (fingerprint_arrays(bulk.model.to_sparse_arrays())
                    == fingerprint_arrays(other.model.to_sparse_arrays()))
            assert ([v.name for v in bulk.model.variables]
                    == [v.name for v in other.model.variables])
            assert ([c.name for c in bulk.model.constraints]
                    == [c.name for c in other.model.constraints])
            assert bulk.leaves == other.leaves
            for attr in ("leaf_job", "leaf_indicator", "leaf_ptr",
                         "leaf_pcol", "leaf_pid"):
                assert np.array_equal(getattr(bulk, attr),
                                      getattr(other, attr))


class TestExportRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(_instances())
    def test_arrays_to_objects_to_arrays_is_the_identity(self, drawn):
        # A compiled model *is* its arrays; ``variables`` / ``constraints``
        # / ``objective`` are rebuilt from them for the audit oracles and
        # ``to_lp_string``.  Exporting those objects again must give back
        # the arrays that were solved (as numbers: a zero objective
        # coefficient may come back as the other signed zero).
        model = _compile(*drawn).model
        solved, rebuilt = model.to_sparse_arrays(), model.export_from_objects()
        assert solved is not rebuilt
        assert solved.a_ub.shape == rebuilt.a_ub.shape
        assert solved.a_eq.shape == rebuilt.a_eq.shape
        assert solved.obj_constant == rebuilt.obj_constant
        assert solved.obj_sign == rebuilt.obj_sign
        fields = [(name, getattr(solved, name), getattr(rebuilt, name))
                  for name in ("c", "b_ub", "b_eq", "lb", "ub", "integrality")]
        for mat in ("a_ub", "a_eq"):
            fields += [(f"{mat}.{part}", getattr(getattr(solved, mat), part),
                        getattr(getattr(rebuilt, mat), part))
                       for part in ("indptr", "indices", "data")]
        for name, have, want in fields:
            assert have.dtype == want.dtype, name
            assert np.array_equal(have, want), name
