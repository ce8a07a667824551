"""``P == k * I`` substituted at compile time: the time-indexed leaf column.

An ``nCk`` leaf with an indicator of its own that draws on one partition
gets no partition variable and no demand row; its indicator carries ``k``
in the supply rows.  The reference throughout is the formulation with every
such ``P`` and row written back (:mod:`tests.core.expansion`), which is the
model the compiler emitted before: both must have the same optimum, and a
solution of either, carried over column for column, must be a solution of
the other that decodes to the same placements.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.api import Scheduler
from repro.cluster import Cluster, ClusterState
from repro.core import (JobRequest, PlanAccumulator, PriorityClass,
                        StrlCompiler, TetriSchedConfig)
from repro.core.compiler import (CompiledBatch, PreemptionCandidate,
                                 ResizeCandidate)
from repro.solver import make_backend
from repro.solver.options import SolveOptions
from repro.solver.result import MILPResult, SolveStatus
from repro.strl import (Barrier, ElasticNCk, LnCk, Max, Min, NCk, Scale,
                        SpaceOption, Sum)
from repro.valuefn import StepValue
from repro.verify import check_certificate
from tests.core.expansion import pre_substitution

NODES = [f"n{i}" for i in range(8)]
UNIVERSE = frozenset(NODES)
#: Nested and disjoint sets: a batch often compiles to partitions that
#: coincide with whole sets (the substituted case); overlapping draws and
#: the per-node ablation give the multi-partition leaves that keep ``P``.
EQ_SETS = [UNIVERSE, frozenset(NODES[:4]), frozenset(NODES[4:]),
           frozenset(NODES[:2]), frozenset(NODES[5:6]), frozenset(NODES[2:6])]
QUANTUM = 10.0
EXACT = SolveOptions(rel_gap=1e-9)


@st.composite
def _nck(draw, eq=None, k=None):
    eq = eq or draw(st.sampled_from(EQ_SETS))
    return NCk(eq, k or draw(st.integers(1, len(eq))),
               draw(st.integers(0, 3)), draw(st.integers(1, 3)),
               float(draw(st.sampled_from([0.0, 1.0, 2.0, 3.5, 7.0]))))


@st.composite
def _tree(draw, depth=2):
    """Any STRL shape: every combinator, leaf runs, elastic options."""
    shape = draw(st.sampled_from(
        ["leaf", "run", "run", "lnck", "elastic"] if depth == 0 else
        ["leaf", "run", "max", "min", "sum", "scale", "barrier"]))
    if shape == "leaf":
        return draw(_nck())
    if shape == "run":  # one option replicated over start times
        eq = draw(st.sampled_from(EQ_SETS))
        k = draw(st.integers(1, len(eq)))
        return Max(*draw(st.lists(_nck(eq, k), min_size=1, max_size=4)))
    if shape == "lnck":
        leaf = draw(_nck())
        return LnCk(leaf.nodes, leaf.k, leaf.start, leaf.duration, leaf.value)
    if shape == "elastic":
        eq = draw(st.sampled_from([s for s in EQ_SETS if len(s) > 1]))
        hi = draw(st.integers(2, len(eq)))
        lo = draw(st.integers(1, hi))
        widths = hi - lo + 1
        return ElasticNCk(
            eq, lo, hi, draw(st.integers(0, 2)),
            tuple(draw(st.integers(1, 3)) for _ in range(widths)),
            tuple(sorted(draw(st.sampled_from([0.0, 1.0, 2.0, 4.0]))
                         for _ in range(widths))))
    if shape == "scale":
        return Scale(draw(_tree(depth - 1)),
                     draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])))
    if shape == "barrier":
        return Barrier(draw(_tree(depth - 1)),
                       draw(st.sampled_from([0.0, 1.0, 2.0])))
    kind = {"max": Max, "min": Min, "sum": Sum}[shape]
    return kind(*draw(st.lists(_tree(depth - 1), min_size=1, max_size=3)))


@st.composite
def _instances(draw, trees=_tree()):
    """(compile arguments, minimal partitioning?) over a cluster with busy
    and drained nodes, preemption victims and resize candidates."""
    state = ClusterState(UNIVERSE)
    free = list(draw(st.permutations(NODES)))
    running = {}
    for i in range(draw(st.integers(0, 3))):
        held = frozenset(free.pop() for _ in range(
            min(len(free), draw(st.integers(1, 3)))))
        if held:
            running[f"run{i}"] = held
            state.start(f"run{i}", held, 0.0,
                        draw(st.sampled_from([5.0, 15.0, 25.0, 45.0])))
    if free and draw(st.booleans()):
        state.drain(free.pop())
    batch = [(f"job{j}", draw(trees))
             for j in range(draw(st.integers(1, 4)))]
    victims, resizable = [], []
    for job_id, held in running.items():
        fate = draw(st.sampled_from(["runs", "runs", "victim", "resize"]))
        if fate == "victim":
            victims.append(PreemptionCandidate(
                job_id, held, draw(st.sampled_from([0.0, 1.5, 4.0]))))
        elif fate == "resize":
            # Keep / shrink in place, or (a bare nCk root) keep only.
            keep = NCk(held, len(held), 0, draw(st.integers(1, 3)), 2.0)
            options = [keep] + [NCk(held, w, 0, 3, 1.0)
                                for w in range(1, len(held))
                                if draw(st.booleans())]
            batch.append((job_id, keep if len(options) == 1
                          else Max(*options)))
            resizable.append(ResizeCandidate(job_id, held))
    return (state, batch, victims, resizable), draw(st.booleans())


def _compile(instance, minimal) -> CompiledBatch:
    state, batch, victims, resizable = instance
    return StrlCompiler(state, QUANTUM, minimal_partitioning=minimal).compile(
        batch, preemptible=victims, resizable=resizable)


def _both(instance, minimal) -> tuple[CompiledBatch, CompiledBatch]:
    """The batch as compiled, and with every substitution written back."""
    compiled = _compile(instance, minimal)
    with pre_substitution():
        return compiled, _compile(instance, minimal)


def _substituted_entries(compiled: CompiledBatch) -> np.ndarray:
    entry_leaf = np.repeat(np.arange(len(compiled.leaves)),
                           np.diff(compiled.leaf_ptr))
    return compiled.leaf_pcol == compiled.leaf_indicator[entry_leaf]


def _shared_columns(compiled, expanded) -> np.ndarray:
    """Mask over the expanded model's columns: all but the re-inserted P."""
    shared = np.ones(expanded.model.num_variables, dtype=bool)
    shared[expanded.leaf_pcol[_substituted_entries(compiled)]] = False
    return shared


def _lift(compiled, expanded, x) -> np.ndarray:
    """``x`` in the expanded model's columns, with ``P = k * I`` filled in."""
    entries = _substituted_entries(compiled)
    y = np.zeros(expanded.model.num_variables)
    y[_shared_columns(compiled, expanded)] = x
    y[expanded.leaf_pcol[entries]] = (
        compiled.leaf_coef[entries] * x[compiled.leaf_pcol[entries]])
    return y


def _lower(compiled, expanded, y) -> np.ndarray:
    return np.asarray(y)[_shared_columns(compiled, expanded)]


def _placements(compiled, x):
    return sorted((p.job_id, p.start, p.duration, tuple(p.node_counts.items()))
                  for p in compiled.decode(x))


class TestSameProblemFewerColumns:
    @settings(max_examples=120, deadline=None)
    @given(_instances())
    def test_same_optimum_and_solutions_carry_over(self, drawn):
        instance, minimal = drawn
        compiled, expanded = _both(instance, minimal)
        gone = int(_substituted_entries(compiled).sum())
        event(f"substituted leaves: {min(gone, 3)}{'+' if gone > 3 else ''}")
        assert (expanded.model.num_variables
                == compiled.model.num_variables + gone)
        assert (expanded.model.num_constraints
                == compiled.model.num_constraints + gone)

        pure = make_backend("pure")
        res = pure.solve(compiled.model, options=EXACT)
        ref = pure.solve(expanded.model, options=EXACT)
        assert res.status is SolveStatus.OPTIMAL is ref.status
        assert res.objective == pytest.approx(ref.objective, abs=1e-7)

        up = _lift(compiled, expanded, res.x)
        assert expanded.model.check_feasible(up)
        assert expanded.model.objective_value(up) == pytest.approx(
            res.objective, abs=1e-9)
        assert _placements(expanded, up) == _placements(compiled, res.x)

        down = _lower(compiled, expanded, ref.x)
        assert compiled.model.check_feasible(down)
        assert compiled.model.objective_value(down) == pytest.approx(
            ref.objective, abs=1e-9)
        assert _placements(compiled, down) == _placements(expanded, ref.x)
        for batch, x in ((compiled, res.x), (expanded, up)):
            assert batch.scheduled_jobs(x) == compiled.scheduled_jobs(res.x)
            assert batch.preempted_jobs(x) == compiled.preempted_jobs(res.x)
            assert (batch.resize_decisions(x)
                    == compiled.resize_decisions(res.x))

    @settings(max_examples=150, deadline=None)
    @given(_instances())
    def test_no_row_holds_a_column_twice(self, drawn):
        # HiGHS rejects duplicate entries: a shared (min / barrier)
        # indicator, or a resize candidate's root indicator with its supply
        # credit, must never also be a leaf's ledger column.
        arrays = _compile(*drawn).model.to_sparse_arrays()
        for block in (arrays.a_ub, arrays.a_eq):
            for r in range(block.shape[0]):
                cols, _ = block.row(r)
                assert len(set(cols.tolist())) == cols.shape[0]

    def test_what_is_substituted_and_what_keeps_its_partition_variable(self):
        left, right = frozenset(NODES[:4]), frozenset(NODES[4:])
        wide = NCk(UNIVERSE, 2, 0, 1, 1.0)   # two partitions: left, right
        batch = [
            ("bare", NCk(left, 2, 0, 2, 5.0)),
            ("choice", Max(NCk(right, 3, 0, 1, 4.0), NCk(right, 3, 1, 1, 3.0),
                           wide)),
            ("gang", Min(NCk(left, 1, 0, 1, 2.0), NCk(right, 1, 0, 1, 2.0))),
            ("linear", LnCk(left, 2, 0, 1, 2.0))]
        state = ClusterState(UNIVERSE)
        compiled = StrlCompiler(state, QUANTUM).compile(batch)
        by_job = {}
        for rec in compiled.leaf_records:
            by_job.setdefault(rec.job_id, []).append(
                (list(rec.partition_cols.values()) == [rec.indicator],
                 rec.coef))
        assert by_job == {
            "bare": [(False, 1.0)],            # hangs under the root I
            "choice": [(True, 3.0), (True, 3.0), (False, 1.0)],
            "gang": [(False, 1.0), (False, 1.0)],  # one I, two leaves
            "linear": [(False, 1.0)]}
        names = [v.name for v in compiled.model.variables]
        assert names[:6] == ["I[bare]", "P[nCk[bare]#1,p0]", "I[choice]",
                             "I[choice]#1", "I[choice]#3", "I[choice]#5"]
        assert [c.name for c in compiled.model.constraints][:3] == [
            "demand[nCk[bare]#1]", "demand[nCk[choice]#6]", "choice[choice]#7"]
        # A resize candidate's root indicator also carries the supply
        # credit: with its bare nCk on a partition variable, no supply row
        # holds that column twice.
        held = frozenset(NODES[:2])
        state.start("running", held, 0.0, 30.0)
        released = StrlCompiler(state, QUANTUM).compile(
            [("running", NCk(held, 2, 0, 3, 1.0))],
            resizable=[ResizeCandidate("running", held)])
        (rec,) = released.leaf_records
        assert rec.coef == 1.0 and rec.indicator not in (
            rec.partition_cols.values())

    def test_an_interval_cap_below_k_keeps_the_row_that_forces_the_leaf_off(
            self):
        # n0 is taken for quantum 0, n1 for quantum 1: every slice has a
        # free node, no node is free for both.  Per-slice supply alone
        # would admit the two-quantum leaf; its P <= 0 and demand row do not.
        pair = frozenset(NODES[:2])
        acc = PlanAccumulator(ClusterState(UNIVERSE), 0.0, QUANTUM)
        acc.reserve([NODES[0]], 0, 1)
        acc.reserve([NODES[1]], 1, 1)
        batch = [("j", Max(NCk(pair, 1, 0, 2, 9.0), NCk(pair, 1, 2, 2, 1.0)))]
        compiled = StrlCompiler(acc, QUANTUM).compile(batch)
        assert [(list(rec.partition_cols.values()) == [rec.indicator])
                for rec in compiled.leaf_records] == [False, True]
        with pre_substitution():
            expanded = StrlCompiler(acc, QUANTUM).compile(batch)
        for model in (compiled.model, expanded.model):
            res = make_backend("pure").solve(model, options=EXACT)
            assert res.objective == pytest.approx(1.0)
        assert [p.start for p in compiled.decode(res.x[:-1])] == [2]


@st.composite
def _flat_tree(draw):
    return draw(st.one_of(
        _nck(), st.lists(_nck(), min_size=1, max_size=5)
        .map(lambda leaves: Max(*leaves))))


class TestLeafTableReaders:
    @settings(max_examples=150, deadline=None)
    @given(_instances(_flat_tree()))
    def test_booked_point_is_feasible_and_certified(self, drawn):
        (state, batch, _, _), minimal = drawn
        compiled = _compile((state, batch, [], []), minimal)
        x, _ = compiled.book_directly()
        event("booked" if x is not None else "missed")
        if x is None:
            return
        assert compiled.book_directly()[0] is x  # one attempt per batch
        assert compiled.model.check_feasible(x)
        objective = compiled.model.objective_value(x)
        booked = MILPResult(SolveStatus.OPTIMAL, x, objective,
                            bound=objective, gap=0.0)
        assert check_certificate(compiled.model, booked).ok
        exact = make_backend("pure").solve(compiled.model, options=EXACT)
        assert objective == pytest.approx(exact.objective, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(_instances(_flat_tree()), st.integers(0, 2))
    def test_shifted_warm_start_is_feasible(self, drawn, elapsed):
        # Last cycle's plan = this batch's optimum `elapsed` quanta ago.
        (state, batch, _, _), minimal = drawn
        sched = Scheduler.open(
            Cluster.build(racks=1, nodes_per_rack=8),
            TetriSchedConfig(quantum_s=QUANTUM, backend="pure")).core
        compiled = _compile((state, batch, [], []), minimal)
        res = make_backend("pure").solve(compiled.model, options=EXACT)
        sched._prev_plan = compiled.chosen_plan(res.x)
        sched._prev_now = 0.0
        x = sched._build_warm_start(compiled, elapsed * QUANTUM)
        if x is None:
            return
        assert compiled.model.check_feasible(x)
        kept = compiled.decode(x)
        assert kept and all(p.total_nodes == leaf.k for p, (_, leaf) in zip(
            kept, compiled.chosen_plan(x)))


def _contended_requests(cluster, count=7):
    """Gangs on one shared set (a single partition: every leaf substituted)
    with distinct values, so each cycle has one optimum."""
    return [JobRequest(
        job_id=f"g{i}",
        options=(SpaceOption(cluster.node_names, k=2 + i % 3,
                             duration_s=10.0 * (1 + i % 2)),),
        value_fn=StepValue(100.0 + 7.3 * i, 1e9),
        priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0)
        for i in range(count)]


def _trajectory(cycles=4, **config):
    cluster = Cluster.build(racks=2, nodes_per_rack=4)
    api = Scheduler.open(cluster, TetriSchedConfig(
        quantum_s=10, cycle_s=10, plan_ahead_s=60, rel_gap=1e-6,
        audit_mode=True, **config))
    for req in _contended_requests(cluster):
        api.submit(req)
    out, ends = [], {}
    for c in range(cycles):
        now = c * 10.0
        for job_id in [j for j, end in ends.items() if end <= now]:
            api.job_finished(job_id, ends.pop(job_id))
        result = api.run_cycle(now)
        out.append((sorted((a.job_id, tuple(sorted(a.nodes)), a.start_time,
                            a.expected_end) for a in result.allocations),
                    api.stats().objective, result.stats.solves))
        ends.update((a.job_id, a.expected_end) for a in result.allocations)
    return out


class TestEquivalentPipelinesStayBitEqual:
    def test_the_expanded_formulation_schedules_the_same(self):
        with pre_substitution():
            expanded = _trajectory()
        substituted = _trajectory()
        assert any(allocs for allocs, _, _ in substituted)
        assert any(solves for _, _, solves in substituted), \
            "nothing contended: the backend never saw a substituted model"
        for (allocs, objective, solves), (ref_allocs, ref_objective,
                                          ref_solves) in zip(
                substituted, expanded, strict=True):
            assert (allocs, solves) == (ref_allocs, ref_solves)
            # Fewer terms in the objective's sum: equal up to rounding.
            assert objective == pytest.approx(ref_objective, rel=1e-12)


class TestGreedyIntervalCaps:
    def _run(self):
        """-NG on a fragmented 1x4 cluster: staggered occupancy gives
        leaves whose partition is free, but not for their whole interval."""
        cluster = Cluster.build(racks=1, nodes_per_rack=4)
        sched = Scheduler.open(cluster, TetriSchedConfig(
            quantum_s=10, cycle_s=10, plan_ahead_s=50,
            global_scheduling=False, rel_gap=1e-6)).core
        nodes = sorted(cluster.node_names)
        sched.state.start("a", frozenset(nodes[:1]), 0.0, 10.0)
        sched.state.start("b", frozenset(nodes[1:2]), 0.0, 30.0)
        capped = []
        compile_ = StrlCompiler.compile

        def recording(self, batch, **kw):
            compiled = compile_(self, batch, **kw)
            ub = compiled.model.to_sparse_arrays().ub
            capped.extend(rec.leaf for rec in compiled.leaf_records
                          if len(rec.partition_cols) == 1
                          and ub[next(iter(rec.partition_cols.values()))]
                          * rec.coef < rec.leaf.k)
            return compiled

        launched, held = [], {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(StrlCompiler, "compile", recording)
            for c in range(6):
                now = c * 10.0
                for job_id, end in (("a", 10.0), ("b", 30.0)):
                    if end == now:
                        sched.state.finish(job_id)
                for job_id in [j for j, end in held.items() if end <= now]:
                    sched.on_job_finished(job_id, held.pop(job_id))
                if c < 3:
                    for i in range(3):
                        sched.submit(JobRequest(
                            job_id=f"c{c}j{i}",
                            options=(SpaceOption(cluster.node_names,
                                                 k=1 + (c + i) % 3,
                                                 duration_s=10.0 * (1 + i)),),
                            value_fn=StepValue(50.0 + 11 * i + c, 1e9),
                            priority=PriorityClass.SLO_ACCEPTED,
                            submit_time=now))
                result = sched.run_cycle(now)
                in_use: set[str] = set()
                for alloc in result.allocations:
                    assert not alloc.nodes & in_use
                    in_use |= alloc.nodes
                    held[alloc.job_id] = alloc.expected_end
                    launched.append((c, alloc.job_id, tuple(sorted(
                        alloc.nodes)), alloc.expected_end))
        return launched, capped

    def test_greedy_run_launches_the_expanded_formulations_allocations(self):
        launched, capped = self._run()
        assert launched
        assert capped, "no leaf had its bound capped below k"
        with pre_substitution():
            assert self._run() == (launched, capped)
