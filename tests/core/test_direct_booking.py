"""Direct booking: an uncontended cycle's optimum without a solver.

``CompiledBatch.book_directly`` may only ever return a point that is the
MILP's proven optimum, so the properties here compare it with a brute-force
``sum_j U_j`` and with the pure exact backend, and replay it through the
same oracles a solver's result goes through.  Equality decides, never a
gap: a cycle whose sequential booking lands within ``rel_gap`` of the bound
but below it must still go to the solver.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.api import Scheduler
from repro.cluster import Cluster, ClusterState
from repro.core import (JobRequest, PriorityClass, StrlCompiler,
                        TetriSchedConfig)
from repro.core.compiler import (CompiledBatch, PreemptionCandidate,
                                 ResizeCandidate)
from repro.pipeline.stages import solve_batch
from repro.sim.adapters import TetriSchedAdapter
from repro.sim.engine import Simulation
from repro.solver import make_backend
from repro.solver.options import SolveOptions
from repro.strl import (Barrier, ElasticNCk, LnCk, Max, Min, NCk, Scale,
                        SpaceOption, Sum)
from repro.valuefn import StepValue
from repro.verify import check_certificate
from repro.workloads import COMPOSITIONS, GridmixConfig, generate_workload

NODES = [f"n{i}" for i in range(8)]
UNIVERSE = frozenset(NODES)
QUANTUM = 10.0


@st.composite
def _leaf(draw):
    nodes = frozenset(draw(st.permutations(NODES))[:draw(st.integers(1, 8))])
    # Few distinct values, so equally good leaves (and jobs) are common.
    return NCk(nodes, draw(st.integers(1, len(nodes))),
               draw(st.integers(0, 4)), draw(st.integers(1, 3)),
               float(draw(st.sampled_from([0.0, 1.0, 2.0, 2.0, 5.0, 7.5]))))


@st.composite
def _flat_batches(draw):
    exprs = draw(st.lists(
        st.one_of(_leaf(), st.lists(_leaf(), min_size=1, max_size=6)
                  .map(lambda leaves: Max(*leaves))),
        min_size=1, max_size=5))
    return [(f"job{i}", expr) for i, expr in enumerate(exprs)]


@st.composite
def _states(draw):
    """A cluster with random running jobs and drained nodes."""
    state = ClusterState(UNIVERSE)
    free = list(draw(st.permutations(NODES)))
    for i in range(draw(st.integers(0, 4))):
        held = [free.pop() for _ in range(min(len(free),
                                              draw(st.integers(1, 3))))]
        if held:
            state.start(f"run{i}", frozenset(held), 0.0,
                        draw(st.sampled_from([5.0, 15.0, 25.0, 45.0])))
    if free and draw(st.booleans()):
        state.drain(free.pop())
    return state


def _bound(compiled: CompiledBatch) -> float:
    """``sum_j U_j`` leaf by leaf: each job's best value among its leaves
    that fit the cycle's supply on their own."""
    ub = compiled.model.to_sparse_arrays().ub
    best: dict[str, float] = {}
    for rec in compiled.leaf_records:
        leaf = rec.leaf
        room = sum(min(ub[col] * rec.coef, compiled.availability[pid][
            leaf.start:leaf.start + leaf.duration].min())
            for pid, col in rec.partition_cols.items())
        if room >= leaf.k:
            best[rec.job_id] = max(best.get(rec.job_id, 0.0), leaf.value)
    return sum(best.values())


class _NeverCalled:
    def solve(self, model, options=None):
        raise AssertionError("a directly booked batch reached the backend")


def _result_as_the_cycle_builds_it(compiled: CompiledBatch):
    sched = SimpleNamespace(config=TetriSchedConfig(),
                            _backend=_NeverCalled())
    return solve_batch(sched, compiled, None, None)


class TestBookedPointIsTheOptimum:
    @settings(max_examples=150, deadline=None)
    @given(_states(), _flat_batches(), st.booleans())
    def test_point_is_feasible_certified_and_attains_the_bound(
            self, state, batch, minimal):
        compiled = StrlCompiler(
            state, QUANTUM, minimal_partitioning=minimal).compile(batch)
        assert compiled.flat
        x, miss = compiled.book_directly()
        exact = make_backend("pure").solve(
            compiled.model, options=SolveOptions(rel_gap=1e-9))
        bound = _bound(compiled)
        assert exact.objective <= bound + 1e-9
        event("booked" if x is not None else "missed")
        if x is None:
            job_id, pid, quantum = miss
            assert job_id in compiled.job_order
            assert pid in compiled.availability
            assert 0 <= quantum < compiled.horizon
            return
        assert compiled.model.check_feasible(x)
        res = _result_as_the_cycle_builds_it(compiled)
        assert np.array_equal(res.x, x)
        assert check_certificate(compiled.model, res).ok
        assert res.gap == 0.0 and res.bound == res.objective
        assert res.nodes == 0 and res.stats == {"direct_booking": 1}
        assert res.objective == pytest.approx(bound, rel=1e-12, abs=1e-12)
        assert res.objective == pytest.approx(exact.objective, abs=1e-9)

    def test_an_idle_cluster_books_every_job(self):
        batch = [(f"job{i}", Max(NCk(UNIVERSE, 2, 0, 2, 5.0),
                                 NCk(UNIVERSE, 2, 1, 2, 4.0)))
                 for i in range(4)]
        compiled = StrlCompiler(ClusterState(UNIVERSE), QUANTUM).compile(batch)
        x, miss = compiled.book_directly()
        assert miss is None
        assert compiled.scheduled_jobs(x) == {job_id for job_id, _ in batch}
        assert {p.start for p in compiled.decode(x)} == {0}

    def test_equally_good_leaves_are_tried_before_giving_up(self):
        """The job's first best leaf is taken; its twin on the other half
        of the cluster is worth exactly as much, so the bound still holds."""
        left, right = frozenset(NODES[:4]), frozenset(NODES[4:])
        batch = [("a", NCk(left, 4, 0, 2, 5.0)),
                 ("b", Max(NCk(left, 4, 0, 2, 3.0), NCk(right, 4, 0, 2, 3.0)))]
        compiled = StrlCompiler(ClusterState(UNIVERSE), QUANTUM).compile(batch)
        x, miss = compiled.book_directly()
        assert miss is None
        assert float(-compiled.model.to_sparse_arrays().c @ x) == 8.0

    def test_a_wide_leaf_leaves_the_narrow_partition_alone(self):
        """Job ``a`` can run anywhere, job ``b`` only on n0-n1: drawing
        ``a``'s nodes in plain partition order would strand ``b``."""
        batch = [("a", NCk(UNIVERSE, 6, 0, 2, 5.0)),
                 ("b", NCk(frozenset(NODES[:2]), 2, 0, 2, 5.0))]
        compiled = StrlCompiler(ClusterState(UNIVERSE), QUANTUM).compile(batch)
        x, miss = compiled.book_directly()
        assert miss is None and compiled.model.check_feasible(x)


class TestWhereTheBoundDoesNotHold:
    LEAF = NCk(UNIVERSE, 2, 0, 2, 5.0)

    @pytest.mark.parametrize("expr", [
        Min(NCk(frozenset(NODES[:4]), 2, 0, 2, 5.0),
            NCk(frozenset(NODES[4:]), 2, 0, 2, 5.0)),
        Barrier(LEAF, 3.0),
        LnCk(UNIVERSE, 4, 0, 2, 8.0),
        ElasticNCk(UNIVERSE, 2, 3, 0, (3, 2), (4.0, 5.0)),
        Sum(LEAF, NCk(UNIVERSE, 2, 1, 2, 4.0)),
        Max(LEAF, Sum(LEAF, NCk(UNIVERSE, 2, 2, 2, 1.0))),
        Scale(LEAF, 2.0),
    ], ids=lambda e: type(e).__name__)
    def test_a_job_that_is_not_flat_goes_to_the_solver(self, expr):
        compiled = StrlCompiler(ClusterState(UNIVERSE), QUANTUM).compile(
            [("flat", self.LEAF), ("other", expr)])
        assert not compiled.flat
        assert compiled.book_directly() == (None, None)

    def test_preemption_and_resize_credits_go_to_the_solver(self):
        state = ClusterState(UNIVERSE)
        held = frozenset(NODES[:2])
        state.start("running", held, 0.0, 30.0)
        compiler = StrlCompiler(state, QUANTUM)
        batch = [("new", self.LEAF)]
        assert compiler.compile(batch).book_directly()[0] is not None
        killable = compiler.compile(batch, preemptible=[
            PreemptionCandidate("running", held, penalty=1.0)])
        assert killable.flat and killable.book_directly() == (None, None)
        resizable = compiler.compile(
            batch + [("running", NCk(held, 2, 0, 3, 1.0))],
            resizable=[ResizeCandidate("running", held)])
        assert resizable.flat and resizable.book_directly() == (None, None)


def _open(rel_gap=0.01, **kw):
    return Scheduler.open(
        Cluster.build(racks=1, nodes_per_rack=4),
        TetriSchedConfig(quantum_s=10, cycle_s=10, plan_ahead_s=40,
                         rel_gap=rel_gap, **kw))


def _submit_gangs_of_three(api, jobs=("a", "b")):
    for job_id in jobs:
        api.submit(JobRequest(
            job_id, (SpaceOption(api.cluster.node_names, 3, 20.0),),
            StepValue(1000.0, 500.0), PriorityClass.SLO_ACCEPTED, 0.0,
            deadline=500.0))


class TestContendedCycleGoesToTheSolver:
    def test_two_jobs_one_slot_misses_and_names_what_was_binding(self):
        state = ClusterState(frozenset(NODES[:4]))
        slot = frozenset(NODES[:4])
        batch = [(job_id, Max(NCk(slot, 3, 0, 2, 10.0), NCk(slot, 3, 2, 2, 9.0)))
                 for job_id in ("a", "b")]
        compiled = StrlCompiler(state, QUANTUM).compile(batch)
        x, miss = compiled.book_directly()
        assert x is None
        assert miss == ("b", 0, 0)

    def test_the_cycle_result_is_the_solvers(self, monkeypatch):
        """With the fast path missing, the cycle is the one the parent ran."""
        results = []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(CompiledBatch, "book_directly",
                                    lambda self: (None, None))
            api = _open(audit_mode=True)
            _submit_gangs_of_three(api)
            res = api.run_cycle(0.0)
            results.append((sorted((a.job_id, a.nodes, a.expected_end)
                                   for a in res.allocations),
                            res.stats.objective, res.stats.solves,
                            res.stats.pending))
        assert results[0] == results[1]
        assert results[0][2] == 1 and results[0][3] == 1

    def test_equality_not_the_gap_decides(self):
        """Booking ``a`` now and ``b`` two quanta later is within 0.3 % of
        ``sum_j U_j`` — inside ``rel_gap = 2 %`` — yet below it: the solver
        must be asked."""
        api = _open(rel_gap=0.02, audit_mode=True)
        _submit_gangs_of_three(api)
        compiled = StrlCompiler(api.core.state, 10.0).compile(
            [(job_id, api.core._generate(req, 0.0))
             for job_id, req in api.core.queues.items()])
        values = sorted({leaf.value for leaf in compiled.leaves},
                        reverse=True)
        sequential, bound = values[0] + values[2], 2 * values[0]
        assert 0.0 < (bound - sequential) / bound < 0.02
        assert compiled.book_directly()[0] is None
        stats = api.run_cycle(0.0).stats
        assert stats.solves == 1
        assert stats.objective == pytest.approx(sequential)


class TestTelemetry:
    def test_booked_cycle_counts_and_missed_cycle_says_why(self):
        sink = obs.JsonlSink()
        registry = obs.set_enabled(True, sink=sink)
        try:
            api = _open()
            _submit_gangs_of_three(api, jobs=("a",))
            booked = api.run_cycle(0.0).stats
            _submit_gangs_of_three(api, jobs=("b", "c"))
            missed = api.run_cycle(10.0).stats
            counters = registry.snapshot()["counters"]
        finally:
            obs.set_enabled(False)
        assert (booked.solves, booked.solver_nodes, booked.launched) == (0, 0, 1)
        assert missed.solves == 1
        assert counters["scheduler.direct_booking.booked"] == 1
        [event] = sink.of_kind("scheduler.direct_booking.miss")
        # ``a`` holds three of the four nodes until t=20: ``b`` fits at
        # quantum 1 and takes what ``c`` needed there.
        assert (event["job"], event["partition"], event["quantum"]) \
            == ("c", 0, 1)


def test_audited_gs_het_simulation_runs_clean_with_the_fast_path_firing():
    cluster = Cluster.build(racks=4, nodes_per_rack=4, gpu_racks=2)
    jobs = generate_workload(COMPOSITIONS["GS HET"], cluster,
                             GridmixConfig(num_jobs=24, seed=11))
    adapter = TetriSchedAdapter(cluster, TetriSchedConfig.partial(
        rel_gap=0.02, audit_mode=True))
    result = Simulation(cluster, adapter, jobs).run()  # audit raises if not
    # Cycles whose MILP was answered: an arrival cycle that misses the
    # certificate runs ``Solve`` too, but answers no block (components 0).
    solved = [s for s in adapter.cycle_history if s.components]
    booked = [s for s in solved if s.solves == 0]
    assert booked and len(booked) < len(solved)
    assert all(s.solver_nodes == 0 for s in booked)
    assert result.profile.counter("scheduler.direct_booked") == len(booked)
    assert result.profile.counter("scheduler.solve_cycles") == len(solved)
    assert all(o.completed for o in result.outcomes.values())
