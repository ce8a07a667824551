"""The carried cluster view against a from-scratch derivation.

``ClusterState`` maintains a per-node release-time vector across ``start`` /
``finish`` / ``extend_expectation`` and keeps the partitionings it was asked
for; a cycle reads both instead of rebuilding them.  The reference here is
the loop the state used to run on every read — walk every running
allocation, then overlay the drained nodes — and ``Partitioning`` built from
scratch.
"""

import math
import random

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.cluster import ClusterState, Partitioning
from repro.cluster.state import HELD_FOREVER, PARTITIONINGS_KEPT
from repro.core import StrlCompiler
from repro.strl import Max, NCk

NODES = [f"n{i:02d}" for i in range(12)]
UNIVERSE = frozenset(NODES)
GROUPS = [UNIVERSE, frozenset(NODES[:5]), frozenset(NODES[3:9]),
          frozenset(NODES[8:]), frozenset(NODES[::2])]
QUANTA = st.sampled_from([1.0, 4.0, 10.0, 0.3])


def reference_held(state: ClusterState, now: float, quantum_s: float):
    """What ``held_quanta`` recomputed from the allocations on every read."""
    busy: dict[str, int] = {}
    for alloc in state.running_jobs:
        remaining = alloc.expected_end - now
        quanta = max(1, math.ceil(remaining / quantum_s - 1e-9))
        for n in alloc.nodes:
            busy[n] = max(busy.get(n, 0), quanta)
    held = [busy.get(n, 0) for n in state.node_order]
    for n in state.drained_nodes:
        held[state.node_order.index(n)] = HELD_FOREVER
    return busy, held


class CarriedView(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.state = ClusterState(UNIVERSE)
        self.clock = 0.0
        self.jobs = 0

    @rule(dt=st.floats(0.0, 37.0))
    def time_passes(self, dt):
        self.clock += dt  # lands off quantum boundaries; jobs go overdue

    def idle(self):
        """Nodes no job holds, drained or not: the ledger does not refuse a
        drained node, and drained-busy is a state the view must read right."""
        return sorted(UNIVERSE - {n for a in self.state.running_jobs
                                  for n in a.nodes})

    @precondition(lambda self: self.idle())
    @rule(data=st.data(), runtime=st.floats(0.01, 90.0))
    def start(self, data, runtime):
        nodes = data.draw(st.sets(st.sampled_from(self.idle()), min_size=1,
                                  max_size=4))
        self.jobs += 1
        self.state.start(f"j{self.jobs}", frozenset(nodes), self.clock,
                         self.clock + runtime)

    @precondition(lambda self: self.state.running_jobs)
    @rule(data=st.data())
    def finish(self, data):
        job = data.draw(st.sampled_from(self.state.running_jobs))
        assert self.state.finish(job.job_id) == job.nodes

    @precondition(lambda self: self.state.running_jobs)
    @rule(data=st.data(), shift=st.floats(-20.0, 60.0))
    def extend(self, data, shift):
        job = data.draw(st.sampled_from(self.state.running_jobs))
        self.state.extend_expectation(job.job_id, job.expected_end + shift)

    @rule(node=st.sampled_from(NODES))
    def drain(self, node):
        self.state.drain(node)

    @rule(node=st.sampled_from(NODES))
    def restore(self, node):
        self.state.restore(node)  # also while a job still runs on it

    @rule(quantum_s=QUANTA, horizon=st.integers(0, 9), data=st.data())
    def read(self, quantum_s, horizon, data):
        state, now = self.state, self.clock
        busy, held = reference_held(state, now, quantum_s)
        got = state.held_quanta(now, quantum_s)
        assert got.dtype == np.int64 and got.tolist() == held
        assert state.busy_quanta(now, quantum_s) == busy
        for group in data.draw(st.lists(st.sampled_from(GROUPS), max_size=3)):
            want = [sum(held[state.node_order.index(n)] <= t for n in group)
                    for t in range(horizon)]
            assert state.availability_profile(
                group, horizon, now, quantum_s) == want
        if horizon:
            family = frozenset(data.draw(st.sets(st.sampled_from(GROUPS))))
            parts = state.partitioning(family)
            grid = state.availability_grid(parts, horizon, now, quantum_s)
            assert grid.tolist() == [
                state.availability_profile(p.nodes, horizon, now, quantum_s)
                for p in parts.partitions]

    @invariant()
    def the_cached_vector_follows_every_mutation(self):
        _, held = reference_held(self.state, self.clock, 4.0)
        assert self.state.held_quanta(self.clock, 4.0).tolist() == held


CarriedView.TestCase.settings = settings(max_examples=60,
                                         stateful_step_count=30,
                                         deadline=None)
TestCarriedView = CarriedView.TestCase


def test_drain_finish_restore_reads_as_it_always_did():
    state = ClusterState(UNIVERSE)
    state.start("j", frozenset(NODES[:2]), 0.0, 25.0)
    state.drain(NODES[0])
    assert state.held_quanta(0.0, 10.0)[:3].tolist() == [HELD_FOREVER, 3, 0]
    state.restore(NODES[0])  # restored while running: the job's quanta again
    assert state.held_quanta(0.0, 10.0)[:3].tolist() == [3, 3, 0]
    state.drain(NODES[0])
    state.finish("j")
    assert state.held_quanta(0.0, 10.0)[:3].tolist() == [HELD_FOREVER, 0, 0]
    state.restore(NODES[0])
    assert not state.held_quanta(0.0, 10.0).any()


def same_partitioning(a: Partitioning, b: Partitioning, family) -> None:
    assert a.partitions == b.partitions
    for es in family:
        assert a.partitions_of(es) == b.partitions_of(es)
        pids, rows = a.parts_of(es)
        assert pids == tuple(p.pid for p in a.partitions_of(es))
        order = sorted(a.universe)
        assert [frozenset(order[r] for r in part) for part in rows] == [
            p.nodes for p in a.partitions_of(es)]
        assert all((np.diff(part) > 0).all() for part in rows)
    for pid, rows in enumerate(a.rows):
        assert (a.node_pid[rows] == pid).all()


def test_a_memoised_partitioning_is_the_one_built_from_scratch():
    rng = random.Random(7)
    state = ClusterState(UNIVERSE)
    for _ in range(40):
        family = rng.sample(GROUPS, rng.randint(0, len(GROUPS)))
        kept = state.partitioning(frozenset(family))
        assert state.partitioning(frozenset(reversed(family))) is kept
        rng.shuffle(family)
        same_partitioning(kept, Partitioning(UNIVERSE, family), family)
        # Busy and drained nodes do not enter.
        state.drain(rng.choice(NODES))
        state.restore(rng.choice(NODES))


def test_the_memo_is_bounded():
    state = ClusterState(UNIVERSE)
    singles = [frozenset({frozenset({n})}) for n in NODES]
    assert len(singles) > PARTITIONINGS_KEPT
    first = state.partitioning(singles[0])
    for family in singles:
        state.partitioning(family)
    assert state.partitioning.cache_info().currsize == PARTITIONINGS_KEPT
    fresh = state.partitioning(singles[0])  # evicted, rebuilt, equal
    assert fresh is not first
    same_partitioning(fresh, first, singles[0])


def test_compiles_share_a_partitioning_but_not_the_per_node_ablation():
    state = ClusterState(UNIVERSE)
    exprs = [Max(NCk(GROUPS[1], 2, 0, 2, 3.0), NCk(GROUPS[2], 2, 1, 2, 2.0)),
             NCk(UNIVERSE, 3, 0, 1, 1.0)]
    one = StrlCompiler(state, 10.0).build_partitioning(exprs)
    # Another cycle, another compiler, the sets met in another order.
    two = StrlCompiler(state, 10.0, now=4.0).build_partitioning(exprs[::-1])
    assert one is two
    same_partitioning(one, Partitioning(UNIVERSE, GROUPS[:3]), GROUPS[:3])

    ablation = StrlCompiler(state, 10.0, minimal_partitioning=False)
    a, b = (ablation.build_partitioning(exprs) for _ in range(2))
    assert a is not b and a.num_partitions == len(UNIVERSE)
    assert state.partitioning.cache_info().currsize == 1
