"""The occupancy grid == per-node sets of busy quanta.

``PlanAccumulator`` keeps one ``nodes x horizon`` boolean array; the
implementation it replaced kept a ``set`` of busy quanta per node.  The
set model lives on here as the reference: random operation sequences must
observe the same answers, the same errors and the same picked nodes on
both — including beyond the grid's initial width, where it has to grow.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterState, Partitioning
from repro.core import PlanAccumulator
from repro.errors import SchedulerError

NODES = tuple(f"n{i}" for i in range(6))
UNIVERSE = frozenset(NODES)
#: Two equivalence sets -> partitions {n0,n1}, {n2,n3}, {n4,n5}.
PARTITIONING = Partitioning(UNIVERSE, [frozenset(NODES[:4]),
                                       frozenset(NODES[2:])])
QUANTUM_S = 10.0


class SetAccumulator:
    """Reference semantics: ``busy[node]`` is the set of occupied quanta."""

    def __init__(self, running: dict[str, int], drained: set[str]) -> None:
        self.busy = {n: set(range(running.get(n, 0))) for n in NODES}
        self.drained = drained

    def is_free(self, node, start, duration):
        if node in self.drained:
            return duration == 0
        return all(t not in self.busy[node]
                   for t in range(start, start + duration))

    def free_nodes_within(self, nodes, start, duration):
        return [n for n in sorted(nodes) if self.is_free(n, start, duration)]

    def availability_profile(self, nodes, horizon):
        return [sum(self.is_free(n, t, 1) for n in nodes)
                for t in range(horizon)]

    def reserve(self, nodes, start, duration):
        span = range(start, start + duration)
        if any(not self.is_free(n, t, 1) for n in nodes for t in span):
            raise SchedulerError("double-reserved")
        for n in nodes:
            self.busy[n].update(span)

    def unreserve(self, nodes, start, duration):
        span = range(start, start + duration)
        if self.drained & set(nodes) or any(
                self.is_free(n, t, 1) for n in nodes for t in span):
            raise SchedulerError("was not reserved")
        for n in nodes:
            self.busy[n].difference_update(span)

    def pick(self, node_counts, start, duration):
        chosen = []
        for pid, count in sorted(node_counts.items()):
            free = self.free_nodes_within(
                PARTITIONING.partitions[pid].nodes, start, duration)
            if len(free) < count:
                raise SchedulerError("does not fit")
            chosen.extend(free[:count])
        self.reserve(chosen, start, duration)
        return frozenset(chosen)


node_sets = st.frozensets(st.sampled_from(NODES), min_size=1)
#: Starts reach past the grid's initial 32 columns, so it must grow.
intervals = st.tuples(st.integers(0, 70), st.integers(1, 6))
operations = st.one_of(
    st.tuples(st.just("reserve"), node_sets, intervals),
    st.tuples(st.just("unreserve"), node_sets, intervals),
    st.tuples(st.just("pick"),
              st.dictionaries(st.integers(0, 2), st.integers(1, 2),
                              min_size=1), intervals),
    st.tuples(st.just("query"), node_sets, intervals))


@st.composite
def scenarios(draw):
    running = draw(st.dictionaries(st.sampled_from(NODES),
                                   st.integers(1, 40), max_size=4))
    drained = draw(st.sets(st.sampled_from(NODES), max_size=2))
    return running, drained, draw(st.lists(operations, max_size=25))


def build(running: dict[str, int], drained: set[str]):
    state = ClusterState(UNIVERSE)
    for i, (node, quanta) in enumerate(sorted(running.items())):
        state.start(f"job{i}", frozenset({node}), 0.0, quanta * QUANTUM_S)
    for node in drained:
        state.drain(node)
    # A drained node is out of service whether or not a job still runs on it.
    return (PlanAccumulator(state, now=0.0, quantum_s=QUANTUM_S),
            SetAccumulator(running, drained))


def outcome(call):
    """A call's result, or the fact that it refused."""
    try:
        return call()
    except SchedulerError:
        return "refused"


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_grid_matches_set_semantics(scenario):
    running, drained, ops = scenario
    grid, ref = build(running, drained)
    for op, what, (start, duration) in ops:
        if op == "pick":
            got = outcome(lambda: grid.pick(PARTITIONING, what, start,
                                            duration))
            want = outcome(lambda: ref.pick(what, start, duration))
        elif op == "query":
            got = (grid.free_nodes_within(what, start, duration),
                   grid.interval_free_count(what, start, duration),
                   [grid.is_free(n, start, duration) for n in sorted(what)])
            free = ref.free_nodes_within(what, start, duration)
            want = (free, len(free),
                    [ref.is_free(n, start, duration) for n in sorted(what)])
        else:
            got = outcome(lambda: getattr(grid, op)(what, start, duration))
            want = outcome(lambda: getattr(ref, op)(what, start, duration))
        assert got == want, (op, what, start, duration)
        # A refused call leaves no trace; an accepted one the same trace.
        horizon = start + duration + 3
        assert (grid.availability_profile(UNIVERSE, horizon, 0.0, QUANTUM_S)
                == ref.availability_profile(UNIVERSE, horizon))


def test_errors_name_the_node_and_quantum():
    grid, _ = build({}, set())
    grid.reserve(["n1", "n2"], 3, 2)
    with pytest.raises(SchedulerError, match=r"'n2' double-reserved at "
                                             r"quantum 4"):
        grid.reserve(["n2"], 4, 3)
    with pytest.raises(SchedulerError, match=r"'n3' was not reserved at "
                                             r"quantum 3"):
        grid.unreserve(["n2", "n3"], 3, 1)
    # The refused calls changed nothing.
    assert not grid.is_free("n2", 3, 2) and grid.is_free("n2", 5, 10)
