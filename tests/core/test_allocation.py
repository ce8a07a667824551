"""Tests for PlanAccumulator and Allocation."""

import pytest

from repro.api import Scheduler
from repro.cluster import Cluster, ClusterState, Partitioning
from repro.core import (Allocation, JobRequest, PlanAccumulator,
                        PriorityClass, TetriSchedConfig)
from repro.errors import SchedulerError
from repro.pipeline import stages
from repro.strl import SpaceOption
from repro.valuefn import StepValue

UNIVERSE = frozenset({"a", "b", "c", "d"})


@pytest.fixture()
def state():
    return ClusterState(UNIVERSE)


class TestAllocation:
    def test_valid(self):
        a = Allocation("j", frozenset({"a"}), 0.0, 10.0)
        assert a.nodes == frozenset({"a"})

    def test_empty_nodes_rejected(self):
        with pytest.raises(SchedulerError):
            Allocation("j", frozenset(), 0.0, 10.0)

    def test_bad_interval_rejected(self):
        with pytest.raises(SchedulerError):
            Allocation("j", frozenset({"a"}), 10.0, 10.0)


class TestPlanAccumulator:
    def test_seeds_from_running_jobs(self, state):
        state.start("r", frozenset({"a"}), 0.0, 25.0)
        acc = PlanAccumulator(state, now=0.0, quantum_s=10.0)
        assert not acc.is_free("a", 0, 1)
        assert not acc.is_free("a", 2, 1)
        assert acc.is_free("a", 3, 1)
        assert acc.is_free("b", 0, 5)

    def test_reserve_and_conflict(self, state):
        acc = PlanAccumulator(state, 0.0, 10.0)
        acc.reserve(["a"], 1, 2)
        assert acc.is_free("a", 0, 1)
        assert not acc.is_free("a", 1, 2)
        with pytest.raises(SchedulerError):
            acc.reserve(["a"], 2, 1)

    def test_availability_profile_counts(self, state):
        state.start("r", frozenset({"a"}), 0.0, 15.0)
        acc = PlanAccumulator(state, 0.0, 10.0)
        acc.reserve(["b"], 1, 1)
        assert acc.availability_profile(UNIVERSE, 3, 0.0, 10.0) == [3, 2, 4]

    def test_interval_free_count(self, state):
        acc = PlanAccumulator(state, 0.0, 10.0)
        acc.reserve(["a"], 0, 1)
        acc.reserve(["b"], 1, 1)
        # Whole interval [0,2): only c,d free both quanta.
        assert acc.interval_free_count(UNIVERSE, 0, 2) == 2

    def test_pick_reserves_chosen_nodes(self, state):
        part = Partitioning(UNIVERSE, [UNIVERSE])
        acc = PlanAccumulator(state, 0.0, 10.0)
        nodes = acc.pick(part, {0: 2}, 0, 2)
        assert len(nodes) == 2
        for n in nodes:
            assert not acc.is_free(n, 0, 2)

    def test_pick_insufficient_raises(self, state):
        part = Partitioning(UNIVERSE, [UNIVERSE])
        acc = PlanAccumulator(state, 0.0, 10.0)
        acc.reserve(["a", "b", "c"], 0, 1)
        with pytest.raises(SchedulerError):
            acc.pick(part, {0: 2}, 0, 1)

    def test_pick_deterministic(self, state):
        part = Partitioning(UNIVERSE, [UNIVERSE])
        acc1 = PlanAccumulator(state, 0.0, 10.0)
        acc2 = PlanAccumulator(state, 0.0, 10.0)
        assert acc1.pick(part, {0: 2}, 0, 1) == acc2.pick(part, {0: 2}, 0, 1)

    def test_unreserve_releases_capacity(self, state):
        part = Partitioning(UNIVERSE, [UNIVERSE])
        acc = PlanAccumulator(state, 0.0, 10.0)
        nodes = acc.pick(part, {0: 2}, 0, 2)
        acc.unreserve(nodes, 0, 2)
        for n in nodes:
            assert acc.is_free(n, 0, 2)
        # The freed quanta are reservable again.
        acc.reserve(sorted(nodes), 0, 2)

    def test_unreserve_partial_span_keeps_rest(self, state):
        acc = PlanAccumulator(state, 0.0, 10.0)
        acc.reserve(["a"], 0, 3)
        acc.unreserve(frozenset({"a"}), 2, 1)
        assert not acc.is_free("a", 0, 2)
        assert acc.is_free("a", 2, 1)

    def test_unreserve_unreserved_raises(self, state):
        acc = PlanAccumulator(state, 0.0, 10.0)
        with pytest.raises(SchedulerError):
            acc.unreserve(frozenset({"a"}), 0, 1)


class TestGridFollowsTheHorizon:
    """The occupancy grid covers the quanta a cycle reads, not the longest
    hold: a job expected to run for 1e6 s does not make it 25 000 wide."""

    def test_pick_past_a_long_hold(self, state):
        state.start("long", frozenset({"a"}), 0.0, 1e6)
        acc = PlanAccumulator(state, 0.0, 10.0, horizon=3)
        part = Partitioning(UNIVERSE, [UNIVERSE])
        assert acc.pick(part, {0: 2}, 0, 3) == frozenset({"b", "c"})
        assert not acc.is_free("a", 40, 2)  # read past the grid: it grows
        assert acc.pick(part, {0: 1}, 0, 3) == frozenset({"d"})
        assert acc._occ.shape[0] <= 2 * 42

    def test_a_cycle_grid_is_its_batch_horizon(self, monkeypatch):
        made: list[PlanAccumulator] = []

        class Recording(PlanAccumulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(stages, "PlanAccumulator", Recording)
        api = Scheduler.open(Cluster.build(racks=1, nodes_per_rack=4),
                             TetriSchedConfig(quantum_s=10, cycle_s=10,
                                              plan_ahead_s=40))
        api.core.state.start("long", frozenset({"r0n0"}), 0.0, 1e6)
        api.submit(JobRequest(
            "j", (SpaceOption(api.cluster.node_names, 2, 20.0),),
            StepValue(10.0, 1000.0), PriorityClass.BEST_EFFORT, 0.0))
        [alloc] = api.run_cycle(0.0).allocations
        assert alloc.nodes == frozenset({"r0n1", "r0n2"})
        # Starts 0..4, two quanta each: the batch reads quanta 0..5.
        [acc] = made
        assert acc._occ.shape == (6, 4)
