"""Tests for elastic (malleable) jobs — the Sec. 4.1 space-time elasticity."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.api import Scheduler
from repro.cluster import Cluster
from repro.core import JobRequest, PriorityClass, TetriSchedConfig
from repro.errors import WorkloadError
from repro.sim import (ElasticType, ExecutionTrace, FaultModel, Job,
                       Simulation, TetriSchedAdapter, UnconstrainedType)
from repro.sim.faults import FaultDecision
from repro.sim.trace import LAUNCH, RESIZE
from repro.strl import SpaceOption
from repro.valuefn import StepValue
from repro.workloads.serialization import job_from_dict, job_to_dict
from tests.strategies import elastic_sim_workloads

UN = UnconstrainedType()


@pytest.fixture()
def cluster():
    return Cluster.build(racks=1, nodes_per_rack=8)


class TestElasticType:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            ElasticType(min_k=0)
        with pytest.raises(WorkloadError):
            ElasticType(efficiency=0.0)
        with pytest.raises(WorkloadError):
            ElasticType(efficiency=1.5)

    def test_options_cover_width_range(self, cluster):
        opts = ElasticType(min_k=2).options(cluster, k=4, runtime_s=10.0)
        widths = [o.k for o in opts]
        assert widths == [4, 3, 2]  # widest (fastest) first

    def test_work_conservation_perfect_scaling(self, cluster):
        t = ElasticType(min_k=1, efficiency=1.0)
        opts = {o.k: o.duration_s for o in t.options(cluster, 4, 10.0)}
        # Work = 40 node-seconds at every width.
        for width, dur in opts.items():
            assert width * dur == pytest.approx(40.0)

    def test_efficiency_penalty_below_full_width(self, cluster):
        t = ElasticType(min_k=1, efficiency=0.8)
        opts = {o.k: o.duration_s for o in t.options(cluster, 4, 10.0)}
        assert opts[4] == pytest.approx(10.0)           # reference width
        assert opts[2] == pytest.approx(20.0 / 0.8)     # penalized

    def test_true_runtime_matches_options(self, cluster):
        t = ElasticType(min_k=1, efficiency=0.9)
        nodes3 = frozenset(sorted(cluster.node_names)[:3])
        opts = {o.k: o.duration_s for o in t.options(cluster, 4, 10.0)}
        assert t.true_runtime(cluster, nodes3, 10.0, 4) == pytest.approx(
            opts[3])

    def test_min_k_larger_than_k_collapses(self, cluster):
        opts = ElasticType(min_k=9).options(cluster, k=4, runtime_s=10.0)
        assert [o.k for o in opts] == [4]

    def test_serialization_roundtrip(self):
        job = Job("e", ElasticType(min_k=2, efficiency=0.75), k=6,
                  base_runtime_s=10.0, submit_time=0.0)
        back = job_from_dict(job_to_dict(job))
        assert back.job_type == ElasticType(min_k=2, efficiency=0.75)


class TestElasticScheduling:
    def adapter(self, cluster):
        # These tests assert *the* optimal plan.  The earliness bias
        # separates "shrink now" from "wait for the full gang" by about
        # 0.1 % of the objective, inside the default 1 % ``rel_gap`` at
        # which a backend may stop, so they ask for an exact solve.
        return TetriSchedAdapter(cluster, TetriSchedConfig(
            quantum_s=10, cycle_s=10, plan_ahead_s=60, rel_gap=1e-6))

    def test_idle_cluster_gives_full_width(self, cluster):
        job = Job("e", ElasticType(min_k=1), k=8, base_runtime_s=20,
                  submit_time=0.0, deadline=200.0)
        res = Simulation(cluster, self.adapter(cluster), [job]).run()
        o = res.outcomes["e"]
        assert len(o.nodes) == 8                       # full width
        assert o.finish_time == pytest.approx(20.0)

    def test_busy_cluster_shrinks_width(self, cluster):
        """Under contention the elastic job takes fewer nodes and runs
        longer instead of waiting for the full gang."""
        rigid = Job("rigid", UN, k=6, base_runtime_s=40, submit_time=0.0,
                    deadline=45.0)  # must start now
        elastic = Job("e", ElasticType(min_k=1), k=8, base_runtime_s=10,
                      submit_time=0.0, deadline=300.0)
        res = Simulation(cluster, self.adapter(cluster),
                         [rigid, elastic]).run()
        rigid_out = res.outcomes["rigid"]
        e = res.outcomes["e"]
        assert rigid_out.met_deadline
        assert e.start_time == 0.0                     # no waiting
        assert len(e.nodes) == 2                       # remaining capacity
        # Work conservation: 8*10 node-seconds on 2 nodes -> 40s.
        assert e.finish_time - e.start_time == pytest.approx(40.0)

    def test_elastic_meets_deadline_by_widening(self, cluster):
        """A tight deadline forces a wide allocation even if narrow ones
        exist in the option list."""
        elastic = Job("e", ElasticType(min_k=1), k=8, base_runtime_s=10,
                      submit_time=0.0, deadline=15.0)
        res = Simulation(cluster, self.adapter(cluster), [elastic]).run()
        o = res.outcomes["e"]
        assert o.met_deadline
        assert len(o.nodes) == 8


def elastic_adapter(cluster, **kw):
    cfg = dict(quantum_s=10, cycle_s=10, plan_ahead_s=40, elastic_mode=True,
               reconfig_penalty=0.1, audit_mode=True)
    cfg.update(kw)
    return TetriSchedAdapter(cluster, TetriSchedConfig(**cfg))


class TestResizeLifecycle:
    """Grow/shrink edge cases of per-cycle width re-planning."""

    def test_shrink_under_pressure_never_below_min_width(self):
        """An SLO arrival squeezes the running gang, but only down to its
        declared minimum width."""
        cluster = Cluster.build(racks=1, nodes_per_rack=8)
        elastic = Job("e", ElasticType(min_k=2), k=8, base_runtime_s=40,
                      submit_time=0.0)
        rigid = Job("r", UN, k=6, base_runtime_s=20, submit_time=5.0,
                    deadline=35.0)  # only start quantum 10 meets it
        trace = ExecutionTrace()
        res = Simulation(cluster, elastic_adapter(cluster),
                         [elastic, rigid], trace=trace).run()
        assert res.outcomes["r"].met_deadline
        widths = [len(ev.nodes) for ev in trace.of_kind(RESIZE)
                  if ev.job_id == "e"]
        assert widths, "the gang never shrank to admit the SLO job"
        # It shrank (below 8) but never below its declared minimum; a
        # later grow-back to full width is fine.
        assert min(widths) < 8
        assert all(w >= 2 for w in widths)
        assert res.outcomes["e"].completed
        trace.check_no_double_booking()

    def test_grow_denied_under_congestion(self):
        """Freed capacity is not handed back to a shrunk gang while the
        pending backlog's minimum demand oversubscribes it (DRESS guard)."""
        cluster = Cluster.build(racks=1, nodes_per_rack=8)
        jobs = [
            # Launches alone at full width, shrinks to 2 when "r" arrives.
            Job("e", ElasticType(min_k=2), k=8, base_runtime_s=30,
                submit_time=0.0),
            Job("r", UN, k=6, base_runtime_s=20, submit_time=5.0,
                deadline=35.0),
        ] + [
            # Full-cluster jobs pending when r's 6 nodes free up at t=30:
            # min-demand (32) > 4x free (24), so every later cycle is
            # congested and "e" must not grow back into the hole.
            Job(f"big{i}", UN, k=8, base_runtime_s=20, submit_time=25.0)
            for i in range(4)
        ]
        trace = ExecutionTrace()
        res = Simulation(cluster, elastic_adapter(cluster), jobs,
                         trace=trace).run()
        widths = [len(ev.nodes) for ev in trace.of_kind(RESIZE)
                  if ev.job_id == "e"]
        assert widths == [2]  # the shrink happened; a grow-back never did
        o = res.outcomes["e"]
        assert len(o.nodes) == 2
        # Work done at width 8 for 10 s (1/3), remainder at width 2:
        # 2/3 * (8*30/2) = 80 s from t=10.
        assert o.finish_time == pytest.approx(90.0)
        assert all(res.outcomes[f"big{i}"].completed for i in range(4))
        trace.check_no_double_booking()

    def test_grow_back_when_capacity_frees(self):
        """Without a pending backlog the guard stays open and the shrunk
        gang reclaims freed nodes — when the earlier finish is worth more
        than the reconfiguration penalty (hence the small penalty here;
        at the default the same gang rationally stays narrow).

        The gang is long enough that full width is the *only* best plan
        when ``r`` finishes at t=30: width 8 needs 5 more quanta, widths 6
        and 7 need 6.  (At 30 s of work widths 6, 7 and 8 all round up to 2
        quanta, a genuine value tie that each backend breaks its own way.)
        """
        cluster = Cluster.build(racks=1, nodes_per_rack=8)
        jobs = [
            Job("e", ElasticType(min_k=2), k=8, base_runtime_s=52,
                submit_time=0.0),
            Job("r", UN, k=6, base_runtime_s=20, submit_time=5.0,
                deadline=35.0),
        ]
        trace = ExecutionTrace()
        res = Simulation(cluster,
                         elastic_adapter(cluster, reconfig_penalty=0.01),
                         jobs, trace=trace).run()
        widths = [len(ev.nodes) for ev in trace.of_kind(RESIZE)
                  if ev.job_id == "e"]
        assert widths and widths[-1] == 8  # grew back to full width
        o = res.outcomes["e"]
        assert o.resizes >= 2 and o.completed
        # Growing must beat staying narrow: staying at width 2 from t=10
        # would finish at t=178.
        assert o.finish_time < 178.0
        trace.check_no_double_booking()


class _FailFirstAttempt(FaultModel):
    """Fails a specific job's first attempt at a fixed work fraction."""

    def __init__(self, job_id: str, at_fraction: float):
        super().__init__(failure_prob=0.5, retry_limit=3, seed=0)
        self._job_id = job_id
        self._at = at_fraction

    def draw(self, job_id, attempt):
        if job_id == self._job_id and attempt == 0:
            return FaultDecision(fails=True, at_fraction=self._at)
        return FaultDecision(fails=False)


class TestFaultDuringResize:
    def test_failure_after_shrink_reenters_at_current_width(self):
        """Regression: a node failure striking after a resize must re-queue
        the gang at its *current* width, not the width it was submitted
        with — otherwise the retry demands nodes the job no longer holds
        and the truth model diverges from the scheduler's options."""
        cluster = Cluster.build(racks=1, nodes_per_rack=8)
        # e runs at 8 from t=0; r forces a shrink to 4 at t=10; the fault
        # strikes at 80% of e's work, well inside the resized segment.
        elastic = Job("e", ElasticType(min_k=2), k=8, base_runtime_s=20,
                      submit_time=0.0)
        rigid = Job("r", UN, k=4, base_runtime_s=20, submit_time=5.0,
                    deadline=35.0)
        trace = ExecutionTrace()
        sim = Simulation(cluster, elastic_adapter(cluster), [elastic, rigid],
                         trace=trace, faults=_FailFirstAttempt("e", 0.8))
        res = sim.run()
        o = res.outcomes["e"]
        assert o.failures == 1 and o.resizes >= 1 and o.completed
        # The engine rebased the job itself to the shrunk width...
        assert sim.jobs["e"].k == len(trace.of_kind(RESIZE)[-1].nodes)
        # ...and the retry launched at that width, not the submitted 8.
        retry = [ev for ev in trace.of_kind(LAUNCH) if ev.job_id == "e"][-1]
        assert len(retry.nodes) == sim.jobs["e"].k < 8
        trace.check_no_double_booking()


class TestElasticProperties:
    """Random mixed workloads: system invariants under width re-planning."""

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(jobs=elastic_sim_workloads())
    def test_replanning_never_violates_capacity(self, jobs):
        cluster = Cluster.build(racks=2, nodes_per_rack=3)
        trace = ExecutionTrace()
        res = Simulation(cluster, elastic_adapter(cluster), jobs,
                         trace=trace, max_time_s=50_000).run()
        # No node is ever double-booked, across launches AND resizes (the
        # audit oracle also ran every cycle: audit_mode=True above).
        trace.check_no_double_booking()
        by_id = {j.job_id: j for j in jobs}
        for ev in trace.of_kind(LAUNCH) + trace.of_kind(RESIZE):
            job = by_id[ev.job_id]
            if isinstance(job.job_type, ElasticType):
                lo = min(job.job_type.min_k, job.k, len(cluster))
                assert lo <= len(ev.nodes) <= job.k
            else:
                assert len(ev.nodes) == job.k
        for job in jobs:
            o = res.outcomes[job.job_id]
            if o.completed:
                assert o.finish_time > o.start_time >= job.submit_time - 1e-9


class TestElasticBeatsRigid:
    """Width re-planning against rigid max-width gangs, 8 racks x 32 nodes.

    One malleable gang per rack (3/4 rack preferred, ladder down to half,
    work-conserving durations) plus bursts of three half-rack SLO jobs per
    rack at cycles 2 and 5, each due within three quanta.  Beside a rigid
    3/4-rack gang only a quarter rack is free, so every SLO job is culled;
    a gang shrunk to half a rack leaves exactly the room to run them back
    to back.  The rigid arm submits the same gangs at their widest option
    only.  Gangs contribute the same node-seconds in both arms, so the
    utilization gap is the SLO work the cluster could also admit.
    """

    QUANTUM = 8.0
    HORIZON_Q = 8
    BURSTS = (2, 5)

    def gangs(self, cluster, elastic):
        for rack in sorted(cluster.rack_names):
            nodes = cluster.rack_nodes(rack)
            top, lo = (3 * len(nodes)) // 4, len(nodes) // 2
            yield JobRequest(
                job_id=f"{rack}-gang",
                options=tuple(SpaceOption(
                    nodes, k=w, label=f"w{w}",
                    duration_s=-(-top * self.HORIZON_Q // w) * self.QUANTUM)
                    for w in range(top, (lo if elastic else top) - 1, -1)),
                value_fn=StepValue(value=5.0, deadline=1e9),
                priority=PriorityClass.BEST_EFFORT, submit_time=0.0,
                elastic=elastic)

    def burst(self, cluster, cycle):
        now = cycle * self.QUANTUM
        deadline = now + 3 * self.QUANTUM
        for rack in sorted(cluster.rack_names):
            nodes = cluster.rack_nodes(rack)
            for j in range(3):
                yield JobRequest(
                    job_id=f"b{cycle}-{rack}-slo{j}",
                    options=(SpaceOption(nodes, k=len(nodes) // 2,
                                         duration_s=self.QUANTUM),),
                    value_fn=StepValue(value=50.0, deadline=deadline),
                    priority=PriorityClass.SLO_ACCEPTED, submit_time=now,
                    deadline=deadline)

    def run_arm(self, elastic):
        """One arm run until the cluster drains, so each is scored over its
        own makespan (a shrunk gang runs longer; cutting it off early would
        flatter the elastic arm)."""
        cluster = Cluster.build(racks=8, nodes_per_rack=32)
        api = Scheduler.open(cluster, TetriSchedConfig(
            quantum_s=self.QUANTUM, cycle_s=self.QUANTUM, plan_ahead_s=64.0,
            rel_gap=1e-6, elastic_mode=elastic, audit_mode=True))
        requests = {}
        for job in self.gangs(cluster, elastic):
            requests[job.job_id] = job
            api.submit(job)
        ends, done = {}, set()
        busy_node_s, resizes = 0.0, 0
        for c in range(24):
            now = c * self.QUANTUM
            for job_id, end in sorted(ends.items()):
                if job_id not in done and end <= now + 1e-9:
                    api.job_finished(job_id, now)
                    done.add(job_id)
            if c in self.BURSTS:
                for job in self.burst(cluster, c):
                    requests[job.job_id] = job
                    api.submit(job)
            res = api.run_cycle(now)
            resizes += len(res.resized)
            ends.update((a.job_id, a.expected_end) for a in res.allocations)
            busy = len(cluster) - len(api.core.state.free_nodes())
            busy_node_s += busy * self.QUANTUM
            if busy == 0 and api.pending_count == 0 and c >= max(self.BURSTS):
                break
        else:
            pytest.fail("cluster never drained")
        api.close()
        makespan = max(ends.values())
        return {
            "utilization": busy_node_s / (len(cluster) * makespan),
            # Each launched job scored once, at its final (resize-adjusted)
            # expected completion; culled jobs score zero.
            "value": sum(requests[j].value_fn(end) for j, end in ends.items()),
            "resizes": resizes,
            "slo_completed": sum(1 for j in ends if "-slo" in j),
        }

    def test_elastic_wins_on_utilization_and_value(self):
        rigid, elastic = self.run_arm(False), self.run_arm(True)
        assert elastic["utilization"] > rigid["utilization"]
        assert elastic["utilization"] == pytest.approx(0.818, abs=5e-4)
        assert rigid["utilization"] == pytest.approx(0.750, abs=5e-4)
        assert elastic["value"] > rigid["value"]
        assert elastic["resizes"] > 0 and rigid["resizes"] == 0
        assert (rigid["slo_completed"], elastic["slo_completed"]) == (0, 48)
