"""The arrival cycle: ``run_cycle(now, arrival=True)``.

An off-period cycle right after a submission runs the ordinary pipeline with
``Solve`` restricted to the booking certificate.  What it may do is narrow:
launch exactly what a full cycle at the same instant would launch (a hit), or
nothing at all (a miss, or one of the constant-time refusals) — and whatever
it does, the periodic cycle's solver state (``_prev_plan``) is not its to
touch.
"""

import copy

import pytest
from hypothesis import HealthCheck, event, given, settings

from repro import obs
from repro.api import Scheduler
from repro.cluster import Cluster
from repro.core import JobRequest, PriorityClass, TetriSchedConfig
from repro.core import scheduler as scheduler_module
from repro.sim.adapters import request_from_job
from repro.strl import SpaceOption
from repro.valuefn import StepValue
from repro.verify.audit import check_ledger_orphans
from tests.strategies import sim_workloads

CYCLE = 10.0


def open_scheduler(cluster=None, **overrides):
    cluster = cluster or Cluster.build(racks=2, nodes_per_rack=3, gpu_racks=1)
    config = dict(quantum_s=CYCLE, cycle_s=CYCLE, plan_ahead_s=40.0,
                  backend="pure", audit_mode=True)
    config.update(overrides)
    return Scheduler.open(cluster, TetriSchedConfig(**config)).core


def gang(cluster, job_id, k, submit_time, dur=20.0):
    return JobRequest(
        job_id, (SpaceOption(cluster.node_names, k, dur),),
        StepValue(1000.0, submit_time + 400.0), PriorityClass.SLO_ACCEPTED,
        submit_time, deadline=submit_time + 400.0)


def snapshot(sched):
    """Everything a miss or a refusal must leave as it found it."""
    return (sched.queues.job_ids(),
            sorted((a.job_id, a.nodes, a.start_time, a.expected_end)
                   for a in sched.state.running_jobs),
            sorted(sched._launched), list(sched._prev_plan), sched._prev_now)


def outcome_of(sched, now):
    """(outcome, result) of one arrival cycle, read from its obs event."""
    sink = obs.JsonlSink()
    obs.set_enabled(True, sink=sink)
    try:
        result = sched.run_cycle(now, arrival=True)
    finally:
        obs.set_enabled(False)
    [record] = sink.of_kind("scheduler.arrival_cycle")
    assert record["launched"] == len(result.allocations)
    return record["outcome"], result


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(jobs=sim_workloads())
def test_an_arrival_cycle_launches_what_the_full_cycle_would_or_nothing(jobs):
    cluster = Cluster.build(racks=2, nodes_per_rack=3, gpu_racks=1)
    sched = open_scheduler(cluster)
    tick = 0.0

    def finish_due(now):
        for alloc in list(sched.state.running_jobs):
            if alloc.expected_end <= now:
                sched.on_job_finished(alloc.job_id, now)

    for job in jobs:
        now = job.submit_time
        while tick <= now:  # the timer's cycles up to the arrival
            finish_due(tick)
            sched.run_cycle(tick)
            tick += CYCLE
        finish_due(now)
        sched.submit(request_from_job(job, job.is_slo, cluster, sched.config))

        twin = copy.deepcopy(sched)
        before = snapshot(sched)
        outcome, arrival = outcome_of(sched, now)
        event(outcome)
        full = twin.run_cycle(now)

        # A cycle that runs culls what the full one culls (culling depends
        # on ``now`` alone); a refusal does not even look.
        assert arrival.culled == (full.culled if outcome in ("booked", "miss")
                                  else [])
        if outcome == "booked":
            assert arrival.allocations == full.allocations
            assert arrival.stats.solves == 0
        else:
            assert not arrival.allocations
            queue, *rest = before
            assert snapshot(sched) == (
                [j for j in queue if j not in arrival.culled], *rest)
        # Hit or not, the warm start still shifts the last periodic plan.
        assert (list(sched._prev_plan), sched._prev_now) == before[3:]
        assert not check_ledger_orphans(sched.state, sched._launched)


class TestRefusals:
    def test_a_burst_is_left_to_the_periodic_cycle(self):
        sched = open_scheduler()
        gap = CYCLE * scheduler_module.ARRIVAL_BURST_FRACTION
        sched.submit(gang(sched.cluster, "a", 1, submit_time=1.0))
        sched.submit(gang(sched.cluster, "b", 1, submit_time=1.0 + gap / 2))
        outcome, result = outcome_of(sched, 1.0 + gap / 2)
        assert outcome == "burst" and not result.allocations
        assert result.stats.stage_timings == {}  # nothing was built
        # The next arrival is a gap away again: the whole batch is booked.
        sched.submit(gang(sched.cluster, "c", 1, submit_time=3.0))
        outcome, result = outcome_of(sched, 3.0)
        assert outcome == "booked"
        assert sorted(a.job_id for a in result.allocations) == ["a", "b", "c"]

    def test_one_miss_then_refused_until_a_periodic_cycle_books(self):
        cluster = Cluster.build(racks=1, nodes_per_rack=4)
        sched = open_scheduler(cluster)
        # Two gangs of three on four nodes cannot both have their best.
        sched.submit(gang(cluster, "a", 3, submit_time=1.0))
        sched.submit(gang(cluster, "b", 3, submit_time=2.0))
        before = snapshot(sched)
        outcome, result = outcome_of(sched, 2.0)
        assert outcome == "miss"
        # A complete, empty cycle: every stage ran, no solver did.
        assert {"compile", "solve", "extract", "audit"} <= set(
            result.stats.stage_timings)
        assert (result.stats.solves, result.stats.components) == (0, 0)
        assert snapshot(sched) == before

        sched.submit(gang(cluster, "c", 1, submit_time=3.0))
        outcome, result = outcome_of(sched, 3.0)
        assert outcome == "contended" and result.stats.stage_timings == {}

        # The periodic cycle solves (one gang starts, the other is planned
        # behind it: still contended); the one after the first gang has
        # finished books the rest, which clears the flag.
        assert sched.run_cycle(10.0).stats.solves == 1
        sched.submit(gang(cluster, "d", 1, submit_time=14.0))
        assert outcome_of(sched, 14.0)[0] == "contended"
        for alloc in list(sched.state.running_jobs):
            sched.on_job_finished(alloc.job_id, 30.0)
        assert sched.run_cycle(30.0).stats.solves == 0
        sched.submit(gang(cluster, "e", 1, submit_time=34.0))
        assert outcome_of(sched, 34.0)[0] == "booked"

    @pytest.mark.parametrize("overrides", [
        dict(global_scheduling=False),  # the sharded input went with PR 23
    ])
    def test_greedy_and_sharded_schedulers_keep_their_period(self, overrides):
        sched = open_scheduler(**overrides)
        sched.submit(gang(sched.cluster, "a", 1, submit_time=1.0))
        outcome, result = outcome_of(sched, 1.0)
        assert outcome == "unsupported" and not result.allocations
        assert sched.pending_count == 1
        assert [a.job_id for a in sched.run_cycle(10.0).allocations] == ["a"]

    def test_a_plain_run_cycle_is_always_a_full_cycle(self):
        """Intent is passed, never inferred: repeated instants stay full."""
        cluster = Cluster.build(racks=1, nodes_per_rack=4)
        sched = open_scheduler(cluster)
        sched.submit(gang(cluster, "a", 3, submit_time=0.0))
        sched.submit(gang(cluster, "b", 3, submit_time=0.0))
        assert sched.run_cycle(0.0).stats.solves == 1  # sets the flag
        again = sched.run_cycle(0.0)
        assert "compile" in again.stats.stage_timings and sched.pending_count
