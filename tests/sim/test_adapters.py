"""Tests for the TetriSched simulator adapter."""

import pytest

from repro.cluster import Cluster
from repro.core import PriorityClass, TetriSchedConfig
from repro.sim import GpuType, Job, TetriSchedAdapter, UnconstrainedType

UN = UnconstrainedType()


@pytest.fixture()
def adapter():
    cluster = Cluster.build(racks=2, nodes_per_rack=2, gpu_racks=1)
    return TetriSchedAdapter(cluster, TetriSchedConfig(
        quantum_s=10, cycle_s=10, plan_ahead_s=40))


def handed_over(adapter):
    """The one request the scheduler holds once ``submit`` is handed over.

    ``submit`` only records the job (the ack path); the request is built at
    the top of the next ``cycle``.
    """
    assert not list(adapter.scheduler.queues.items())
    adapter._hand_over()
    (_, req), = adapter.scheduler.queues.items()
    return req


class TestSubmission:
    def test_accepted_slo_priority_and_value(self, adapter):
        job = Job("s", UN, 2, 20, 0.0, deadline=100.0)
        adapter.submit(job, accepted=True, now=0.0)
        req = handed_over(adapter)
        assert req.priority == PriorityClass.SLO_ACCEPTED
        assert req.value_fn(50.0) == 1000.0
        # Deadline grace: one quantum beyond the true deadline.
        assert req.deadline == pytest.approx(110.0)

    def test_rejected_slo_priority(self, adapter):
        job = Job("s", UN, 2, 20, 0.0, deadline=100.0)
        adapter.submit(job, accepted=False, now=0.0)
        req = handed_over(adapter)
        assert req.priority == PriorityClass.SLO_NO_RESERVATION
        assert req.value_fn(50.0) == 25.0

    def test_best_effort_priority_and_decay(self, adapter):
        job = Job("b", UN, 1, 20, 5.0)
        adapter.submit(job, accepted=False, now=5.0)
        req = handed_over(adapter)
        assert req.priority == PriorityClass.BEST_EFFORT
        assert req.deadline is None
        assert req.value_fn(5.0) > req.value_fn(500.0)

    def test_options_use_estimates(self, adapter):
        job = Job("g", GpuType(slowdown=2.0), 2, 20, 0.0, deadline=500.0,
                  estimate_error=0.5)
        adapter.submit(job, accepted=True, now=0.0)
        req = handed_over(adapter)
        durations = sorted(o.duration_s for o in req.options)
        assert durations == [30.0, 60.0]  # 20*1.5 and 20*2*1.5


class TestLifecycle:
    def test_active_jobs_tracking(self, adapter):
        job = Job("a", UN, 2, 20, 0.0, deadline=200.0)
        adapter.submit(job, accepted=True, now=0.0)
        assert adapter.active_jobs == 1
        decisions = adapter.cycle(0.0)
        assert len(decisions.allocations) == 1
        assert adapter.active_jobs == 1  # running now
        adapter.job_finished("a", 20.0)
        assert adapter.active_jobs == 0

    def test_cycle_history_accessible(self, adapter):
        adapter.cycle(0.0)
        adapter.cycle(10.0)
        assert len(adapter.cycle_history) == 2
