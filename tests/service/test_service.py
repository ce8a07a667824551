"""Scheduler-service core: lifecycle registry, fake-clock timer, drain."""

import asyncio

import pytest

from repro import obs
from repro.cluster import Cluster
from repro.core import TetriSchedConfig
from repro.errors import ServiceError, SolverError
from repro.pipeline.driver import CyclePipeline
from repro.service import (CANCELLED, COMPLETED, CULLED, PENDING, RUNNING,
                           FakeClock, SchedulerService, run_cycle_loop)
from repro.verify.audit import check_ledger_orphans


def build(clock=None, **kw):
    cluster = Cluster.build(racks=2, nodes_per_rack=2, gpu_racks=1)
    defaults = dict(quantum_s=10.0, cycle_s=10.0, plan_ahead_s=40.0,
                    backend="pure", rel_gap=1e-6)
    defaults.update(kw)
    return SchedulerService(cluster, TetriSchedConfig(**defaults),
                            clock=clock or FakeClock())


SPEC = {"options": [{"k": 1, "duration_s": 20}],
        "value": 1000.0, "deadline": 500.0}


class TestSubmit:
    def test_submit_spec_lifecycle(self):
        svc = build()
        rec = svc.submit_spec(dict(SPEC, job_id="a"))
        assert rec.state == PENDING
        result = svc.run_one_cycle()
        assert [a.job_id for a in result.allocations] == ["a"]
        assert svc.job("a").state == RUNNING
        assert svc.job("a").nodes

    def test_generated_ids_are_unique(self):
        svc = build()
        ids = {svc.submit_spec(dict(SPEC)).job_id for _ in range(3)}
        assert len(ids) == 3

    def test_duplicate_id_rejected(self):
        svc = build()
        svc.submit_spec(dict(SPEC, job_id="a"))
        with pytest.raises(ServiceError):
            svc.submit_spec(dict(SPEC, job_id="a"))

    @pytest.mark.parametrize("bad", [
        {"options": []},
        {"options": [{"duration_s": 5}], "deadline": 50},
        {"options": [{"k": 1, "duration_s": 5}]},  # SLO without deadline
        {"options": [{"k": 1, "duration_s": 5}], "deadline": 50,
         "priority": "urgent"},
        {"options": [{"k": 1, "duration_s": 5, "nodes": ["mars"]}],
         "deadline": 50},
        {"options": [{"k": 1, "duration_s": 5, "attr": "quantum"}],
         "deadline": 50},
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ServiceError):
            build().submit_spec(bad)

    def test_best_effort_needs_no_deadline(self):
        svc = build()
        rec = svc.submit_spec({"priority": "best_effort",
                               "options": [{"k": 1, "duration_s": 20}]})
        assert rec.state == PENDING

    def test_attr_option_restricts_nodes(self):
        svc = build()
        gpu = svc.cluster.nodes_with_attr("gpu")
        rec = svc.submit_spec({"options": [{"k": 1, "duration_s": 20,
                                            "attr": "gpu"}],
                               "deadline": 500.0})
        assert rec.request.options[0].nodes == gpu


class TestLifecycle:
    def test_auto_complete_frees_nodes(self):
        clock = FakeClock()
        svc = build(clock)
        svc.submit_spec(dict(SPEC, job_id="a"))
        svc.run_one_cycle()
        assert svc.job("a").state == RUNNING
        clock.advance(30.0)
        svc.run_one_cycle()
        assert svc.job("a").state == COMPLETED
        assert svc.scheduler.state.utilization() == 0.0

    def test_manual_complete(self):
        clock = FakeClock()
        cluster = Cluster.build(racks=1, nodes_per_rack=2)
        svc = SchedulerService(
            cluster, TetriSchedConfig(quantum_s=10.0, backend="pure",
                                      plan_ahead_s=40.0, rel_gap=1e-6),
            clock=clock, auto_complete=False)
        svc.submit_spec(dict(SPEC, job_id="a"))
        svc.run_one_cycle()
        clock.advance(100.0)
        svc.run_one_cycle()  # auto_complete off: still running
        assert svc.job("a").state == RUNNING
        svc.complete("a")
        assert svc.job("a").state == COMPLETED
        with pytest.raises(ServiceError):
            svc.complete("a")

    def test_cancel_pending_and_running(self):
        clock = FakeClock()
        svc = build(clock)
        svc.submit_spec(dict(SPEC, job_id="a"))
        svc.submit_spec(dict(SPEC, job_id="b"))
        assert svc.cancel("a").state == CANCELLED  # drained inline
        svc.run_one_cycle()
        assert svc.job("b").state == RUNNING
        svc.cancel("b")
        assert svc.job("b").state == CANCELLED
        assert not svc.scheduler.state.is_running("b")

    def test_a_cycle_visits_running_records_not_every_record(self):
        """Auto-completion reads the RUNNING index; what it completes is
        what a scan of every record the service ever took completes."""

        class CountingDict(dict):
            scans = 0

            def values(self):
                CountingDict.scans += 1
                return super().values()

        class FullScan(SchedulerService):
            """Completes the due jobs the way the service did before it
            kept an index: a scan of every record, then the cycle."""

            def run_one_cycle(self, arrival=False):
                now = self.now()
                for rec in list(self._jobs.values()):
                    if (rec.state == RUNNING and rec.expected_end is not None
                            and rec.expected_end <= now + 1e-9):
                        self.scheduler.on_job_finished(rec.job_id, now)
                        self._move(rec, COMPLETED)
                        rec.finished_at = now
                return super().run_one_cycle(arrival)

        def service(cls, clock):
            return cls(Cluster.build(racks=2, nodes_per_rack=2),
                       TetriSchedConfig(quantum_s=10.0, cycle_s=10.0,
                                        plan_ahead_s=40.0, backend="pure",
                                        rel_gap=1e-6), clock=clock)

        clocks = FakeClock(), FakeClock()
        svc, ref = service(SchedulerService, clocks[0]), service(FullScan,
                                                                 clocks[1])
        svc._jobs = CountingDict()
        for round_ in range(40):
            for i in range(2):  # never more than the cluster holds
                spec = {"job_id": f"j{round_}-{i}", "priority": "best_effort",
                        "options": [{"k": 1, "duration_s": 10.0 * (1 + i)}]}
                svc.submit_spec(spec)
                ref.submit_spec(spec)
            if round_ % 7 == 3:  # a running job cancelled
                svc.cancel(f"j{round_ - 1}-1")
                ref.cancel(f"j{round_ - 1}-1")
            svc.run_one_cycle()
            ref.run_one_cycle()
            for clock in clocks:
                clock.advance(10.0)
            assert ([r.to_dict() for r in svc.jobs()]
                    == [r.to_dict() for r in ref.jobs()])
            assert set(svc._running) == {r.job_id for r in svc.jobs()
                                         if r.state == RUNNING}
        assert CountingDict.scans == 2 * 40  # the comparisons' jobs() only
        states = [r.state for r in svc.jobs()]
        assert states.count(COMPLETED) >= 60 and CANCELLED in states

    def test_cancel_terminal_job_is_noop(self):
        clock = FakeClock()
        svc = build(clock)
        svc.submit_spec(dict(SPEC, job_id="a"))
        svc.run_one_cycle()
        clock.advance(30.0)
        svc.run_one_cycle()
        assert svc.job("a").state == COMPLETED
        assert svc.cancel("a").state == COMPLETED

    def test_culled_job_marked(self):
        clock = FakeClock()
        svc = build(clock)
        # Deadline already unmeetable: culled in the generation stage.
        svc.submit_spec({"options": [{"k": 1, "duration_s": 100}],
                         "deadline": 5.0, "job_id": "late"})
        svc.run_one_cycle()
        assert svc.job("late").state == CULLED

    def test_cluster_events(self):
        svc = build()
        node = sorted(svc.cluster.node_names)[0]
        out = svc.cluster_event("remove", node)
        assert out["drained"] == [node]
        assert node in svc.status()["drained_nodes"]
        svc.cluster_event("add", node)
        assert svc.status()["drained_nodes"] == []
        with pytest.raises(ServiceError):
            svc.cluster_event("explode", node)

    def test_status_counts_cycles(self):
        svc = build()
        svc.submit_spec(dict(SPEC, job_id="a"))
        svc.run_one_cycle()
        assert svc.status()["cycles_run"] == 1

    def test_cycles_returns_the_last_limit_records(self):
        svc = build()
        for job_id in "abc":
            svc.submit_spec(dict(SPEC, job_id=job_id))
            svc.run_one_cycle()
        history = svc.scheduler.cycle_history
        assert len(history) >= 3
        assert svc.cycles(limit=0) == []  # was the whole history: [-0:]
        assert svc.cycles(limit=-1) == []
        assert svc.cycles(limit=2) == [dict(vars(s)) for s in history[-2:]]
        assert len(svc.cycles(limit=len(history) + 5)) == len(history)


class TestDrain:
    def test_drain_rejects_new_work_and_persists(self, tmp_path):
        clock = FakeClock()
        cluster = Cluster.build(racks=2, nodes_per_rack=2, gpu_racks=1)
        svc = SchedulerService(
            cluster,
            TetriSchedConfig(quantum_s=10.0, backend="pure",
                             plan_ahead_s=40.0, rel_gap=1e-6),
            clock=clock, stats_path=tmp_path / "final.json")
        svc.submit_spec(dict(SPEC, job_id="a"))
        svc.run_one_cycle()
        final = svc.drain()
        assert final["clean"] is True
        assert (tmp_path / "final.json").exists()
        with pytest.raises(ServiceError):
            svc.submit_spec(dict(SPEC, job_id="b"))
        # Idempotent: a second drain returns the same record.
        assert svc.drain() is final


class TestTimerLoop:
    def test_cycles_fire_on_fake_clock(self):
        async def main():
            clock = FakeClock()
            svc = build(clock)
            svc.submit_spec(dict(SPEC, job_id="a"))
            stop = asyncio.Event()
            task = asyncio.create_task(run_cycle_loop(svc, stop))
            for expected in (1, 2, 3):
                # Let the loop park on clock.sleep, then release it.
                while clock.sleepers == 0:
                    await asyncio.sleep(0.005)
                clock.advance(10.0)
                while svc._cycles_run < expected:
                    await asyncio.sleep(0.005)
            stop.set()
            assert await task == 3
            assert svc.job("a").state in (RUNNING, COMPLETED)
        asyncio.run(main())

    def test_stop_wakes_immediately(self):
        async def main():
            clock = FakeClock()
            svc = build(clock)
            stop = asyncio.Event()
            task = asyncio.create_task(run_cycle_loop(svc, stop))
            while clock.sleepers == 0:
                await asyncio.sleep(0.005)
            stop.set()  # no clock.advance needed
            assert await asyncio.wait_for(task, timeout=5.0) == 0
        asyncio.run(main())


class _RaisesOnce:
    """A backend whose first solve blows up; later ones reach the real one."""

    def __init__(self, inner):
        self.inner = inner
        self.raised = False

    def solve(self, model, options=None):
        if not self.raised:
            self.raised = True
            raise SolverError("boom")
        return self.inner.solve(model, options=options)


class TestCycleFailures:
    def test_timer_survives_a_cycle_that_raises(self):
        """One bad cycle used to end ``run_cycle_loop`` for good."""
        async def main():
            clock = FakeClock()
            cluster = Cluster.build(racks=1, nodes_per_rack=4)
            svc = SchedulerService(cluster, TetriSchedConfig(
                quantum_s=10.0, cycle_s=10.0, plan_ahead_s=40.0,
                backend="pure", rel_gap=1e-6), clock=clock)
            backend = svc.scheduler._backend = _RaisesOnce(
                svc.scheduler._backend)
            # Two gangs of three on four nodes: contended, so the backend
            # (not direct booking) answers the cycle.
            for job_id in ("a", "b"):
                svc.submit_spec({"job_id": job_id, "deadline": 500.0,
                                 "options": [{"k": 3, "duration_s": 20}]})
            sink = obs.JsonlSink()
            obs.set_enabled(True, sink=sink)
            stop = asyncio.Event()
            task = asyncio.create_task(run_cycle_loop(svc, stop))
            try:
                for _ in range(2):
                    while clock.sleepers == 0:
                        await asyncio.sleep(0.005)
                    clock.advance(10.0)
                while svc._cycles_run < 1:
                    await asyncio.sleep(0.005)
            finally:
                stop.set()
                ran = await asyncio.wait_for(task, timeout=10.0)
                obs.set_enabled(False)
            assert backend.raised and ran == 2
            assert svc.status()["cycle_failures"] == 1
            [event] = sink.of_kind("service.cycle_failed")
            assert event["cycle"] == "timer" and "boom" in event["error"]
            # The cycle after the failure placed one of the gangs.
            assert sorted(svc.job(j).state for j in "ab") == [PENDING, RUNNING]
        asyncio.run(main())


class TestArrivalCycle:
    def test_posted_job_runs_without_waiting_for_the_timer(self):
        clock = FakeClock()
        svc = build(clock)
        clock.advance(3.0)
        svc.submit_spec(dict(SPEC, job_id="a"))
        result = svc.run_one_cycle(arrival=True)
        assert [a.job_id for a in result.allocations] == ["a"]
        rec = svc.job("a")
        assert rec.state == RUNNING
        assert rec.started_at - rec.submitted_at < svc.config.cycle_s / 4

    def test_burst_waits_for_the_timer(self):
        svc = build()
        svc.submit_spec(dict(SPEC, job_id="a"))
        svc.submit_spec(dict(SPEC, job_id="b"))  # same instant: a burst
        assert not svc.run_one_cycle(arrival=True).allocations
        assert len(svc.run_one_cycle().allocations) == 2

    def test_cancel_racing_an_arrival_cycle_leaves_no_orphan(self):
        svc = build(audit_mode=True)

        class CancelAfterSolve:
            """The DELETE lands while the arrival cycle holds the lock."""
            name = "cancel-inject"

            def run(self, ctx):
                assert svc.cancel("a").state == PENDING  # lock busy: deferred

        sched = svc.scheduler
        stages = []
        for stage in sched._global_pipeline.stages:
            stages.append(stage)
            if stage.name == "solve":
                stages.append(CancelAfterSolve())
        sched._global_pipeline = CyclePipeline(stages)

        svc.submit_spec(dict(SPEC, job_id="a"))
        result = svc.run_one_cycle(arrival=True)
        assert result.cancelled == ["a"] and not result.allocations
        assert svc.job("a").state == CANCELLED
        assert not sched.state.is_running("a") and "a" not in sched._launched
        assert not check_ledger_orphans(sched.state, sched._launched)
        assert svc.drain()["clean"] is True


class TestFakeClock:
    def test_advance_releases_in_deadline_order(self):
        async def main():
            clock = FakeClock()
            order = []

            async def sleeper(tag, dt):
                await clock.sleep(dt)
                order.append(tag)

            tasks = [asyncio.create_task(sleeper("b", 20.0)),
                     asyncio.create_task(sleeper("a", 10.0))]
            await asyncio.sleep(0)
            assert clock.sleepers == 2
            clock.advance(15.0)
            await asyncio.sleep(0)
            assert order == ["a"]
            clock.advance(10.0)
            await asyncio.gather(*tasks)
            assert order == ["a", "b"]
        asyncio.run(main())

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)
