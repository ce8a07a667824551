"""Integration tests: simulator + TetriSched adapter end to end."""

import pytest

from repro.cluster import Cluster
from repro.core import TetriSchedConfig
from repro.errors import SimulationError
from repro.reservation import RayonReservationSystem
from repro.sim import (GpuType, Job, Simulation, TetriSchedAdapter,
                       UnconstrainedType)

UN = UnconstrainedType()


def make_cluster():
    return Cluster.build(racks=2, nodes_per_rack=4, gpu_racks=1)


def make_adapter(cluster, **overrides):
    cfg = dict(quantum_s=10.0, cycle_s=10.0, plan_ahead_s=60.0,
               backend="pure", rel_gap=1e-6)
    cfg.update(overrides)
    return TetriSchedAdapter(cluster, TetriSchedConfig(**cfg))


class TestSimulationBasics:
    def test_empty_workload_rejected(self):
        cluster = make_cluster()
        with pytest.raises(SimulationError):
            Simulation(cluster, make_adapter(cluster), [])

    def test_duplicate_job_ids_rejected(self):
        cluster = make_cluster()
        jobs = [Job("x", UN, 1, 10, 0.0), Job("x", UN, 1, 10, 5.0)]
        with pytest.raises(SimulationError):
            Simulation(cluster, make_adapter(cluster), jobs)

    def test_single_slo_job_runs_and_meets_deadline(self):
        cluster = make_cluster()
        jobs = [Job("j", UN, k=2, base_runtime_s=30, submit_time=0.0,
                    deadline=100.0)]
        res = Simulation(cluster, make_adapter(cluster), jobs).run()
        o = res.outcomes["j"]
        assert o.accepted
        assert o.start_time == 0.0
        assert o.finish_time == pytest.approx(30.0)
        assert res.metrics.slo_total_pct == 100.0

    def test_best_effort_latency_recorded(self):
        cluster = make_cluster()
        jobs = [Job("b", UN, k=1, base_runtime_s=20, submit_time=5.0)]
        res = Simulation(cluster, make_adapter(cluster), jobs).run()
        # Arrives at 5 on an idle cluster: placed on arrival (the arrival
        # cycle books it; it no longer waits for the t=10 tick), runs 20s.
        assert res.outcomes["b"].start_time == 5.0
        assert res.metrics.mean_be_latency_s == pytest.approx(20.0)

    def test_simulation_terminates(self):
        cluster = make_cluster()
        jobs = [Job(f"j{i}", UN, k=2, base_runtime_s=20,
                    submit_time=5.0 * i, deadline=5.0 * i + 200)
                for i in range(8)]
        res = Simulation(cluster, make_adapter(cluster), jobs).run()
        assert all(o.completed for o in res.outcomes.values())
        assert res.cycles > 0

    def test_impossible_deadline_culled_and_missed(self):
        cluster = make_cluster()
        jobs = [Job("dead", UN, k=2, base_runtime_s=50, submit_time=0.0,
                    deadline=10.0)]
        res = Simulation(cluster, make_adapter(cluster), jobs).run()
        o = res.outcomes["dead"]
        assert not o.completed
        assert not o.accepted  # Rayon cannot fit 50s before t=10 either
        assert res.metrics.slo_total_pct == 0.0

    def test_max_time_stops_simulation(self):
        cluster = make_cluster()
        jobs = [Job("late", UN, k=1, base_runtime_s=10, submit_time=1000.0)]
        res = Simulation(cluster, make_adapter(cluster), jobs,
                         max_time_s=100.0).run()
        assert not res.outcomes  # arrival never fired


class TestMisEstimation:
    def test_underestimated_job_still_completes(self):
        cluster = make_cluster()
        # True runtime 40s, scheduler believes 20s.
        jobs = [Job("u", UN, k=2, base_runtime_s=40, submit_time=0.0,
                    deadline=200.0, estimate_error=-0.5)]
        res = Simulation(cluster, make_adapter(cluster), jobs).run()
        o = res.outcomes["u"]
        assert o.finish_time == pytest.approx(40.0)

    def test_underestimate_does_not_double_book_nodes(self):
        """The scheduler must not hand an overdue job's nodes to another."""
        cluster = Cluster.build(racks=1, nodes_per_rack=2)
        jobs = [
            Job("u", UN, k=2, base_runtime_s=60, submit_time=0.0,
                deadline=300.0, estimate_error=-0.66),  # believed ~20s
            Job("v", UN, k=2, base_runtime_s=20, submit_time=5.0,
                deadline=300.0),
        ]
        res = Simulation(cluster, make_adapter(cluster), jobs).run()
        u, v = res.outcomes["u"], res.outcomes["v"]
        assert u.completed and v.completed
        # v can only start once u actually finished at t=60.
        assert v.start_time >= 60.0

    def test_overestimated_job_frees_capacity_early(self):
        cluster = Cluster.build(racks=1, nodes_per_rack=2)
        jobs = [
            Job("o", UN, k=2, base_runtime_s=20, submit_time=0.0,
                deadline=300.0, estimate_error=1.0),   # believed 40s
            Job("w", UN, k=2, base_runtime_s=20, submit_time=5.0,
                deadline=300.0),
        ]
        res = Simulation(cluster, make_adapter(cluster), jobs).run()
        w = res.outcomes["w"]
        # o actually ends at 20; w starts at the next cycle, not at 40.
        assert w.start_time == pytest.approx(20.0)


class TestHeterogeneousPlacement:
    def test_gpu_job_records_preferred_placement(self):
        cluster = make_cluster()
        gpu = GpuType(slowdown=2.0)
        jobs = [Job("g", gpu, k=2, base_runtime_s=20, submit_time=0.0,
                    deadline=200.0)]
        res = Simulation(cluster, make_adapter(cluster), jobs).run()
        o = res.outcomes["g"]
        assert o.preferred_placement is True
        assert o.finish_time == pytest.approx(20.0)
        assert o.nodes <= cluster.nodes_with_attr("gpu")

    def test_slow_placement_runs_slower(self):
        cluster = make_cluster()
        gpu = GpuType(slowdown=2.0)
        # Hold the GPU rack so the job must fall back (deadline too tight
        # to wait for GPUs but loose enough for the slow option).
        adapter = make_adapter(cluster)
        adapter.scheduler.state.start(
            "holder", cluster.nodes_with_attr("gpu"), 0.0, 1000.0)
        jobs = [Job("g", gpu, k=2, base_runtime_s=20, submit_time=0.0,
                    deadline=60.0)]

        class _Holder:
            pass
        sim = Simulation(cluster, adapter, jobs)
        res = sim.run()
        o = res.outcomes["g"]
        assert o.preferred_placement is False
        assert o.finish_time - o.start_time == pytest.approx(40.0)


class TestRayonIntegration:
    def test_rejected_reservation_flagged(self):
        cluster = Cluster.build(racks=1, nodes_per_rack=2)
        jobs = [
            Job("a", UN, k=2, base_runtime_s=50, submit_time=0.0,
                deadline=60.0),
            Job("b", UN, k=2, base_runtime_s=50, submit_time=0.0,
                deadline=60.0),  # cannot also fit before t=60
        ]
        res = Simulation(cluster, make_adapter(cluster), jobs).run()
        accepted = [o for o in res.outcomes.values() if o.accepted]
        assert len(accepted) == 1

    def test_shared_rayon_instance_used(self):
        cluster = make_cluster()
        rayon = RayonReservationSystem(capacity=len(cluster), step_s=10)
        jobs = [Job("j", UN, k=2, base_runtime_s=20, submit_time=0.0,
                    deadline=100.0)]
        sim = Simulation(cluster, make_adapter(cluster), jobs, rayon=rayon)
        sim.run()
        assert rayon.is_accepted("j")
