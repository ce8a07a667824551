"""End-to-end sharded cycles: parity, reconciliation, drain, fallback."""

import pytest

from repro.api import Scheduler
from repro.cluster.cluster import Cluster
from repro.core.queues import PriorityClass
from repro.core.scheduler import JobRequest, TetriSchedConfig
from repro.solver import scipy_available
from repro.solver.result import MILPResult, SolveStatus
from repro.strl.generator import SpaceOption
from repro.valuefn import StepValue


def open_api(racks=4, nodes_per_rack=4, shard=True, shard_count=2, seed=3,
             audit_mode=True, **kw):
    cfg_kw = dict(quantum_s=10, cycle_s=10, plan_ahead_s=40,
                  audit_mode=audit_mode, seed=seed)
    cfg_kw.update(kw)
    if shard:
        cfg_kw.update(shard_mode="racks", shard_count=shard_count)
    return Scheduler.open(
        Cluster.build(racks=racks, nodes_per_rack=nodes_per_rack),
        TetriSchedConfig(**cfg_kw))


def submit_mixed(api, n=6, tag=""):
    rack_count = len(api.cluster.rack_names)
    for i in range(n):
        rack = f"r{i % rack_count}"
        api.submit(JobRequest(
            job_id=f"{tag}j{i}",
            options=(SpaceOption(api.cluster.rack_nodes(rack), k=3,
                                 duration_s=20, label="rack"),
                     SpaceOption(api.cluster.node_names, k=3,
                                 duration_s=30, label="any")),
            value_fn=StepValue(10.0 + 0.37 * i, 1e9),
            priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0))


def alloc_key(result):
    return sorted((a.job_id, tuple(sorted(a.nodes)), a.start_time,
                   a.expected_end) for a in result.allocations)


class TestShardCount1BitEquality:
    def test_sharded_equals_monolithic(self):
        runs = []
        for shard in (False, True):
            api = open_api(shard=shard, shard_count=1)
            submit_mixed(api)
            res = api.run_cycle(0.0)
            runs.append((alloc_key(res), api.stats().objective))
        assert runs[0] == runs[1]

    def test_multi_cycle_bit_equality(self):
        runs = []
        for shard in (False, True):
            api = open_api(shard=shard, shard_count=1)
            traj = []
            for c in range(3):
                submit_mixed(api, n=2, tag=f"c{c}-")
                res = api.run_cycle(c * 10.0)
                traj.append((alloc_key(res), api.stats().objective))
            runs.append(traj)
        assert runs[0] == runs[1]


class TestQualityBound:
    @pytest.mark.skipif(not scipy_available(), reason="scipy not installed")
    def test_sharded_objective_within_declared_bound_of_monolithic(self):
        """Rack-affine gangs whose fallback option spans the next rack over
        (wrap-around) chain the whole cluster into one component.  Domains
        {r0, r1} and {r2} cut two of the three links: the jobs of r1 and r2
        lose the fallback (trimmed, charged to the bound), those of r0 keep
        both options.  Same state, same batch — the first cycle — so the
        two objectives are comparable: the cut costs value here, and at
        most the bound the cycle declared.  HiGHS is pinned because the
        chained monolithic MILP at an exact gap takes the pure solver
        minutes; the bound is the coordinator's, not the backend's."""
        stats = {}
        for shard in (False, True):
            api = open_api(racks=3, shard=shard, shard_count=2,
                           plan_ahead_s=30, backend="scipy", rel_gap=1e-6)
            racks = sorted(api.cluster.rack_names)
            for r, rack in enumerate(racks):
                home = api.cluster.rack_nodes(rack)
                pair = home | api.cluster.rack_nodes(
                    racks[(r + 1) % len(racks)])
                for j in range(4):
                    api.submit(JobRequest(
                        job_id=f"{rack}-g{j}",
                        options=(SpaceOption(home, k=3, duration_s=20,
                                             label="rack"),
                                 SpaceOption(pair, k=3, duration_s=30,
                                             label="pair")),
                        value_fn=StepValue(10.0 + 0.37 * (4 * r + j), 1e9),
                        priority=PriorityClass.SLO_ACCEPTED,
                        submit_time=0.0))
            api.run_cycle(0.0)
            stats[shard] = api.stats()
        mono, sharded = stats[False], stats[True]
        assert sharded.shard_trimmed_jobs == 8
        loss = mono.objective - sharded.objective
        assert 1.0 < loss <= sharded.shard_quality_bound + 1e-6


def submit_elastic(api, n=3, tag=""):
    nodes = api.cluster.node_names
    for i in range(n):
        api.submit(JobRequest(
            job_id=f"{tag}e{i}",
            options=tuple(
                SpaceOption(nodes, k=w, duration_s=d, label=f"w{w}")
                for w, d in ((4, 20.0), (3, 30.0), (2, 40.0))),
            value_fn=StepValue(8.0 + 0.53 * i, 1e9),
            priority=PriorityClass.BEST_EFFORT, submit_time=0.0,
            elastic=True))


class TestElasticSharding:
    def test_shard1_pending_elastic_bit_equal(self):
        """Pending-side ElasticNCk ladders compile identically whether the
        cycle runs through the coordinator (shard_count=1) or the
        monolithic path."""
        runs = []
        for shard in (False, True):
            api = open_api(shard=shard, shard_count=1, elastic_mode=True)
            submit_mixed(api, n=4)
            submit_elastic(api, n=3)
            res = api.run_cycle(0.0)
            runs.append((alloc_key(res), api.stats().objective))
        assert runs[0] == runs[1]

    def test_resizes_disabled_when_sharded(self):
        """Sharded cycles solve per-domain MILPs that cannot see a gang's
        full width ladder, so running elastic jobs never re-enter there —
        while the monolithic control with the same workload offers them."""
        offered = {}
        for shard in (False, True):
            api = open_api(shard=shard, elastic_mode=True)
            submit_elastic(api, n=1)
            api.run_cycle(0.0)
            # Pressure next cycle so the monolithic path has a reason to
            # keep offering resize options.
            submit_mixed(api, n=4, tag="later-")
            api.run_cycle(10.0)
            offered[shard] = api.stats().elastic_offered
        assert offered[False] >= 1
        assert offered[True] == 0
    def test_gang_spanning_every_domain_reconciles(self):
        # shard_count = racks: every rack its own domain, so a gang that
        # needs more than one rack spans *all* domains.
        api = open_api(racks=4, shard_count=4)
        api.submit(JobRequest(
            job_id="gang",
            options=(SpaceOption(api.cluster.node_names, k=10,
                                 duration_s=20, label="span"),),
            value_fn=StepValue(50.0, 1e9),
            priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0))
        submit_mixed(api, n=4)
        res = api.run_cycle(0.0)
        st = api.stats()
        assert st.shard_boundary_jobs == 1
        assert st.shard_quality_bound >= 50.0
        # Reconciliation either launches the gang now or plans it for a
        # later quantum (allocations only hold launches at quantum 0).
        launched = {a.job_id for a in res.allocations}
        planned = {j for j, _ in api.core._prev_plan}
        assert "gang" in launched | planned

    def test_pure_boundary_cycle(self):
        # Every job is boundary: domain solve is skipped entirely and the
        # reconciliation pass alone builds the schedule.
        api = open_api(racks=2, shard_count=2)
        api.submit(JobRequest(
            job_id="wide",
            options=(SpaceOption(api.cluster.node_names, k=6,
                                 duration_s=20, label="span"),),
            value_fn=StepValue(30.0, 1e9),
            priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0))
        res = api.run_cycle(0.0)
        assert [a.job_id for a in res.allocations] == ["wide"]


class TestEmptyDomainAfterDrain:
    def test_drained_domain_receives_no_jobs(self):
        api = open_api(racks=4, shard_count=2)
        sched = api.core
        dom0 = sched._coordinator.domains[0]
        for node in dom0.nodes:
            sched.state.drain(node)
        submit_mixed(api, n=4)
        res = api.run_cycle(0.0)
        st = api.stats()
        # shard_domains counts domains that compiled a MILP this cycle:
        # the fully-drained one is skipped.
        assert st.shard_domains == 1
        # Only the live domain appears in the per-domain stats, and no
        # launch touches a drained node.
        assert all(d["domain"] != dom0.name for d in st.domain_stats)
        for a in res.allocations:
            assert not (a.nodes & dom0.nodes)

    def test_cycle_after_full_drain_is_clean(self):
        api = open_api(racks=2, shard_count=2)
        sched = api.core
        for node in api.cluster.node_names:
            sched.state.drain(node)
        submit_mixed(api, n=2)
        res = api.run_cycle(0.0)
        assert res.allocations == []


class TestDomainFallback:
    def test_failed_domain_falls_back_greedy_alone(self, monkeypatch):
        """One domain's MILP dies -> greedy for it, MILP for the rest."""
        from repro.shard import stages as shard_stages

        real = shard_stages.solve_many_decomposed
        sabotaged: dict = {}

        def sabotage(decomps, backend, options=None, dispatch_seed=None):
            results = real(decomps, backend, options, dispatch_seed)
            poisoned = MILPResult(
                status=SolveStatus.NO_SOLUTION, x=None, objective=0.0,
                bound=float("inf"), gap=float("inf"), nodes=0,
                solve_time=0.0)
            sabotaged["hit"] = True
            return [poisoned] + results[1:]

        monkeypatch.setattr(shard_stages, "solve_many_decomposed", sabotage)
        api = open_api(racks=4, shard_count=2, audit_mode=False)
        submit_mixed(api, n=6)
        res = api.run_cycle(0.0)
        st = api.stats()
        assert sabotaged.get("hit")
        assert st.shard_greedy_fallbacks == 1
        fallback = [d for d in st.domain_stats if d["fallback"]]
        healthy = [d for d in st.domain_stats if not d["fallback"]]
        assert len(fallback) == 1 and len(healthy) == 1
        # The greedy fallback still launches what fits at quantum 0; it
        # has no plan-ahead, so overflow jobs simply stay pending.
        launched = {a.job_id for a in res.allocations}
        fb_name = fallback[0]["domain"]
        fb_nodes = next(d.nodes for d in api.core._coordinator.domains
                        if d.name == fb_name)
        assert any(a.nodes <= fb_nodes for a in res.allocations)
        assert launched and len(launched) + api.pending_count == 6


class TestServiceIntegration:
    def test_status_reports_shard_section(self):
        from repro.service.service import SchedulerService

        cluster = Cluster.build(racks=4, nodes_per_rack=4)
        svc = SchedulerService(cluster, TetriSchedConfig(
            quantum_s=10, cycle_s=10, plan_ahead_s=40,
            shard_mode="racks", shard_count=2),
            auto_complete=False)
        svc.submit_spec({"job_id": "s1",
                         "options": [{"k": 2, "duration_s": 20}],
                         "value": 10.0, "deadline": 1000.0})
        svc.run_one_cycle()
        out = svc.status()
        assert out["shard"]["mode"] == "racks"
        assert len(out["shard"]["domains"]) == 2
        assert out["shard"]["last_cycle"]["domain_stats"]

    def test_drain_domain(self):
        from repro.errors import ServiceError
        from repro.service.service import SchedulerService

        cluster = Cluster.build(racks=4, nodes_per_rack=4)
        svc = SchedulerService(cluster, TetriSchedConfig(
            shard_mode="racks", shard_count=2), auto_complete=False)
        out = svc.drain_domain("dom1")
        dom1 = svc.scheduler._coordinator.domains[1]
        assert set(out["drained"]) == set(dom1.nodes)
        out = svc.drain_domain("~dom1")
        assert out["drained"] == []
        with pytest.raises(ServiceError):
            svc.drain_domain("nope")

    def test_drain_domain_requires_sharding(self):
        from repro.errors import ServiceError
        from repro.service.service import SchedulerService

        svc = SchedulerService(Cluster.build(racks=2, nodes_per_rack=2),
                               TetriSchedConfig(), auto_complete=False)
        with pytest.raises(ServiceError):
            svc.drain_domain("dom0")
