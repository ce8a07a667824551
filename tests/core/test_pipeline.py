"""The staged cycle pipeline: stage order, telemetry, and the key
schedule-preservation invariant (decomposed == monolithic objective)."""

import pytest

from repro.cluster import Cluster
from repro.core.queues import PriorityClass
from repro.core.scheduler import JobRequest, TetriSched, TetriSchedConfig
from repro.pipeline import (CycleContext, StageName, global_pipeline,
                            greedy_pipeline)
from repro.solver import scipy_available
from repro.strl.generator import SpaceOption
from repro.valuefn import StepValue

GLOBAL_STAGES = ("generate", "compile", "model_build", "decompose",
                 "solve", "extract")


def rack_map(cluster):
    racks = {}
    for name in sorted(cluster.node_names):
        racks.setdefault(name.rsplit("n", 1)[0], []).append(name)
    return racks


def make_sched(racks=3, nodes_per_rack=4, **overrides):
    cluster = Cluster.build(racks=racks, nodes_per_rack=nodes_per_rack)
    cfg = TetriSchedConfig(quantum_s=8.0, cycle_s=8.0, plan_ahead_s=32.0,
                           backend="pure", rel_gap=1e-6, **overrides)
    return TetriSched(cluster, cfg)


def submit_rack_pinned(sched, jobs_per_rack=2):
    racks = rack_map(sched.cluster)
    i = 0
    for rack, nodes in sorted(racks.items()):
        for j in range(jobs_per_rack):
            sched.submit(JobRequest(
                job_id=f"{rack}-j{j}",
                options=(SpaceOption(frozenset(nodes), k=2,
                                     duration_s=16.0),),
                value_fn=StepValue(value=10.0 + 0.31 * i, deadline=1e9),
                priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0))
            i += 1


def test_global_pipeline_stage_order():
    assert global_pipeline().stage_names == GLOBAL_STAGES


def test_greedy_pipeline_stage_order():
    assert greedy_pipeline().stage_names == ("generate", "greedy")


class TestStageName:
    """StageName is the documented, stable key set of stage_timings."""

    def test_members_cover_both_pipelines(self):
        values = {s.value for s in StageName}
        # "audit" is the opt-in verification stage (audit_mode=True).
        assert set(GLOBAL_STAGES) | {"greedy", "audit"} == values
        assert len(StageName) == 8

    def test_members_interchangeable_with_plain_strings(self):
        # str mixin: hashing, equality and dict indexing all match the
        # plain value, so archived JSON (string keys) round-trips.
        assert StageName.SOLVE == "solve"
        assert hash(StageName.SOLVE) == hash("solve")
        timings = {StageName.SOLVE: 1.5}
        assert timings["solve"] == 1.5

    def test_string_formatting_is_the_value(self):
        # Guarded explicitly: str-enum __str__/__format__ differ across
        # Python 3.10-3.12; profile keys depend on the bare value.
        assert str(StageName.MODEL_BUILD) == "model_build"
        assert f"scheduler.stage_s.{StageName.MODEL_BUILD}" \
            == "scheduler.stage_s.model_build"

    def test_json_round_trip(self):
        import json
        payload = json.dumps({StageName.EXTRACT: 0.25})
        assert json.loads(payload) == {"extract": 0.25}

    def test_cycle_stage_timings_use_stage_names(self):
        sched = make_sched()
        submit_rack_pinned(sched)
        stats = sched.run_cycle(0.0).stats
        # Indexable by enum and by plain string alike.
        assert stats.stage_timings[StageName.SOLVE] \
            == stats.stage_timings["solve"]


def test_cycle_records_stage_timings_and_components():
    sched = make_sched()
    # Three gangs of two per four-node rack: contended, so the solver runs.
    submit_rack_pinned(sched, jobs_per_rack=3)
    stats = sched.run_cycle(0.0).stats
    assert set(stats.stage_timings) == set(GLOBAL_STAGES)
    assert all(t >= 0.0 for t in stats.stage_timings.values())
    assert stats.components == 3  # one block per rack
    assert stats.milp_nonzeros > 0
    assert stats.solves == 1  # a decomposed solve is one logical solve


def test_uncontended_cycle_is_booked_without_a_solver_invocation():
    sched = make_sched()
    submit_rack_pinned(sched)  # two gangs of two per rack: all fit at once
    stats = sched.run_cycle(0.0).stats
    assert set(stats.stage_timings) == set(GLOBAL_STAGES)
    assert stats.solves == 0 and stats.solver_nodes == 0
    assert stats.launched == 6 and stats.objective > 0.0


def test_empty_queue_halts_after_generate():
    sched = make_sched()
    stats = sched.run_cycle(0.0).stats
    assert set(stats.stage_timings) == {"generate"}
    assert stats.components == 0
    assert stats.solves == 0


def rack_pinned_run(decomposition):
    """3x4 nodes, three gangs of two per rack, three cycles (pure backend)."""
    sched = make_sched(decomposition=decomposition)
    submit_rack_pinned(sched, jobs_per_rack=3)
    results = [sched.run_cycle(c * 8.0) for c in range(3)]
    return results, 3


def tenant_mix_run(decomposition):
    """PR 23's tenant mix, first burst: backlog's GR MIX table on 8x32 with
    job i pinned to rack i % 8, one audited HiGHS cycle at rel_gap 1e-9."""
    from dataclasses import dataclass, replace

    from repro.sim.adapters import request_from_job
    from repro.workloads import COMPOSITIONS, GridmixConfig, generate_workload

    @dataclass(frozen=True)
    class TenantRack:
        rack: str
        name: str = "tenant"

        def options(self, cluster, k, runtime_s):
            return (SpaceOption(cluster.rack_nodes(self.rack), k=k,
                                duration_s=runtime_s),)

    cluster = Cluster.build(racks=8, nodes_per_rack=32)
    sched = TetriSched(cluster, TetriSchedConfig(
        backend="auto", rel_gap=1e-9, audit_mode=True,
        decomposition=decomposition))
    jobs = generate_workload(
        COMPOSITIONS["GR MIX"], cluster,
        GridmixConfig(num_jobs=910, target_utilization=50.0,
                      estimate_error=-0.5, seed=0))[:130]
    t0 = jobs[0].submit_time
    rack_of = {}
    for i, job in enumerate(jobs):
        rack_of[job.job_id] = cluster.rack_names[i % 8]
        job = replace(job, k=min(job.k, 32), submit_time=0.0,
                      deadline=job.deadline and job.deadline - t0,
                      job_type=TenantRack(rack_of[job.job_id]))
        sched.submit(request_from_job(job, True, cluster, sched.config))
    result = sched.run_cycle(0.0)
    racks_with_work = {rack for job_id, rack in rack_of.items()
                       if job_id not in result.culled}
    return [result], len(racks_with_work)


@pytest.mark.parametrize("run", [
    rack_pinned_run,
    pytest.param(tenant_mix_run, marks=pytest.mark.skipif(
        not scipy_available(), reason="HiGHS (scipy) not installed")),
])
def test_decomposed_matches_monolithic_objective(run):
    decomposed, blocks = run(True)
    monolithic, _ = run(False)
    assert [r.stats.objective for r in decomposed] == pytest.approx(
        [r.stats.objective for r in monolithic], abs=1e-6)
    assert decomposed[0].stats.solves == 1
    assert decomposed[0].stats.components == blocks
    assert monolithic[0].stats.components == 1
    if run is rack_pinned_run:  # exact solves on distinct values: one optimum
        assert ({a.job_id for r in decomposed for a in r.allocations}
                == {a.job_id for r in monolithic for a in r.allocations})


def test_monolithic_config_skips_decomposition():
    sched = make_sched(decomposition=False)
    submit_rack_pinned(sched)
    stats = sched.run_cycle(0.0).stats
    assert stats.components == 1
    assert stats.stage_timings["decompose"] >= 0.0


def test_greedy_mode_uses_greedy_pipeline():
    sched = make_sched(global_scheduling=False)
    submit_rack_pinned(sched)
    stats = sched.run_cycle(0.0).stats
    assert set(stats.stage_timings) == {"generate", "greedy"}
    assert stats.components == 0
    assert stats.solves >= 1


def test_context_halt_short_circuits():
    sched = make_sched()

    class Boom:
        name = "boom"

        def run(self, ctx):
            raise AssertionError("stage after halt must not run")

    from repro.core.scheduler import CycleResult, SolveTelemetry
    from repro.pipeline.driver import CyclePipeline
    from repro.pipeline.stages import StrlGeneration

    ctx = CycleContext(scheduler=sched, now=0.0, result=CycleResult(),
                       telemetry=SolveTelemetry())
    # Empty queue: StrlGeneration halts, Boom never runs.
    CyclePipeline([StrlGeneration(), Boom()]).run(ctx)
    assert ctx.halted


def test_whole_cluster_fallback_merges_components():
    """Jobs sharing a whole-cluster option contend everywhere -> 1 block."""
    sched = make_sched()
    all_nodes = frozenset(sched.cluster.node_names)
    racks = rack_map(sched.cluster)
    for i, (rack, nodes) in enumerate(sorted(racks.items())):
        sched.submit(JobRequest(
            job_id=f"{rack}-fallback",
            options=(SpaceOption(frozenset(nodes), k=2, duration_s=16.0),
                     SpaceOption(all_nodes, k=2, duration_s=32.0)),
            value_fn=StepValue(value=10.0 + i, deadline=1e9),
            priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0))
    stats = sched.run_cycle(0.0).stats
    assert stats.components == 1
