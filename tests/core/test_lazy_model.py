"""The cycle MILP is assembled on first read, from what compile captured.

``assemble_batch`` packs columns, leaf table, objective and availability and
stops; ``CompiledBatch.model`` builds supply rows, CSR export and ``Model``
when something first asks.  So the batch has to answer for its model without
it (sizes, objective values), must not look at the cluster again when it
does assemble, and a cycle that books directly must get through with no
assembly at all — without deciding anything differently.

``cycle_records.json`` was recorded at the commit before assembly became
lazy (eager assembly in every cycle); re-record, only when a change means to
alter what a cycle decides or how big its MILP is, with::

    PYTHONPATH=src python -m tests.core.test_lazy_model
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.api import Scheduler
from repro.cluster import Cluster
from repro.core import TetriSchedConfig
from repro.reservation.rayon import RayonReservationSystem
from repro.sim.adapters import TetriSchedAdapter
from repro.sim.engine import Simulation
from repro.solver.model import Model, fingerprint_arrays
from repro.workloads import COMPOSITIONS, GridmixConfig, generate_workload
from tests.core.test_arrival_cycle import gang
from tests.core.test_substitution import NODES, _compile, _instances

FIXTURE = Path(__file__).with_name("cycle_records.json")


def _same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _emitted(model: Model) -> tuple:
    return (fingerprint_arrays(model.to_sparse_arrays()).exact,
            [v.name for v in model.variables],
            [c.name for c in model.constraints],
            model.column_domains().tolist())


class TestTheBatchAnswersForItsModel:
    @settings(max_examples=150, deadline=None)
    @given(_instances(), st.integers(0, 2**32 - 1))
    def test_sizes_objective_and_one_look_at_the_ledger(self, drawn, seed):
        instance, minimal = drawn
        state = instance[0]
        compiled = _compile(instance, minimal)
        twin = _compile(instance, minimal)
        read_at_compile_time = _emitted(compiled.model)

        # The ledger moves on (Extract finishes victims, the launch loop
        # starts jobs, nodes drain) before anybody reads the twin's model.
        for alloc in state.running_jobs:
            state.finish(alloc.job_id)
        for node in state.drained_nodes:
            state.restore(node)
        state.drain(NODES[0])
        state.start("late", frozenset(NODES[1:4]), 0.0, 95.0)
        assert _emitted(twin.model) == read_at_compile_time

        assert twin.stats == twin.model.stats() == compiled.stats
        assert all(type(v) is int for v in twin.stats.values())
        rng = np.random.default_rng(seed)
        n = twin.model.num_variables
        for x in (np.zeros(n), np.ones(n), rng.random(n) * 3.0,
                  np.rint(rng.random(n) * 2.0)):
            assert _same_float(twin.objective_value(x),
                               twin.model.objective_value(x))


# -- how many cycle MILPs get assembled ---------------------------------------

def _scheduler(audit: bool):
    cluster = Cluster.build(racks=1, nodes_per_rack=4)
    config = TetriSchedConfig(quantum_s=4.0, cycle_s=4.0, plan_ahead_s=24.0,
                              audit_mode=audit)
    return Scheduler.open(cluster, config).core


def _assemblies(cycle) -> int:
    """Cycle MILPs wrapped into a ``Model`` while ``cycle()`` runs."""
    real = Model.from_arrays.__func__
    built = []

    def spy(cls, name, arrays, layout):
        built.append(name)
        return real(cls, name, arrays, layout)

    with mock.patch.object(Model, "from_arrays", classmethod(spy)):
        cycle()
    return built.count("tetrisched-cycle")


@pytest.mark.parametrize("audit", [False, True])
class TestAssemblyCount:
    """A first cycle has no previous plan, so no warm start reads the model
    under any backend: what is left is the solver and the audit."""

    def test_a_booked_periodic_cycle(self, audit):
        sched = _scheduler(audit)
        sched.submit(gang(sched.cluster, "a", 3, submit_time=0.0))
        assert _assemblies(lambda: sched.run_cycle(0.0)) == int(audit)
        stats = sched.cycle_history[-1]
        assert stats.launched == 1 and stats.solves == 0
        assert stats.milp_variables and stats.milp_nonzeros

    def test_an_arrival_hit(self, audit):
        sched = _scheduler(audit)
        sched.submit(gang(sched.cluster, "a", 3, submit_time=1.0))
        assert _assemblies(
            lambda: sched.run_cycle(1.0, arrival=True)) == int(audit)
        stats = sched.cycle_history[-1]
        assert stats.launched == 1 and stats.components == 1
        assert stats.milp_variables and stats.milp_nonzeros

    def _two_gangs_of_three_on_four_nodes(self, sched):
        sched.submit(gang(sched.cluster, "a", 3, submit_time=0.0))
        sched.submit(gang(sched.cluster, "b", 3, submit_time=1.0))

    def test_an_arrival_miss(self, audit):
        sched = _scheduler(audit)
        self._two_gangs_of_three_on_four_nodes(sched)
        assert _assemblies(
            lambda: sched.run_cycle(1.0, arrival=True)) == int(audit)
        stats = sched.cycle_history[-1]
        assert stats.launched == 0 and stats.components == 0  # a miss
        assert stats.milp_variables and stats.milp_nonzeros

    def test_a_contended_cycle(self, audit):
        sched = _scheduler(audit)
        self._two_gangs_of_three_on_four_nodes(sched)
        assert _assemblies(lambda: sched.run_cycle(4.0)) == 1
        stats = sched.cycle_history[-1]
        assert stats.launched == 1 and stats.solves == 1


def test_event_counters_and_profile_line_say_what_was_assembled():
    sink = obs.JsonlSink()
    registry = obs.set_enabled(True, sink=sink)
    try:
        sched = _scheduler(audit=False)
        sched.submit(gang(sched.cluster, "a", 3, submit_time=0.0))
        sched.run_cycle(0.0)  # booked
        sched.submit(gang(sched.cluster, "b", 3, submit_time=1.0))
        sched.submit(gang(sched.cluster, "c", 3, submit_time=2.0))
        sched.run_cycle(4.0)  # b and c want the nodes a holds: solved
        counters = registry.snapshot()["counters"]
    finally:
        obs.set_enabled(False)
    assert [(e["assembled"], e["nnz"] > 0)
            for e in sink.of_kind("scheduler.model_build")] == [
                (False, True), (True, True)]
    assert counters["scheduler.model.compiled"] == 2
    assert counters["scheduler.model.assembled"] == 1
    text = obs.render_profile(obs.RunProfile(counters=counters))
    assert "\nassembled 1 of 2 cycle MILPs" in text
    assert "scheduler.model." not in text  # not repeated as raw counters


# -- what a run decides does not depend on who reads the model ----------------

#: ``CycleStats`` fields that are wall-clock readings.
TIMINGS = ("solver_latency_s", "cycle_latency_s", "stage_timings")

#: ``CycleStats`` fields of the deleted relaxation-repair strategy, at the
#: value they read on every exact cycle.  The fixture's digests were recorded
#: with them, so a record carries them to keep the fixture as it was.
RETIRED = {"colgen_rounds": 0, "colgen_columns_priced": 0,
           "repair_gap": 0.0, "repair_escalations": 0}


class _Recording(TetriSchedAdapter):
    """Keeps what every cycle, periodic or arrival, decided."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records: list[dict] = []

    def cycle(self, now):
        decisions = super().cycle(now)
        stats = dataclasses.asdict(decisions.stats)
        stages = sorted(str(stage) for stage in stats["stage_timings"])
        self.records.append({
            "stats": {**RETIRED, **{k: v for k, v in stats.items()
                                    if k not in TIMINGS}},
            "stages": [s for s in stages if s != "audit"],
            "allocations": [[a.job_id, sorted(a.nodes), a.start_time,
                             a.expected_end] for a in decisions.allocations],
            "culled": list(decisions.culled)})
        return decisions


def gr_mix_records(audit: bool) -> list[dict]:
    """One seeded GR MIX run on 2x8 nodes at 1.2x load, cycle by cycle.

    The in-repo backend, so the schedules do not depend on the HiGHS build.
    """
    cluster = Cluster.build(racks=2, nodes_per_rack=8)
    jobs = generate_workload(
        COMPOSITIONS["GR MIX"], cluster,
        GridmixConfig(num_jobs=30, target_utilization=1.2, seed=11))
    scheduler = _Recording(cluster, TetriSchedConfig(
        quantum_s=10.0, cycle_s=10.0, plan_ahead_s=60.0, backend="pure",
        rel_gap=0.02, audit_mode=audit))
    rayon = RayonReservationSystem(capacity=len(cluster), step_s=10.0)
    Simulation(cluster, scheduler, jobs, rayon=rayon).run()
    return scheduler.records


def _digest(record: dict) -> str:
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()).hexdigest()


def _headline(record: dict) -> dict:
    """The readable part of a fixture row: where to look when it differs."""
    stats = record["stats"]
    return {"now": stats["now"], "launched": stats["launched"],
            "solves": stats["solves"], "components": stats["components"],
            "variables": stats["milp_variables"],
            "constraints": stats["milp_constraints"],
            "nonzeros": stats["milp_nonzeros"],
            "objective": stats["objective"], "digest": _digest(record)}


def test_a_seeded_run_decides_what_it_did_before_audited_or_not():
    plain, audited = gr_mix_records(audit=False), gr_mix_records(audit=True)
    assert plain == audited
    # The run exercises all four kinds of cycle the counts above pin.
    kinds = {(r["stats"]["components"], r["stats"]["solves"])
             for r in plain if "compile" in r["stages"]}
    assert {(1, 0), (1, 1), (0, 0)} <= kinds
    golden = json.loads(FIXTURE.read_text())
    assert len(plain) == len(golden)
    for cycle, (record, want) in enumerate(zip(plain, golden)):
        assert _headline(record) == want, f"cycle {cycle} changed"


if __name__ == "__main__":
    rows = [_headline(record) for record in gr_mix_records(audit=False)]
    FIXTURE.write_text(
        "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    print(f"recorded {len(rows)} cycles to {FIXTURE}")
