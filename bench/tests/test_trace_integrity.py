"""Self-test of the harness's tracing, at smoke size (2x8 nodes, 24 jobs).

Not part of the repo's tier-1 suite; run it with::

    python -m pytest bench/tests -q
"""

import json
import time
from argparse import Namespace

import pytest

from bench import OUT_DIR
from bench.run import measure_once
from bench.trace import END, NAME, PARENT, START, Tracer
from bench.workloads import WORKLOADS

SIM = "rc256-grmix-steady"
SERVICE = "rc80-service-openloop"


def traced_smoke(name: str):
    """One traced smoke run, in process: (tracer, prepared, outcome, wall)."""
    workload = WORKLOADS[name]
    tracer = Tracer()
    prepared = workload.setup(0, 4.0, smoke=True, audit=True, tracer=tracer)
    tracer.reset()
    tracer.install()
    t0 = time.perf_counter()
    try:
        outcome = workload.measure(prepared, tracer)
    finally:
        wall_s = time.perf_counter() - t0
        tracer.uninstall()
    return tracer, prepared, outcome, wall_s


@pytest.fixture(scope="module")
def sim_run():
    return traced_smoke(SIM)


@pytest.mark.parametrize("name", [SIM, SERVICE])
def test_children_nest_and_self_times_are_non_negative(name, request):
    tracer = (request.getfixturevalue("sim_run") if name == SIM
              else traced_smoke(name))[0]
    assert tracer.spans
    for span in tracer.spans:
        assert span[END] >= span[START]
        if span[PARENT] >= 0:
            parent = tracer.spans[span[PARENT]]
            assert parent[START] <= span[START], (parent, span)
            assert span[END] <= parent[END], (parent, span)
    assert min(tracer.self_times()) >= 0.0


def test_self_times_add_up_to_the_traced_wall(sim_run):
    tracer, _, outcome, wall_s = sim_run
    assert not outcome.problems and outcome.failed == 0
    roots = [s for s in tracer.spans if s[PARENT] < 0]
    assert [s[NAME] for s in roots] == ["sim.run"]
    root_s = roots[0][END] - roots[0][START]
    assert sum(tracer.self_times()) == pytest.approx(root_s, rel=1e-6)
    assert sum(tracer.layer_times().values()) == pytest.approx(root_s, rel=1e-6)
    assert root_s == pytest.approx(wall_s, rel=0.05)


def test_stage_spans_match_the_programs_own_stage_timings(sim_run):
    """A stage rename that detaches a wrapper shows up here."""
    tracer, sim, _, _ = sim_run
    own_s: dict[str, float] = {}
    own_calls: dict[str, int] = {}
    for stats in sim.scheduler.inner.cycle_history:
        for stage, seconds in stats.stage_timings.items():
            own_s[str(stage)] = own_s.get(str(stage), 0.0) + seconds
            own_calls[str(stage)] = own_calls.get(str(stage), 0) + 1
    assert {"generate", "compile", "model_build", "decompose", "solve",
            "extract", "audit"} <= set(own_s)
    # Every stage run is seen, exactly; times agree on the total, where one
    # descheduling spike between the two clocks cannot tip a small stage.
    traced_s = 0.0
    for stage, calls in own_calls.items():
        durations = tracer.durations(f"stage.{stage}")
        assert len(durations) == calls, stage
        traced_s += sum(durations)
    assert traced_s == pytest.approx(sum(own_s.values()), rel=0.05)


def test_counts_repeat_exactly_across_two_traced_runs():
    args = Namespace(workload=SIM, seed=0, seconds=4.0, trace=1, smoke=True)
    first, _ = measure_once(args)
    second, _ = measure_once(args)
    assert first["correct"] and first["failed"] == 0
    for name in ("core.compiler.variables", "solver.model.nnz",
                 "solver.bnb_nodes", "sim.events", "obs.spans"):
        assert first["metrics"][name]["value"] > 0
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name
    assert first["metrics"]["verify.violations"]["value"] == 0
    lines = (OUT_DIR / f"trace-{SIM}-smoke.jsonl").read_text().splitlines()
    assert len(lines) == first["metrics"]["obs.spans"]["value"]
    assert set(json.loads(lines[0])) == {"name", "start", "end", "parent",
                                         "cycle"}
