"""Failure-injection tests: the system degrades gracefully, never corrupts.

Scenarios: a solver backend that finds nothing, a backend that crashes,
preemption bookkeeping inconsistencies, and trace-invariant violations.
"""

import math

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import JobRequest, PriorityClass, TetriSched, TetriSchedConfig
from repro.errors import SimulationError, SolverError
from repro.sim import EventKind, EventQueue, ExecutionTrace
from repro.sim.trace import COMPLETION, LAUNCH
from repro.solver import BranchBoundOptions, BranchBoundSolver, Model
from repro.solver.result import MILPResult, SolveStatus
from repro.strl import SpaceOption
from repro.valuefn import StepValue


class _NoSolutionBackend:
    """A backend that always gives up (e.g., a zero time budget)."""

    def solve(self, model, options=None):
        return MILPResult(SolveStatus.NO_SOLUTION, None, math.nan)


class _CrashingBackend:
    def solve(self, model, options=None):
        raise SolverError("boom")


def make_sched(backend=None):
    cluster = Cluster.build(racks=1, nodes_per_rack=4)
    sched = TetriSched(cluster, TetriSchedConfig(
        quantum_s=10, cycle_s=10, plan_ahead_s=40))
    if backend is not None:
        sched._backend = backend
    # Two gangs of three on four nodes: both want to start now, so the
    # cycle is contended and the backend (not direct booking) decides it.
    for job_id in ("j", "k"):
        sched.submit(JobRequest(
            job_id, (SpaceOption(cluster.node_names, 3, 20.0),),
            StepValue(1000.0, 200.0), PriorityClass.SLO_ACCEPTED, 0.0,
            deadline=200.0))
    return sched


class TestSolverFailures:
    def test_no_solution_schedules_nothing_keeps_queue(self):
        sched = make_sched(_NoSolutionBackend())
        result = sched.run_cycle(0.0)
        assert result.allocations == []
        assert sched.pending_count == 2  # jobs not lost

    def test_crashing_backend_propagates_cleanly(self):
        sched = make_sched(_CrashingBackend())
        with pytest.raises(SolverError):
            sched.run_cycle(0.0)
        # State untouched: nothing launched, queue intact.
        assert sched.pending_count == 2
        assert not sched.state.running_jobs

    def test_zero_time_budget_pure_solver(self):
        m = Model()
        xs = [m.add_binary(f"x{i}") for i in range(10)]
        m.add_constraint(sum(xs), "<=", 5)
        m.set_objective(sum(xs), sense="maximize")
        res = BranchBoundSolver(BranchBoundOptions(
            time_limit=0.0, presolve=False)).solve(m)
        assert res.status in (SolveStatus.NO_SOLUTION, SolveStatus.FEASIBLE,
                              SolveStatus.OPTIMAL)
        # A NO_SOLUTION result never carries a point.
        if res.status == SolveStatus.NO_SOLUTION:
            assert res.x is None


class TestBookkeepingFailures:
    def test_trace_double_booking_detected(self):
        tr = ExecutionTrace()
        tr.record(0.0, LAUNCH, "a", nodes=("n1",))
        tr.record(5.0, LAUNCH, "b", nodes=("n1",))
        tr.record(10.0, COMPLETION, "a")
        tr.record(12.0, COMPLETION, "b")
        with pytest.raises(SimulationError):
            tr.check_no_double_booking()

    def test_trace_clean_run_passes(self):
        tr = ExecutionTrace()
        tr.record(0.0, LAUNCH, "a", nodes=("n1",))
        tr.record(10.0, COMPLETION, "a")
        tr.record(10.0, LAUNCH, "b", nodes=("n1",))
        tr.record(20.0, COMPLETION, "b")
        tr.check_no_double_booking()  # back-to-back is fine

    def test_event_queue_rejects_time_travel(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.push(-0.1, EventKind.JOB_ARRIVAL)


class TestLpExport:
    def test_lp_string_structure(self):
        m = Model("demo")
        x = m.add_integer("x", ub=5)
        b = m.add_binary("flag")
        m.add_constraint(x + 2 * b, "<=", 6, name="cap")
        m.set_objective(x + b, sense="maximize")
        text = m.to_lp_string()
        assert text.startswith("\\ Model: demo")
        assert "Maximize" in text
        assert "cap:" in text
        assert "Generals" in text and "Binaries" in text
        assert text.rstrip().endswith("End")

    def test_lp_string_sanitizes_names(self):
        m = Model()
        v = m.add_continuous("P[nCk#1,p0]")
        m.add_constraint(v, "<=", 1)
        text = m.to_lp_string()
        assert "P_nCk_1_p0_" in text
        assert "[" not in text.split("\n", 1)[1]


class TestDrainedNodesAreNeverHandedOut:
    """An *idle* drained node offers no supply — and must not be picked.

    The supply rows always knew (``availability_profile`` zeroes drained
    nodes), but the plan accumulator used to seed occupancy from running
    jobs only, so node picking saw an idle drained node as free and the
    sorted-name choice handed out ``r0n0`` first.
    """

    @pytest.mark.parametrize("overrides", [
        {},                              # global MILP
        {"global_scheduling": False},    # greedy (-NG)
        {"audit_mode": True},            # global, oracles on
    ], ids=["global", "greedy", "audited"])
    def test_launch_avoids_idle_drained_node(self, overrides):
        from repro.api import Scheduler
        from repro.valuefn import best_effort_value

        config = TetriSchedConfig.partial(rel_gap=1e-6, **overrides)
        with Scheduler.open("1x4", config) as api:
            api.state.drain("r0n0")
            api.submit(JobRequest(
                job_id="gang",
                options=(SpaceOption(api.cluster.node_names, k=3,
                                     duration_s=8.0),),
                value_fn=best_effort_value(release_time=0.0),
                priority=PriorityClass.BEST_EFFORT, submit_time=0.0))
            result = api.run_cycle()
        assert [a.job_id for a in result.allocations] == ["gang"]
        assert result.allocations[0].nodes == frozenset(
            {"r0n1", "r0n2", "r0n3"})
