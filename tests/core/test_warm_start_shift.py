"""Warm-start time-shifting across cycles (Sec. 3.2.2) and cache safety.

The scheduler caches the previous cycle's accepted plan and re-offers it,
shifted forward by the elapsed quanta, as the next solve's feasible seed.
These tests pin the shift arithmetic (deferred placements map to the
correct earlier quanta), the drop rules (stale or no-longer-fitting
placements never survive into the seed), and that the component cache
stays correct when cluster supply changes between cycles.
"""

import pytest

from repro.cluster import Cluster
from repro.core import JobRequest, PriorityClass, TetriSched, TetriSchedConfig
from repro.core.compiler import StrlCompiler
from repro.solver import scipy_available
from repro.strl import SpaceOption
from repro.valuefn import StepValue


def make_cluster():
    return Cluster.build(racks=1, nodes_per_rack=4)


def config(**kw):
    defaults = dict(quantum_s=10.0, cycle_s=10.0, plan_ahead_s=40.0,
                    backend="pure", rel_gap=1e-6, warm_start=True)
    defaults.update(kw)
    return TetriSchedConfig(**defaults)


def whole_cluster_request(cluster, job_id, k=4, dur=20, deadline=200.0,
                          value=1000.0):
    return JobRequest(
        job_id=job_id,
        options=(SpaceOption(cluster.node_names, k=k, duration_s=dur),),
        value_fn=StepValue(value, deadline),
        priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0,
        deadline=deadline)


def deferred_scheduler():
    """Cycle 0 launches job ``a`` and defers job ``b`` (both need all 4
    nodes), so ``_prev_plan`` holds b's future-start leaf."""
    cluster = make_cluster()
    sched = TetriSched(cluster, config())
    sched.submit(whole_cluster_request(cluster, "a", value=1000.0))
    sched.submit(whole_cluster_request(cluster, "b", value=999.0))
    res = sched.run_cycle(0.0)
    assert [a.job_id for a in res.allocations] == ["a"]
    deferred = {jid: leaf for jid, leaf in sched._prev_plan if jid == "b"}
    assert deferred and deferred["b"].start > 0
    return sched, deferred["b"].start


def compile_pending(sched, now):
    exprs = []
    for job_id, req in sched.queues.items():
        expr = sched._generate(req, now)
        exprs.append((job_id, expr))
    return StrlCompiler(sched.state, sched.config.quantum_s, now).compile(exprs)


class TestTimeShift:
    def test_shifted_seed_targets_the_correct_quantum(self):
        """One elapsed quantum moves a start-t leaf to start t-1."""
        sched, prev_start = deferred_scheduler()
        compiled = compile_pending(sched, now=10.0)  # 1 quantum later
        x = sched._build_warm_start(compiled, now=10.0)
        assert x is not None
        chosen = [rec for rec in compiled.leaf_records
                  if x[rec.indicator] > 0.5]
        assert len(chosen) == 1
        assert chosen[0].job_id == "b"
        assert chosen[0].leaf.start == prev_start - 1
        assert compiled.model.check_feasible(x)

    def test_two_elapsed_quanta_shift_by_two(self):
        sched, prev_start = deferred_scheduler()
        if prev_start < 2:
            pytest.skip("workload did not defer far enough")
        sched.on_job_finished("a", 20.0)  # frees b's shifted slot
        compiled = compile_pending(sched, now=20.0)
        x = sched._build_warm_start(compiled, now=20.0)
        assert x is not None
        chosen = [rec for rec in compiled.leaf_records
                  if x[rec.indicator] > 0.5]
        assert chosen[0].leaf.start == prev_start - 2

    def test_stale_placement_dropped_when_shifted_past_now(self):
        """Enough elapsed time pushes the start below 0 -> dropped."""
        sched, prev_start = deferred_scheduler()
        late = (prev_start + 3) * sched.config.quantum_s
        compiled = compile_pending(sched, now=late)
        assert sched._build_warm_start(compiled, late) is None

    def test_backwards_clock_yields_no_seed(self):
        sched, _ = deferred_scheduler()
        compiled = compile_pending(sched, now=0.0)
        assert sched._build_warm_start(compiled, now=-10.0) is None

    def test_placement_dropped_when_supply_vanishes(self):
        """If the planned nodes are occupied past the shifted slot, the
        stale placement must not survive into the seed."""
        sched, prev_start = deferred_scheduler()
        # Swap the finishing job for a squatter that holds the whole
        # cluster far beyond b's shifted window.
        sched.on_job_finished("a", 10.0)
        sched.state.start("squatter", frozenset(sched.cluster.node_names),
                          10.0, 10_000.0)
        compiled = compile_pending(sched, now=10.0)
        x = sched._build_warm_start(compiled, now=10.0)
        if x is not None:  # a surviving seed must still be feasible
            assert compiled.model.check_feasible(x)
            chosen = [rec for rec in compiled.leaf_records
                      if x[rec.indicator] > 0.5]
            assert not chosen


class TestBackendDeclaresWarmStartUse:
    """A shifted plan is built only for a backend that reads it."""

    def two_cycles(self, backend, monkeypatch):
        cluster = make_cluster()
        sched = TetriSched(cluster, config(backend=backend))
        built = []
        build = sched._build_warm_start
        monkeypatch.setattr(
            sched, "_build_warm_start",
            lambda compiled, now: built.append(now) or build(compiled, now))
        sched.submit(whole_cluster_request(cluster, "a", value=1000.0))
        sched.submit(whole_cluster_request(cluster, "b", value=999.0))
        stats = [sched.run_cycle(now).stats for now in (0.0, 10.0)]
        return [st.warm_start_attempted for st in stats], built

    @pytest.mark.skipif(not scipy_available(), reason="scipy not installed")
    def test_scipy_backed_cycle_builds_no_warm_start(self, monkeypatch):
        attempted, built = self.two_cycles("scipy", monkeypatch)
        assert attempted == [False, False]
        assert built == []

    def test_pure_backed_cycle_still_builds_one(self, monkeypatch):
        attempted, built = self.two_cycles("pure", monkeypatch)
        assert attempted == [True, True]
        assert built == [0.0, 10.0]
