"""Relaxation-repair fast path: bound soundness, escalation, colgen.

Three contracts, each load-bearing for the audited-gap story:

* the repaired incumbent can never beat the reported LP bound (the gap
  the scheduler publishes is an upper bound on true suboptimality);
* lazy column generation terminates at the *full* relaxation optimum —
  pricing out with no favorable deferred group is the bounded-variable
  optimality condition, so the restricted bound is never an artifact;
* forced escalation (``gap_threshold < 0``) reproduces the wrapped exact
  backend's result bit for bit, because the escalated solve runs under
  the caller's original options with no repair-derived seeding.
"""

import pytest
from hypothesis import given, settings

from repro.solver import (BranchBoundSolver, RepairSolver, SolveOptions,
                          SolveStatus, make_backend)
from repro.solver.colgen import ColumnGroup, colgen_root, select_lazy
from repro.solver.revised_simplex import solve_lp_revised
from repro.verify import certify_gap, check_certificate
from tests.strategies import milp_models


def repair_backend(mode: str = "repair", threshold: float = 0.05):
    backend = make_backend("pure", SolveOptions(
        rel_gap=1e-9, solve_mode=mode, repair_gap_threshold=threshold))
    assert isinstance(backend, RepairSolver)
    return backend


def knapsack():
    from repro.solver import Model
    m = Model("knapsack")
    xs = [m.add_binary(f"x{i}") for i in range(3)]
    m.add_constraint(3 * xs[0] + 4 * xs[1] + 2 * xs[2], "<=", 5)
    m.set_objective(10 * xs[0] + 13 * xs[1] + 7 * xs[2], sense="maximize")
    return m


class TestRepairBoundSoundness:
    @settings(max_examples=30, deadline=None)
    @given(m=milp_models())
    def test_incumbent_never_beats_lp_bound(self, m):
        res = repair_backend().solve(m)
        assert res.status.has_solution
        # Maximization models: the LP relaxation bound dominates every
        # integral point, including the repaired incumbent.
        assert res.objective <= res.bound + 1e-6
        assert res.gap >= 0.0
        assert check_certificate(m, res).ok

    @settings(max_examples=30, deadline=None)
    @given(m=milp_models())
    def test_reported_gap_survives_independent_certification(self, m):
        res = repair_backend().solve(m)
        cert = certify_gap(m, res)
        assert cert.ok, cert.violations
        if res.stats.get("repair_bound_source") == "lp":
            # Non-escalated solves: the certifier recomputed the bound
            # with a different engine and reconciled the claimed gap.
            assert cert.bound_recomputed == pytest.approx(res.bound,
                                                          abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(m=milp_models())
    def test_forced_escalation_is_bit_for_bit_exact(self, m):
        exact = BranchBoundSolver().solve(m)
        auto = repair_backend(mode="auto", threshold=-1.0).solve(m)
        assert auto.objective == exact.objective
        assert (auto.x == exact.x).all()
        assert auto.stats["repair_escalations"] >= 1


class TestColgenRoot:
    @settings(max_examples=30, deadline=None)
    @given(m=milp_models())
    def test_colgen_bound_equals_full_lp_bound(self, m):
        sa = m.to_standard_arrays()
        n = sa.c.shape[0]
        # Synthetic one-column groups across two "jobs": with one seed
        # per job, most columns start pinned and must be priced back in.
        groups = [ColumnGroup(job_id=f"j{i % 2}", start=i, columns=(i,),
                              value=float(-sa.c[i])) for i in range(n)]
        root = colgen_root(sa, groups, seed_per_job=1)
        full = solve_lp_revised(sa.c, sa.a_ub, sa.b_ub, sa.a_eq, sa.b_eq,
                                sa.lb, sa.ub)
        assert root.result.status is SolveStatus.OPTIMAL
        assert full.status is SolveStatus.OPTIMAL
        assert root.result.objective == pytest.approx(full.objective,
                                                      abs=1e-6)

    def test_no_groups_degenerates_to_cold_solve(self):
        sa = knapsack().to_standard_arrays()
        root = colgen_root(sa, ())
        assert root.rounds == 1
        assert root.groups_lazy == 0
        full = solve_lp_revised(sa.c, sa.a_ub, sa.b_ub, sa.a_eq, sa.b_eq,
                                sa.lb, sa.ub)
        assert root.result.objective == pytest.approx(full.objective)

    def test_select_lazy_keeps_earliest_starts(self):
        groups = [ColumnGroup("a", start=s, columns=(s,)) for s in (3, 0, 1)]
        lazy = select_lazy(groups, seed_per_job=2)
        assert [g.start for g in lazy] == [3]


class TestSchedulerRepairCycle:
    """End-to-end: a contended cycle under audit_mode raises on any
    violation, so a clean run is the zero-violations assertion."""

    def _run(self, solve_mode):
        from repro.cluster.cluster import Cluster
        from repro.core.queues import PriorityClass
        from repro.core.scheduler import (JobRequest, TetriSched,
                                          TetriSchedConfig)
        from repro.strl.generator import SpaceOption
        from repro.valuefn import StepValue

        cluster = Cluster.build(racks=1, nodes_per_rack=4)
        cfg = TetriSchedConfig(
            quantum_s=8.0, cycle_s=8.0, plan_ahead_s=48.0, backend="pure",
            decomposition=False, solve_mode=solve_mode, audit_mode=True)
        sched = TetriSched(cluster, cfg)
        nodes = frozenset(cluster.node_names)
        # Two 3-of-4 gangs cannot share the rack, but the LP splits them
        # fractionally — the fractional-root regime the dive repairs.
        for j, k in enumerate((3, 3, 2)):
            sched.submit(JobRequest(
                job_id=f"j{j}",
                options=(SpaceOption(nodes, k=k, duration_s=16.0),),
                value_fn=StepValue(value=10.0 + j, deadline=1e9),
                priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0))
        return sched.run_cycle(0.0)

    def test_repair_cycle_is_audit_clean(self):
        res = self._run("repair")
        stats = res.stats
        assert stats.objective > 0.0
        assert 0.0 <= stats.repair_gap < 1.0

    def test_auto_cycle_matches_exact_objective(self):
        exact = self._run("exact")
        auto = self._run("auto")
        # Default 5% threshold: escalate or not, the audited objective
        # may trail the exact optimum by at most the configured gap.
        assert auto.stats.objective >= exact.stats.objective * 0.95 - 1e-9
        assert auto.stats.objective <= exact.stats.objective + 1e-9

    def test_repair_stays_within_its_own_gap_of_the_same_model(self):
        """Each repair cycle against the optimum of *its own* MILP.

        Comparing cycle ``c`` of a repair run with cycle ``c`` of an exact
        run means something only while both runs are in the same state;
        once the dive settles within gap the two launch different jobs and
        the later models differ.  The probe solves the model the repair
        backend was just given.
        """
        import random

        from repro.cluster.cluster import Cluster
        from repro.core.queues import PriorityClass
        from repro.core.scheduler import (JobRequest, TetriSched,
                                          TetriSchedConfig)
        from repro.pipeline.driver import CyclePipeline
        from repro.strl.generator import SpaceOption
        from repro.valuefn import StepValue

        quantum_s = 8.0

        def rack_pinned_jobs(cluster, jobs_per_rack, seed):
            """An oversubscribed batch of rack-local gangs, values distinct
            so the optimum is unique.  A fifth ask for three quarters of
            their rack: two such gangs cannot share a rack-quantum but the
            LP splits them fractionally, so the root is fractional — the
            regime the dive repairs."""
            rng = random.Random(seed)
            jobs = []
            for rack in sorted(cluster.rack_names):
                nodes = cluster.rack_nodes(rack)
                for j in range(jobs_per_rack):
                    wide = rng.random() < 0.2
                    k = (max(2, (3 * len(nodes)) // 4) if wide
                         else rng.randint(2, max(2, len(nodes) // 2)))
                    dur_q = rng.randint(2, 4)
                    jobs.append((f"{rack}-job{j}", SpaceOption(
                        nodes, k=k, duration_s=dur_q * quantum_s),
                        10.0 + len(jobs) * 0.37))
            return jobs

        checked = []

        class ExactProbe:
            name = "exact-probe"

            def run(self, ctx):
                repair = ctx.solution
                exact = make_backend("auto", SolveOptions(
                    rel_gap=1e-9)).solve(ctx.compiled.model)
                shortfall = exact.objective - repair.objective
                allowance = repair.gap * max(1.0, abs(repair.objective))
                assert -1e-6 <= shortfall <= allowance + 1e-6, (
                    f"repair {repair.objective!r} (gap {repair.gap!r}) vs "
                    f"exact {exact.objective!r} on the same model")
                checked.append((repair.objective, exact.objective))

        cluster = Cluster.build(racks=4, nodes_per_rack=4)
        sched = TetriSched(cluster, TetriSchedConfig(
            quantum_s=quantum_s, cycle_s=quantum_s, plan_ahead_s=96.0,
            backend="pure", rel_gap=1e-6, decomposition=False,
            solve_mode="repair", audit_mode=True))
        stages = []
        for stage in sched._global_pipeline.stages:
            stages.append(stage)
            if stage.name == "solve":
                stages.append(ExactProbe())
        sched._global_pipeline = CyclePipeline(stages)

        for c in range(2):
            now = c * quantum_s
            for job_id, option, value in rack_pinned_jobs(cluster, 2, seed=c):
                sched.submit(JobRequest(
                    job_id=f"c{c}-{job_id}", options=(option,),
                    value_fn=StepValue(value=value, deadline=1e9),
                    priority=PriorityClass.SLO_ACCEPTED, submit_time=now))
            sched.run_cycle(now)
        assert len(checked) == 2
        # Not vacuous: on this batch the dive does miss an optimum.
        assert any(exact > repair + 1e-6 for repair, exact in checked)
