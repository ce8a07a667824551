"""``ScipyMILPSolver`` hands models to HiGHS two ways; both must agree.

The direct path gives HiGHS the row-wise CSR export through the binding
scipy >= 1.15 ships (and turns the feasibility-jump pass off); the ``milp``
path goes through ``scipy.optimize.milp`` and is what runs on an older scipy
and for the ``use_sparse=False`` dense reference.  Every case below runs on
each, with the binding hidden from the module for the second.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from tests.strategies import fuzz_instances, milp_models

from repro.solver import Model
from repro.solver import scipy_backend
from repro.solver.result import SolveStatus
from repro.verify import check_certificate
from repro.verify.instance import build_instance

pytestmark = pytest.mark.skipif(not scipy_backend.scipy_available(),
                                reason="scipy not installed")

PATHS = ("direct", "milp")


def _solver(path: str, monkeypatch, **kwargs):
    if path == "milp":
        monkeypatch.setattr(scipy_backend, "_highs", None)
    elif scipy_backend._highs is None:
        pytest.skip("scipy < 1.15: no HiGHS binding to hand the model to")
    return scipy_backend.ScipyMILPSolver(**kwargs)


@pytest.fixture(params=PATHS)
def make_solver(request, monkeypatch):
    return lambda **kwargs: _solver(request.param, monkeypatch, **kwargs)


def knapsack(n: int = 40, rows: int = 6, seed: int = 0) -> Model:
    rng = np.random.default_rng(seed)
    m = Model()
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    for _ in range(rows):
        weights = rng.uniform(0.0, 5.0, n)
        m.add_constraint(sum(float(w) * x for w, x in zip(weights, xs)),
                         "<=", 0.3 * float(weights.sum()))
    m.set_objective(sum(float(v) * x
                        for v, x in zip(rng.uniform(1.0, 10.0, n), xs))
                    + 7.0, sense="maximize")
    return m


def test_the_default_path_is_the_direct_binding_on_scipy_1_15_and_later():
    """The CI ``scipy`` leg's tripwire: a scipy release that moves the private
    module must fail here, not silently cost 30 % of every solve."""
    import scipy

    release = tuple(int(p) for p in scipy.__version__.split(".")[:2])
    build = scipy_backend.highs_build()
    assert build["direct"] == (release >= (1, 15)), (scipy.__version__, build)
    if not build["direct"]:
        return
    assert build["version"].count(".") == 2
    calls = []
    original = scipy_backend._run_highs

    def spy(*args):
        calls.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy_backend, "_run_highs", spy)
        mp.setattr(scipy_backend._sciopt, "milp", None)  # must not be reached
        res = scipy_backend.ScipyMILPSolver().solve(knapsack(8, 2))
    assert res.status is SolveStatus.OPTIMAL and len(calls) == 1


class TestStatuses:
    def test_optimal(self, make_solver):
        m = Model()
        x, y = m.add_binary("x"), m.add_binary("y")
        m.add_constraint(x + y, "<=", 1)
        m.set_objective(2 * x + 3 * y + 1, sense="maximize")
        res = make_solver().solve(m)
        assert res.status is SolveStatus.OPTIMAL
        assert list(res.x) == [0.0, 1.0]
        assert res.objective == 4.0 and res.bound == pytest.approx(4.0)
        assert res.gap == 0.0 and res.nodes >= 0 and res.solve_time > 0.0
        assert check_certificate(m, res).ok

    def test_infeasible(self, make_solver):
        m = Model()
        x = m.add_integer("x", lb=0, ub=5)
        m.add_constraint(x, ">=", 3)
        m.add_constraint(x, "<=", 2)
        m.set_objective(x, sense="maximize")
        res = make_solver().solve(m)
        assert res.status is SolveStatus.INFEASIBLE and res.x is None

    def test_unbounded(self, make_solver):
        m = Model()
        x = m.add_integer("x", lb=0, ub=None)
        y = m.add_continuous("y", lb=0, ub=None)
        m.add_constraint(x - y, "<=", 1)
        m.set_objective(x + y, sense="maximize")
        res = make_solver().solve(m)
        # HiGHS may only be able to say "unbounded or infeasible", which
        # both paths report as no solution.
        assert res.status in (SolveStatus.UNBOUNDED, SolveStatus.NO_SOLUTION)
        assert res.x is None
        if res.status is SolveStatus.UNBOUNDED:
            assert res.objective == np.inf

    def test_time_limit_with_an_incumbent_is_feasible(self, make_solver):
        # The first incumbent takes 20-50 ms here; optimality, minutes.
        m = knapsack(400, 30, seed=3)
        res = make_solver(rel_gap=0.0, time_limit=1.0).solve(m)
        assert res.status is SolveStatus.FEASIBLE, res.status
        assert res.bound >= res.objective and res.gap > 0.0
        assert check_certificate(m, res).ok

    def test_time_limit_without_an_incumbent_is_no_solution(self, make_solver):
        res = make_solver(time_limit=0.0).solve(knapsack(400, 30, seed=3))
        assert res.status is SolveStatus.NO_SOLUTION and res.x is None


class TestShapes:
    def test_no_rows(self, make_solver):
        m = Model()
        xs = [m.add_integer(f"x{i}", lb=0, ub=3) for i in range(3)]
        m.set_objective(xs[0] - 2 * xs[1] + 0.5 * xs[2], sense="maximize")
        res = make_solver().solve(m)
        assert res.status is SolveStatus.OPTIMAL
        assert list(res.x) == [3.0, 0.0, 3.0] and res.objective == 4.5

    def test_equality_rows_only(self, make_solver):
        m = Model()
        x = m.add_integer("x", lb=0, ub=10)
        y = m.add_integer("y", lb=0, ub=10)
        m.add_constraint(x + y, "==", 7)
        m.add_constraint(x - y, "==", 1)
        m.set_objective(x + 2 * y, sense="minimize")
        res = make_solver().solve(m)
        assert res.status is SolveStatus.OPTIMAL
        assert list(res.x) == [4.0, 3.0] and res.objective == 10.0
        assert check_certificate(m, res).ok

    def test_mixed_continuous_and_integer_columns(self, make_solver):
        m = Model()
        n = m.add_integer("n", lb=0, ub=10)
        f = m.add_continuous("f", lb=0.0, ub=2.5)
        m.add_constraint(2 * n + f, "<=", 7.2)
        m.add_constraint(n - f, "==", 1.5)
        m.set_objective(3 * n + f, sense="maximize")
        res = make_solver().solve(m)
        assert res.status is SolveStatus.OPTIMAL
        assert res.x[0] == 2.0 and res.x[1] == pytest.approx(0.5)
        assert res.objective == pytest.approx(6.5)
        assert check_certificate(m, res).ok

    def test_continuous_columns_only(self, make_solver):
        m = Model()
        a = m.add_continuous("a", lb=0.0, ub=4.0)
        b = m.add_continuous("b", lb=0.0, ub=4.0)
        m.add_constraint(a + 2 * b, "<=", 6.0)
        m.set_objective(a + b, sense="maximize")
        res = make_solver().solve(m)
        # An LP has no MIP bound, gap or node count to report.
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(5.0)
        assert res.bound == res.objective and res.gap == 0.0 and res.nodes == 0

    def test_loose_gap_reports_a_bound_above_the_objective(self, make_solver):
        m = knapsack()
        loose = make_solver(rel_gap=0.5).solve(m)
        assert loose.gap > 0.0 and loose.bound > loose.objective
        assert check_certificate(m, loose).ok
        tight = make_solver(rel_gap=1e-9).solve(m)
        assert loose.objective <= tight.objective + 1e-9 <= loose.bound + 1e-6


def test_solve_time_covers_the_hand_over(make_solver, monkeypatch):
    """The clock used to start after the export had been converted for scipy,
    so ``solve_time`` (and the obs event's ``time_ms``) left that part out."""
    m = knapsack(8, 2)
    export = Model.to_sparse_arrays

    def slow_export(self):
        time.sleep(0.05)
        return export(self)

    solver = make_solver()
    monkeypatch.setattr(Model, "to_sparse_arrays", slow_export)
    from repro import obs
    sink = obs.JsonlSink()
    obs.set_enabled(True, sink=sink)
    try:
        res = solver.solve(m)
    finally:
        obs.set_enabled(False)
    assert res.solve_time >= 0.05
    events = sink.of_kind("solver.solve")
    assert len(events) == 1 and events[0]["time_ms"] >= 50.0


REL_GAP = 0.02


def _both_paths_agree(model: Model) -> None:
    results = {}
    for path in PATHS:
        with pytest.MonkeyPatch.context() as mp:
            results[path] = _solver(path, mp, rel_gap=REL_GAP).solve(model)
    direct, milp = results["direct"], results["milp"]
    assert direct.status is milp.status
    for res in results.values():
        assert check_certificate(model, res).ok, check_certificate(model, res)
    if direct.x is not None:
        slack = REL_GAP * max(abs(direct.objective), abs(milp.objective))
        assert abs(direct.objective - milp.objective) <= slack + 1e-9


@settings(max_examples=40, deadline=None)
@given(model=milp_models())
def test_random_milps_solve_alike_on_both_paths(model):
    _both_paths_agree(model)


@settings(max_examples=40, deadline=None)
@given(spec=fuzz_instances())
def test_compiled_batches_solve_alike_on_both_paths(spec):
    compiled = build_instance(spec)[2]
    if compiled is not None:
        _both_paths_agree(compiled.model)


#: HiGHS build the identity below was recorded under.  Which optimum inside
#: ``rel_gap`` comes back is HiGHS's choice, so another build may differ
#: without either path being wrong: re-measure, then re-record.
RECORDED_HIGHS = "1.12.0"


def test_direct_path_returns_milp_incumbent_on_a_contended_simulation():
    """Every MILP of a seeded bursty GR MIX run on 2 x 16 nodes: the direct
    path (feasibility jump off, row-wise hand-over) and default ``milp``
    return the same ``x``, so they place the same jobs on the same nodes."""
    from repro.cluster import Cluster
    from repro.core.scheduler import TetriSchedConfig
    from repro.sim import Simulation
    from repro.sim.adapters import TetriSchedAdapter
    from repro.workloads import COMPOSITIONS, GridmixConfig, generate_workload

    if scipy_backend._highs is None:
        pytest.skip("scipy < 1.15: no HiGHS binding to hand the model to")
    cluster = Cluster.build(racks=2, nodes_per_rack=16)
    jobs = generate_workload(
        COMPOSITIONS["GR MIX"], cluster,
        GridmixConfig(num_jobs=60, target_utilization=50.0,
                      estimate_error=-0.5, seed=0))
    burst, gap_s = 20, 800.0
    retimed = []
    for i, job in enumerate(jobs):
        shift = (i // burst) * gap_s - jobs[i - i % burst].submit_time
        retimed.append(replace(
            job, submit_time=job.submit_time + shift,
            deadline=None if job.deadline is None else job.deadline + shift))

    direct_solve = scipy_backend.ScipyMILPSolver.solve
    compared = []

    def solve_both(self, model, options=None):
        direct = direct_solve(self, model, options)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scipy_backend, "_highs", None)
            milp = direct_solve(self, model, options)
        compared.append((direct, milp))
        return direct

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy_backend.ScipyMILPSolver, "solve", solve_both)
        adapter = TetriSchedAdapter(cluster, TetriSchedConfig.partial(
            rel_gap=REL_GAP, backend="scipy"))
        result = Simulation(cluster, adapter, retimed).run()

    assert all(o.completed for o in result.outcomes.values())
    assert len(compared) >= 10, "the run was meant to be contended"
    version = scipy_backend.highs_build()["version"]
    for cycle, (direct, milp) in enumerate(compared):
        assert direct.status is milp.status
        assert np.array_equal(direct.x, milp.x), (
            f"solved cycle {cycle}: direct objective {direct.objective!r}, "
            f"milp {milp.objective!r}; recorded under HiGHS "
            f"{RECORDED_HIGHS}, running {version}")
