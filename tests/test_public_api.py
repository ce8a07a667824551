"""Public-API and documentation tests.

* every name in ``repro.__all__`` (and each subpackage's) actually resolves;
* the top-level ``__all__`` is the locked API contract — additions and
  removals must be deliberate (update ``TOP_LEVEL_API`` here in the same
  change);
* no private (underscore) names or raw submodule objects leak through any
  ``__all__``;
* module doctests run (the examples in docstrings must stay correct).
"""

import doctest
import importlib
import inspect

import pytest

DOCTEST_MODULES = [
    "repro",
    "repro.solver.expr",
    "repro.solver.model",
    "repro.solver.branch_bound",
    "repro.solver.options",
    "repro.cluster.cluster",
    "repro.cluster.state",
    "repro.reservation.rayon",
    "repro.core.scheduler",
    "repro.verify.certificate",
]

PACKAGES = [
    "repro", "repro.solver", "repro.strl", "repro.cluster", "repro.core",
    "repro.pipeline", "repro.reservation", "repro.baselines", "repro.sim",
    "repro.workloads", "repro.experiments", "repro.verify", "repro.service",
]

#: The locked top-level contract: exactly what ``from repro import *``
#: gives you.  A failing diff here means the public API changed — that
#: must be an intentional, reviewed decision.
TOP_LEVEL_API = {
    # the scheduler facade (the supported construction path)
    "Scheduler",
    # cluster substrate
    "Cluster", "ClusterState", "Node",
    # scheduler core
    "Allocation", "JobRequest", "PriorityClass", "StrlCompiler",
    "TetriSched", "TetriSchedConfig",
    # long-lived scheduler service
    "SchedulerService", "ServiceAdapter", "ServiceServer",
    # cycle pipeline
    "CyclePipeline", "StageName", "global_pipeline", "greedy_pipeline",
    # solver surface
    "Model", "SolveOptions", "SolveStatus", "make_backend",
    # STRL
    "Barrier", "LnCk", "Max", "Min", "NCk", "Scale", "SpaceOption", "Sum",
    "parse", "to_text",
    # reservation + simulation
    "RayonReservationSystem", "GpuType", "Job", "MpiType", "Simulation",
    "SimulationResult", "TetriSchedAdapter", "UnconstrainedType",
    # value functions
    "best_effort_value", "slo_value",
    # verification oracles
    "AuditReport", "AuditViolation", "CertificateReport", "audit_cycle",
    "check_certificate",
}


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        mod = importlib.import_module(package)
        assert hasattr(mod, "__all__") or package == "repro.experiments"
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{package}.{name} missing"

    def test_top_level_all_is_the_locked_contract(self):
        import repro
        assert set(repro.__all__) == TOP_LEVEL_API
        assert len(repro.__all__) == len(set(repro.__all__)), \
            "__all__ contains duplicates"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_no_private_names_in_all(self, package):
        mod = importlib.import_module(package)
        leaked = [n for n in getattr(mod, "__all__", [])
                  if n.startswith("_")]
        assert not leaked, f"{package}.__all__ leaks private names: {leaked}"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_no_modules_exported_through_all(self, package):
        """``__all__`` re-exports objects, never raw module handles."""
        mod = importlib.import_module(package)
        leaked = [n for n in getattr(mod, "__all__", [])
                  if inspect.ismodule(getattr(mod, n))]
        assert not leaked, f"{package}.__all__ exports modules: {leaked}"

    def test_solver_surface_includes_decompose_api(self):
        from repro import solver
        for name in ("SolveOptions", "Decomposition", "decompose",
                     "solve_decomposed"):
            assert name in solver.__all__

    def test_version(self):
        import repro
        assert repro.__version__


class TestDoctests:
    @pytest.mark.parametrize("module_name", DOCTEST_MODULES)
    def test_module_doctests(self, module_name):
        mod = importlib.import_module(module_name)
        results = doctest.testmod(mod, verbose=False)
        assert results.failed == 0, f"{results.failed} doctest failures"


class TestPublicSurface:
    def test_quickstart_flow(self):
        """The README quickstart, executed."""
        from repro import (Cluster, JobRequest, PriorityClass, SpaceOption,
                           TetriSched, TetriSchedConfig)
        from repro.valuefn import StepValue

        cluster = Cluster.build(racks=2, nodes_per_rack=4, gpu_racks=1)
        sched = TetriSched(cluster, TetriSchedConfig(
            quantum_s=10, cycle_s=10, plan_ahead_s=96))
        sched.submit(JobRequest(
            job_id="gpu-job",
            options=(SpaceOption(cluster.nodes_with_attr("gpu"), k=2,
                                 duration_s=20, label="gpu"),
                     SpaceOption(cluster.node_names, k=2, duration_s=30,
                                 label="anywhere")),
            value_fn=StepValue(1000.0, deadline=100.0),
            priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0,
            deadline=100.0))
        result = sched.run_cycle(now=0.0)
        assert len(result.allocations) == 1
        assert result.allocations[0].nodes <= cluster.nodes_with_attr("gpu")
