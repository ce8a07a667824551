"""TetriSched reproduction (EuroSys 2016).

A full-system Python reproduction of *TetriSched: global rescheduling with
adaptive plan-ahead in dynamic heterogeneous clusters* (Tumanov et al.,
EuroSys'16), including every substrate the paper depends on:

* :mod:`repro.solver` — MILP substrate (pure-Python simplex +
  branch-and-bound; optional scipy/HiGHS backend), replacing CPLEX;
* :mod:`repro.strl` — the Space-Time Request Language (AST, parser,
  generator, RDL translation);
* :mod:`repro.cluster` — nodes, racks, attributes, equivalence-set
  partitioning, space-time availability;
* :mod:`repro.core` — the TetriSched scheduler (Algorithm 1 compiler,
  plan-ahead, adaptive re-planning, global & greedy modes);
* :mod:`repro.reservation` — Rayon-style admission control;
* :mod:`repro.baselines` — the Rayon/CapacityScheduler stack and the
  Table 2 feature ablations;
* :mod:`repro.sim` — discrete-event cluster simulator (replacing the
  paper's 256/80-node testbeds);
* :mod:`repro.workloads` — SWIM-derived and synthetic workload generators
  (Table 1 compositions);
* :mod:`repro.service` — long-lived asyncio scheduler service: HTTP/JSON
  API (submit, cancel, cluster events, graceful drain) over a
  timer-driven cycle loop;
* :mod:`repro.experiments` — one driver per paper table/figure;
* :mod:`repro.verify` — independent schedule auditor, MILP certificate
  checker, and the differential fuzz harness (``python -m repro fuzz``).

Quickstart
----------
>>> from repro import Cluster, TetriSchedConfig, TetriSchedAdapter
>>> from repro import Job, UnconstrainedType, Simulation
>>> cluster = Cluster.build(racks=2, nodes_per_rack=4, gpu_racks=1)
>>> sched = TetriSchedAdapter(cluster, TetriSchedConfig(quantum_s=10,
...                                                     cycle_s=10))
>>> jobs = [Job("j1", UnconstrainedType(), k=2, base_runtime_s=30,
...             submit_time=0.0, deadline=120.0)]
>>> result = Simulation(cluster, sched, jobs).run()
>>> result.metrics.slo_total_pct
100.0
"""

from repro.api import Scheduler
from repro.cluster import Cluster, ClusterState, Node
from repro.core import (Allocation, JobRequest, PriorityClass, StrlCompiler,
                        TetriSched, TetriSchedConfig)
from repro.pipeline import (CyclePipeline, StageName, global_pipeline,
                            greedy_pipeline)
from repro.reservation import RayonReservationSystem
from repro.service import SchedulerService, ServiceServer
from repro.sim import (GpuType, Job, MpiType, ServiceAdapter, Simulation,
                       SimulationResult, TetriSchedAdapter,
                       UnconstrainedType)
from repro.solver import Model, SolveOptions, SolveStatus, make_backend
from repro.strl import (Barrier, LnCk, Max, Min, NCk, Scale, SpaceOption,
                        Sum, parse, to_text)
from repro.valuefn import best_effort_value, slo_value
from repro.verify import (AuditReport, AuditViolation, CertificateReport,
                          audit_cycle, check_certificate)

__version__ = "1.0.0"

__all__ = [
    "Allocation", "AuditReport", "AuditViolation", "Barrier",
    "CertificateReport", "Cluster", "ClusterState", "CyclePipeline",
    "GpuType", "Job", "JobRequest", "LnCk", "Max", "Min", "Model", "MpiType",
    "NCk", "Node", "PriorityClass", "RayonReservationSystem", "Scale",
    "Scheduler", "SchedulerService", "ServiceAdapter", "ServiceServer",
    "Simulation", "SimulationResult", "SolveOptions", "SolveStatus",
    "SpaceOption", "StageName", "StrlCompiler", "Sum", "TetriSched",
    "TetriSchedAdapter", "TetriSchedConfig", "UnconstrainedType",
    "audit_cycle", "best_effort_value", "check_certificate",
    "global_pipeline", "greedy_pipeline", "make_backend", "parse",
    "slo_value", "to_text",
]
