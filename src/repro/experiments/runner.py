"""Run one (scheduler stack, workload, parameters) experiment.

The paper's testbeds are scaled down so a full sweep finishes in seconds on
a laptop (DESIGN.md documents the substitution):

* ``RC256_SCALED`` — 8 racks x 8 nodes = 64 nodes (paper: 8 x 32 = 256);
* ``RC80_SCALED`` — 4 racks x 8 nodes = 32 nodes (paper: 80-node subset),
  with half the racks GPU-enabled for the heterogeneous workloads.

Load is held near 100 % of capacity in all experiments, as in the paper, so
all behaviour that depends on *relative* pressure is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.baselines.capacity_scheduler import CapacityScheduler
from repro.baselines.edf import EdfScheduler
from repro.baselines.variants import TABLE2_CONFIGS
from repro.cluster.cluster import Cluster
from repro.core.scheduler import TetriSchedConfig
from repro.errors import ReproError
from repro.reservation.rayon import RayonReservationSystem
from repro.sim.adapters import TetriSchedAdapter
from repro.sim.engine import Simulation, SimulationResult
from repro.sim.faults import FaultModel
from repro.workloads.compositions import WorkloadComposition
from repro.workloads.gridmix import GridmixConfig, generate_workload


@dataclass(frozen=True)
class ClusterSpec:
    """Topology of a simulated testbed."""

    racks: int
    nodes_per_rack: int
    gpu_racks: int = 0

    def build(self) -> Cluster:
        return Cluster.build(self.racks, self.nodes_per_rack, self.gpu_racks)

    @property
    def size(self) -> int:
        return self.racks * self.nodes_per_rack


#: Scaled stand-ins for the paper's testbeds (Sec. 6.1).
RC256_SCALED = ClusterSpec(racks=8, nodes_per_rack=8)
RC80_SCALED = ClusterSpec(racks=4, nodes_per_rack=8, gpu_racks=2)

#: Scheduler stack names accepted by :func:`run_experiment`.
SCHEDULER_NAMES = ("Rayon/CS", "EDF", "TetriSched", "TetriSched-NH",
                   "TetriSched-NG", "TetriSched-NP")


@dataclass(frozen=True)
class RunSpec:
    """Full description of one experiment run."""

    scheduler: str
    composition: WorkloadComposition
    cluster: ClusterSpec
    num_jobs: int = 48
    seed: int = 0
    estimate_error: float = 0.0
    target_utilization: float = 1.0
    quantum_s: float = 10.0
    cycle_s: float = 10.0
    plan_ahead_s: float = 96.0
    backend: str = "auto"
    rel_gap: float = 0.02
    solver_time_limit: float | None = None
    max_time_s: float = 100_000.0
    #: Extension: MILP-native preemption of running best-effort jobs.
    enable_preemption: bool = False
    #: Arrival burstiness (CV of inter-arrival gaps; 1.0 = Poisson).
    burstiness: float = 1.0
    #: Heterogeneity intensity: sub-optimal-placement slowdown factor.
    slowdown: float = 1.5
    #: Fraction of best-effort jobs generated as malleable elastic gangs.
    elastic_fraction: float = 0.0
    #: Scaling efficiency of generated elastic gangs (1.0 = the paper's
    #: constant-area space-time shapes; <1 = narrow widths inflate work).
    elastic_efficiency: float = 1.0
    #: Extension: per-cycle width re-planning of running elastic gangs.
    elastic_mode: bool = False
    #: Value charged when a running elastic gang grows (reconfiguration).
    reconfig_penalty: float = 1.0
    #: Per-launch mid-run failure probability (0 = no fault injection).
    failure_prob: float = 0.0

    def with_(self, **overrides) -> "RunSpec":
        return replace(self, **overrides)


def _tetrisched_config(spec: RunSpec, variant: str) -> TetriSchedConfig:
    factory = TABLE2_CONFIGS[variant]
    return factory(quantum_s=spec.quantum_s, cycle_s=spec.cycle_s,
                   plan_ahead_s=spec.plan_ahead_s, backend=spec.backend,
                   rel_gap=spec.rel_gap,
                   solver_time_limit=spec.solver_time_limit,
                   enable_preemption=spec.enable_preemption,
                   elastic_mode=spec.elastic_mode,
                   reconfig_penalty=spec.reconfig_penalty)


def build_scheduler(spec: RunSpec, cluster: Cluster,
                    rayon: RayonReservationSystem):
    """Instantiate the requested scheduler stack."""
    if spec.scheduler == "Rayon/CS":
        return CapacityScheduler(cluster, rayon, cycle_s=spec.cycle_s)
    if spec.scheduler == "EDF":
        return EdfScheduler(cluster, cycle_s=spec.cycle_s)
    if spec.scheduler in TABLE2_CONFIGS:
        config = _tetrisched_config(spec, spec.scheduler)
        # -NP is "no plan-ahead" regardless of the sweep's plan_ahead_s.
        return TetriSchedAdapter(cluster, config, name=spec.scheduler)
    raise ReproError(
        f"unknown scheduler {spec.scheduler!r}; expected one of "
        f"{SCHEDULER_NAMES}")


def run_experiment(spec: RunSpec) -> SimulationResult:
    """Generate the workload, build the stack, simulate, return metrics.

    Both stacks share the same Rayon instance semantics: each run creates a
    fresh reservation system with the cluster's capacity, and the simulator
    routes every SLO job's admission through it.
    """
    cluster = spec.cluster.build()
    workload = generate_workload(
        spec.composition, cluster,
        GridmixConfig(num_jobs=spec.num_jobs,
                      target_utilization=spec.target_utilization,
                      estimate_error=spec.estimate_error,
                      burstiness=spec.burstiness, slowdown=spec.slowdown,
                      elastic_fraction=spec.elastic_fraction,
                      elastic_efficiency=spec.elastic_efficiency,
                      seed=spec.seed))
    rayon = RayonReservationSystem(capacity=len(cluster), step_s=spec.cycle_s)
    scheduler = build_scheduler(spec, cluster, rayon)
    faults = (FaultModel(spec.failure_prob, seed=spec.seed + 1)
              if spec.failure_prob > 0.0 else None)
    sim = Simulation(cluster, scheduler, workload, rayon=rayon,
                     max_time_s=spec.max_time_s, faults=faults)
    result = sim.run()
    return result
