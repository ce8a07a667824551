"""Gridmix-style workload generator (Sec. 6.4).

"We use a synthetic generator based on Gridmix 3 to generate MapReduce jobs
that respect the runtime parameter distributions for arrival time, job
count, size, deadline, and task runtime.  In all experiments, we adjust the
load to utilize near 100 % of the available cluster capacity."

The generator samples gang sizes / runtimes / deadline slacks from a
:class:`~repro.workloads.compositions.WorkloadComposition`, then paces
Poisson arrivals so the *offered load* (node-seconds demanded per second)
matches ``target_utilization`` of cluster capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.errors import WorkloadError
from repro.sim.jobs import (ElasticType, GpuType, Job, MpiType,
                            UnconstrainedType)
from repro.workloads.compositions import JOB_TYPES, WorkloadComposition
from repro.workloads.distributions import Rng, cumulative


@dataclass(frozen=True)
class GridmixConfig:
    """Knobs for one generated workload."""

    num_jobs: int = 60
    target_utilization: float = 1.0
    #: Relative runtime mis-estimation applied to every job (Sec. 6.3 sweep).
    estimate_error: float = 0.0
    #: Coefficient of variation of arrival gaps: 1.0 = Poisson, >1 = bursty
    #: (the companion TR sweeps inter-arrival burstiness).
    burstiness: float = 1.0
    #: Sub-optimal-placement slowdown for GPU/MPI jobs (the companion TR
    #: sweeps this heterogeneity intensity; 1.0 = homogeneous cluster).
    slowdown: float = 1.5
    #: Fraction of best-effort jobs generated as malleable elastic gangs
    #: (Sec. 4.1 space-time elasticity); they run rigidly unless the
    #: scheduler enables ``elastic_mode``.
    elastic_fraction: float = 0.0
    #: Scaling efficiency of generated elastic gangs (<1 = imperfect).
    elastic_efficiency: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_jobs <= 0:
            raise WorkloadError("num_jobs must be positive")
        if self.target_utilization <= 0:
            raise WorkloadError("target_utilization must be positive")
        if self.estimate_error <= -1.0:
            raise WorkloadError("estimate_error must be > -100%")
        if self.burstiness <= 0:
            raise WorkloadError("burstiness must be positive")
        if self.slowdown < 1.0:
            raise WorkloadError("slowdown must be >= 1")
        if not 0.0 <= self.elastic_fraction <= 1.0:
            raise WorkloadError("elastic_fraction must be in [0, 1]")
        if not 0.0 < self.elastic_efficiency <= 1.0:
            raise WorkloadError("elastic_efficiency must be in (0, 1]")


def generate_workload(composition: WorkloadComposition, cluster: Cluster,
                      config: GridmixConfig) -> list[Job]:
    """Generate one deterministic workload.

    Jobs are named ``slo<N>`` / ``be<N>``.  Gang sizes are capped at the
    cluster size (and, for MPI jobs, at the largest rack so the rack-local
    preference stays satisfiable).
    """
    rng = Rng(config.seed)
    job_types = {
        "unconstrained": UnconstrainedType(),
        "gpu": GpuType(slowdown=config.slowdown),
        "mpi": MpiType(slowdown=config.slowdown),
    }
    capacity = len(cluster)
    max_rack = max(len(cluster.rack_nodes(r)) for r in cluster.rack_names)

    type_names = sorted(composition.slo_type_mix)
    type_cdf = cumulative([composition.slo_type_mix[t] for t in type_names])
    # Per class: its three samplers, bound once.  A job draws, in this
    # order: its SLO type (SLO jobs only), gang size, runtime and slack.
    samplers = {is_slo: (spec.gang_size.sample, spec.runtime_s.sample,
                         spec.deadline_slack.sample)
                for is_slo, spec in ((True, composition.slo_class),
                                     (False, composition.be_class))}

    # -- sample job shapes first (sizes, runtimes, classes) ------------------
    drafts = []
    slo_target = composition.slo_fraction
    already_slo = already_elastic = 0  # running counts over ``drafts``
    for i in range(config.num_jobs):
        # Deterministic class interleaving keeps the realized mix close to
        # the target even for small workloads.
        is_slo = (already_slo < slo_target * (i + 1) - 1e-9) or (
            slo_target >= 1.0)
        already_slo += is_slo
        elastic = False
        if is_slo:
            type_name = type_names[rng.categorical(type_cdf)]
        else:
            type_name = "unconstrained"  # BE jobs are always unconstrained
            # Same deterministic interleave as the SLO mix: the realized
            # elastic share of BE jobs tracks the target even when few
            # BE jobs are drawn.
            n_be = i - already_slo + 1
            elastic = (already_elastic
                       < config.elastic_fraction * n_be - 1e-9) or (
                config.elastic_fraction >= 1.0)
            already_elastic += elastic
        gang_size, runtime_s, deadline_slack = samplers[is_slo]
        k = min(gang_size(rng), capacity if type_name != "mpi" else max_rack)
        runtime = runtime_s(rng)
        drafts.append((is_slo, type_name, k, runtime, elastic,
                       deadline_slack(rng)))

    # -- pace arrivals to hit the utilization target --------------------------
    mean_work = float(np.mean([d[2] * d[3] for d in drafts]))
    arrival_rate = capacity * config.target_utilization / mean_work
    gaps = rng.gamma_gaps(len(drafts), 1.0 / arrival_rate, config.burstiness)

    jobs: list[Job] = []
    t = 0.0
    slo_counter = be_counter = 0
    for draft, gap in zip(drafts, gaps):
        is_slo, type_name, k, runtime, elastic, slack = draft
        t += gap
        if is_slo:
            job_id = f"slo{slo_counter}"
            slo_counter += 1
            deadline = t + slack * runtime
        else:
            job_id = f"be{be_counter}"
            be_counter += 1
            deadline = None
        if elastic:
            # A malleable gang: any width from roughly a third of the
            # preferred parallelism up to the full gang size.
            job_type: UnconstrainedType | ElasticType = ElasticType(
                min_k=max(1, k // 3), efficiency=config.elastic_efficiency)
        else:
            job_type = job_types[type_name]
        jobs.append(Job(
            job_id=job_id, job_type=job_type, k=k, base_runtime_s=runtime,
            submit_time=t, deadline=deadline,
            estimate_error=config.estimate_error))
    return jobs


def offered_load(jobs: list[Job], cluster: Cluster) -> float:
    """Realized offered load as a fraction of cluster capacity.

    ``sum(k * runtime) / (capacity * makespan_window)`` where the window is
    the arrival span plus one mean runtime (so single-job workloads don't
    divide by zero).
    """
    if not jobs:
        return 0.0
    work = sum(j.k * j.base_runtime_s for j in jobs)
    first = min(j.submit_time for j in jobs)
    last = max(j.submit_time for j in jobs)
    mean_runtime = work / sum(j.k for j in jobs)
    window = (last - first) + mean_runtime
    return work / (len(cluster) * window)
