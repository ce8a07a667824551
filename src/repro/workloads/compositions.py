"""Workload compositions (Table 1).

============  =====  ====  =============  ====  ====
Workload      SLO    BE    Unconstrained  GPU   MPI
============  =====  ====  =============  ====  ====
GR SLO        100 %  0 %   100 %          0 %   0 %
GR MIX        52 %   48 %  100 %          0 %   0 %
GS MIX        70 %   30 %  100 %          0 %   0 %
GS HET        75 %   25 %  0 %            50 %  50 %
============  =====  ====  =============  ====  ====

GR workloads are gridmix-style, trace-derived (fb2009_2 SLO + yahoo_1 BE);
GS workloads are synthetic.  In GS HET the GPU/MPI split applies to the SLO
jobs; best-effort jobs are always unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.sim.jobs import GpuType, MpiType, UnconstrainedType
from repro.workloads.swim import FB2009_2, GS_SYNTHETIC, YAHOO_1, JobClassSpec

#: Placement-preference implementations by type name.  The slowdown factor
#: follows the paper's examples (Fig. 1: GPU/MPI jobs run 3 time units
#: instead of 2 on sub-optimal placements -> 1.5x).
JOB_TYPES = {
    "unconstrained": UnconstrainedType(),
    "gpu": GpuType(slowdown=1.5),
    "mpi": MpiType(slowdown=1.5),
}


@dataclass(frozen=True)
class WorkloadComposition:
    """One Table 1 row plus the job-class specs that realize it."""

    name: str
    slo_fraction: float
    #: Placement-preference mix over SLO jobs: type name -> fraction.
    slo_type_mix: dict[str, float]
    slo_class: JobClassSpec
    be_class: JobClassSpec

    def __post_init__(self) -> None:
        if not 0.0 <= self.slo_fraction <= 1.0:
            raise WorkloadError("slo_fraction must be within [0, 1]")
        unknown = set(self.slo_type_mix) - set(JOB_TYPES)
        if unknown:
            raise WorkloadError(f"unknown job types {sorted(unknown)}; "
                                f"known: {sorted(JOB_TYPES)}")
        if any(f < 0 for f in self.slo_type_mix.values()):
            raise WorkloadError(
                f"type mix fractions must be nonnegative: {self.slo_type_mix}")
        total = sum(self.slo_type_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(
                f"type mix fractions must sum to 1, got {total}")

    @property
    def be_fraction(self) -> float:
        return 1.0 - self.slo_fraction

    def table_row(self) -> dict[str, float]:
        """The Table 1 row in percent, for the reproduction harness."""
        return {
            "Workload": self.name,
            "SLO": round(100 * self.slo_fraction),
            "BE": round(100 * self.be_fraction),
            "Unconstrained": round(
                100 * self.slo_type_mix.get("unconstrained", 0.0)),
            "GPU": round(100 * self.slo_type_mix.get("gpu", 0.0)),
            "MPI": round(100 * self.slo_type_mix.get("mpi", 0.0)),
        }


GR_SLO = WorkloadComposition(
    name="GR SLO", slo_fraction=1.0,
    slo_type_mix={"unconstrained": 1.0},
    slo_class=FB2009_2, be_class=YAHOO_1)

GR_MIX = WorkloadComposition(
    name="GR MIX", slo_fraction=0.52,
    slo_type_mix={"unconstrained": 1.0},
    slo_class=FB2009_2, be_class=YAHOO_1)

GS_MIX = WorkloadComposition(
    name="GS MIX", slo_fraction=0.70,
    slo_type_mix={"unconstrained": 1.0},
    slo_class=GS_SYNTHETIC, be_class=GS_SYNTHETIC)

GS_HET = WorkloadComposition(
    name="GS HET", slo_fraction=0.75,
    slo_type_mix={"gpu": 0.5, "mpi": 0.5},
    slo_class=GS_SYNTHETIC, be_class=GS_SYNTHETIC)

#: Table 1, in paper order.
TABLE1 = (GR_SLO, GR_MIX, GS_MIX, GS_HET)

COMPOSITIONS = {c.name: c for c in TABLE1}
