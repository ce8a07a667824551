"""The domain coordinator: job -> domain assignment and the cycle working set.

Assignment happens at the :class:`~repro.strl.generator.SpaceOption`
level: pinning a job to a domain restricts each placement option's
equivalence set to its intersection with the domain's nodes (an option
survives when the intersection still fits the gang, ``|nodes ∩ domain|
>= k``).  Restriction never *adds* placements, so the per-domain optima
are a coarsening of the monolithic optimum — which is what makes the
declared quality bound provable:

    S_sharded  >=  S_monolithic  -  sum(max_value(j) for j in trimmed
                                        or boundary jobs)

(dropping a job's trimmed alternatives costs at most that job's best-case
value, and every untrimmed job's full option set survives inside its
domain).  When no job is trimmed and none is boundary, the bound is zero:
exact parity.

Assignment is **sticky** (a job keeps its domain across cycles),
**affinity-aware** (prefer the domain that wholly contains the most
options), **load-balanced** (among equally-affine domains, pick the
least-loaded per node),
and **deterministic** under the config's single RNG seed: ties break on a
keyed blake2b hash of ``(seed, job_id, domain_id)``, never on builtin
``hash`` (which is salted per process and would destroy bit-reproducible
runs).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cluster.cluster import Cluster
from repro.cluster.state import ClusterState
from repro.shard.domains import (DomainPartitioner, SchedulingDomain,
                                 resolve_shard_count)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    import numpy as np

    from repro.core.allocation import PlanAccumulator
    from repro.core.compiler import CompiledBatch
    from repro.core.scheduler import JobRequest, TetriSched, TetriSchedConfig
    from repro.solver.result import MILPResult
    from repro.strl.ast import StrlNode


@dataclass
class ShardCycle:
    """One sharded cycle's working set, threaded through the shard stages.

    ``DomainAssign`` fills the assignment half (batches / boundary /
    trimmed / quality bound); compile, solve, extract and reconcile fill
    the rest.  Lives on ``ctx.shard`` and never outlives the cycle.
    """

    domains: list[SchedulingDomain]
    #: domain_id -> ``(job_id, STRL root)`` batch, in queue order.
    batches: dict[int, list[tuple[str, "StrlNode"]]] = field(
        default_factory=dict)
    #: Cross-domain gangs no single domain can host — reconciled after the
    #: domain solves against the residual availability.
    boundary: list[tuple[str, "StrlNode"]] = field(default_factory=list)
    #: Jobs whose options were restricted when pinned to their domain.
    trimmed: set[str] = field(default_factory=set)
    #: Declared bound on objective loss vs the monolithic optimum (summed
    #: best-case value of trimmed + boundary jobs; 0 = exact parity).
    quality_bound: float = 0.0

    # -- filled by the later shard stages ----------------------------------
    compiled: dict[int, "CompiledBatch"] = field(default_factory=dict)
    warm: dict[int, "np.ndarray | None"] = field(default_factory=dict)
    results: dict[int, "MILPResult"] = field(default_factory=dict)
    solve_s: dict[int, float] = field(default_factory=dict)
    #: Domains whose MILP produced no solution (typically a timeout) and
    #: fell back to greedy one-job-at-a-time scheduling for this cycle.
    fallback_domains: list[int] = field(default_factory=list)
    #: The shared space-time accumulator every domain materializes into.
    acc: "PlanAccumulator | None" = None
    #: Reconciliation solve over the boundary jobs:
    #: ``(compiled, result, exprs)`` when it ran, else ``None``.
    reconcile: "tuple | None" = None

    def active_domains(self) -> list[int]:
        """Domain ids that received at least one job this cycle, sorted."""
        return sorted(self.batches)

    def domain_of(self) -> dict[str, int]:
        """job_id -> domain_id for every domain-assigned job."""
        return {job_id: did for did, batch in self.batches.items()
                for job_id, _ in batch}

    def domain_records(self) -> list[dict]:
        """JSON-serializable per-domain cycle records (service stats)."""
        by_id = {d.domain_id: d for d in self.domains}
        records = []
        for did in self.active_domains():
            res = self.results.get(did)
            records.append({
                "domain": by_id[did].name,
                "jobs": len(self.batches[did]),
                "objective": float(res.objective) if res is not None else 0.0,
                "solve_s": float(self.solve_s.get(did, 0.0)),
                "fallback": did in self.fallback_domains,
            })
        return records


def _tiebreak(seed: int, job_id: str, domain_id: int) -> int:
    """Deterministic, seed-keyed tie-break (process-salt-free)."""
    digest = hashlib.blake2b(f"{seed}:{job_id}:{domain_id}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


class DomainCoordinator:
    """Assigns jobs to scheduling domains, one instance per scheduler.

    Persists across cycles: the domain list (stable — a pure function of
    cluster topology) and the sticky job->domain map.
    """

    def __init__(self, cluster: Cluster, state: ClusterState,
                 config: "TetriSchedConfig") -> None:
        self.cluster = cluster
        self.state = state
        self.config = config
        count = resolve_shard_count(config.shard_count, cluster)
        self.domains = DomainPartitioner(cluster).partition(count)
        self._sticky: dict[str, int] = {}

    # -- per-job restriction -------------------------------------------------
    def _restrict(self, req: "JobRequest", domain: SchedulingDomain
                  ) -> tuple[tuple, bool]:
        """Options surviving inside ``domain``: ``(kept, trimmed?)``.

        ``kept`` is empty when no option fits the domain (the job is not
        assignable there); ``trimmed`` is true when the survivors differ
        from the original option set in any way — the signal that the
        domain expression must regenerate and the quality bound must
        charge this job.
        """
        kept = []
        trimmed = False
        for opt in req.options:
            inter = opt.nodes & domain.nodes
            if len(inter) < opt.k:
                trimmed = True  # option dropped entirely
                continue
            if inter != opt.nodes:
                trimmed = True
                kept.append(dataclasses.replace(opt, nodes=inter))
            else:
                kept.append(opt)
        return tuple(kept), trimmed

    # -- the per-cycle assignment -------------------------------------------
    def assign(self, sched: "TetriSched",
               exprs: list[tuple[str, "StrlNode"]],
               requests: dict[str, "JobRequest"],
               now: float) -> ShardCycle:
        """Build this cycle's :class:`ShardCycle` from the generated batch.

        Walks ``exprs`` in queue order (preserving it inside each domain
        batch, so a single whole-cluster domain reproduces the monolithic
        batch exactly).  Jobs no single domain can host go to ``boundary``
        with their *unrestricted* expression.
        """
        sc = ShardCycle(domains=self.domains)
        load: dict[int, int] = {d.domain_id: 0 for d in self.domains}
        by_id = {d.domain_id: d for d in self.domains}
        drained = self.state.drained_nodes
        current: set[str] = set()

        for job_id, expr in exprs:
            current.add(job_id)
            req = requests[job_id]
            feasible: dict[int, tuple[tuple, bool]] = {}
            scores: dict[int, tuple] = {}
            for d in self.domains:
                kept, trimmed = self._restrict(req, d)
                if not kept:
                    continue
                feasible[d.domain_id] = (kept, trimmed)
                contained = sum(1 for opt in req.options
                                if opt.nodes <= d.nodes)
                overlap = sum(len(opt.nodes & d.nodes)
                              for opt in req.options)
                scores[d.domain_id] = (contained, len(kept), overlap)
            if not feasible:
                sc.boundary.append((job_id, expr))
                sc.quality_bound += expr.max_value()
                self._sticky.pop(job_id, None)
                continue

            # Prefer domains with live (non-drained) capacity; when every
            # feasible domain is fully drained, fall back to all of them
            # (a single whole-cluster domain is never excluded).
            live = [did for did in feasible
                    if by_id[did].nodes - drained]
            pool = live or list(feasible)

            sticky = self._sticky.get(job_id)
            if sticky is not None and sticky in pool:
                did = sticky
            else:
                def rank(cand: int) -> tuple:
                    contained, n_opts, overlap = scores[cand]
                    # Load per node, as an exact fraction (no float ties).
                    size = len(by_id[cand].nodes)
                    return (-contained, -n_opts,
                            load[cand] * 10**9 // size, -overlap,
                            _tiebreak(self.config.seed, job_id, cand))
                did = min(pool, key=rank)
            self._sticky[job_id] = did

            kept, trimmed = feasible[did]
            if trimmed:
                domain_expr = sched._generate(
                    dataclasses.replace(req, options=kept), now)
                if domain_expr is None:
                    # Every restricted option was culled (deadline/value):
                    # let reconciliation try the unrestricted expression.
                    sc.boundary.append((job_id, expr))
                    sc.quality_bound += expr.max_value()
                    self._sticky.pop(job_id, None)
                    continue
                sc.trimmed.add(job_id)
                sc.quality_bound += expr.max_value()
            else:
                domain_expr = expr
            sc.batches.setdefault(did, []).append((job_id, domain_expr))
            load[did] += min(opt.k for opt in kept)

        # Prune stickiness for jobs that left the queue (finished, culled,
        # cancelled) so a long-lived service never accumulates dead ids.
        self._sticky = {j: d for j, d in self._sticky.items()
                        if j in current}
        return sc
