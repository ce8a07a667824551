"""Scheduling domains: partitioning the cluster for sharded cycles.

The monolithic cycle MILP is the paper's point, but one aggregate model
stops scaling long before 1k+ nodes.  The standard way out — the
packing-and-placement decomposition of Shafiee & Ghaderi, and the
decompose-then-coordinate structure CvxCluster exploits for granular
allocation — is to split the cluster into *scheduling domains* that
compile and solve their own (much smaller) MILPs concurrently, then
reconcile the few jobs whose placement options genuinely span domains.

This module owns the spatial half of that story: a
:class:`DomainPartitioner` turns a :class:`~repro.cluster.cluster.Cluster`
into a list of :class:`SchedulingDomain`, rack-aligned by default and
pluggable through :func:`register_policy` (the partitioning policy is a
pure function of the cluster topology, so domains are stable across
cycles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.cluster.cluster import Cluster
from repro.errors import SchedulerError

#: Default racks per domain when ``shard_count`` is left at 0.
DEFAULT_RACKS_PER_DOMAIN = 4

#: Cluster size at which ``shard_mode="auto"`` switches sharding on: below
#: this the monolithic model (with component decomposition) wins; above it
#: the per-domain models are worth the reconciliation overhead.
AUTO_NODE_THRESHOLD = 64


@dataclass(frozen=True)
class SchedulingDomain:
    """One concurrently-scheduled slice of the cluster.

    Domains are node-disjoint and cover the whole cluster; each domain's
    cycle MILP draws supply exclusively from ``nodes``, which is what
    makes per-domain solves independent (and the union of their optima a
    feasible global schedule).
    """

    domain_id: int
    name: str
    nodes: frozenset[str]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise SchedulerError(
                f"scheduling domain {self.name!r} has no nodes")

    def __len__(self) -> int:
        return len(self.nodes)


#: A partition policy: ``(cluster, count) -> node groups`` (disjoint,
#: covering, in deterministic order).
PartitionPolicy = Callable[[Cluster, int], "list[frozenset[str]]"]

_POLICIES: dict[str, PartitionPolicy] = {}


def register_policy(name: str) -> Callable[[PartitionPolicy],
                                           PartitionPolicy]:
    """Register a domain-partitioning policy under ``name`` (decorator)."""
    def deco(fn: PartitionPolicy) -> PartitionPolicy:
        if name in _POLICIES:
            raise SchedulerError(f"partition policy {name!r} already "
                                 f"registered")
        _POLICIES[name] = fn
        return fn
    return deco


def partition_policies() -> tuple[str, ...]:
    """Names of the registered partition policies."""
    return tuple(sorted(_POLICIES))


@register_policy("racks")
def racks_policy(cluster: Cluster, count: int) -> list[frozenset[str]]:
    """Contiguous rack groups — the rack-aligned default.

    Racks are dealt to ``count`` domains in contiguous runs (domain 0 gets
    the first ``ceil(R/count)`` racks, and so on), so a domain is exactly
    the failure/locality unit the paper's MPI jobs prefer: a job with a
    rack-affine placement option almost always has its whole option inside
    one domain.  With ``count >= racks``, each rack is its own domain.
    """
    racks = cluster.rack_names
    count = max(1, min(count, len(racks)))
    base, extra = divmod(len(racks), count)
    groups: list[frozenset[str]] = []
    at = 0
    for i in range(count):
        take = base + (1 if i < extra else 0)
        members = racks[at:at + take]
        at += take
        nodes: set[str] = set()
        for rack in members:
            nodes |= cluster.rack_nodes(rack)
        groups.append(frozenset(nodes))
    return groups


def resolve_shard_count(shard_count: int, cluster: Cluster) -> int:
    """Concrete domain count for a config's ``shard_count``.

    ``0`` (the default) picks about :data:`DEFAULT_RACKS_PER_DOMAIN` racks
    per domain; explicit values are clamped to the rack count by the
    policy.  ``1`` degenerates to a single whole-cluster domain (whose
    cycle is bit-equal to the monolithic pipeline).
    """
    if shard_count > 0:
        return shard_count
    racks = len(cluster.rack_names)
    return max(1, racks // DEFAULT_RACKS_PER_DOMAIN)


def sharding_active(config, cluster: Cluster) -> bool:
    """Whether this (config, cluster) pair actually shards.

    ``shard_mode="racks"`` always shards; ``"auto"`` shards once the
    cluster reaches :data:`AUTO_NODE_THRESHOLD` nodes (below that the
    monolithic model plus component decomposition is faster than paying
    per-domain assignment and reconciliation).
    """
    if config.shard_mode == "racks":
        return True
    if config.shard_mode == "auto":
        return len(cluster) >= AUTO_NODE_THRESHOLD
    return False


class DomainPartitioner:
    """Splits a cluster into scheduling domains under a named policy.

    Example
    -------
    >>> from repro.cluster import Cluster
    >>> cluster = Cluster.build(racks=8, nodes_per_rack=4)
    >>> doms = DomainPartitioner(cluster).partition(2)
    >>> [(d.name, len(d)) for d in doms]
    [('dom0', 16), ('dom1', 16)]
    """

    def __init__(self, cluster: Cluster, policy: str = "racks") -> None:
        if policy not in _POLICIES:
            raise SchedulerError(
                f"unknown partition policy {policy!r}; registered: "
                f"{sorted(_POLICIES)}")
        self.cluster = cluster
        self.policy = policy

    def partition(self, count: int) -> list[SchedulingDomain]:
        """``count`` disjoint, covering domains in deterministic order."""
        groups = _POLICIES[self.policy](self.cluster, count)
        _check_partition(groups, self.cluster)
        return [SchedulingDomain(domain_id=i, name=f"dom{i}", nodes=nodes)
                for i, nodes in enumerate(groups)]


def _check_partition(groups: Iterable[frozenset[str]],
                     cluster: Cluster) -> None:
    """A policy's output must be a true partition of the node universe."""
    seen: set[str] = set()
    for nodes in groups:
        overlap = seen & nodes
        if overlap:
            raise SchedulerError(
                f"partition policy produced overlapping domains: "
                f"{sorted(overlap)[:4]}")
        seen |= nodes
    missing = cluster.node_names - seen
    if missing:
        raise SchedulerError(
            f"partition policy left nodes uncovered: {sorted(missing)[:4]}")
