"""Dynamic minimal partitioning of the cluster (Sec. 4.2, TR Appendix A).

Equivalence sets let jobs say "any k of these nodes" without enumerating the
``n choose k`` tuples.  The MILP only needs one integer *partition variable*
per (leaf, partition) pair, so the number of partitions directly controls
MILP size.  The paper's most important scalability optimization is
"dynamically partitioning cluster resources at the beginning of each cycle to
minimize the number of partition variables" (Sec. 7.3).

Given the set of equivalence sets referenced by the current batch, the
minimal partitioning groups nodes by their *membership signature* — which of
the equivalence sets each node belongs to.  Nodes with identical signatures
are interchangeable for every pending job and can share a partition.

Example: batch references {GPU nodes} and {rack r0}.  With GPUs on rack r0
only, the partitions are {gpu∩r0}, {r0 \\ gpu}, {rest}; every referenced
equivalence set is an exact union of partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import ClusterError


@dataclass(frozen=True)
class Partition:
    """A maximal group of nodes indistinguishable to the current batch."""

    pid: int
    nodes: frozenset[str]

    @property
    def capacity(self) -> int:
        return len(self.nodes)


class Partitioning:
    """Minimal partitioning induced by a family of equivalence sets.

    Parameters
    ----------
    universe:
        All node names in the cluster.
    equivalence_sets:
        The distinct equivalence sets referenced by the batch.  Sets must be
        subsets of ``universe``.

    Notes
    -----
    Nodes not referenced by any equivalence set share one "unreferenced"
    partition, which no leaf can draw from this cycle; it still exists so
    that capacity accounting covers the whole cluster.
    """

    def __init__(self, universe: frozenset[str],
                 equivalence_sets: Iterable[frozenset[str]]) -> None:
        eq_sets = []
        seen: set[frozenset[str]] = set()
        for es in equivalence_sets:
            if not es <= universe:
                raise ClusterError(
                    f"equivalence set has nodes outside the cluster: "
                    f"{sorted(es - universe)[:5]}")
            if es not in seen:
                seen.add(es)
                eq_sets.append(es)
        self.universe = universe
        self.equivalence_sets = eq_sets

        # Group nodes by membership signature: bit i set = in eq_sets[i].
        signature: dict[str, int] = {}
        for i, es in enumerate(eq_sets):
            bit = 1 << i
            for node in es:
                signature[node] = signature.get(node, 0) | bit
        # Walking the nodes in name order numbers the groups by their
        # smallest node and leaves each group's rows ascending.
        order = sorted(universe)
        groups: dict[int, list[int]] = {}
        for row, node in enumerate(order):
            groups.setdefault(signature.get(node, 0), []).append(row)

        self.partitions: list[Partition] = []
        #: Per node, in name order (``ClusterState.node_order``): its pid.
        self.node_pid = np.empty(len(order), dtype=np.int64)
        #: Per partition: the name-order positions of its nodes, ascending.
        self.rows: list[np.ndarray] = []
        pids_of: list[list[int]] = [[] for _ in eq_sets]
        for pid, (sig, rows) in enumerate(groups.items()):
            self.partitions.append(
                Partition(pid, frozenset(order[r] for r in rows)))
            self.rows.append(np.array(rows, dtype=np.int64))
            self.node_pid[rows] = pid
            for i in range(len(eq_sets)):
                if sig >> i & 1:
                    pids_of[i].append(pid)
        self._parts = {
            es: (tuple(pids), tuple(self.rows[p] for p in pids))
            for es, pids in zip(eq_sets, pids_of)}

    def parts_of(self, equivalence_set: frozenset[str]
                 ) -> tuple[tuple[int, ...], tuple[np.ndarray, ...]]:
        """``(pids, rows)`` of the partitions, in ascending pid order, whose
        union is exactly the given equivalence set.

        The set must have been passed at construction time — the partitioning
        is only minimal with respect to the declared family.
        """
        try:
            return self._parts[equivalence_set]
        except KeyError:
            raise ClusterError(
                "equivalence set was not declared when partitioning was built"
            ) from None

    def partitions_of(self, equivalence_set: frozenset[str]) -> tuple[Partition, ...]:
        """:meth:`parts_of` as :class:`Partition` objects."""
        return tuple(self.partitions[p]
                     for p in self.parts_of(equivalence_set)[0])

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def partition_of_node(self, name: str) -> Partition:
        for p in self.partitions:
            if name in p.nodes:
                return p
        raise ClusterError(f"node {name!r} not in universe")

    def __repr__(self) -> str:
        return (f"Partitioning(sets={len(self.equivalence_sets)}, "
                f"partitions={self.num_partitions}, "
                f"universe={len(self.universe)})")
